//! `ingest-mixed`: writes beside reads, then a crash.
//!
//! The default server over `wt` with a write-ahead journal (fsync on,
//! default checkpoint policy: every 64 mutations). A writer connection
//! ingests 12-row tables and, once eight are resident, removes the oldest
//! after every add, so the lake's size is stationary; it thinks 100 ms
//! after each reply. A reader connection searches closed loop over a
//! 16-spec pool until the writer is done. Then the journal and checkpoint
//! are copied while the server is still up — the crash image: only
//! acknowledged, fsync'd bytes count — the server is shut down, and
//! `Server::recover` boots from the copy.
//!
//! A commit-path gain that costs readers, or the reverse, shows here:
//! `datalake` (epoch commit, journal, checkpoint), `lsh` delta
//! maintenance and `core`'s informativeness rebuild dominate.
//!
//! Why `wt` and not the seven times larger `syn`: on `syn` one commit
//! costs the client 260 ms and one reader search 180 ms, so a run that
//! fits the time cap holds some 70 commits and 110 searches — too few
//! for a p90 and a p95. Every per-commit cost that grows with the corpus
//! (lake clone, LSEI clone, informativeness) grows with `wt` too.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use super::{
    pool_ops, search_metrics, search_over, set_up_repeatedly, Cfg, Outcome, SearchLog, SearchOp,
    N_QUERIES,
};
use crate::client::Conn;
use crate::rng::{Rng, Zipf};
use crate::stats;
use crate::sut::{self, Inputs, LakeKind, Reply, Service, Width};
use crate::trace::Tracer;

/// Mutations of a 12-second run.
const MUTATIONS: usize = 104;
/// Mutations of a traced run's socket pass.
const TRACED_MUTATIONS: usize = 60;
/// Commits replayed layer by layer, and handled without a socket.
const DECOMPOSED: usize = 16;
/// Commits at the head of those that run before the recorder is on.
const WARM_COMMITS: usize = 4;
/// Tables the writer keeps resident.
const RESIDENT: usize = 8;
/// The writer's pause after each acknowledged mutation.
const THINK: Duration = Duration::from_millis(100);
/// Specs the reader draws Zipf(1.0) from, and the recovery probes.
const POOL: usize = 16;

#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    Add { name: String, csv: String },
    Remove { name: String },
}

/// The writer's plan: adds until `RESIDENT` tables are in, then every add
/// is followed by the removal of the oldest.
pub fn plan(inputs: &Inputs, seed: u64, n: usize) -> Vec<Mutation> {
    let mut rng = Rng::new(seed, 0x1A6E);
    let mut plan = Vec::with_capacity(n);
    let (mut added, mut removed) = (0, 0);
    while plan.len() < n {
        plan.push(Mutation::Add {
            name: format!("ingest_{added:04}"),
            csv: inputs.ingest_csv(&mut rng),
        });
        added += 1;
        if added - removed > RESIDENT && plan.len() < n {
            plan.push(Mutation::Remove {
                name: format!("ingest_{removed:04}"),
            });
            removed += 1;
        }
    }
    plan
}

fn line(m: &Mutation) -> String {
    match m {
        Mutation::Add { name, csv } => sut::add_table_line(name, csv),
        Mutation::Remove { name } => sut::remove_table_line(name),
    }
}

fn wal_path(cfg: &Cfg, tag: &str) -> PathBuf {
    cfg.out.join(format!("ingest-{}-{tag}.wal", cfg.seed))
}

fn forget(wal: &Path) {
    let _ = std::fs::remove_file(wal);
    let _ = std::fs::remove_file(sut::checkpoint_path(wal));
}

struct Ready {
    service: Service,
    writer: Conn,
    reader: Conn,
    took: Duration,
}

/// Inputs in memory → first answer: link, index, boot over a fresh
/// journal, connect, answer one search. The rest of the pool follows
/// untimed, to warm the memo.
fn set_up(
    inputs: &Inputs,
    pool: &[SearchOp],
    wal: &Path,
    tr: &mut Tracer,
) -> Result<Ready, String> {
    forget(wal);
    let mut world = inputs.world();
    let start = Instant::now();
    tr.span("datalake.link", 0, |_| world.link());
    tr.span("datalake.index", 0, |_| world.index());
    let service = tr.span("serve.boot", 0, |_| world.boot(None, Some(wal)))?;
    let writer = Conn::connect(service.addr())?;
    let mut reader = Conn::connect(service.addr())?;
    search_over(&mut reader, inputs, &pool[0]).0?;
    let took = start.elapsed();
    for op in &pool[1..] {
        search_over(&mut reader, inputs, op).0?;
    }
    Ok(Ready {
        service,
        writer,
        reader,
        took,
    })
}

struct Mixed {
    commit_ms: Vec<f64>,
    /// Epoch of the last acknowledged mutation.
    acked_epoch: u64,
    reader: SearchLog,
    wall: Duration,
}

/// The writer runs its plan while the reader searches; both closed loop.
fn mixed(
    inputs: &Inputs,
    seed: u64,
    pool: &[SearchOp],
    writer: &mut Conn,
    reader: &mut Conn,
    plan: &[Mutation],
    out: &mut Outcome,
) -> Mixed {
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (written, log) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let zipf = Zipf::new(POOL, 1.0);
            let mut rng = Rng::new(seed, 0x5EAD);
            let mut log = SearchLog::default();
            while !done.load(Ordering::Acquire) {
                let op = &pool[zipf.sample(&mut rng)];
                let (reply, took) = search_over(reader, inputs, op);
                log.reply(inputs, op, took, &reply);
            }
            log
        });
        let mut commit_ms = Vec::with_capacity(plan.len());
        let mut acked_epoch = 0;
        let mut failures = Vec::new();
        for (i, m) in plan.iter().enumerate() {
            match writer
                .call(&line(m))
                .map(|(r, took)| (Reply::decode(r), took))
            {
                Ok((Ok(reply), took)) if reply.ok => {
                    commit_ms.push(took.as_secs_f64() * 1e3);
                    acked_epoch = reply.epoch;
                }
                other => failures.push(format!("mutation {i} not acknowledged: {other:?}")),
            }
            std::thread::sleep(THINK);
        }
        done.store(true, Ordering::Release);
        let log = reading.join().expect("the reader thread panicked");
        ((commit_ms, acked_epoch, failures), log)
    });
    let wall = start.elapsed();
    let (commit_ms, acked_epoch, failures) = written;
    out.attempted += plan.len() as u64;
    for f in failures {
        out.fail(f);
    }
    Mixed {
        commit_ms,
        acked_epoch,
        reader: log,
        wall,
    }
}

fn probes(
    conn: &mut Conn,
    inputs: &Inputs,
    pool: &[SearchOp],
) -> Result<Vec<Vec<(u64, u64)>>, String> {
    pool.iter()
        .map(|op| search_over(conn, inputs, op).0.map(|r| r.ranked))
        .collect()
}

/// Copies journal and checkpoint as a crash would leave them and boots a
/// server from the copy; checks it against what was acknowledged before.
/// Returns the time from `Server::recover` to the first answered search.
fn crash_and_recover(
    cfg: &Cfg,
    inputs: &Inputs,
    pool: &[SearchOp],
    live: Ready,
    wal: &Path,
    acked_epoch: u64,
    out: &mut Outcome,
) -> Result<(Duration, PathBuf, Duration), String> {
    let Ready {
        service,
        writer,
        mut reader,
        ..
    } = live;
    let before = probes(&mut reader, inputs, pool)?;
    let image = wal_path(cfg, "crash");
    forget(&image);
    let copy = |from: &Path, to: &Path| {
        std::fs::copy(from, to)
            .map(|_| ())
            .map_err(|e| format!("copying {}: {e}", from.display()))
    };
    copy(wal, &image)?;
    if sut::checkpoint_path(wal).exists() {
        copy(&sut::checkpoint_path(wal), &sut::checkpoint_path(&image))?;
    }
    drop((writer, reader));
    let drain = service.shutdown();

    let mut base = inputs.world();
    base.link();
    base.index();
    let start = Instant::now();
    let (recovered, epoch) = base.recover(&image)?;
    let mut conn = Conn::connect(recovered.addr())?;
    let first = search_over(&mut conn, inputs, &pool[0]).0?;
    let took = start.elapsed();

    out.attempted += 1 + POOL as u64;
    if epoch != acked_epoch || first.epoch != acked_epoch {
        out.fail(format!(
            "recovered to epoch {epoch} (first search saw {}), last acknowledged epoch was {acked_epoch}",
            first.epoch
        ));
    }
    let after = probes(&mut conn, inputs, pool)?;
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        if b != a {
            out.fail(format!("probe {i}: ranking differs after recovery"));
        }
    }
    drop(conn);
    recovered.shutdown();
    Ok((took, image, drain))
}

pub fn run(cfg: &Cfg) -> Outcome {
    sut::set_obs(true);
    let mut out = Outcome::default();
    let result = if cfg.trace {
        traced(cfg, &mut out)
    } else {
        untraced(cfg, &mut out)
    };
    if let Err(e) = result {
        out.attempted += 1;
        out.fail(format!("ingest-mixed: {e}"));
    }
    out
}

fn commit_metrics(out: &mut Outcome, commit_ms: &[f64], recover: Duration) {
    if commit_ms.is_empty() {
        return;
    }
    let sorted = stats::sorted(commit_ms.to_vec());
    if stats::supported_percentile(sorted.len()) < Some(90) {
        out.notes.push(format!(
            "ingest.commit_p90_ms rests on {} samples; fewer than ten lie beyond it",
            sorted.len()
        ));
    }
    out.set("ingest.commit_p50_ms", stats::percentile(&sorted, 50));
    out.set("ingest.commit_p90_ms", stats::percentile(&sorted, 90));
    out.set("ingest.recover_s", recover.as_secs_f64());
}

fn untraced(cfg: &Cfg, out: &mut Outcome) -> Result<(), String> {
    let inputs = Inputs::generate(LakeKind::Wt, N_QUERIES);
    let pool = pool_ops(POOL);
    let plan = plan(&inputs, cfg.seed, cfg.ops(MUTATIONS));
    let wal = wal_path(cfg, "live");

    let set_up = || {
        set_up(&inputs, &pool, &wal, &mut Tracer::disabled()).map(|r| {
            let took = r.took;
            (r, took)
        })
    };
    let (mut live, setup_s) = set_up_repeatedly(cfg, set_up, |r| {
        drop((r.writer, r.reader));
        r.service.shutdown();
    })?;
    out.set("setup_s", setup_s);

    let run = mixed(
        &inputs,
        cfg.seed,
        &pool,
        &mut live.writer,
        &mut live.reader,
        &plan,
        out,
    );
    let (recover, image, _) =
        crash_and_recover(cfg, &inputs, &pool, live, &wal, run.acked_epoch, out)?;
    forget(&wal);
    forget(&image);

    out.exact = vec![
        ("mutations", run.commit_ms.len() as u64),
        ("acked_epoch", run.acked_epoch),
    ];
    commit_metrics(out, &run.commit_ms, recover);
    search_metrics(out, &[run.reader], run.wall);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    Ok(())
}

fn traced(cfg: &Cfg, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::recording();
    let inputs = tr.span("corpus.generate", 0, |_| {
        Inputs::generate(LakeKind::Wt, N_QUERIES)
    });
    out.set("corpus.tables", inputs.tables() as f64);
    out.set("corpus.rows", inputs.rows() as f64);
    let pool = pool_ops(POOL);
    let wal = wal_path(cfg, "live");
    let mut live = set_up(&inputs, &pool, &wal, &mut tr)?;

    // Over the socket, tracing off: client-observed commits next to
    // reads, what the wire adds, and what commits do to the memo.
    let socket_plan = plan(&inputs, cfg.seed, cfg.ops(TRACED_MUTATIONS));
    let run = mixed(
        &inputs,
        cfg.seed,
        &pool,
        &mut live.writer,
        &mut live.reader,
        &socket_plan,
        out,
    );
    out.attempted += run.reader.issued;
    out.failed += run.reader.failed;
    let overhead: Vec<f64> = run
        .reader
        .latency_ms
        .iter()
        .zip(&run.reader.server_ms)
        .map(|(client, server)| client - server)
        .collect();
    out.set("serve.wire_overhead_ms", stats::median(&overhead));
    out.set("serve.micros_ms", stats::median(&run.reader.server_ms));

    // `Server::handle` of the same kind of mutation, no socket. These
    // commits are acknowledged too, so the crash image must hold them.
    let handled = plan_after(
        &inputs,
        cfg.seed,
        &socket_plan,
        (cfg.ops(DECOMPOSED) + WARM_COMMITS) * 2,
    );
    let mut handle_ms = Vec::new();
    let mut acked_epoch = run.acked_epoch;
    for m in &handled {
        let (reply, took) = live.service.handle(&Service::decode(&line(m)));
        out.attempted += 1;
        if !reply.ok {
            out.fail(format!("handle({m:?}) failed"));
            continue;
        }
        acked_epoch = reply.epoch;
        if matches!(m, Mutation::Add { .. }) {
            handle_ms.push(took.as_secs_f64() * 1e3);
        }
    }
    out.set("serve.commit_handle_ms", stats::median(&handle_ms));
    let memo = live.service.stats();
    out.set(
        "serve.memo_hit_rate",
        stats::mean(&run.reader.sigma_hit_rate),
    );
    out.set("serve.memo_evictions", memo.memo_evictions as f64);
    out.set("serve.memo_invalidations", memo.memo_invalidations as f64);
    out.set("serve.shed", memo.shed as f64);
    out.set("serve.degraded", memo.degraded as f64);

    let (recover, image, drain) =
        crash_and_recover(cfg, &inputs, &pool, live, &wal, acked_epoch, out)?;
    out.set("serve.drain_s", drain.as_secs_f64());
    commit_metrics(out, &run.commit_ms, recover);
    if sut::checkpoint_path(&image).exists() {
        let (read, replay, records) = sut::replay(&sut::checkpoint_path(&image), &image);
        out.set("datalake.read_checkpoint_ms", read.as_secs_f64() * 1e3);
        out.set("datalake.replay_ms", replay.as_secs_f64() * 1e3);
        out.set("datalake.replay_records", records as f64);
    }
    forget(&wal);
    forget(&image);

    // The commit path as separate public calls, each a span.
    let mut world = inputs.world();
    world.link();
    world.index();
    let mut layers = world.layers(None, &mut tr);
    let journal_path = wal_path(cfg, "layers");
    forget(&journal_path);
    let mut journal = sut::Journal::open(&journal_path);
    let probe = inputs.spec(Width::One, 0);
    let mut resident = std::collections::VecDeque::new();
    let mut journaled = Vec::new();
    let mut off = Tracer::disabled();
    let adds = handled.iter().filter_map(|m| match m {
        Mutation::Add { name, csv } => Some((name, csv)),
        Mutation::Remove { .. } => None,
    });
    for (i, (name, csv)) in adds.enumerate() {
        // The first commits fault fresh pages in; they run unrecorded.
        let tr = if i < WARM_COMMITS { &mut off } else { &mut tr };
        let op = 2 * i as u64;
        resident.push_back(layers.tables());
        journaled.push(layers.add_table(name, csv, &mut journal, op + 1, tr) as f64);
        if resident.len() > RESIDENT {
            let oldest = resident.pop_front().expect("a resident table");
            layers.remove_table(oldest, &probe, op + 2, tr);
        }
    }
    let checkpoint = sut::checkpoint_path(&journal_path);
    let bytes = tr.span("datalake.checkpoint", 0, |_| layers.checkpoint(&checkpoint));
    drop(journal);
    forget(&journal_path);
    out.set("datalake.checkpoint_bytes", bytes as f64);
    out.set("datalake.wal_bytes_per_commit", stats::median(&journaled));

    out.set_spans(
        &tr,
        &[
            ("corpus.generate_s", "corpus.generate", 1e-3),
            ("datalake.link_s", "datalake.link", 1e-3),
            ("datalake.index_s", "datalake.index", 1e-3),
            ("serve.boot_s", "serve.boot", 1e-3),
            ("lsh.build_s", "lsh.build", 1e-3),
            ("datalake.commit_ms", "datalake.commit", 1.0),
            ("datalake.wal_append_ms", "datalake.wal_append", 1.0),
            ("datalake.checkpoint_ms", "datalake.checkpoint", 1.0),
            ("lsh.clone_ms", "lsh.clone", 1.0),
            ("lsh.insert_us", "lsh.insert", 1e3),
            ("lsh.remove_us", "lsh.remove", 1e3),
            (
                "lsh.first_prefilter_after_mutation_us",
                "lsh.first_prefilter",
                1e3,
            ),
            ("core.informativeness_ms", "core.informativeness", 1.0),
        ],
    );
    // What `Server::handle(add_table)` spends outside the layer calls
    // the replay names.
    let named: f64 = [
        "datalake.parse_link",
        "lsh.clone",
        "lsh.insert",
        "datalake.wal_append",
        "datalake.commit",
        "core.informativeness",
    ]
    .iter()
    .map(|span| tr.median(span, 1.0))
    .sum();
    out.set(
        "serve.commit_unattributed_share",
        1.0 - named / stats::median(&handle_ms),
    );
    out.traced(tr);
    Ok(())
}

/// `n` more mutations continuing `done` — same plan, later part — so
/// table names stay unique and the resident set stays at eight.
fn plan_after(inputs: &Inputs, seed: u64, done: &[Mutation], n: usize) -> Vec<Mutation> {
    plan(inputs, seed, done.len() + n).split_off(done.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_keeps_eight_tables_resident() {
        let inputs = Inputs::generate(LakeKind::Wt, 4);
        let a = plan(&inputs, 7, 40);
        assert_eq!(a, plan(&inputs, 7, 40), "same seed, same plan");
        assert_ne!(a, plan(&inputs, 8, 40), "another seed, another plan");
        assert_eq!(a.len(), 40);

        let mut resident = 0usize;
        let mut peak = 0;
        for m in &a {
            match m {
                Mutation::Add { csv, .. } => {
                    assert_eq!(csv.lines().count(), 13, "header and twelve rows");
                    assert!(csv.lines().all(|l| l.split(',').count() == 3));
                    resident += 1;
                }
                Mutation::Remove { .. } => resident -= 1,
            }
            peak = peak.max(resident);
        }
        assert_eq!(peak, RESIDENT + 1, "one over, then the oldest goes");
        assert_eq!(plan_after(&inputs, 7, &a[..10], 30), a[10..].to_vec());
    }
}
