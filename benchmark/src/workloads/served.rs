//! The two read-only served workloads. Both boot `Server::new` + `serve()`
//! on loopback with `ServerConfig::default()` (LSEI on, votes 1, one
//! scoring thread, memo capacity 2²⁰) and talk to it over persistent
//! connections, closed loop: a caller sends its next search when the last
//! one is answered, as a notebook or a pipeline calling the service does.
//!
//! * `lsei-embed` — `syn`, embedding σ, one connection, every query new.
//!   The LSEI removes most of 17k tables, so `lsh` reduction decides
//!   latency and the `embedding` σ kernels carry the scoring; queries
//!   never repeat, so the shared memo's working set outgrows its
//!   capacity: the cache-does-not-fit case.
//! * `serve-hot` — `wt`, type σ, two connections drawing Zipf(1.0) from a
//!   pool of 16 one-tuple specs. The memo fits and stays hot, so σ costs
//!   next to nothing and what remains is `serve` (read, parse, admission,
//!   encode, socket write), the `datalake` pin, memo probes and `obs`
//!   retention — the layers `scan-cold` never touches, and the memo's
//!   other use (shared, warm, contended) beside `scan-cold`'s (owned,
//!   cold).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use super::scan_cold::core_metrics;
use super::{
    distinct_schedule, pool_ops, sample_indices, search_metrics, search_over, set_up_repeatedly,
    warm_up_ops, Cfg, Outcome, SearchLog, SearchOp, CHECKED, N_QUERIES,
};
use crate::client::Conn;
use crate::rng::{Rng, Zipf};
use crate::stats::{self, RankDigest};
use crate::sut::{self, Embeddings, Inputs, LakeKind, Service};
use crate::trace::Tracer;

pub struct Served {
    pub name: &'static str,
    lake: LakeKind,
    embeddings: bool,
    connections: usize,
    /// Timed searches per connection of a 12-second run.
    timed: usize,
    /// Searches of each pass of a traced run.
    traced: usize,
    /// Size of the spec pool callers draw Zipf(1.0) from; `None` issues
    /// every query once.
    pool: Option<usize>,
}

pub const LSEI_EMBED: Served = Served {
    name: "lsei-embed",
    lake: LakeKind::Syn,
    embeddings: true,
    connections: 1,
    timed: 200,
    traced: 45,
    pool: None,
};

pub const SERVE_HOT: Served = Served {
    name: "serve-hot",
    lake: LakeKind::Wt,
    embeddings: false,
    connections: 2,
    timed: 240,
    traced: 120,
    pool: Some(16),
};

/// What a run issues: `passes` schedules of equal length (one per
/// connection, or per pass of a traced run), the untimed warm-up that
/// closes a set-up, and the query pairs to generate for all of it.
struct Plan {
    pairs: usize,
    passes: Vec<Vec<SearchOp>>,
    warm: Vec<SearchOp>,
}

impl Served {
    fn plan(&self, cfg: &Cfg, n: usize, passes: usize) -> Plan {
        match self.pool {
            // Every caller draws from the pool on a stream of its own;
            // the pool, issued once, is the warm-up.
            Some(pool) => {
                let zipf = Zipf::new(pool, 1.0);
                let warm = pool_ops(pool);
                Plan {
                    pairs: N_QUERIES,
                    passes: (0..passes)
                        .map(|p| {
                            let mut rng = Rng::new(cfg.seed, p as u64 + 1);
                            (0..n)
                                .map(|_| warm[zipf.sample(&mut rng)].clone())
                                .collect()
                        })
                        .collect(),
                    warm,
                }
            }
            // One never-repeating schedule, cut into the passes, and a
            // few warm-up searches from the query pairs after theirs.
            None => {
                let all = distinct_schedule(n * passes, cfg.seed);
                Plan {
                    pairs: N_QUERIES.max(n * passes + 4),
                    passes: all.chunks(n).map(<[_]>::to_vec).collect(),
                    warm: warm_up_ops(n * passes, 4),
                }
            }
        }
    }
}

/// One reply's `(table id, score bits)` pairs, best first.
type Ranking = Vec<(u64, u64)>;

struct Ready {
    service: Service,
    conns: Vec<Conn>,
    store: Option<Embeddings>,
    took: Duration,
}

impl Ready {
    fn close(self) {
        drop(self.conns);
        self.service.shutdown();
    }
}

/// Inputs in memory → first answer: link, index, train embeddings where
/// the σ needs them, boot (LSEI and informativeness build inside
/// `Server::new`), connect, answer one search (whatever is built lazily
/// on first use is paid here). The rest of the warm-up follows untimed.
fn set_up(
    w: &Served,
    inputs: &Inputs,
    warm: &[SearchOp],
    tr: &mut Tracer,
) -> Result<Ready, String> {
    let mut world = inputs.world();
    let start = Instant::now();
    tr.span("datalake.link", 0, |_| world.link());
    tr.span("datalake.index", 0, |_| world.index());
    let store = w
        .embeddings
        .then(|| tr.span("embedding.train", 0, |_| world.train()));
    let service = tr.span("serve.boot", 0, |_| world.boot(store.clone(), None))?;
    let mut conns = (0..w.connections)
        .map(|_| Conn::connect(service.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    search_over(&mut conns[0], inputs, &warm[0]).0?;
    let took = start.elapsed();
    for op in &warm[1..] {
        search_over(&mut conns[0], inputs, op).0?;
    }
    Ok(Ready {
        service,
        conns,
        store,
        took,
    })
}

/// Every connection runs its schedule on a thread of its own, all
/// released together; returns each one's log and replies, and the wall
/// time from release to the last reply.
fn drive(
    inputs: &Inputs,
    conns: &mut [Conn],
    schedules: &[Vec<SearchOp>],
) -> (Vec<(SearchLog, Vec<Ranking>)>, Duration) {
    let gate = Barrier::new(conns.len() + 1);
    std::thread::scope(|scope| {
        let callers: Vec<_> = conns
            .iter_mut()
            .zip(schedules)
            .map(|(conn, schedule)| {
                let gate = &gate;
                scope.spawn(move || {
                    let mut log = SearchLog::default();
                    let mut ranked = Vec::with_capacity(schedule.len());
                    gate.wait();
                    for op in schedule {
                        let (reply, took) = search_over(conn, inputs, op);
                        log.reply(inputs, op, took, &reply);
                        ranked.push(reply.map(|r| r.ranked).unwrap_or_default());
                    }
                    (log, ranked)
                })
            })
            .collect();
        gate.wait();
        let start = Instant::now();
        let done = callers
            .into_iter()
            .map(|c| c.join().expect("a caller thread panicked"))
            .collect();
        (done, start.elapsed())
    })
}

pub fn run(w: &Served, cfg: &Cfg) -> Outcome {
    // The shipped service (`thetis-cli serve`) runs with the metrics
    // registry on; so does the benchmark's.
    sut::set_obs(true);
    let mut out = Outcome::default();
    let result = if cfg.trace {
        traced(w, cfg, &mut out)
    } else {
        untraced(w, cfg, &mut out)
    };
    if let Err(e) = result {
        out.attempted += 1;
        out.fail(format!("{}: {e}", w.name));
    }
    out
}

fn untraced(w: &Served, cfg: &Cfg, out: &mut Outcome) -> Result<(), String> {
    let Plan {
        pairs,
        passes: schedules,
        warm,
    } = w.plan(cfg, cfg.ops(w.timed), w.connections);
    let inputs = Inputs::generate(w.lake, pairs);

    let set_up = || {
        set_up(w, &inputs, &warm, &mut Tracer::disabled()).map(|r| {
            let took = r.took;
            (r, took)
        })
    };
    let (ready, setup_s) = set_up_repeatedly(cfg, set_up, Ready::close)?;
    out.set("setup_s", setup_s);
    let Ready {
        service,
        mut conns,
        store,
        ..
    } = ready;

    let (done, wall) = drive(&inputs, &mut conns, &schedules);

    // Served score bits must equal the in-process engine's.
    let mut reference = inputs.world();
    reference.link();
    reference.index();
    let layers = reference.layers(store.as_ref(), &mut Tracer::disabled());
    for i in sample_indices(schedules[0].len(), CHECKED) {
        let op = &schedules[0][i];
        out.attempted += 1;
        if layers.answer(&inputs.spec(op.width, op.index)).ranked != done[0].1[i] {
            out.fail(format!(
                "query {i} ({op:?}): served and in-process rankings differ"
            ));
        }
    }

    // What the workload is for: a memo that stays hot, or one that
    // does not fit. Unmet, the numbers still stand but mean less.
    let evictions = service.stats().memo_evictions;
    let hits: Vec<f64> = done
        .iter()
        .flat_map(|d| d.0.sigma_hit_rate.clone())
        .collect();
    let premise = match w.pool {
        Some(_) => stats::mean(&hits) >= 0.95 && evictions == 0,
        None => evictions > 0,
    };
    if !premise && !cfg.quick {
        out.notes.push(format!(
            "workload premise unmet: memo hit rate {:.3}, {evictions} evictions",
            stats::mean(&hits)
        ));
    }
    drop(conns);
    service.shutdown();

    let logs: Vec<SearchLog> = done.into_iter().map(|d| d.0).collect();
    let mut digest = RankDigest::default();
    for log in &logs {
        digest.merge(&log.digest);
    }
    out.rank_digest = Some(digest.hex());
    out.exact = vec![
        ("searches", logs.iter().map(|l| l.issued).sum()),
        ("candidates", logs.iter().map(|l| l.candidates).sum()),
        ("tables_scored", logs.iter().map(|l| l.tables_scored).sum()),
    ];
    search_metrics(out, &logs, wall);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    Ok(())
}

/// `Server::handle` without a socket, once per op; milliseconds.
fn handle(service: &Service, inputs: &Inputs, op: &SearchOp, out: &mut Outcome) -> f64 {
    let req = Service::decode(&sut::search_line(&inputs.spec(op.width, op.index)));
    let (reply, took) = service.handle(&req);
    out.attempted += 1;
    if !reply.ok || reply.degraded {
        out.fail(format!("handle({op:?}) failed or degraded"));
    }
    took.as_secs_f64() * 1e3
}

fn traced(w: &Served, cfg: &Cfg, out: &mut Outcome) -> Result<(), String> {
    let mut tr = Tracer::recording();
    let Plan {
        pairs,
        passes,
        warm,
    } = w.plan(cfg, cfg.ops(w.traced), w.connections + 1);
    let (schedule, fresh) = (&passes[0], &passes[w.connections]);
    let inputs = tr.span("corpus.generate", 0, |_| Inputs::generate(w.lake, pairs));
    out.set("corpus.tables", inputs.tables() as f64);
    out.set("corpus.rows", inputs.rows() as f64);
    let Ready {
        service,
        mut conns,
        store,
        ..
    } = set_up(w, &inputs, &warm, &mut tr)?;

    // Over the socket, tracing off: what the wire adds to the server's
    // own `micros`, and how often the memo answered.
    let (done, _) = drive(&inputs, &mut conns, &passes[..w.connections]);
    let (mut overhead, mut hits) = (Vec::new(), Vec::new());
    for (log, _) in &done {
        out.attempted += log.issued;
        out.failed += log.failed;
        let pairs = log.latency_ms.iter().zip(&log.server_ms);
        overhead.extend(pairs.map(|(client, server)| client - server));
        hits.extend(&log.sigma_hit_rate);
    }
    out.set("serve.wire_overhead_ms", stats::median(&overhead));
    let served_ms: Vec<f64> = done.iter().flat_map(|d| d.0.server_ms.clone()).collect();
    out.set("serve.micros_ms", stats::median(&served_ms));
    out.set("serve.memo_hit_rate", stats::mean(&hits));

    // `Server::handle` without the socket, on queries the memo has not
    // seen where queries never repeat. On the hot workload every request
    // is handled twice, metrics registry off and on, taking turns to go
    // first: the difference is what always-on observability costs it.
    let mut on_ms = Vec::new();
    if w.pool.is_some() {
        let mut off_ms = Vec::new();
        for (i, op) in fresh.iter().enumerate() {
            for registry_on in [i % 2 == 1, i % 2 == 0] {
                sut::set_obs(registry_on);
                let ms = handle(&service, &inputs, op, out);
                if registry_on { &mut on_ms } else { &mut off_ms }.push(ms);
            }
        }
        sut::set_obs(true);
        out.set(
            "obs.tax_share",
            stats::median(&on_ms) / stats::median(&off_ms) - 1.0,
        );
    } else {
        on_ms.extend(fresh.iter().map(|op| handle(&service, &inputs, op, out)));
    }
    out.set("serve.handle_ms", stats::median(&on_ms));
    let counters = service.stats();
    out.set("serve.memo_evictions", counters.memo_evictions as f64);
    out.set(
        "serve.memo_invalidations",
        counters.memo_invalidations as f64,
    );
    out.set("serve.shed", counters.shed as f64);
    out.set("serve.degraded", counters.degraded as f64);
    out.set("lsh.clone_ms", service.lsei_clone().as_secs_f64() * 1e3);
    drop(conns);
    out.set("serve.drain_s", service.shutdown().as_secs_f64());

    // The request path as separate public calls, each op twice: recorder
    // off and on.
    let mut world = inputs.world();
    world.link();
    world.index();
    let layers = world.layers(store.as_ref(), &mut tr);
    let lines: Vec<String> = schedule
        .iter()
        .map(|op| sut::search_line(&inputs.spec(op.width, op.index)))
        .collect();
    let mut off = Tracer::disabled();
    let mut replay = SearchLog::default();
    let (mut candidates, mut reduction) = (0, 0.0);
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for (i, (op, line)) in schedule.iter().zip(&lines).enumerate() {
        // Off and on take turns to go first, as above.
        for recording in [i % 2 == 1, i % 2 == 0] {
            let start = Instant::now();
            if recording {
                let (answer, pre) = layers.search(line, i as u64 + 1, &mut tr);
                let took = start.elapsed();
                traced_ms.push(took.as_secs_f64() * 1e3);
                replay.answer(&inputs, op, took, &answer);
                candidates += pre.candidates;
                reduction += pre.reduction;
            } else {
                layers.search(line, 0, &mut off);
                untraced_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    out.attempted += replay.issued;
    out.failed += replay.failed;
    let snapshot = cfg.out.join(format!("{}.lsei", w.name));
    let (bytes, save, load) = layers.lsei_roundtrip(&snapshot);
    let _ = std::fs::remove_file(&snapshot);
    out.set("lsh.snapshot_bytes", bytes as f64);
    out.set("lsh.save_ms", save.as_secs_f64() * 1e3);
    out.set("lsh.load_ms", load.as_secs_f64() * 1e3);

    if let Some(store) = &store {
        let mut slab = 0;
        for (metric, kernel) in [
            ("embedding.sigma_ns_per_pair.f64", "f64"),
            ("embedding.sigma_ns_per_pair.f32", "f32"),
            ("embedding.sigma_ns_per_pair.i8", "i8"),
        ] {
            let (ns, bytes) = store.sigma_ns_per_pair(kernel);
            out.set(metric, ns);
            slab += bytes;
        }
        out.set("embedding.slab_bytes", slab as f64);
    }

    let ops = schedule.len() as f64;
    out.set_spans(
        &tr,
        &[
            ("corpus.generate_s", "corpus.generate", 1e-3),
            ("datalake.link_s", "datalake.link", 1e-3),
            ("datalake.index_s", "datalake.index", 1e-3),
            ("embedding.train_s", "embedding.train", 1e-3),
            ("serve.boot_s", "serve.boot", 1e-3),
            ("lsh.build_s", "lsh.build", 1e-3),
            ("core.informativeness_ms", "core.informativeness", 1.0),
            ("serve.parse_us", "serve.parse", 1e3),
            ("datalake.pin_ns", "datalake.pin", 1e6),
            ("core.engine_new_us", "core.engine_new", 1e3),
            ("lsh.prefilter_us", "lsh.prefilter", 1e3),
            ("core.search_among_ms", "core.search_among", 1.0),
            ("serve.encode_us", "serve.encode", 1e3),
        ],
    );
    out.set("lsh.candidates_per_query", candidates as f64 / ops);
    out.set("lsh.reduction", reduction / ops);
    let among_ms: f64 = tr.durations_ms("core.search_among").iter().sum();
    core_metrics(out, &replay, ops, among_ms);
    out.set(
        "trace_overhead_share",
        stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0,
    );
    out.traced(tr);
    Ok(())
}
