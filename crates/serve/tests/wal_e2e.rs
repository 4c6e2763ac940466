//! Chaos tests of the durability layer, end to end over real TCP: crash
//! recovery from a copied-at-"crash-time" journal, torn-tail truncation,
//! injected `wal.*` faults failing mutations closed, checkpoint-failure
//! health rungs, and the graceful-drain shutdown checkpoint.
//!
//! The crash simulation copies the journal and checkpoint files while the
//! victim server is still running: every acknowledged mutation is fsync'd
//! before its response is sent, so the copies are exactly the bytes a
//! `kill -9` at that instant would leave behind. The fault plan is
//! process-global, so every test serializes on [`SERIAL`].

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;

use thetis_corpus::{Benchmark, BenchmarkConfig, BenchmarkKind};
use thetis_datalake::{DataLake, EntityLinker, ExactLabelLinker};
use thetis_kg::KnowledgeGraph;
use thetis_obs::faults::{self, FaultPlan};
use thetis_serve::{serve, Request, Response, RunningServer, Server, ServerConfig};

/// Serializes every test in this binary: the fault plan is process-global.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarms the fault plan when dropped, so a failing assertion cannot leak
/// an armed plan into the next test.
struct FaultGuard;

impl Drop for FaultGuard {
    fn drop(&mut self) {
        faults::disarm();
    }
}

/// The demo world, exactly as `thetis-cli --demo` constructs it. The base
/// lake epoch is deterministic across calls, so two worlds built here are
/// interchangeable recovery substrates.
fn demo_world() -> (KnowledgeGraph, DataLake, Vec<String>) {
    let bench = Benchmark::build(&BenchmarkConfig::tiny(BenchmarkKind::Wt2015));
    let graph = bench.kg.graph;
    let mut lake = bench.lake;
    ExactLabelLinker::new(&graph).link_lake(&mut lake);
    let specs = bench
        .queries1
        .iter()
        .chain(bench.queries5.iter())
        .map(|q| {
            q.tuples
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|&e| graph.label(e).to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                })
                .collect::<Vec<_>>()
                .join(";")
        })
        .collect();
    (graph, lake, specs)
}

fn start(config: ServerConfig) -> (RunningServer, Vec<String>) {
    let (graph, lake, specs) = demo_world();
    let server = Server::new(graph, lake, None, config);
    (serve(server).unwrap(), specs)
}

/// One request over its own connection, like an independent client.
fn send(addr: std::net::SocketAddr, req: &Request) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut line = serde_json::to_string(req).unwrap();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    serde_json::from_str(&reply).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("thetis-wal-e2e-{}-{tag}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("ckpt"));
    path
}

/// Adds a tiny inline-CSV table through the mutation path.
fn add_table(addr: std::net::SocketAddr, name: &str) -> Response {
    let mut add = Request::op("add_table");
    add.name = Some(name.into());
    add.csv = Some(format!("col_a,col_b\n{name}_alpha,{name}_beta\n"));
    send(addr, &add)
}

/// Ranked `(table, score_bits)` pairs for each spec — the bit-identity
/// currency of every recovery assertion.
fn rankings(addr: std::net::SocketAddr, specs: &[String]) -> Vec<Vec<(u64, u64)>> {
    specs
        .iter()
        .map(|spec| {
            let resp = send(addr, &Request::search(spec));
            assert!(resp.is_ok(), "search failed: {resp:?}");
            resp.ranked
                .as_deref()
                .unwrap()
                .iter()
                .map(|h| (h.table, h.score_bits))
                .collect()
        })
        .collect()
}

/// Copies the journal and its checkpoint sibling to a new path pair,
/// simulating the on-disk state a `kill -9` would leave behind.
fn snapshot_disk_state(wal: &PathBuf, tag: &str) -> PathBuf {
    let copy = temp_path(tag);
    std::fs::copy(wal, &copy).unwrap();
    let ckpt = wal.with_extension("ckpt");
    if ckpt.exists() {
        std::fs::copy(&ckpt, copy.with_extension("ckpt")).unwrap();
    }
    copy
}

/// Boots a recovered server from the given journal path.
fn recover(wal: PathBuf, config: ServerConfig) -> (RunningServer, thetis_serve::RecoveryReport) {
    let (graph, lake, _) = demo_world();
    let (server, report) = Server::recover(
        graph,
        lake,
        None,
        ServerConfig {
            wal: Some(wal),
            ..config
        },
    )
    .expect("recovery must not fail");
    (serve(server).unwrap(), report)
}

fn cleanup(paths: &[&PathBuf]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(p.with_extension("ckpt"));
    }
}

/// The acceptance scenario: a journaled server takes mutations past a
/// checkpoint boundary, "crashes" (its disk state is copied mid-flight),
/// and the recovered server reports the exact epoch and answers every
/// query bit-identically to the never-crashed original.
#[test]
fn recovered_server_matches_the_never_crashed_original_bit_for_bit() {
    let _g = serial();
    faults::disarm();
    let wal = temp_path("crash-live");
    let (running, specs) = start(ServerConfig {
        wal: Some(wal.clone()),
        checkpoint_every: 3,
        ..ServerConfig::default()
    });
    let addr = running.addr();
    let report = running.server().recovery().clone();
    assert!(report.wal_enabled);
    assert_eq!(report.replayed, 0, "a fresh journal replays nothing");

    // Five mutations: the third triggers a checkpoint + rotation, so the
    // journal holds exactly the last two records at "crash time".
    let epoch0 = running.server().epoch();
    for i in 0..5 {
        let resp = add_table(addr, &format!("crash_t{i}"));
        assert!(resp.is_ok(), "add_table failed: {resp:?}");
        assert_eq!(resp.epoch, Some(epoch0 + i + 1));
    }
    let probe: Vec<String> = specs.iter().take(4).cloned().collect();
    let want = rankings(addr, &probe);

    // kill -9: the copies are the fsync'd on-disk state, mid-journal.
    let crashed = snapshot_disk_state(&wal, "crash-copy");

    let (revived, report) = recover(crashed.clone(), ServerConfig::default());
    assert_eq!(report.recovered_epoch, epoch0 + 5, "{report:?}");
    assert_eq!(report.checkpoint_epoch, Some(epoch0 + 3), "{report:?}");
    assert_eq!(report.replayed, 2, "two records past the checkpoint");
    assert!(!report.torn, "a clean copy has no torn tail: {report:?}");
    assert_eq!(revived.server().epoch(), epoch0 + 5);

    let got = rankings(revived.addr(), &probe);
    assert_eq!(got, want, "recovered rankings must be bit-identical");

    let stats = send(revived.addr(), &Request::op("stats")).stats.unwrap();
    assert!(stats.wal_enabled);
    assert_eq!(stats.wal_replayed, 2, "{stats:?}");

    revived.shutdown();
    running.shutdown();
    cleanup(&[&wal, &crashed]);
}

/// A corrupt byte mid-journal truncates recovery at the crash-consistent
/// prefix: the recovered server comes up at the last intact epoch and
/// still serves, rather than panicking or publishing half a batch.
#[test]
fn corrupt_journal_tail_truncates_to_the_intact_prefix() {
    let _g = serial();
    faults::disarm();
    let wal = temp_path("torn-live");
    let (running, specs) = start(ServerConfig {
        wal: Some(wal.clone()),
        // Never checkpoint: every record stays in the journal.
        checkpoint_every: 0,
        checkpoint_interval: std::time::Duration::ZERO,
        ..ServerConfig::default()
    });
    let addr = running.addr();
    let epoch0 = running.server().epoch();
    for i in 0..3 {
        assert!(add_table(addr, &format!("torn_t{i}")).is_ok());
    }

    let crashed = snapshot_disk_state(&wal, "torn-copy");
    // Flip one bit in the final record's checksum trailer: the prefix
    // stays intact, the last record dies.
    let mut bytes = std::fs::read(&crashed).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&crashed, &bytes).unwrap();

    let (revived, report) = recover(crashed.clone(), ServerConfig::default());
    assert!(report.torn, "corruption must be reported: {report:?}");
    assert!(report.dropped_bytes > 0);
    assert_eq!(
        report.recovered_epoch,
        epoch0 + 2,
        "recovery stops at the intact prefix: {report:?}"
    );
    // The truncated server still serves searches.
    let probe: Vec<String> = specs.iter().take(2).cloned().collect();
    rankings(revived.addr(), &probe);

    revived.shutdown();
    running.shutdown();
    cleanup(&[&wal, &crashed]);
}

/// An injected `wal.append` fault fails the mutation closed — error
/// response, epoch unchanged, nothing journaled — and the server keeps
/// serving; once the fault clears, mutations flow again.
#[test]
fn append_fault_fails_the_mutation_closed() {
    let _g = serial();
    faults::disarm();
    let wal = temp_path("append-fault");
    let (running, specs) = start(ServerConfig {
        wal: Some(wal.clone()),
        checkpoint_every: 0,
        checkpoint_interval: std::time::Duration::ZERO,
        ..ServerConfig::default()
    });
    let addr = running.addr();
    let epoch0 = running.server().epoch();

    for action in ["error", "panic"] {
        let _guard = FaultGuard;
        faults::arm(FaultPlan::parse(&format!("wal.append={action}@1"), 7).unwrap());
        let resp = add_table(addr, &format!("doomed_{action}"));
        assert_eq!(resp.status, "error", "append {action} must fail closed");
        assert!(
            resp.error.as_deref().unwrap().contains("not journaled"),
            "{resp:?}"
        );
        assert_eq!(running.server().epoch(), epoch0, "lake must be unchanged");
    }
    faults::disarm();

    // Still healthy, still serving, and mutations work again.
    let probe: Vec<String> = specs.iter().take(1).cloned().collect();
    rankings(addr, &probe);
    let resp = add_table(addr, "survivor");
    assert!(resp.is_ok(), "{resp:?}");
    assert_eq!(resp.epoch, Some(epoch0 + 1));
    // The doomed mutations journaled nothing: recovery sees one record.
    let crashed = snapshot_disk_state(&wal, "append-fault-copy");
    let (revived, report) = recover(crashed.clone(), ServerConfig::default());
    assert_eq!(report.replayed, 1, "{report:?}");
    assert!(!report.torn, "{report:?}");

    revived.shutdown();
    running.shutdown();
    cleanup(&[&wal, &crashed]);
}

/// A checkpoint that rotted on disk stops the boot: `Server::recover`
/// drops the base lake before it reads the checkpoint, so the only honest
/// outcomes are the checkpointed lake or an error naming the damage —
/// never a panic, never a server quietly serving the base.
#[test]
fn bit_flipped_checkpoint_fails_recovery_closed() {
    let _g = serial();
    faults::disarm();
    let wal = temp_path("ckpt-rot");
    let ckpt = wal.with_extension("ckpt");
    let (graph, lake, _) = demo_world();
    thetis_datalake::write_checkpoint(&lake, &ckpt).unwrap();
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, &bytes).unwrap();

    let config = ServerConfig {
        wal: Some(wal.clone()),
        ..ServerConfig::default()
    };
    let err = Server::recover(graph, lake, None, config)
        .err()
        .expect("a corrupt checkpoint must not boot");
    assert!(err.contains("checksum"), "{err}");
    cleanup(&[&wal]);
}

/// A failing checkpoint turns health `degraded` (with the failure named in
/// the reasons) while the previous checkpoint and the journal survive;
/// the next successful checkpoint clears the rung.
#[test]
fn checkpoint_failure_degrades_health_until_one_succeeds() {
    let _g = serial();
    faults::disarm();
    let wal = temp_path("ckpt-fault");
    let (running, _specs) = start(ServerConfig {
        wal: Some(wal.clone()),
        checkpoint_every: 1, // checkpoint after every mutation
        ..ServerConfig::default()
    });
    let addr = running.addr();

    {
        let _guard = FaultGuard;
        faults::arm(FaultPlan::parse("wal.checkpoint=error@1", 7).unwrap());
        // The mutation itself succeeds — write-ahead happened — only the
        // checkpoint after it fails.
        let resp = add_table(addr, "ckpt_victim");
        assert!(resp.is_ok(), "mutation must outlive checkpoint failure");
        let health = send(addr, &Request::op("health")).health.unwrap();
        assert_eq!(health.status, "degraded", "{health:?}");
        assert!(
            health.reasons.iter().any(|r| r.contains("checkpoint")),
            "{health:?}"
        );
        let stats = send(addr, &Request::op("stats")).stats.unwrap();
        assert_eq!(stats.checkpoint_failures, 1, "{stats:?}");
    }
    faults::disarm();

    // The next mutation checkpoints cleanly and the rung clears.
    assert!(add_table(addr, "ckpt_healer").is_ok());
    let stats = send(addr, &Request::op("stats")).stats.unwrap();
    assert_eq!(stats.checkpoint_failures, 0, "success resets: {stats:?}");
    assert_eq!(stats.mutations_since_checkpoint, 0, "{stats:?}");
    let health = send(addr, &Request::op("health")).health.unwrap();
    assert_ne!(health.status, "degraded", "rung must clear: {health:?}");
    assert!(wal.with_extension("ckpt").exists());

    running.shutdown();
    cleanup(&[&wal]);
}

/// Graceful shutdown drains into a final checkpoint: afterwards the
/// checkpoint sibling exists, the journal is rotated down to its header,
/// and a restart replays zero records yet lands on the exact epoch.
#[test]
fn shutdown_drains_into_a_final_checkpoint() {
    let _g = serial();
    faults::disarm();
    let wal = temp_path("drain");
    let (running, _specs) = start(ServerConfig {
        wal: Some(wal.clone()),
        checkpoint_every: 0, // only the shutdown drain may checkpoint
        checkpoint_interval: std::time::Duration::ZERO,
        ..ServerConfig::default()
    });
    let addr = running.addr();
    let epoch0 = running.server().epoch();
    for i in 0..4 {
        assert!(add_table(addr, &format!("drain_t{i}")).is_ok());
    }
    assert!(
        !wal.with_extension("ckpt").exists(),
        "no checkpoint may exist before the drain"
    );
    running.shutdown();

    assert!(
        wal.with_extension("ckpt").exists(),
        "drain must write the final checkpoint"
    );
    let journal_len = std::fs::metadata(&wal).unwrap().len();
    assert_eq!(
        journal_len, 4,
        "drain must rotate the journal to its header"
    );
    assert_eq!(
        thetis_datalake::checkpoint_epoch(&wal.with_extension("ckpt")).unwrap(),
        epoch0 + 4,
    );

    let (revived, report) = recover(wal.clone(), ServerConfig::default());
    assert_eq!(report.replayed, 0, "a drained journal is empty: {report:?}");
    assert_eq!(report.recovered_epoch, epoch0 + 4);
    revived.shutdown();
    cleanup(&[&wal]);
}
