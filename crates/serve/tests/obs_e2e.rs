//! End-to-end tests of the server's observability plane: rolling-window
//! metrics with exemplars, the `metrics`/`health` protocol ops, and the
//! tail-sampling slow-query log.
//!
//! Time is a manual [`WindowClock`] throughout — window decay is driven by
//! advancing the clock, never by sleeping — and the fault plan is
//! process-global, so every test serializes on [`SERIAL`].

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Mutex;

use thetis_corpus::{Benchmark, BenchmarkConfig, BenchmarkKind};
use thetis_datalake::{DataLake, EntityLinker, ExactLabelLinker};
use thetis_kg::KnowledgeGraph;
use thetis_obs::faults::{self, FaultPlan};
use thetis_obs::rolling::WindowClock;
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

/// The demo world, exactly as `thetis-cli --demo` constructs it.
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
        std::env::temp_dir().join(format!("thetis-obs-e2e-{}-{tag}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The acceptance scenario of the observability plane, end to end: under
/// load with one injected-fault request and one pre-expired deadline, the
/// slow-query log holds exactly those two requests' full traces, the
/// `metrics` op's windowed p99 decays after the (manual) clock passes the
/// window, and the top latency exemplar resolves to a renderable retained
/// trace.
#[test]
fn slowlog_captures_exactly_the_troubled_requests() {
    let _g = serial();
    let clock = WindowClock::manual();
    let slowlog = temp_path("acceptance");
    let (running, specs) = start(ServerConfig {
        clock: clock.clone(),
        slowlog: Some(slowlog.clone()),
        max_inflight: 64,
        ..ServerConfig::default()
    });
    let addr = running.addr();

    // Baseline load: healthy requests, too few for the latency promotion
    // rung (min_window_count) to arm — nothing here may reach the slowlog.
    let mut healthy_ids = Vec::new();
    for spec in specs.iter().take(8) {
        let resp = send(addr, &Request::search(spec));
        assert!(resp.is_ok(), "healthy search failed: {resp:?}");
        assert_eq!(resp.degraded, Some(false));
        healthy_ids.push(resp.query_id.expect("search responses carry a query id"));
    }

    // One request degraded by an injected fault: every σ computation
    // panics, the engine isolates the panics and returns a partial
    // ranking, and the fault-hit delta promotes the trace.
    let fault_qid = {
        let _guard = FaultGuard;
        faults::arm(FaultPlan::parse("sigma=panic@1", 7).unwrap());
        let resp = send(addr, &Request::search(&specs[0]));
        assert!(resp.is_ok(), "fault-degraded search failed: {resp:?}");
        assert_eq!(resp.degraded, Some(true), "worker panics must degrade");
        resp.query_id.unwrap()
    };

    // One request degraded by a pre-expired deadline.
    let deadline_qid = {
        let mut req = Request::search(&specs[1]);
        req.deadline_ms = Some(0);
        let resp = send(addr, &req);
        assert!(resp.is_ok(), "deadline search failed: {resp:?}");
        assert_eq!(resp.degraded, Some(true));
        resp.query_id.unwrap()
    };

    // The slow-query log holds exactly the two troubled requests, each
    // with its full trace and the rung that promoted it.
    let log = thetis_obs::read_slowlog(&slowlog).unwrap();
    assert_eq!(log.torn_skipped, 0, "a clean shutdown never tears the log");
    let promoted = log.traces;
    let mut got: Vec<u64> = promoted.iter().map(|t| t.query_id).collect();
    got.sort_unstable();
    let mut want = vec![fault_qid, deadline_qid];
    want.sort_unstable();
    assert_eq!(got, want, "slowlog must hold exactly the troubled requests");
    for trace in &promoted {
        assert_eq!(trace.op, "search");
        assert!(
            !trace.events.is_empty(),
            "promoted traces carry their events: {trace:?}"
        );
        let by = trace.promoted_by.as_deref();
        if trace.query_id == fault_qid {
            assert_eq!(by, Some("fault"), "wrong rung: {trace:?}");
        } else {
            assert_eq!(by, Some("degraded"), "wrong rung: {trace:?}");
            assert!(trace.reasons.iter().any(|r| r == "deadline"));
        }
    }

    // The metrics op sees the whole window: every request, both degraded
    // ones, and a live p99.
    let snap = send(addr, &Request::op("metrics")).metrics.unwrap();
    assert_eq!(snap.window_requests, 10);
    assert_eq!(snap.window_degraded, 2);
    assert_eq!(snap.total_requests, 10);
    assert_eq!(snap.traces_retained, 10);
    assert_eq!(snap.traces_promoted, 2);
    assert!(snap.p99_us.is_some(), "p99 must be live under load");
    assert!(snap.qps > 0.0);

    // The top occupied latency bucket carries an exemplar, and its query
    // id resolves to a retained trace the CLI can render.
    let exemplar = snap
        .buckets
        .iter()
        .rev()
        .find_map(|b| b.exemplar.as_ref())
        .expect("some bucket must carry an exemplar");
    let retained = running
        .server()
        .metrics()
        .retainer()
        .find(exemplar.query_id)
        .expect("the exemplar's query id must resolve to a retained trace");
    let rendered = retained.render();
    assert!(
        rendered.contains(&format!("{:#018x}", exemplar.query_id)),
        "rendered trace must name its query id:\n{rendered}"
    );

    // Advance the manual clock past the whole window: the windowed view
    // decays to empty (p99 gone, zero rate) while cumulative totals stay.
    clock.advance(std::time::Duration::from_secs(130));
    let snap = send(addr, &Request::op("metrics")).metrics.unwrap();
    assert_eq!(snap.window_requests, 0, "window must decay: {snap:?}");
    assert_eq!(snap.p99_us, None, "p99 must decay with the window");
    assert_eq!(snap.qps, 0.0);
    assert_eq!(snap.total_requests, 10, "cumulative totals never decay");
    assert_eq!(snap.traces_retained, 10);

    let stats = send(addr, &Request::op("stats")).stats.unwrap();
    assert_eq!(stats.degraded, 2);
    assert_eq!(stats.traces_promoted, 2);

    running.shutdown();
    let _ = std::fs::remove_file(&slowlog);
}

/// The `health` op's rungs: ready → degraded (a degraded response in the
/// window) → ready again once the window decays past it.
#[test]
fn health_rungs_follow_the_window() {
    let _g = serial();
    let clock = WindowClock::manual();
    let (running, specs) = start(ServerConfig {
        clock: clock.clone(),
        // Exercise the trouble-log path too (rate-limited stderr line).
        trouble_log: true,
        ..ServerConfig::default()
    });
    let addr = running.addr();

    let health = send(addr, &Request::op("health")).health.unwrap();
    assert_eq!(health.status, "ready", "fresh server: {health:?}");
    assert!(health.reasons.is_empty());

    let mut req = Request::search(&specs[0]);
    req.deadline_ms = Some(0);
    assert_eq!(send(addr, &req).degraded, Some(true));
    let health = send(addr, &Request::op("health")).health.unwrap();
    assert_eq!(health.status, "degraded", "{health:?}");
    assert!(!health.reasons.is_empty());

    clock.advance(std::time::Duration::from_secs(130));
    let health = send(addr, &Request::op("health")).health.unwrap();
    assert_eq!(
        health.status, "ready",
        "window decay must clear: {health:?}"
    );
    running.shutdown();
}

/// A server that sheds (zero admission slots) reports `overloaded` until
/// the shed falls out of the window.
#[test]
fn shedding_turns_health_overloaded() {
    let _g = serial();
    let clock = WindowClock::manual();
    let (running, specs) = start(ServerConfig {
        clock: clock.clone(),
        max_inflight: 0,
        ..ServerConfig::default()
    });
    let addr = running.addr();

    let resp = send(addr, &Request::search(&specs[0]));
    assert_eq!(resp.status, "overloaded");
    let health = send(addr, &Request::op("health")).health.unwrap();
    assert_eq!(health.status, "overloaded", "{health:?}");
    let snap = send(addr, &Request::op("metrics")).metrics.unwrap();
    assert_eq!(snap.window_shed, 1);
    assert_eq!(snap.total_shed, 1);

    clock.advance(std::time::Duration::from_secs(130));
    let snap = send(addr, &Request::op("metrics")).metrics.unwrap();
    assert_eq!(snap.window_shed, 0, "shed decays with the window");
    assert_eq!(snap.total_shed, 1);
    running.shutdown();
}

/// The periodic metrics writer leaves a readable JSON snapshot and a
/// lint-clean Prometheus text file behind, including the final write at
/// shutdown.
#[test]
fn metrics_writer_emits_snapshot_and_prometheus_text() {
    let _g = serial();
    let out =
        std::env::temp_dir().join(format!("thetis-obs-e2e-{}-writer.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let prom = out.with_extension("prom");
    let _ = std::fs::remove_file(&prom);

    let (running, specs) = start(ServerConfig {
        metrics_out: Some(out.clone()),
        metrics_interval: std::time::Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let addr = running.addr();
    assert!(send(addr, &Request::search(&specs[0])).is_ok());
    running.shutdown(); // joins the writer; the final write has happened

    let json = std::fs::read_to_string(&out).unwrap();
    let snap: thetis_serve::MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap.total_requests, 1, "{snap:?}");

    let text = std::fs::read_to_string(&prom).unwrap();
    let errors = thetis_obs::lint_prometheus_text(&text);
    assert!(errors.is_empty(), "prometheus lint: {errors:?}\n{text}");

    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&prom);
}
