//! `serve` — open-loop functional run of the resident query service.
//!
//! Drives the same tiny demo lake `thetis-cli serve --demo` loads with a
//! Poisson-ish open-loop arrival process (exponential inter-arrivals from
//! a seeded RNG): request send times are fixed up front, so a slow server
//! visibly inflates latency instead of silently slowing the offered load.
//! Two phases of equal size run back to back over the same query mix, so
//! the second phase measures the warmed shared σ memo — its per-response
//! `sigma_hit_rate` must come back above zero.
//!
//! By default the server runs in-process (same construction as the CLI).
//! With `--connect ADDR` the bench drives an externally started
//! `thetis-cli serve` instead — that is how the CI serve-smoke job wires
//! it up — and only client-side metrics are recorded.
//!
//! The run asserts correctness, not speed: at least 200 answered
//! requests, a warm shared-memo hit, and a `deadline_ms: 0` probe that
//! degrades instead of failing. Its latencies are reported in
//! `serve_summary.json` but gate nothing; serve performance is measured
//! by the repository benchmark's `serve-hot` and `ingest-mixed`
//! workloads.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use serde::Serialize;
use thetis::prelude::*;
use thetis::serve::{Request, Response};

use crate::context::Ctx;

/// Total requests across both phases (phase 2 repeats the phase-1 mix).
const TOTAL_REQUESTS: usize = 240;

/// Offered load of the open-loop schedule, requests per second.
const TARGET_QPS: f64 = 200.0;

/// Concurrent client connections.
const CLIENTS: usize = 4;

#[derive(Serialize)]
struct ServeSummary {
    requests: usize,
    ok: usize,
    overloaded: usize,
    errors: usize,
    clients: usize,
    offered_qps: f64,
    achieved_qps: f64,
    p50_micros: u64,
    p99_micros: u64,
    phase2_mean_sigma_hit_rate: f64,
    server_cache_hit_rate: f64,
    server_cache_invalidations: u64,
}

struct Outcome {
    ok: bool,
    overloaded: bool,
    latency_ns: u64,
    sigma_hit_rate: f64,
}

/// Runs the open-loop serve benchmark.
pub fn run(ctx: &Ctx) -> String {
    // The demo world, identical to `thetis-cli serve --demo`.
    let bench = Benchmark::build(&BenchmarkConfig::tiny(BenchmarkKind::Wt2015));
    let graph = bench.kg.graph;
    let mut lake = bench.lake;
    ExactLabelLinker::new(&graph).link_lake(&mut lake);
    let specs: Vec<String> = bench
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
    assert!(!specs.is_empty(), "demo bench produced no queries");

    // The target: an external server (CI) or an in-process one (local).
    let mut local = None;
    let addr: String = match &ctx.connect {
        Some(addr) => {
            wait_for_server(addr);
            addr.clone()
        }
        None => {
            let server = thetis::serve::Server::new(
                graph,
                lake,
                None,
                thetis::serve::ServerConfig {
                    // Admission control is exercised by the e2e tests; the
                    // bench wants every scheduled request answered even on
                    // single-core runners (CI passes --max-inflight too).
                    max_inflight: CLIENTS * 2,
                    ..Default::default()
                },
            );
            let running = thetis::serve::serve(server).expect("bind loopback server");
            let addr = running.addr().to_string();
            local = Some(running);
            addr
        }
    };
    eprintln!(
        "[serve] {} requests at {TARGET_QPS} req/s over {CLIENTS} clients -> {addr} ({})",
        TOTAL_REQUESTS,
        if ctx.connect.is_some() {
            "external"
        } else {
            "in-process"
        }
    );

    // Fixed open-loop schedule: exponential inter-arrivals, seeded.
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut offsets = Vec::with_capacity(TOTAL_REQUESTS);
    let mut at = 0.0f64;
    for _ in 0..TOTAL_REQUESTS {
        let u = (rng.next_u64() as f64 / u64::MAX as f64).max(1e-12);
        at += -u.ln() / TARGET_QPS;
        offsets.push(Duration::from_secs_f64(at));
    }

    let start = Instant::now();
    let outcomes: Vec<Option<Outcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let addr = &addr;
                let specs = &specs;
                let offsets = &offsets;
                scope.spawn(move || {
                    // Retry with backoff: all clients dial at once, and an
                    // externally started server (CI) may still be binding.
                    let mut stream =
                        connect_with_retry(addr, Instant::now() + Duration::from_secs(30))
                            .expect("connect benchmark client");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut got = Vec::new();
                    for i in (client..TOTAL_REQUESTS).step_by(CLIENTS) {
                        if let Some(wait) = offsets[i].checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let req = Request::search(&specs[i % specs.len()]);
                        let mut line = serde_json::to_string(&req).expect("serialize request");
                        line.push('\n');
                        let sent = Instant::now();
                        let outcome = stream
                            .write_all(line.as_bytes())
                            .and_then(|_| {
                                let mut reply = String::new();
                                reader.read_line(&mut reply).map(|_| reply)
                            })
                            .ok()
                            .and_then(|reply| serde_json::from_str::<Response>(&reply).ok())
                            .map(|resp| Outcome {
                                ok: resp.is_ok(),
                                overloaded: resp.status == "overloaded",
                                latency_ns: sent.elapsed().as_nanos() as u64,
                                sigma_hit_rate: resp.sigma_hit_rate.unwrap_or(0.0),
                            });
                        got.push((i, outcome));
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<Option<Outcome>> = (0..TOTAL_REQUESTS).map(|_| None).collect();
        for h in handles {
            for (i, outcome) in h.join().expect("client thread") {
                all[i] = outcome;
            }
        }
        all
    });
    let wall = start.elapsed().as_secs_f64();

    // A final pre-expired-deadline probe: the server must degrade it
    // gracefully (partial ranking, reasons named) rather than erroring,
    // and must hand back the query id its slow-query log files it under.
    let probe = {
        let mut req = Request::search(&specs[0]);
        req.deadline_ms = Some(0);
        send_one(&addr, &req)
            .unwrap_or_else(|| panic!("deadline probe got no parsable reply from {addr}"))
    };
    assert!(
        probe.is_ok() && probe.degraded == Some(true),
        "deadline probe must degrade, not fail: {probe:?}"
    );
    assert!(
        probe.query_id.is_some(),
        "searches must answer with a query id: {probe:?}"
    );

    // Server-side counters (works against both targets).
    let stats = query_stats(&addr);
    if let Some(running) = local.take() {
        running.shutdown();
    }

    let ok = outcomes
        .iter()
        .filter(|o| o.as_ref().is_some_and(|o| o.ok))
        .count();
    let overloaded = outcomes
        .iter()
        .filter(|o| o.as_ref().is_some_and(|o| o.overloaded))
        .count();
    let errors = TOTAL_REQUESTS - ok - overloaded;
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flatten()
        .filter(|o| o.ok)
        .map(|o| o.latency_ns)
        .collect();
    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx] / 1_000
    };
    let phase2: Vec<f64> = outcomes
        .iter()
        .enumerate()
        .skip(TOTAL_REQUESTS / 2)
        .filter_map(|(_, o)| o.as_ref().filter(|o| o.ok).map(|o| o.sigma_hit_rate))
        .collect();
    let phase2_hit_rate = phase2.iter().sum::<f64>() / phase2.len().max(1) as f64;

    // The acceptance bar: the run is meaningless below these.
    assert!(
        ok >= 200,
        "only {ok}/{TOTAL_REQUESTS} requests succeeded (overloaded {overloaded}, errors {errors})"
    );
    assert!(
        phase2_hit_rate > 0.0,
        "warmed phase never hit the shared sigma memo"
    );

    let summary = ServeSummary {
        requests: TOTAL_REQUESTS,
        ok,
        overloaded,
        errors,
        clients: CLIENTS,
        offered_qps: TARGET_QPS,
        achieved_qps: ok as f64 / wall.max(1e-9),
        p50_micros: pct(0.50),
        p99_micros: pct(0.99),
        phase2_mean_sigma_hit_rate: phase2_hit_rate,
        server_cache_hit_rate: stats.as_ref().map_or(0.0, |s| s.cache_hit_rate),
        server_cache_invalidations: stats.as_ref().map_or(0, |s| s.cache_invalidations),
    };
    let line = format!(
        "serve: {}/{} ok ({} shed), {:.0} req/s achieved, p50 {}us p99 {}us, warm sigma hit rate {:.2}",
        summary.ok,
        summary.requests,
        summary.overloaded,
        summary.achieved_qps,
        summary.p50_micros,
        summary.p99_micros,
        summary.phase2_mean_sigma_hit_rate,
    );
    ctx.write_json("serve_summary", &summary);
    println!("{line}");
    line
}

/// Connects with capped exponential backoff (25ms doubling to 1s) until
/// the overall deadline, then returns the last connect error. Deflakes
/// the CI race where the bench dials before the background server binds.
fn connect_with_retry(addr: &str, deadline: Instant) -> std::io::Result<TcpStream> {
    let mut backoff = Duration::from_millis(25);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(e);
                }
                std::thread::sleep(backoff.min(deadline - now));
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// Polls an external server until it accepts connections (CI starts the
/// binary in the background; the LSEI build takes a moment).
fn wait_for_server(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    if let Err(e) = connect_with_retry(addr, deadline) {
        panic!("server at {addr} never came up: {e}");
    }
}

/// Fetches the server's stats counters, best-effort.
fn query_stats(addr: &str) -> Option<thetis::serve::ServerStats> {
    let stream = TcpStream::connect(addr).ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(b"{\"op\":\"stats\"}\n").ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    serde_json::from_str::<Response>(&reply).ok()?.stats
}

/// One request over a fresh connection; `None` when the exchange fails or
/// the reply does not parse.
fn send_one(addr: &str, req: &Request) -> Option<Response> {
    let stream = TcpStream::connect(addr).ok()?;
    let mut writer = stream.try_clone().ok()?;
    let mut line = serde_json::to_string(req).ok()?;
    line.push('\n');
    writer.write_all(line.as_bytes()).ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    serde_json::from_str(&reply).ok()
}
