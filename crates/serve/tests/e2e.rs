//! End-to-end tests of the resident query service over real TCP sockets:
//! bit-identity with the one-shot engine, admission control, per-request
//! deadlines, and epoch-pinned snapshots under mid-serve mutation.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use thetis_core::{Candidates, SearchOptions, SimilarityCache, ThetisEngine, TypeJaccard};
use thetis_corpus::{Benchmark, BenchmarkConfig, BenchmarkKind};
use thetis_datalake::{DataLake, EntityLinker, ExactLabelLinker};
use thetis_kg::KnowledgeGraph;
use thetis_lsh::lsei::{Lsei, LseiMode, TypeSigner};
use thetis_lsh::{LshConfig, TypeFilter};
use thetis_obs::QueryTrace;
use thetis_serve::{
    parse_query_spec, serve, Request, Response, RunningServer, Server, ServerConfig,
};

/// The demo world, exactly as `thetis-cli --demo` constructs it.
fn demo_world() -> (KnowledgeGraph, DataLake, Vec<String>) {
    let bench = Benchmark::build(&BenchmarkConfig::tiny(BenchmarkKind::Wt2015));
    let graph = bench.kg.graph;
    let mut lake = bench.lake;
    ExactLabelLinker::new(&graph).link_lake(&mut lake);
    // Query specs phrased the way a CLI user would: label lists.
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

#[test]
fn concurrent_clients_match_the_oneshot_engine_bit_for_bit() {
    let (running, specs) = start(ServerConfig {
        // Every spec is in flight at once; this test is about identity,
        // not shedding.
        max_inflight: 64,
        ..ServerConfig::default()
    });
    let addr = running.addr();

    // The reference: the exact one-shot CLI `--demo --lsh` pipeline, run
    // in-process against an identically constructed world.
    let (graph, lake, _) = demo_world();
    let cfg = LshConfig::recommended();
    let filter = TypeFilter::from_lake(&lake, &graph, 0.5);
    let lsei = Lsei::build(
        &lake,
        TypeSigner::new(&graph, filter, cfg, 42),
        cfg,
        LseiMode::Entity,
    );
    let engine = ThetisEngine::new(&graph, &lake, TypeJaccard::new(&graph));
    // The same `execute` call `handle_search` makes: LSEI candidates and a
    // σ memo shared across every query.
    let memo = SimilarityCache::new();
    let off = QueryTrace::disabled();
    let expected: Vec<Vec<(u64, u64)>> = specs
        .iter()
        .map(|spec| {
            let (query, _) = parse_query_spec(spec, &graph);
            let candidates = Candidates::lsei(Some(&lsei), &query, 1, &off);
            engine
                .execute(
                    &query,
                    SearchOptions::top(10),
                    candidates,
                    Some(&memo),
                    &off,
                )
                .ranked
                .iter()
                .map(|&(tid, score)| (tid.0 as u64, score.to_bits()))
                .collect()
        })
        .collect();

    // Several rounds of concurrent clients, every query in flight at once.
    for _round in 0..3 {
        let got: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| scope.spawn(move || send(addr, &Request::search(spec))))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let resp = h.join().unwrap();
                    assert!(resp.is_ok(), "unexpected response: {resp:?}");
                    resp.ranked
                        .unwrap()
                        .iter()
                        .map(|hit| (hit.table, hit.score_bits))
                        .collect()
                })
                .collect()
        });
        assert_eq!(got, expected, "server ranking diverged from one-shot");
    }

    // The repeated rounds re-asked every σ pair: the shared memo must have
    // served some of them.
    let stats = send(addr, &Request::op("stats")).stats.unwrap();
    assert!(
        stats.cache_served > 0 && stats.cache_hit_rate > 0.0,
        "shared cache never hit across repeated queries: {stats:?}"
    );
    running.shutdown();
}

#[test]
fn saturated_server_sheds_with_overloaded() {
    let (running, specs) = start(ServerConfig {
        max_inflight: 1,
        allow_debug: true,
        ..ServerConfig::default()
    });
    let addr = running.addr();
    let spec = specs[0].clone();

    // Fill the only slot with a request parked mid-flight...
    let held = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            let mut req = Request::search(&spec);
            req.debug_hold_ms = Some(600);
            send(addr, &req)
        })
    };
    std::thread::sleep(Duration::from_millis(150));

    // ...so a second search must be shed, immediately and explicitly.
    let shed = send(addr, &Request::search(&spec));
    assert_eq!(shed.status, "overloaded", "expected shedding: {shed:?}");
    assert!(shed.ranked.is_none());

    // The held request still completes normally: shedding is load control,
    // not failure.
    let first = held.join().unwrap();
    assert!(first.is_ok(), "held request failed: {first:?}");
    let stats = send(addr, &Request::op("stats")).stats.unwrap();
    assert!(stats.shed >= 1, "shed counter not bumped: {stats:?}");
    running.shutdown();
}

#[test]
fn expired_deadline_degrades_instead_of_failing() {
    let (running, specs) = start(ServerConfig::default());
    let mut req = Request::search(&specs[0]);
    req.deadline_ms = Some(0); // already expired when scoring starts
    let resp = send(running.addr(), &req);
    assert!(
        resp.is_ok(),
        "deadline expiry must not be an error: {resp:?}"
    );
    assert_eq!(resp.degraded, Some(true));
    assert!(
        resp.degraded_reason
            .as_deref()
            .unwrap_or_default()
            .contains(&"deadline".to_string()),
        "missing deadline reason: {resp:?}"
    );
    running.shutdown();
}

#[test]
fn mutation_advances_the_epoch_and_invalidates_the_shared_cache() {
    let (running, specs) = start(ServerConfig {
        max_inflight: 4,
        allow_debug: true,
        ..ServerConfig::default()
    });
    let addr = running.addr();
    let server: Arc<Server> = Arc::clone(running.server());
    let spec = specs[0].clone();
    let epoch0 = server.epoch();

    // Reference ranking at the initial epoch.
    let baseline = send(addr, &Request::search(&spec));
    assert_eq!(baseline.epoch, Some(epoch0));
    let baseline_bits: Vec<(u64, u64)> = baseline
        .ranked
        .as_deref()
        .unwrap()
        .iter()
        .map(|h| (h.table, h.score_bits))
        .collect();

    // Park one query mid-flight: it pinned the epoch-0 snapshot.
    let held = {
        let spec = spec.clone();
        std::thread::spawn(move || {
            let mut req = Request::search(&spec);
            req.debug_hold_ms = Some(500);
            send(addr, &req)
        })
    };
    std::thread::sleep(Duration::from_millis(150));

    // Mutate the lake while that query is still in flight.
    let mut add = Request::op("add_table");
    add.name = Some("mid_serve_arrival".into());
    add.csv = Some("col_a,col_b\nalpha,beta\n".into());
    let mutated = send(addr, &add);
    assert!(mutated.is_ok(), "add_table failed: {mutated:?}");
    assert_eq!(mutated.epoch, Some(epoch0 + 1), "epoch must advance");

    // The pinned in-flight query is unaffected: same epoch, same bits.
    let pinned = held.join().unwrap();
    assert!(pinned.is_ok(), "held query failed: {pinned:?}");
    assert_eq!(
        pinned.epoch,
        Some(epoch0),
        "in-flight query must stay pinned"
    );
    let pinned_bits: Vec<(u64, u64)> = pinned
        .ranked
        .as_deref()
        .unwrap()
        .iter()
        .map(|h| (h.table, h.score_bits))
        .collect();
    assert_eq!(pinned_bits, baseline_bits);

    // The next query lands on the new epoch, and its first touch of the
    // shared cache evicts the stale entries exactly once.
    let invalidations_before = send(addr, &Request::op("stats"))
        .stats
        .unwrap()
        .cache_invalidations;
    let fresh = send(addr, &Request::search(&spec));
    assert_eq!(fresh.epoch, Some(epoch0 + 1));
    let stats = send(addr, &Request::op("stats")).stats.unwrap();
    assert_eq!(
        stats.cache_invalidations,
        invalidations_before + 1,
        "epoch advance must invalidate the shared cache once: {stats:?}"
    );
    running.shutdown();
}

#[test]
fn protocol_errors_are_answered_not_fatal() {
    let (running, specs) = start(ServerConfig::default());
    let addr = running.addr();

    // Malformed JSON keeps the connection usable for the next line.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"this is not json\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let resp: Response = serde_json::from_str(&reply).unwrap();
    assert_eq!(resp.status, "error");
    let mut line = serde_json::to_string(&Request::op("ping")).unwrap();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    let resp: Response = serde_json::from_str(&reply).unwrap();
    assert!(resp.is_ok(), "connection died after a bad line: {resp:?}");

    // Unknown ops, unresolvable queries, and disabled debug holds are
    // explicit errors.
    assert_eq!(send(addr, &Request::op("frobnicate")).status, "error");
    assert_eq!(
        send(addr, &Request::search("no such entity label")).status,
        "error"
    );
    let mut held = Request::search(&specs[0]);
    held.debug_hold_ms = Some(10);
    assert_eq!(send(addr, &held).status, "error");

    // remove_table round-trips through the mutation path.
    let (graph, lake, _) = demo_world();
    drop(graph);
    let victim = lake.tables()[0].name.clone();
    let mut remove = Request::op("remove_table");
    remove.name = Some(victim);
    let resp = send(addr, &remove);
    assert!(resp.is_ok(), "remove_table failed: {resp:?}");
    running.shutdown();
}

/// Canonical form of an LSEI for equivalence checks: epoch, n_tables,
/// per-band sorted buckets (sorted contents), sorted postings. Bucket
/// *order* within a band and posting-map iteration order are
/// implementation noise; everything else must match a rebuild exactly.
type LseiCanon = (u64, usize, Vec<Vec<(u64, Vec<u32>)>>, Vec<(u32, Vec<u32>)>);

fn canonicalize(lsei: &Lsei<TypeSigner<'_>>) -> LseiCanon {
    let (_cfg, _mode, index, postings, n_tables, epoch) = lsei.parts();
    let buckets = index
        .groups()
        .iter()
        .map(|group| {
            let mut band: Vec<(u64, Vec<u32>)> = group
                .iter()
                .map(|(&key, items)| {
                    let mut items = items.clone();
                    items.sort_unstable();
                    (key, items)
                })
                .collect();
            band.sort_unstable();
            band
        })
        .collect();
    let mut posts: Vec<(u32, Vec<u32>)> = postings
        .iter()
        .map(|(&e, tids)| (e.0, tids.iter().map(|t| t.0).collect()))
        .collect();
    posts.sort_unstable();
    (epoch, n_tables, buckets, posts)
}

/// The served `(table, score_bits)` of every spec must equal an in-process
/// `execute` over `lake`, the same call `handle_search` makes: LSEI
/// candidates at 1 vote, top 10, one σ memo shared across the specs.
fn assert_serves_like(
    addr: std::net::SocketAddr,
    specs: &[String],
    graph: &KnowledgeGraph,
    lake: &DataLake,
    when: &str,
) {
    let cfg = LshConfig::recommended();
    let filter = TypeFilter::from_lake(lake, graph, 0.5);
    let lsei = Lsei::build(
        lake,
        TypeSigner::new(graph, filter, cfg, 42),
        cfg,
        LseiMode::Entity,
    );
    let engine = ThetisEngine::new(graph, lake, TypeJaccard::new(graph));
    let memo = SimilarityCache::new();
    let off = QueryTrace::disabled();
    for spec in specs {
        let (query, _) = parse_query_spec(spec, graph);
        let candidates = Candidates::lsei(Some(&lsei), &query, 1, &off);
        let expected: Vec<(u64, u64)> = engine
            .execute(
                &query,
                SearchOptions::top(10),
                candidates,
                Some(&memo),
                &off,
            )
            .ranked
            .iter()
            .map(|&(tid, score)| (tid.0 as u64, score.to_bits()))
            .collect();
        let resp = send(addr, &Request::search(spec));
        assert!(resp.is_ok(), "search {when} failed: {resp:?}");
        let got: Vec<(u64, u64)> = resp
            .ranked
            .unwrap()
            .iter()
            .map(|hit| (hit.table, hit.score_bits))
            .collect();
        assert_eq!(got, expected, "served {spec:?} diverged {when}");
    }
}

#[test]
fn delta_maintained_lsei_matches_a_rebuild_after_mutations() {
    let (running, specs) = start(ServerConfig {
        ..ServerConfig::default()
    });
    let addr = running.addr();
    let server: Arc<Server> = Arc::clone(running.server());

    let assert_matches_rebuild = |when: &str| {
        let rebuilt = server.rebuild_lsei().expect("use_lsei is on");
        server.with_lsei(|live| {
            let live = live.expect("use_lsei is on");
            assert_eq!(
                canonicalize(live),
                canonicalize(&rebuilt),
                "delta-maintained LSEI diverged from rebuild {when}"
            );
        });
    };
    assert_matches_rebuild("at the initial epoch");

    // A local lake that takes the same mutations the server does: after
    // each one, every spec must score bit-for-bit as over that lake. The
    // weights I(e) depend on N and posting lengths, so weights resolved
    // against any other snapshot would show here.
    let (graph, mut lake, _) = demo_world();
    assert_serves_like(addr, &specs, &graph, &lake, "at the initial epoch");
    let local_add = |lake: &mut DataLake, name: &str, csv: &str| {
        let mut table =
            thetis_datalake::csv::read_csv(name, std::io::Cursor::new(csv.as_bytes())).unwrap();
        ExactLabelLinker::new(&graph).link_table(&mut table);
        lake.add_table(table);
    };
    let local_remove = |lake: &mut DataLake, name: &str| {
        let id = lake
            .iter()
            .find(|&(id, t)| !lake.is_removed(id) && t.name == name)
            .map(|(id, _)| id)
            .unwrap();
        lake.remove_table(id);
    };

    // Ingest a table whose cells link to real KG entities (query specs are
    // entity labels), so the delta path exercises posting growth *and*
    // first-time entity signing — not just the unlinked-cell no-op.
    let labels: Vec<&str> = specs[0].split([',', ';']).collect();
    let linked_csv = format!("linked_col\n{}\n", labels.join("\n"));
    let mut add = Request::op("add_table");
    add.name = Some("delta_linked".into());
    add.csv = Some(linked_csv.clone());
    assert!(send(addr, &add).is_ok());
    assert_matches_rebuild("after add_table (linked entities)");
    local_add(&mut lake, "delta_linked", &linked_csv);
    assert_serves_like(addr, &specs, &graph, &lake, "after add_table (linked)");

    // An all-unlinked table still advances the epoch and must stay
    // equivalent (no postings change, n_tables grows). It changes only N,
    // and with it every weight.
    let unlinked_csv = "col_a,col_b\nalpha,beta\n";
    let mut add2 = Request::op("add_table");
    add2.name = Some("delta_unlinked".into());
    add2.csv = Some(unlinked_csv.into());
    assert!(send(addr, &add2).is_ok());
    assert_matches_rebuild("after add_table (unlinked)");
    local_add(&mut lake, "delta_unlinked", unlinked_csv);
    assert_serves_like(addr, &specs, &graph, &lake, "after add_table (unlinked)");

    // Remove a seed table: postings shrink and entities left table-less
    // must be evicted from the band buckets, exactly as a rebuild would.
    let seed_name = lake.tables()[0].name.clone();
    let mut remove = Request::op("remove_table");
    remove.name = Some(seed_name.clone());
    assert!(send(addr, &remove).is_ok());
    assert_matches_rebuild("after remove_table");
    local_remove(&mut lake, &seed_name);
    assert_serves_like(addr, &specs, &graph, &lake, "after remove_table");

    // And remove the table we just added, round-tripping the delta insert.
    let mut remove2 = Request::op("remove_table");
    remove2.name = Some("delta_linked".into());
    assert!(send(addr, &remove2).is_ok());
    assert_matches_rebuild("after removing the delta-added table");
    local_remove(&mut lake, "delta_linked");
    assert_serves_like(
        addr,
        &specs,
        &graph,
        &lake,
        "after removing the delta-added table",
    );

    // Searches over the delta-maintained index answer at the latest epoch.
    let resp = send(addr, &Request::search(&specs[0]));
    assert!(resp.is_ok(), "search after deltas failed: {resp:?}");
    assert_eq!(resp.epoch, Some(server.epoch()));
    running.shutdown();
}

#[test]
fn shutdown_request_stops_the_accept_loop() {
    let (running, _) = start(ServerConfig::default());
    let addr = running.addr();
    assert!(send(addr, &Request::op("ping")).is_ok());
    assert!(send(addr, &Request::op("shutdown")).is_ok());
    // join() returns because the accept loop observed the flag.
    running.join();
}
