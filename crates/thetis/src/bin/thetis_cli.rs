//! `thetis-cli` — semantic table search over your own files.
//!
//! ```sh
//! thetis-cli --kg graph.tsv --tables ./csv_dir --query "Ron Santo,Chicago Cubs" [options]
//! ```
//!
//! Loads a knowledge graph from a TSV triple dump (see
//! `thetis::kg::io`), ingests every `*.csv` in the tables directory, links
//! cell values to KG entities by exact label (add `--token-linking` for
//! fuzzy keyword matching), and ranks the tables by semantic relevance for
//! the given entity tuple. `--demo` generates a small synthetic lake
//! instead, so the binary is runnable with no inputs at all.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use thetis::prelude::*;

struct Args {
    kg: Option<PathBuf>,
    tables: Option<PathBuf>,
    query: Vec<String>,
    k: usize,
    sim: String,
    kernel: SigmaKernel,
    token_linking: bool,
    use_lsh: bool,
    votes: usize,
    demo: bool,
    explain: bool,
    cmd_explain: bool,
    metrics: Option<String>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    deadline_ms: Option<u64>,
    index: Option<PathBuf>,
    save_index: Option<PathBuf>,
    cmd_add: bool,
    cmd_remove: bool,
    cmd_serve: bool,
    cmd_top: bool,
    cmd_slowlog: bool,
    csv: Option<PathBuf>,
    table_name: Option<String>,
    addr: String,
    max_inflight: Option<usize>,
    cache_capacity: Option<usize>,
    serve_slowlog: Option<PathBuf>,
    serve_wal: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    metrics_interval_s: Option<u64>,
    slowlog_file: Option<PathBuf>,
    limit: usize,
    interval_ms: u64,
    frames: Option<u64>,
    no_clear: bool,
}

const USAGE: &str = "usage: thetis-cli --kg FILE --tables DIR --query \"A,B,...\" [options]
       thetis-cli --demo --query \"...\"            (synthetic lake)
       thetis-cli explain \"A,B,...\" [options]     (full score provenance)
       thetis-cli add --kg FILE --tables DIR --csv FILE --index FILE
                      [--save-index FILE]         (delta-ingest one table)
       thetis-cli remove --kg FILE --tables DIR --table NAME --index FILE
                      [--save-index FILE]         (delta-tombstone one table)
       thetis-cli serve --demo [--addr HOST:PORT] [options]
                                                  (resident query service)
       thetis-cli top --addr HOST:PORT [--interval-ms N] [--frames N]
                      [--no-clear]                (live server dashboard)
       thetis-cli slowlog FILE [--limit N]        (render a slow-query log)

options:
  --query \"e1,e2;f1,f2\"  entity tuples: ',' separates entities, ';' tuples
  --k N                  results to return           (default 10)
  --sim types|predicates|embeddings
                         entity similarity (default types; embeddings
                         trains RDF2Vec on the KG first, parallel)
  --kernel f64|f32|i8    sigma kernel for embedding similarity: f64 is the
                         bit-exact reference (default); f32 and i8 score
                         from quantized SoA slabs (vectorized, ~2x faster
                         sigma; non-embedding sims are exact under every
                         kernel)
  --token-linking        link cells by token overlap (default exact label)
  --lsh                  prefilter with the LSEI (30,10)
  --votes N              LSEI voting threshold       (default 1)
  --explain              show per-entity match breakdown for each hit
  --metrics text|json    dump observability metrics after the run
                         (Prometheus text or JSON, to stderr)
  --metrics-out FILE     write the metrics dump to FILE instead
  --trace-out FILE       (explain) also write the query trace as Chrome
                         trace-event JSON (chrome://tracing / Perfetto)
  --deadline-ms N        wall-clock scoring budget; on expiry the best-so-
                         far top-k is returned and a degradation warning
                         explains what was skipped
  --index FILE           load the LSEI from a TLI3 snapshot instead of
                         building it (missing file is an error; a corrupt,
                         unverifiable or retired-format file falls back to
                         an exhaustive scan with a warning)
  --save-index FILE      after building the LSEI, persist it crash-safely
                         to FILE (implies --lsh)
  --csv FILE             (add) the CSV file to ingest as a new table
  --table NAME           (remove) the table to tombstone
  --addr HOST:PORT       (serve) listen address     (default 127.0.0.1:0,
                         which picks a free port — the bound address is
                         printed on stderr)
  --max-inflight N       (serve) searches in flight before shedding with
                         an \"overloaded\" response  (default 2x cores)
  --cache-capacity N     (serve) budget of the shared cross-query sigma
                         memo in sigma cells of 8 bytes, 0 = unbounded
                         (default 1048576 = 8 MiB)
  --slowlog FILE         (serve) append promoted slow-query traces to FILE
                         as JSONL (render later with `thetis-cli slowlog`)
  --wal FILE             (serve) journal every mutation to FILE before it
                         is published and recover from FILE (plus its
                         .ckpt checkpoint sibling) at boot; a torn journal
                         tail is truncated, never fatal
  --checkpoint-every N   (serve) checkpoint the lake and rotate the
                         journal every N journaled mutations (default 64;
                         0 disables the count trigger)
  --metrics-interval-s N (serve) seconds between --metrics-out snapshot
                         writes                     (default 5)
  --interval-ms N        (top) refresh interval     (default 1000)
  --frames N             (top) render N frames, then exit (default: loop
                         until interrupted)
  --no-clear             (top) append frames instead of clearing the
                         screen (for logs and pipes)
  --limit N              (slowlog) most-recent traces to render
                                                    (default 10)

the `add` and `remove` subcommands mutate the lake *incrementally*: the
index snapshot given by --index is patched in O(table) — postings, band
buckets, and digests — instead of being rebuilt, and its epoch advances in
lockstep with the lake. Both verify the snapshot matches the lake first
(same epoch, same table count) and exit nonzero on a stale index. `add`
also copies the CSV into the tables directory so later full loads see it.

the `serve` subcommand loads the lake once, builds the LSEI, and then
answers concurrent queries over TCP: one JSON request per line, one JSON
response line back (send {\"query\":\"A,B\"} and read the ranked tables;
{\"op\":\"stats\"} for counters, {\"op\":\"metrics\"} for the rolling-window
snapshot, {\"op\":\"health\"} for ready/degraded/overloaded, and
{\"op\":\"shutdown\"} to stop). Results are bit-identical to one-shot --lsh
runs over the same inputs. A saturated server sheds excess searches
immediately with status \"overloaded\". With --slowlog, traces of slow,
degraded, or fault-hit requests are appended to a JSONL log; `top` and
`slowlog` are the matching live dashboard and log renderer.

the `explain` subcommand always searches through the LSEI and prints, per
top-k table: the Hungarian tuple-to-column mapping, the per-tuple sigma
breakdown that rebuilds the SemRel score, the LSEI admission evidence
(votes and matching bands per query entity), and a timing waterfall of the
traced search. Set THETIS_OBS=0 to disable all telemetry and tracing
(explain then skips the waterfall).";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kg: None,
        tables: None,
        query: Vec::new(),
        k: 10,
        sim: "types".into(),
        kernel: SigmaKernel::default(),
        token_linking: false,
        use_lsh: false,
        votes: 1,
        demo: false,
        explain: false,
        cmd_explain: false,
        metrics: None,
        metrics_out: None,
        trace_out: None,
        deadline_ms: None,
        index: None,
        save_index: None,
        cmd_add: false,
        cmd_remove: false,
        cmd_serve: false,
        cmd_top: false,
        cmd_slowlog: false,
        csv: None,
        table_name: None,
        addr: "127.0.0.1:0".into(),
        max_inflight: None,
        cache_capacity: None,
        serve_slowlog: None,
        serve_wal: None,
        checkpoint_every: None,
        metrics_interval_s: None,
        slowlog_file: None,
        limit: 10,
        interval_ms: 1000,
        frames: None,
        no_clear: false,
    };
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("explain") => {
            args.cmd_explain = true;
            argv.remove(0);
            // A bare positional after `explain` is the query spec.
            if argv.first().is_some_and(|a| !a.starts_with("--")) {
                args.query.push(argv.remove(0));
            }
        }
        Some("add") => {
            args.cmd_add = true;
            argv.remove(0);
        }
        Some("remove") => {
            args.cmd_remove = true;
            argv.remove(0);
        }
        Some("serve") => {
            args.cmd_serve = true;
            argv.remove(0);
        }
        Some("top") => {
            args.cmd_top = true;
            argv.remove(0);
        }
        Some("slowlog") => {
            args.cmd_slowlog = true;
            argv.remove(0);
            // A bare positional after `slowlog` is the JSONL file.
            if argv.first().is_some_and(|a| !a.starts_with("--")) {
                args.slowlog_file = Some(PathBuf::from(argv.remove(0)));
            }
        }
        _ => {}
    }
    let mut i = 0;
    let take = |argv: &[String], i: usize, flag: &str| {
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--kg" => {
                args.kg = Some(PathBuf::from(take(&argv, i, "--kg")?));
                i += 2;
            }
            "--tables" => {
                args.tables = Some(PathBuf::from(take(&argv, i, "--tables")?));
                i += 2;
            }
            "--query" => {
                args.query.push(take(&argv, i, "--query")?);
                i += 2;
            }
            "--k" => {
                args.k = take(&argv, i, "--k")?
                    .parse()
                    .map_err(|_| "--k needs an integer".to_string())?;
                i += 2;
            }
            "--sim" => {
                args.sim = take(&argv, i, "--sim")?;
                i += 2;
            }
            "--kernel" => {
                let name = take(&argv, i, "--kernel")?;
                args.kernel = SigmaKernel::parse(&name)
                    .ok_or_else(|| format!("--kernel must be f64, f32 or i8, got {name:?}"))?;
                i += 2;
            }
            "--votes" => {
                args.votes = take(&argv, i, "--votes")?
                    .parse()
                    .map_err(|_| "--votes needs an integer".to_string())?;
                i += 2;
            }
            "--token-linking" => {
                args.token_linking = true;
                i += 1;
            }
            "--lsh" => {
                args.use_lsh = true;
                i += 1;
            }
            "--demo" => {
                args.demo = true;
                i += 1;
            }
            "--explain" => {
                args.explain = true;
                i += 1;
            }
            "--metrics" => {
                let format = take(&argv, i, "--metrics")?;
                if format != "text" && format != "json" {
                    return Err(format!("--metrics must be text or json, got {format:?}"));
                }
                args.metrics = Some(format);
                i += 2;
            }
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(take(&argv, i, "--metrics-out")?));
                i += 2;
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(take(&argv, i, "--trace-out")?));
                i += 2;
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    take(&argv, i, "--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs an integer".to_string())?,
                );
                i += 2;
            }
            "--index" => {
                args.index = Some(PathBuf::from(take(&argv, i, "--index")?));
                args.use_lsh = true;
                i += 2;
            }
            "--save-index" => {
                args.save_index = Some(PathBuf::from(take(&argv, i, "--save-index")?));
                args.use_lsh = true;
                i += 2;
            }
            "--csv" => {
                args.csv = Some(PathBuf::from(take(&argv, i, "--csv")?));
                i += 2;
            }
            "--table" => {
                args.table_name = Some(take(&argv, i, "--table")?);
                i += 2;
            }
            "--addr" => {
                args.addr = take(&argv, i, "--addr")?;
                i += 2;
            }
            "--max-inflight" => {
                args.max_inflight = Some(
                    take(&argv, i, "--max-inflight")?
                        .parse()
                        .map_err(|_| "--max-inflight needs an integer".to_string())?,
                );
                i += 2;
            }
            "--cache-capacity" => {
                args.cache_capacity = Some(
                    take(&argv, i, "--cache-capacity")?
                        .parse()
                        .map_err(|_| "--cache-capacity needs an integer".to_string())?,
                );
                i += 2;
            }
            "--slowlog" => {
                args.serve_slowlog = Some(PathBuf::from(take(&argv, i, "--slowlog")?));
                i += 2;
            }
            "--wal" => {
                args.serve_wal = Some(PathBuf::from(take(&argv, i, "--wal")?));
                i += 2;
            }
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    take(&argv, i, "--checkpoint-every")?
                        .parse()
                        .map_err(|_| "--checkpoint-every needs an integer".to_string())?,
                );
                i += 2;
            }
            "--metrics-interval-s" => {
                args.metrics_interval_s = Some(
                    take(&argv, i, "--metrics-interval-s")?
                        .parse()
                        .map_err(|_| "--metrics-interval-s needs an integer".to_string())?,
                );
                i += 2;
            }
            "--limit" => {
                args.limit = take(&argv, i, "--limit")?
                    .parse()
                    .map_err(|_| "--limit needs an integer".to_string())?;
                i += 2;
            }
            "--interval-ms" => {
                args.interval_ms = take(&argv, i, "--interval-ms")?
                    .parse()
                    .map_err(|_| "--interval-ms needs an integer".to_string())?;
                i += 2;
            }
            "--frames" => {
                args.frames = Some(
                    take(&argv, i, "--frames")?
                        .parse()
                        .map_err(|_| "--frames needs an integer".to_string())?,
                );
                i += 2;
            }
            "--no-clear" => {
                args.no_clear = true;
                i += 1;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.cmd_add || args.cmd_remove {
        let cmd = if args.cmd_add { "add" } else { "remove" };
        if args.demo {
            return Err(format!(
                "{cmd} mutates a real lake; --demo has none\n{USAGE}"
            ));
        }
        if args.kg.is_none() || args.tables.is_none() || args.index.is_none() {
            return Err(format!("{cmd} needs --kg, --tables and --index\n{USAGE}"));
        }
        if args.cmd_add && args.csv.is_none() {
            return Err(format!("add needs --csv FILE\n{USAGE}"));
        }
        if args.cmd_remove && args.table_name.is_none() {
            return Err(format!("remove needs --table NAME\n{USAGE}"));
        }
        return Ok(args);
    }
    if args.cmd_serve {
        if !args.demo && (args.kg.is_none() || args.tables.is_none()) {
            return Err(format!(
                "serve needs --kg and --tables (or --demo)\n{USAGE}"
            ));
        }
        return Ok(args);
    }
    if args.cmd_top {
        if args.addr == "127.0.0.1:0" {
            return Err(format!(
                "top needs --addr HOST:PORT of a running server\n{USAGE}"
            ));
        }
        return Ok(args);
    }
    if args.cmd_slowlog {
        if args.slowlog_file.is_none() {
            return Err(format!("slowlog needs a FILE argument\n{USAGE}"));
        }
        return Ok(args);
    }
    if args.query.is_empty() {
        return Err(format!("--query is required\n{USAGE}"));
    }
    if !args.demo && (args.kg.is_none() || args.tables.is_none()) {
        return Err(format!(
            "--kg and --tables are required (or --demo)\n{USAGE}"
        ));
    }
    Ok(args)
}

fn load_kg(path: &Path) -> Result<KnowledgeGraph, String> {
    let file = std::fs::File::open(path)
        .map_err(|e| format!("cannot open KG file {}: {e}", path.display()))?;
    thetis::kg::io::read_tsv(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot parse KG: {e}"))
}

fn load_tables(dir: &Path) -> Result<DataLake, String> {
    let mut lake = DataLake::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read tables directory {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(format!("no .csv files in {}", dir.display()));
    }
    for path in entries {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "table".into());
        let file = std::fs::File::open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        let table = thetis::datalake::csv::read_csv(&name, std::io::BufReader::new(file))
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        lake.add_table(table);
    }
    lake.rebuild_postings();
    Ok(lake)
}

/// Parses `"e1,e2;f1,f2"` query strings into entity tuples, resolving each
/// mention against the KG label index (unknown mentions are skipped with a
/// warning, as the problem definition prescribes).
fn parse_query(specs: &[String], graph: &KnowledgeGraph) -> Query {
    let mut tuples = Vec::new();
    for spec in specs {
        for tuple_spec in spec.split(';') {
            let mut tuple = Vec::new();
            for mention in tuple_spec.split(',') {
                let mention = mention.trim();
                if mention.is_empty() {
                    continue;
                }
                match graph.entity_by_label(mention) {
                    Some(e) => tuple.push(e),
                    None => eprintln!("warning: {mention:?} is not a KG entity; ignored"),
                }
            }
            if !tuple.is_empty() {
                tuples.push(tuple);
            }
        }
    }
    Query::new(tuples)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    // Client-side subcommands need no lake at all.
    if args.cmd_top {
        return run_top(&args);
    }
    if args.cmd_slowlog {
        return run_slowlog(&args);
    }
    // Chaos runs: THETIS_FAULTS arms deterministic failpoints through the
    // whole stack (see the faults module docs for the spec syntax).
    match thetis::obs::faults::arm_from_env() {
        Ok(true) => {
            eprintln!(
                "warning: fault injection armed via {} (chaos run)",
                thetis::obs::faults::FAULTS_ENV_VAR
            );
            silence_injected_panics();
        }
        Ok(false) => {}
        Err(e) => {
            return Err(format!(
                "bad {} spec: {e}",
                thetis::obs::faults::FAULTS_ENV_VAR
            ))
        }
    }
    // Fail fast on a missing index file — most likely a typo — before any
    // expensive loading. (A file that exists but fails verification is
    // handled later by degrading to an exhaustive scan.)
    if let Some(path) = &args.index {
        if !path.exists() {
            return Err(format!(
                "index file {} does not exist (build one with --save-index)",
                path.display()
            ));
        }
    }
    // THETIS_OBS=0 is the kill switch: no telemetry, no tracing, no matter
    // what the flags say.
    let obs_allowed = !thetis::obs::env_disabled();
    if args.metrics.is_some() && obs_allowed {
        thetis::obs::set_enabled(true);
    }

    let (graph, mut lake) = if args.demo {
        let bench = Benchmark::build(&BenchmarkConfig::tiny(BenchmarkKind::Wt2015));
        eprintln!(
            "demo lake: {} ({} KG entities). Try --query \"{}\"",
            LakeStats::compute(&bench.lake),
            bench.kg.graph.entity_count(),
            bench.kg.graph.label(bench.queries1[0].tuples[0][0]),
        );
        (bench.kg.graph, bench.lake)
    } else {
        (
            load_kg(args.kg.as_ref().expect("checked above"))?,
            load_tables(args.tables.as_ref().expect("checked above"))?,
        )
    };

    // Entity linking Φ.
    let stats = if args.token_linking {
        TokenLinker::new(&graph).link_lake(&mut lake)
    } else {
        ExactLabelLinker::new(&graph).link_lake(&mut lake)
    };
    eprintln!(
        "linked {}/{} cells ({:.1}% coverage) across {} tables",
        stats.linked,
        stats.cells,
        stats.coverage() * 100.0,
        lake.len()
    );

    if args.cmd_add || args.cmd_remove {
        return run_delta(&args, &graph, &mut lake);
    }
    if args.cmd_serve {
        return run_serve(&args, graph, lake);
    }

    let query = parse_query(&args.query, &graph);
    if query.is_empty() {
        return Err("no query entity could be resolved against the KG".into());
    }

    // Embedding similarity needs a trained store that outlives the engine.
    let store: Option<EmbeddingStore> = if args.sim == "embeddings" {
        eprintln!("training RDF2Vec embeddings on the KG...");
        let config = Rdf2VecConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ..Rdf2VecConfig::default()
        };
        Some(Rdf2Vec::new(config).train(&graph))
    } else {
        None
    };
    let sim: Box<dyn EntitySimilarity + '_> = match args.sim.as_str() {
        "types" => Box::new(TypeJaccard::new(&graph)),
        "predicates" => Box::new(PredicateJaccard::new(&graph)),
        "embeddings" => {
            let cos = EmbeddingCosine::new(store.as_ref().expect("trained above"));
            // Build the quantized slab up front so the first query does not
            // pay for it inside its sigma timings.
            cos.warm(args.kernel);
            Box::new(cos)
        }
        other => {
            return Err(format!(
                "unknown similarity {other:?} (types|predicates|embeddings)"
            ))
        }
    };
    let engine = ThetisEngine::new(&graph, &lake, sim);
    let mut options = SearchOptions::top(args.k).with_kernel(args.kernel);
    if let Some(ms) = args.deadline_ms {
        options = options.with_deadline(std::time::Duration::from_millis(ms));
    }

    if args.cmd_explain {
        return run_explain(&args, &graph, &lake, &engine, &query, options, obs_allowed);
    }

    let result = if args.use_lsh {
        // Load the index snapshot if one was given, build it otherwise. A
        // missing snapshot file is a hard error (most likely a typo); a
        // snapshot that fails verification degrades to an exhaustive scan.
        let lsei = match &args.index {
            Some(path) => {
                match thetis::lsh::persist::read_lsei_file(
                    path,
                    lsei_signer(&graph, &lake),
                    LshConfig::recommended(),
                ) {
                    Ok(l) => Some(l),
                    Err(e) => {
                        eprintln!(
                            "warning: index {} is unusable ({e}); \
                             falling back to an exhaustive scan",
                            path.display()
                        );
                        None
                    }
                }
            }
            None => Some(build_lsei(&graph, &lake)),
        };
        if let (Some(l), Some(out)) = (&lsei, &args.save_index) {
            thetis::lsh::persist::write_lsei_file(l, out)?;
            eprintln!("wrote LSEI snapshot to {}", out.display());
        }
        let off = thetis::obs::QueryTrace::disabled();
        let candidates = Candidates::lsei(lsei.as_ref(), &query, args.votes, &off);
        engine.execute(&query, options, candidates, None, &off)
    } else {
        engine.search(&query, options)
    };
    warn_if_degraded(&result.stats);

    println!("{:<30} {:>8}", "table", "SemRel");
    for (tid, score) in &result.ranked {
        println!("{:<30} {score:>8.4}", lake.table(*tid).name);
        if args.explain {
            let ex = thetis::core::explain(
                &query,
                &lake,
                *tid,
                engine.similarity(),
                engine.informativeness(),
            );
            for (ti, tuple) in ex.tuples.iter().enumerate() {
                for m in &tuple.matches {
                    let target = m
                        .matched_entity
                        .map(|e| graph.label(e).to_string())
                        .unwrap_or_else(|| "(no match)".into());
                    let col = m
                        .column
                        .map(|c| lake.table(*tid).columns[c].clone())
                        .unwrap_or_else(|| "-".into());
                    println!(
                        "    tuple {ti}: {:<24} -> {:<24} col {:<10} sigma={:.3}",
                        graph.label(m.query_entity),
                        target,
                        col,
                        m.similarity
                    );
                }
            }
        }
    }
    eprintln!(
        "scored {} of {} tables in {:.1}ms (prefilter reduction {:.1}%, lake epoch {})",
        result.stats.tables_scored,
        lake.len(),
        result.stats.total_nanos as f64 / 1e6,
        result.stats.reduction * 100.0,
        result.stats.lake_epoch,
    );

    if let Some(format) = &args.metrics {
        let report = thetis::obs::snapshot();
        let rendered = match format.as_str() {
            "json" => report.render_json(),
            _ => report.render_text(),
        };
        match &args.metrics_out {
            Some(path) => write_report(path, rendered.as_bytes(), "metrics")?,
            None => eprint!("{rendered}"),
        }
    }
    Ok(())
}

/// Writes a report file, creating missing parent directories first, and
/// confirms the written path on stderr — tooling that points --metrics-out
/// or --trace-out into a fresh output directory should not have to
/// pre-create it.
fn write_report(path: &Path, contents: &[u8], what: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create directory {}: {e}", parent.display()))?;
    }
    std::fs::write(path, contents)
        .map_err(|e| format!("cannot write {what} to {}: {e}", path.display()))?;
    eprintln!("wrote {what} to {}", path.display());
    Ok(())
}

/// The `serve` subcommand: load the lake and build the LSEI once, then
/// answer concurrent line-delimited JSON queries over TCP until a
/// `{"op":"shutdown"}` request arrives. See `thetis::serve` for the
/// protocol and the admission-control / shared-cache semantics.
fn run_serve(args: &Args, graph: KnowledgeGraph, lake: DataLake) -> Result<(), String> {
    // A resident server always records its cumulative metrics (the
    // rolling-window side is unconditional anyway); THETIS_OBS=0 still
    // wins as the kill switch.
    if !thetis::obs::env_disabled() {
        thetis::obs::set_enabled(true);
    }
    let store: Option<EmbeddingStore> = if args.sim == "embeddings" {
        eprintln!("training RDF2Vec embeddings on the KG...");
        let config = Rdf2VecConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ..Rdf2VecConfig::default()
        };
        Some(Rdf2Vec::new(config).train(&graph))
    } else {
        None
    };
    let sim = match args.sim.as_str() {
        "types" => SimKind::Types,
        "predicates" => SimKind::Predicates,
        "embeddings" => SimKind::Embeddings,
        other => {
            return Err(format!(
                "unknown similarity {other:?} (types|predicates|embeddings)"
            ))
        }
    };
    let mut config = ServerConfig {
        addr: args.addr.clone(),
        votes: args.votes,
        k: args.k,
        sim,
        kernel: args.kernel,
        // Test hook, deliberately not a flag: lets the e2e suite hold a
        // request in flight to exercise saturation and epoch pinning.
        allow_debug: std::env::var_os("THETIS_SERVE_DEBUG").is_some(),
        slowlog: args.serve_slowlog.clone(),
        wal: args.serve_wal.clone(),
        metrics_out: args.metrics_out.clone(),
        // Operators get the rate-limited trouble lines on stderr; library
        // and test embeddings leave them off.
        trouble_log: true,
        ..ServerConfig::default()
    };
    if let Some(n) = args.max_inflight {
        config.max_inflight = n;
    }
    if let Some(n) = args.cache_capacity {
        config.cache_capacity = n;
    }
    if let Some(s) = args.metrics_interval_s {
        config.metrics_interval = std::time::Duration::from_secs(s.max(1));
    }
    if let Some(n) = args.checkpoint_every {
        config.checkpoint_every = n;
    }
    eprintln!("building LSEI...");
    let (server, recovery) = Server::recover(graph, lake, store, config)?;
    if recovery.wal_enabled {
        eprintln!(
            "recovered epoch {} (checkpoint {}, replayed {} record(s), \
             skipped {}, dropped {} torn byte(s))",
            recovery.recovered_epoch,
            recovery
                .checkpoint_epoch
                .map_or_else(|| "none".to_string(), |e| format!("epoch {e}")),
            recovery.replayed,
            recovery.skipped,
            recovery.dropped_bytes,
        );
    }
    let running =
        thetis::serve::serve(server).map_err(|e| format!("cannot bind {}: {e}", args.addr))?;
    eprintln!(
        "serving on {} (max in-flight {}, sigma memo capacity {})",
        running.addr(),
        running.server().config().max_inflight,
        running.server().config().cache_capacity,
    );
    if let Some(path) = &args.serve_slowlog {
        eprintln!("slow-query log: {}", path.display());
    }
    if let Some(path) = &args.serve_wal {
        eprintln!(
            "mutation journal: {} (checkpoint every {} mutation(s))",
            path.display(),
            running.server().config().checkpoint_every,
        );
    }
    if let Some(path) = &args.metrics_out {
        eprintln!(
            "metrics snapshots: {} every {:?}",
            path.display(),
            running.server().config().metrics_interval,
        );
    }
    running.join();
    eprintln!("server shut down");
    Ok(())
}

/// One protocol request over its own connection, like any other client.
fn send_request(addr: &str, op: &str) -> Result<thetis::serve::Response, String> {
    use std::io::{BufRead, BufReader, Write as _};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut line = serde_json::to_string(&thetis::serve::Request::op(op))
        .map_err(|e| format!("cannot encode request: {e}"))?;
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("cannot send to {addr}: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("cannot read from {addr}: {e}"))?;
    serde_json::from_str(&reply).map_err(|e| format!("bad response from {addr}: {e}"))
}

/// Formats an optional microsecond reading for the dashboard.
fn fmt_us(us: Option<u64>) -> String {
    us.map_or_else(|| "-".into(), |v| format!("{v}us"))
}

/// The `top` subcommand: a live dashboard over the `metrics` and `health`
/// protocol ops of a running server — windowed QPS and latency quantiles
/// with sparkline history, degradation state, and the slowest retained
/// queries with their trace ids.
fn run_top(args: &Args) -> Result<(), String> {
    const HISTORY: usize = 48;
    let mut qps_hist: Vec<Option<u64>> = Vec::new();
    let mut p50_hist: Vec<Option<u64>> = Vec::new();
    let mut p99_hist: Vec<Option<u64>> = Vec::new();
    let mut frame = 0u64;
    loop {
        let metrics = send_request(&args.addr, "metrics")?
            .metrics
            .ok_or("server did not return metrics (is it an older build?)")?;
        let health = send_request(&args.addr, "health")?
            .health
            .ok_or("server did not return health (is it an older build?)")?;
        let push = |hist: &mut Vec<Option<u64>>, v: Option<u64>| {
            hist.push(v);
            if hist.len() > HISTORY {
                hist.remove(0);
            }
        };
        push(&mut qps_hist, Some(metrics.qps.round() as u64));
        push(&mut p50_hist, metrics.p50_us);
        push(&mut p99_hist, metrics.p99_us);

        if !args.no_clear {
            // Clear and home, plain ANSI.
            print!("\x1b[2J\x1b[H");
        }
        println!(
            "thetis-serve {}  epoch {}  up {:.0}s  [{}]",
            args.addr, metrics.epoch, metrics.uptime_s, health.status
        );
        for reason in &health.reasons {
            println!("  ! {reason}");
        }
        println!(
            "  window {}s: {} request(s), {} shed, {} error(s), {} degraded, \
             {} mutation(s), sigma hit rate {:.1}%",
            metrics.window_secs,
            metrics.window_requests,
            metrics.window_shed,
            metrics.window_errors,
            metrics.window_degraded,
            metrics.window_mutations,
            metrics.window_sigma_hit_rate * 100.0,
        );
        println!(
            "  inflight {}/{}  totals: {} request(s), {} shed, {} error(s), \
             {} degraded  traces {}/{} promoted",
            metrics.inflight,
            metrics.max_inflight,
            metrics.total_requests,
            metrics.total_shed,
            metrics.total_errors,
            metrics.total_degraded,
            metrics.traces_promoted,
            metrics.traces_retained,
        );
        println!(
            "  qps {:>10.1}  {}",
            metrics.qps,
            thetis::obs::sparkline(&qps_hist)
        );
        println!(
            "  p50 {:>10}  {}",
            fmt_us(metrics.p50_us),
            thetis::obs::sparkline(&p50_hist)
        );
        println!(
            "  p99 {:>10}  {}",
            fmt_us(metrics.p99_us),
            thetis::obs::sparkline(&p99_hist)
        );
        if !metrics.slowest.is_empty() {
            println!("  slowest retained queries:");
            for q in &metrics.slowest {
                println!(
                    "    {:#018x}  {:>9}us  epoch {}  {}{}",
                    q.query_id,
                    q.latency_us,
                    q.epoch,
                    if q.reasons.is_empty() {
                        "ok".to_string()
                    } else {
                        q.reasons.join("+")
                    },
                    q.promoted_by
                        .as_deref()
                        .map(|p| format!("  [slowlog: {p}]"))
                        .unwrap_or_default(),
                );
            }
        }
        frame += 1;
        if args.frames.is_some_and(|n| frame >= n) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms.max(50)));
    }
}

/// The `slowlog` subcommand: pretty-print the slow-query log a server
/// wrote with `serve --slowlog`, most recent last, each with its full
/// timing waterfall.
fn run_slowlog(args: &Args) -> Result<(), String> {
    let path = args.slowlog_file.as_ref().expect("validated");
    let log = thetis::obs::read_slowlog(path)
        .map_err(|e| format!("cannot read slowlog {}: {e}", path.display()))?;
    if log.torn_skipped > 0 {
        eprintln!(
            "note: skipped {} torn trailing record(s) (crash mid-append)",
            log.torn_skipped
        );
    }
    let traces = log.traces;
    if traces.is_empty() {
        eprintln!("slowlog {} is empty", path.display());
        return Ok(());
    }
    let total = traces.len();
    let start = total.saturating_sub(args.limit.max(1));
    eprintln!(
        "{total} promoted trace(s) in {}, showing {}",
        path.display(),
        total - start
    );
    for trace in &traces[start..] {
        print!("{}", trace.render());
    }
    Ok(())
}

/// The `add` / `remove` subcommands: patch the lake and the persisted LSEI
/// incrementally instead of rebuilding either.
///
/// Both start from a coherence check — the snapshot must describe exactly
/// the lake that was just loaded (same epoch, same table count) — and exit
/// nonzero on a stale index, because a delta applied to the wrong base
/// would silently corrupt postings. The mutation itself is O(table):
/// digests, entity→table postings, and band buckets are patched in place
/// and the epoch advances once, in lockstep on both sides.
fn run_delta(args: &Args, graph: &KnowledgeGraph, lake: &mut DataLake) -> Result<(), String> {
    let index_path = args.index.as_ref().expect("validated");
    let tables_dir = args.tables.as_ref().expect("validated");
    let mut lsei = thetis::lsh::persist::read_lsei_file(
        index_path,
        lsei_signer(graph, lake),
        LshConfig::recommended(),
    )
    .map_err(|e| format!("cannot load index {}: {e}", index_path.display()))?;

    let index_tables = lsei.parts().4;
    if lsei.epoch() != lake.epoch() || index_tables != lake.len() {
        return Err(format!(
            "stale index {}: snapshot is at epoch {} over {} table(s), but the \
             lake loaded from {} is at epoch {} over {} table(s); rebuild the \
             snapshot (search with --lsh --save-index) before applying deltas",
            index_path.display(),
            lsei.epoch(),
            index_tables,
            tables_dir.display(),
            lake.epoch(),
            lake.len(),
        ));
    }

    let started = std::time::Instant::now();
    if args.cmd_add {
        let csv_path = args.csv.as_ref().expect("validated");
        let name = csv_path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "table".into());
        if lake
            .iter()
            .any(|(id, t)| !lake.is_removed(id) && t.name == name)
        {
            return Err(format!(
                "table {name:?} already exists in the lake (remove it first, \
                 or rename the CSV)"
            ));
        }
        let file = std::fs::File::open(csv_path)
            .map_err(|e| format!("cannot open {}: {e}", csv_path.display()))?;
        let mut table = thetis::datalake::csv::read_csv(&name, std::io::BufReader::new(file))
            .map_err(|e| format!("cannot parse {}: {e}", csv_path.display()))?;
        let stats = if args.token_linking {
            TokenLinker::new(graph).link_table(&mut table)
        } else {
            ExactLabelLinker::new(graph).link_table(&mut table)
        };
        let before = lake.epoch();
        let id = lake.add_table(table.clone());
        lsei.insert_table(id, &table);
        eprintln!(
            "added {name:?} as table {} ({}/{} cells linked): epoch {} -> {} \
             in {:.2?} (delta, no rebuild)",
            id.0,
            stats.linked,
            stats.cells,
            before,
            lake.epoch(),
            started.elapsed(),
        );
        // Keep the directory the source of truth: copy the CSV in so the
        // next full load sees the same lake the snapshot describes. Delta
        // ids append, so the file must also sort last.
        let dest = tables_dir.join(format!("{name}.csv"));
        if dest != *csv_path {
            std::fs::copy(csv_path, &dest).map_err(|e| {
                format!(
                    "cannot copy {} into {}: {e}",
                    csv_path.display(),
                    dest.display()
                )
            })?;
            eprintln!(
                "copied {} into {}",
                csv_path.display(),
                tables_dir.display()
            );
        }
        if lake
            .iter()
            .any(|(other, t)| other != id && !lake.is_removed(other) && t.name > name)
        {
            eprintln!(
                "warning: {name}.csv does not sort last in {}; a future full \
                 load will assign different table ids than this snapshot — \
                 rebuild the index before trusting it again",
                tables_dir.display()
            );
        }
    } else {
        let name = args.table_name.as_ref().expect("validated");
        let id = lake
            .iter()
            .find(|&(id, t)| !lake.is_removed(id) && &t.name == name)
            .map(|(id, _)| id)
            .ok_or_else(|| format!("no table named {name:?} in the lake"))?;
        let before = lake.epoch();
        let old = lake.remove_table(id);
        lsei.remove_table(id, &old);
        eprintln!(
            "removed {name:?} (table {}, {} row(s)): epoch {} -> {} in {:.2?} \
             (tombstoned, delta)",
            id.0,
            old.rows().len(),
            before,
            lake.epoch(),
            started.elapsed(),
        );
        eprintln!(
            "note: {}/{name}.csv is left in place; the updated snapshot \
             describes the tombstoned lake and will read as stale against a \
             fresh load of the directory",
            tables_dir.display()
        );
    }
    debug_assert_eq!(lsei.epoch(), lake.epoch(), "epochs move in lockstep");

    if let Some(out) = &args.save_index {
        thetis::lsh::persist::write_lsei_file(&lsei, out)?;
        eprintln!(
            "wrote updated LSEI snapshot (epoch {}) to {}",
            lsei.epoch(),
            out.display()
        );
    } else {
        eprintln!("dry run: pass --save-index FILE to persist the updated index");
    }
    Ok(())
}

/// Keeps chaos-run output readable: injected panics are caught by the
/// engine's per-table isolation, so their default hook backtrace is pure
/// noise. Genuine panics still report through the original hook.
fn silence_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.as_str())
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|s| s.starts_with("injected fault:"));
        if !injected {
            default_hook(info);
        }
    }));
}

/// Warns on stderr when a search returned partial results, naming the
/// rungs of the degradation ladder that fired and how much was skipped.
fn warn_if_degraded(stats: &SearchStats) {
    if !stats.degraded {
        return;
    }
    eprintln!(
        "warning: degraded result ({}) — {} of {} candidate table(s) unscored{}",
        stats.degraded_reason,
        stats.tables_unscored,
        stats.candidates,
        if stats.worker_panics() > 0 {
            format!(", {} dropped by panic isolation", stats.worker_panics())
        } else {
            String::new()
        }
    );
}

/// A stable query id for the trace: FNV-1a over the query's entity ids.
fn query_trace_id(query: &Query) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for tuple in &query.tuples {
        for e in tuple {
            h ^= e.0 as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The signer of the CLI's one LSEI construction — recommended config, a
/// type filter banning types found in more than half the lake's tables,
/// seed 42. `thetis-serve` mirrors it, so served and one-shot rankings agree bit
/// for bit, and a snapshot saved by one loads in the other.
fn lsei_signer<'g>(graph: &'g KnowledgeGraph, lake: &DataLake) -> TypeSigner<'g> {
    let filter = TypeFilter::from_lake(lake, graph, 0.5);
    TypeSigner::new(graph, filter, LshConfig::recommended(), 42)
}

/// Builds the CLI's LSEI over `lake` (see [`lsei_signer`]).
fn build_lsei<'g>(graph: &'g KnowledgeGraph, lake: &DataLake) -> Lsei<TypeSigner<'g>> {
    let cfg = LshConfig::recommended();
    Lsei::build(lake, lsei_signer(graph, lake), cfg, LseiMode::Entity)
}

/// The `explain` subcommand: a traced LSEI search followed by the full
/// score-provenance record of every top-k hit.
fn run_explain<S: EntitySimilarity>(
    args: &Args,
    graph: &KnowledgeGraph,
    lake: &DataLake,
    engine: &ThetisEngine<'_, S>,
    query: &Query,
    options: SearchOptions,
    obs_allowed: bool,
) -> Result<(), String> {
    let lsei = build_lsei(graph, lake);
    let trace = if obs_allowed {
        thetis::obs::QueryTrace::forced(query_trace_id(query))
    } else {
        thetis::obs::QueryTrace::disabled()
    };
    let candidates = Candidates::lsei(Some(&lsei), query, args.votes, &trace);
    let result = engine.execute(query, options, candidates, None, &trace);
    warn_if_degraded(&result.stats);

    let label = |e: thetis::kg::EntityId| graph.label(e).to_string();
    println!(
        "query: {} tuple(s), {} distinct entities — {} candidate(s) after LSEI, {} scored, {} pruned",
        query.len(),
        query.distinct_entities().len(),
        result.stats.candidates,
        result.stats.tables_scored,
        result.stats.tables_pruned(),
    );
    println!(
        "lake: epoch {} — the snapshot this search was pinned to",
        result.stats.lake_epoch
    );
    if result.stats.degraded {
        println!(
            "degraded: reason {} — {} table(s) unscored, {} dropped by panic isolation",
            result.stats.degraded_reason,
            result.stats.tables_unscored,
            result.stats.worker_panics(),
        );
        for e in trace.events() {
            match e.name.as_str() {
                "sched.panic" => println!(
                    "    worker {} panicked{}: {}",
                    e.attr_u64("worker").unwrap_or(0),
                    e.attr_u64("table")
                        .map(|t| format!(" scoring table {t}"))
                        .unwrap_or_default(),
                    e.attr_str("msg").unwrap_or("(no message)"),
                ),
                "sched.deadline" => println!(
                    "    deadline expired after {} of {} claim(s)",
                    e.attr_u64("claimed").unwrap_or(0),
                    e.attr_u64("total").unwrap_or(0),
                ),
                "lsei.fallback" => println!(
                    "    LSEI unusable — exhaustively scanned {} table(s)",
                    e.attr_u64("tables").unwrap_or(0),
                ),
                _ => {}
            }
        }
    }
    let query_entities = query.distinct_entities();
    for (rank, (tid, score)) in result.ranked.iter().enumerate() {
        let table = lake.table(*tid);
        let ex = thetis::core::explain(
            query,
            lake,
            *tid,
            engine.similarity(),
            engine.informativeness(),
        )
        .with_admission(lsei.admission_evidence(&query_entities, args.votes, *tid));
        println!();
        println!(
            "#{:<2} {:<30} SemRel {score:.4}   (upper bound {:.4})",
            rank + 1,
            table.name,
            ex.upper_bound
        );
        for (ti, tuple) in ex.tuples.iter().enumerate() {
            // The Hungarian mapping with the evidence behind each choice.
            let mapping: Vec<String> = tuple
                .matches
                .iter()
                .map(|m| match m.column {
                    Some(c) => format!(
                        "{} → col {:?} (relevance {:.3})",
                        label(m.query_entity),
                        table.columns[c],
                        m.column_relevance
                    ),
                    None => format!("{} → (unmapped)", label(m.query_entity)),
                })
                .collect();
            println!("    mapping (tuple {ti}): {}", mapping.join(", "));
            // The σ breakdown that rebuilds the score: Eq. 2 contributions.
            for m in &tuple.matches {
                let target = m
                    .matched_entity
                    .map(&label)
                    .unwrap_or_else(|| "(no match)".into());
                println!(
                    "      {:<24} ≈ {:<24} σ={:.4}  weight={:.3}  contribution={:.4}",
                    label(m.query_entity),
                    target,
                    m.similarity,
                    m.weight,
                    m.distance_contribution()
                );
            }
            println!(
                "      D_I = {:.4} ⇒ tuple SemRel = 1/(D_I+1) = {:.4}",
                tuple.weighted_distance(),
                tuple.score
            );
        }
        println!(
            "    table score = mean over {} tuple(s) = {:.4}",
            ex.tuples.len(),
            ex.score
        );
        // Why the LSEI let this table through.
        if let Some(adm) = &ex.admission {
            println!(
                "    LSEI admission (votes required {}):{}",
                adm.votes_required.max(1),
                if adm.admitted() {
                    ""
                } else {
                    "  [below threshold]"
                }
            );
            for v in &adm.entity_votes {
                let bands: Vec<String> = v.bands.iter().map(usize::to_string).collect();
                println!(
                    "      {:<24} votes={:<4} bands=[{}]",
                    label(v.entity),
                    v.votes,
                    bands.join(",")
                );
            }
        }
    }

    if trace.is_active() {
        println!();
        // Scheduler provenance: how the scoring work spread over workers,
        // and how the pruning floor tightened over the pass.
        let events = trace.events();
        let drains: Vec<_> = events.iter().filter(|e| e.name == "sched.drain").collect();
        if !drains.is_empty() {
            let steals = events.iter().filter(|e| e.name == "sched.steal").count();
            println!(
                "scheduler: {} worker drain(s), {} block(s) stolen",
                drains.len(),
                steals
            );
            for d in &drains {
                println!(
                    "    worker {} — {} block(s), {} table(s), busy {:.2}ms",
                    d.attr_u64("worker").unwrap_or(0),
                    d.attr_u64("blocks").unwrap_or(0),
                    d.attr_u64("tables").unwrap_or(0),
                    d.attr_u64("busy_nanos").unwrap_or(0) as f64 / 1e6,
                );
            }
        }
        let floors: Vec<String> = events
            .iter()
            .filter(|e| e.name == "prune.floor")
            .filter_map(|e| e.attr_f64("floor"))
            .map(|f| format!("{f:.4}"))
            .collect();
        if !floors.is_empty() {
            println!("    pruning floor trajectory: {}", floors.join(" → "));
        }
        print!("{}", trace.render_waterfall());
        if let Some(path) = &args.trace_out {
            write_report(path, trace.to_chrome_json().as_bytes(), "Chrome trace")?;
        }
    } else {
        println!();
        println!("(tracing disabled via THETIS_OBS=0 — waterfall omitted)");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
