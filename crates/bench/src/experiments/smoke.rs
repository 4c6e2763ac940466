//! CI perf-smoke workload: the `scoring_cost` and `lsh_index` bench
//! workloads at a fixed quick scale, with every hot path instrumented.
//!
//! This is what the `bench-smoke` CI job runs. It exercises, end to end:
//! LSEI construction and prefilter queries (`lsh.build`, `lsh.query`),
//! engine searches with σ memoization (`core.search`, `core.sigma`,
//! `core.hungarian`, `core.row_agg`), and raw `score_table` calls for both
//! σ instantiations. The enclosing `reproduce` run snapshots the registry
//! into `BENCH_smoke.json`, which `bench_gate` diffs against the committed
//! baseline.

use serde::Serialize;
use thetis::core::search::{score_table, ScoreTimings};
use thetis::lsh::lsei::LseiMode;
use thetis::obs::QueryTrace;
use thetis::prelude::*;

use crate::context::Ctx;

/// The smoke workload never grows past this corpus fraction, whatever
/// `--scale` says: the CI gate wants seconds, not fidelity.
const MAX_SMOKE_SCALE: f64 = 0.002;

/// How many engine searches per query set.
const SMOKE_SEARCHES: usize = 4;

/// Cold-cache passes of the embedding-σ search block; enough that the
/// quantizable embedding σ dominates the `core.sigma*` spans over the
/// kernel-invariant type-σ work above it (the f32-vs-f64 span diff is a
/// CI acceptance signal, so it needs headroom over run-to-run noise).
const SMOKE_EMB_PASSES: usize = 6;

/// Dimensionality of the σ-workload store. The corpus-fidelity store
/// trains at 32d for speed, but real RDF2Vec embeddings run 100–200d —
/// and at 32d fixed per-pair overhead (norm lookups, bounds checks,
/// clamping) hides most of the slab kernels' advantage, so the smoke
/// numbers would understate what production sees.
const SMOKE_EMB_DIM: usize = 128;

/// How many raw `score_table` iterations per σ.
const SMOKE_SCORE_ITERS: usize = 50;

#[derive(Serialize)]
struct SmokeSummary {
    tables: usize,
    threads: usize,
    kernel: String,
    lsei_build_seconds: f64,
    prefilter_queries: usize,
    searches: usize,
    emb_searches: usize,
    score_table_iters: usize,
    mean_search_seconds: f64,
    mean_emb_search_seconds: f64,
    sigma_slab_bytes: usize,
}

/// Runs the quick perf-smoke workload.
pub fn run(ctx: &Ctx) -> String {
    let scale = ctx.scale.min(MAX_SMOKE_SCALE);
    let n_queries = ctx.n_queries.clamp(4, 8);
    eprintln!(
        "[smoke] scale {scale}, {n_queries} queries, threads {}, kernel {}",
        if ctx.threads == 0 {
            "auto".to_string()
        } else {
            ctx.threads.to_string()
        },
        ctx.kernel,
    );
    let data = crate::context::BenchData::build(BenchmarkKind::Wt2015, scale, n_queries);
    let graph = &data.bench.kg.graph;
    let lake = &data.bench.lake;

    // lsh_index workload: build the LSEI, then run voting prefilters.
    let cfg = LshConfig::recommended();
    let filter = TypeFilter::from_lake(lake, graph, 0.5);
    let build_start = std::time::Instant::now();
    let lsei = Lsei::build(
        lake,
        TypeSigner::new(graph, filter.clone(), cfg, 9),
        cfg,
        LseiMode::Entity,
    );
    let lsei_build_seconds = build_start.elapsed().as_secs_f64();
    let mut prefilter_queries = 0usize;
    for q in data.bench.queries5.iter() {
        for votes in [1usize, 3] {
            let _ = lsei.prefilter(&q.distinct_entities(), votes);
            prefilter_queries += 1;
        }
    }

    // scoring_cost workload, part 1: full engine searches (σ memoization,
    // pruning, Hungarian mapping, row aggregation all live).
    let engine = ThetisEngine::new(graph, lake, TypeJaccard::new(graph));
    let options = SearchOptions {
        threads: ctx.threads,
        ..SearchOptions::top(10)
    };
    let mut searches = 0usize;
    let mut search_seconds = 0.0f64;
    for q in data.bench.queries5.iter().take(SMOKE_SEARCHES) {
        let query = Query::new(q.tuples.clone());
        let start = std::time::Instant::now();
        let plain = engine.search(&query, options);
        search_seconds += start.elapsed().as_secs_f64();
        let via_lsei = engine.search_prefiltered(&query, options, &lsei, 1);
        searches += 2;
        assert!(
            !plain.ranked.is_empty() && via_lsei.ranked.len() <= plain.ranked.len().max(10),
            "smoke search produced no ranking"
        );
    }

    // Embedding-σ searches under the context's kernel: `core.sigma*` self
    // time in the enclosing BENCH snapshot is dominated by these, so
    // diffing an `_f32` run against the f64 baseline reads off the
    // quantized-kernel speedup directly. Each pass uses a fresh engine
    // (cold σ cache) over both query sets — otherwise memoization would
    // hide all but the first pass's kernel work behind cache hits and the
    // kernel-invariant type searches above would dilute the spans. The
    // slab is warmed up front so its one-time build cost never pollutes a
    // sigma span.
    // The store is synthetic (seeded uniform values at paper-realistic
    // dimensionality): per-pair σ cost is data-independent, so this
    // measures exactly what the kernels change without paying for a
    // second SGNS training run.
    let emb_store = {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x516D_A50B);
        let raw: Vec<f32> = (0..graph.entity_count() * SMOKE_EMB_DIM)
            .map(|_| rng.random::<f32>() - 0.5)
            .collect();
        EmbeddingStore::from_raw(raw, SMOKE_EMB_DIM)
    };
    let emb_options = options.with_kernel(ctx.kernel);
    let mut sigma_slab_bytes = 0usize;
    let mut emb_searches = 0usize;
    let mut emb_search_seconds = 0.0f64;
    for _ in 0..SMOKE_EMB_PASSES {
        let emb_cos = EmbeddingCosine::new(&emb_store);
        emb_cos.warm(ctx.kernel);
        sigma_slab_bytes = emb_cos.slab_bytes();
        let emb_engine = ThetisEngine::new(graph, lake, emb_cos);
        for q in data.bench.queries5.iter().chain(data.bench.queries1.iter()) {
            let query = Query::new(q.tuples.clone());
            let start = std::time::Instant::now();
            let ranked = emb_engine.search(&query, emb_options);
            emb_search_seconds += start.elapsed().as_secs_f64();
            emb_searches += 1;
            assert!(
                !ranked.ranked.is_empty(),
                "smoke embedding search produced no ranking"
            );
        }
    }

    // scoring_cost workload, part 2: raw per-table scoring for both σ.
    let inform = Informativeness::from_lake(lake);
    let type_sim = TypeJaccard::new(graph);
    let emb_sim = EmbeddingCosine::new(&data.store);
    let target = lake
        .iter()
        .max_by_key(|(_, t)| t.n_rows())
        .map(|(id, _)| id)
        .expect("smoke lake is non-empty");
    let query = Query::new(data.bench.queries1[0].tuples.clone());
    let mut checksum = 0.0f64;
    let off = QueryTrace::disabled();
    for _ in 0..SMOKE_SCORE_ITERS {
        let mut t = ScoreTimings::default();
        checksum += score_table(
            &query,
            lake,
            target,
            &type_sim,
            &inform,
            RowAgg::Max,
            &mut t,
            &off,
        )
        .unwrap_or_default();
        checksum += score_table(
            &query,
            lake,
            target,
            &emb_sim,
            &inform,
            RowAgg::Max,
            &mut t,
            &off,
        )
        .unwrap_or_default();
    }
    assert!(checksum.is_finite(), "smoke scoring diverged");

    let summary = SmokeSummary {
        tables: lake.len(),
        threads: ctx.threads,
        kernel: ctx.kernel.to_string(),
        lsei_build_seconds,
        prefilter_queries,
        searches,
        emb_searches,
        score_table_iters: SMOKE_SCORE_ITERS * 2,
        mean_search_seconds: search_seconds / SMOKE_SEARCHES.max(1) as f64,
        mean_emb_search_seconds: emb_search_seconds / emb_searches.max(1) as f64,
        sigma_slab_bytes,
    };
    let line = format!(
        "smoke: {} tables, LSEI build {:.3}s, {} prefilters, {} searches (mean {:.4}s), \
         {} embedding searches (kernel {}, mean {:.4}s, slab {} B), {} score_table iters",
        summary.tables,
        summary.lsei_build_seconds,
        summary.prefilter_queries,
        summary.searches,
        summary.mean_search_seconds,
        summary.emb_searches,
        summary.kernel,
        summary.mean_emb_search_seconds,
        summary.sigma_slab_bytes,
        summary.score_table_iters,
    );
    ctx.write_json(&format!("smoke_summary{}", ctx.artifact_suffix()), &summary);
    println!("{line}");
    line
}
