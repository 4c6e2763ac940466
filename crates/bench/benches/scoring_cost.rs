//! Per-table scoring cost (§7.3): one `score_table` call per iteration,
//! for both σ instantiations and both query sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use thetis::core::search::{score_table, ScoreTimings};
use thetis::obs::QueryTrace;
use thetis::prelude::*;
use thetis_bench::BenchData;

fn bench_scoring(c: &mut Criterion) {
    let data = BenchData::build(BenchmarkKind::Wt2015, 0.0004, 4);
    let graph = &data.bench.kg.graph;
    let inform = Informativeness::from_lake(&data.bench.lake);
    let type_sim = TypeJaccard::new(graph);
    let emb_sim = EmbeddingCosine::new(&data.store);
    // Pick a big linked table as the scoring target.
    let target = data
        .bench
        .lake
        .iter()
        .max_by_key(|(_, t)| t.n_rows())
        .map(|(id, _)| id)
        .unwrap();

    let off = QueryTrace::disabled();
    let mut group = c.benchmark_group("score_table");
    for (qname, query) in [
        ("1-tuple", Query::new(data.bench.queries1[0].tuples.clone())),
        ("5-tuple", Query::new(data.bench.queries5[0].tuples.clone())),
    ] {
        group.bench_with_input(BenchmarkId::new("types", qname), &query, |b, q| {
            b.iter(|| {
                let mut t = ScoreTimings::default();
                score_table(
                    q,
                    &data.bench.lake,
                    target,
                    &type_sim,
                    &inform,
                    RowAgg::Max,
                    &mut t,
                    &off,
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("embeddings", qname), &query, |b, q| {
            b.iter(|| {
                let mut t = ScoreTimings::default();
                score_table(
                    q,
                    &data.bench.lake,
                    target,
                    &emb_sim,
                    &inform,
                    RowAgg::Max,
                    &mut t,
                    &off,
                )
            })
        });
    }
    group.finish();
}

/// Before/after the scoring optimizations: the same full-lake search with
/// σ memoization + upper-bound pruning on (default) versus off.
fn bench_search_modes(c: &mut Criterion) {
    let data = BenchData::build(BenchmarkKind::Wt2015, 0.0004, 4);
    let graph = &data.bench.kg.graph;
    let engine = ThetisEngine::new(graph, &data.bench.lake, TypeJaccard::new(graph));
    let query = Query::new(data.bench.queries5[0].tuples.clone());

    // One-off σ accounting next to the timings: the optimized path must
    // return the identical ranking while computing at most half the σ.
    let fast = engine.search(&query, SearchOptions::top(10));
    let slow = engine.search(&query, SearchOptions::exhaustive(10));
    assert_eq!(fast.ranked, slow.ranked, "optimized ranking diverged");
    assert!(
        fast.stats.sigma_computed() * 2 <= slow.stats.sigma_computed(),
        "memoization only cut σ evaluations from {} to {}",
        slow.stats.sigma_computed(),
        fast.stats.sigma_computed()
    );
    println!(
        "search_modes σ: exhaustive {} vs optimized {} ({:.1}x drop, hit rate {:.2}, {} tables pruned)",
        slow.stats.sigma_computed(),
        fast.stats.sigma_computed(),
        slow.stats.sigma_computed() as f64 / fast.stats.sigma_computed().max(1) as f64,
        fast.stats.sigma_hit_rate(),
        fast.stats.tables_pruned()
    );

    let mut group = c.benchmark_group("search_modes");
    group.bench_function("optimized", |b| {
        b.iter(|| engine.search(&query, SearchOptions::top(10)))
    });
    group.bench_function("exhaustive", |b| {
        b.iter(|| engine.search(&query, SearchOptions::exhaustive(10)))
    });
    group.finish();
}

criterion_group!(benches, bench_scoring, bench_search_modes);
criterion_main!(benches);
