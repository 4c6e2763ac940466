//! Property-based tests for the scoring optimizations: σ memoization and
//! top-k upper-bound pruning must be invisible in the ranking — the
//! optimized search returns bit-identical results to the exhaustive
//! sequential path on randomized tiny lakes — the cache counters must
//! account for every σ lookup, and every candidate source, memo and trace
//! of `ThetisEngine::execute` is interchangeable.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thetis_core::search::score_candidates;
use thetis_core::{
    Candidates, EmbeddingCosine, Informativeness, Query, RowAgg, SearchOptions,
    SharedSimilarityCache, SigmaKernel, SigmaSource, SimilarityCache, ThetisEngine, TypeJaccard,
};
use thetis_datalake::{CellValue, DataLake, Table, TableId};
use thetis_embedding::EmbeddingStore;
use thetis_kg::{EntityId, KgBuilder, KnowledgeGraph};
use thetis_lsh::lsei::{Lsei, LseiMode, TypeSigner};
use thetis_lsh::{LshConfig, TypeFilter};
use thetis_obs::QueryTrace;

/// A randomized tiny semantic data lake plus a query over it.
struct Scenario {
    graph: KnowledgeGraph,
    lake: DataLake,
    store: EmbeddingStore,
    query: Query,
}

fn build_scenario(seed: u64, n_entities: usize, n_tables: usize) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = KgBuilder::new();
    let root = b.add_type("Thing", None);
    let n_types = rng.random_range(2usize..5);
    let types: Vec<_> = (0..n_types)
        .map(|i| b.add_type(&format!("T{i}"), Some(root)))
        .collect();
    let entities: Vec<EntityId> = (0..n_entities)
        .map(|i| {
            let t = types[rng.random_range(0..types.len())];
            b.add_entity(&format!("e{i}"), vec![t])
        })
        .collect();
    let graph = b.freeze();

    let tables: Vec<Table> = (0..n_tables)
        .map(|ti| {
            let n_cols = rng.random_range(1usize..3);
            let cols = (0..n_cols).map(|c| format!("c{c}")).collect();
            let mut t = Table::new(format!("t{ti}"), cols);
            for _ in 0..rng.random_range(1usize..5) {
                let row = (0..n_cols)
                    .map(|_| {
                        if rng.random_bool(0.8) {
                            CellValue::LinkedEntity {
                                mention: "m".into(),
                                entity: entities[rng.random_range(0..entities.len())],
                            }
                        } else {
                            CellValue::Text("plain".into())
                        }
                    })
                    .collect();
                t.push_row(row);
            }
            t
        })
        .collect();
    let lake = DataLake::from_tables(tables);

    let dim = 4usize;
    let raw: Vec<f32> = (0..n_entities * dim)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    let store = EmbeddingStore::from_raw(raw, dim);

    let tuples = (0..rng.random_range(1usize..3))
        .map(|_| {
            (0..rng.random_range(1usize..3))
                .map(|_| entities[rng.random_range(0..entities.len())])
                .collect()
        })
        .collect();
    let query = Query::new(tuples);

    Scenario {
        graph,
        lake,
        store,
        query,
    }
}

/// Like [`build_scenario`], but with heavily skewed table sizes: most
/// tables hold 1–3 rows while a few hold 30–60, so static chunking would
/// leave some workers idle — exactly the shape work stealing targets.
fn build_skewed_scenario(seed: u64, n_entities: usize, n_tables: usize) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let mut s = build_scenario(seed, n_entities, n_tables);
    let mut tables: Vec<Table> = (0..n_tables)
        .map(|ti| {
            let n_rows = if rng.random_bool(0.15) {
                rng.random_range(30usize..60)
            } else {
                rng.random_range(1usize..4)
            };
            let mut t = Table::new(format!("t{ti}"), vec!["a".into(), "b".into()]);
            for _ in 0..n_rows {
                let row = (0..2)
                    .map(|_| {
                        if rng.random_bool(0.85) {
                            CellValue::LinkedEntity {
                                mention: "m".into(),
                                entity: EntityId(rng.random_range(0..n_entities as u32)),
                            }
                        } else {
                            CellValue::Text("plain".into())
                        }
                    })
                    .collect();
                t.push_row(row);
            }
            t
        })
        .collect();
    // One fully unlinked table so the skip path is exercised too.
    let mut unlinked = Table::new("unlinked", vec!["a".into()]);
    unlinked.push_row(vec![CellValue::Text("plain".into())]);
    tables.push(unlinked);
    s.lake = DataLake::from_tables(tables);
    s
}

/// Distinct scoring workers that drained on `trace` (`sched.drain` events
/// carry the worker's index).
fn drained_workers(trace: &QueryTrace) -> usize {
    let mut workers: Vec<u64> = trace
        .events()
        .iter()
        .filter(|e| e.name == "sched.drain")
        .filter_map(|e| e.attr_u64("worker"))
        .collect();
    workers.sort_unstable();
    workers.dedup();
    workers.len()
}

/// The exhaustive sequential reference, computed from the *raw* row-walk
/// primitives (no digest, no batching, no scheduler): per linked table,
/// Hungarian mapping + row aggregation per tuple, averaged.
fn reference_scores(
    s: &Scenario,
    sim: &dyn thetis_core::EntitySimilarity,
    weights: &[Vec<f64>],
    agg: RowAgg,
) -> Vec<(TableId, f64)> {
    let mut out = Vec::new();
    for tid in 0..s.lake.len() as u32 {
        let table = s.lake.table(TableId(tid));
        let linked = table
            .rows()
            .iter()
            .any(|row| row.iter().any(|c| c.entity().is_some()));
        if !linked || s.query.is_empty() {
            continue;
        }
        let mut sum = 0.0;
        for (tuple, w) in s.query.tuples.iter().zip(weights) {
            let (mapping, _) = thetis_core::mapping::map_tuple_to_columns(tuple, table, sim);
            let (score, _) =
                thetis_core::semrel::tuple_table_score(tuple, table, &mapping, sim, w, agg);
            sum += score;
        }
        out.push((TableId(tid), sum / s.query.len() as f64));
    }
    out
}

fn assert_optimized_matches_exhaustive(
    s: &Scenario,
    engine: &ThetisEngine<'_, impl thetis_core::EntitySimilarity>,
    k: usize,
) -> Result<(), TestCaseError> {
    for agg in [RowAgg::Max, RowAgg::Avg] {
        let fast = engine.search(
            &s.query,
            SearchOptions {
                agg,
                ..SearchOptions::top(k)
            },
        );
        let slow = engine.search(
            &s.query,
            SearchOptions {
                agg,
                threads: 1,
                ..SearchOptions::exhaustive(k)
            },
        );
        prop_assert_eq!(
            &fast.ranked,
            &slow.ranked,
            "optimized ranking diverged for k = {}, agg = {:?}",
            k,
            agg
        );
        prop_assert!(
            fast.stats.tables_scored + fast.stats.tables_pruned() <= slow.stats.tables_scored,
            "pruned path touched more tables than the exhaustive one"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Memoized + pruned search is bit-identical to the exhaustive
    /// sequential path under the type-Jaccard σ, for both row aggregations.
    #[test]
    fn optimized_search_is_ranking_identical_types(
        seed in any::<u64>(),
        n_entities in 4usize..16,
        n_tables in 2usize..10,
        k in 1usize..8,
    ) {
        let s = build_scenario(seed, n_entities, n_tables);
        let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
        assert_optimized_matches_exhaustive(&s, &engine, k)?;
    }

    /// The same invariance under the embedding-cosine σ.
    #[test]
    fn optimized_search_is_ranking_identical_embeddings(
        seed in any::<u64>(),
        n_entities in 4usize..16,
        n_tables in 2usize..10,
        k in 1usize..8,
    ) {
        let s = build_scenario(seed, n_entities, n_tables);
        let engine = ThetisEngine::new(&s.graph, &s.lake, EmbeddingCosine::new(&s.store));
        assert_optimized_matches_exhaustive(&s, &engine, k)?;
    }

    /// The invariance holds through the multi-threaded pruning path (the
    /// shared floor only ever tightens, so thread timing cannot change the
    /// ranking — only how many tables get pruned).
    #[test]
    fn parallel_pruned_search_is_ranking_identical(
        seed in any::<u64>(),
        k in 1usize..6,
        threads in 2usize..5,
    ) {
        // 80 tables crosses the sequential fallback cutoff for every
        // thread count in range (threads × 16 ≤ 80).
        let s = build_scenario(seed, 12, 80);
        let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
        let fast = engine.search(
            &s.query,
            SearchOptions { threads, ..SearchOptions::top(k) },
        );
        let slow = engine.search(
            &s.query,
            SearchOptions { threads: 1, ..SearchOptions::exhaustive(k) },
        );
        prop_assert_eq!(&fast.ranked, &slow.ranked);
    }

    /// The digest-driven, work-stolen scorer is **bit-identical** to the
    /// raw row-walk reference for every σ × aggregation combination, under
    /// skewed table sizes and 1–8 worker threads, each of which really runs
    /// (the lake gives every worker its 16 candidates).
    #[test]
    fn digest_scoring_is_bit_identical_to_raw_reference(
        seed in any::<u64>(),
        threads in 1usize..9,
    ) {
        let s = build_skewed_scenario(seed, 14, (threads * 16).max(40));
        let weights = Informativeness::from_lake(&s.lake).query_weights(&s.lake, &s.query);
        let candidates: Vec<TableId> = (0..s.lake.len() as u32).map(TableId).collect();
        let type_sim = TypeJaccard::new(&s.graph);
        let emb_sim = EmbeddingCosine::new(&s.store);
        let sims: [&(dyn thetis_core::EntitySimilarity + Sync); 2] = [&type_sim, &emb_sim];
        for sim in sims {
            for agg in [RowAgg::Max, RowAgg::Avg] {
                let reference = reference_scores(&s, sim, &weights, agg);
                let trace = QueryTrace::summary(seed);
                let (mut fast, timings) = score_candidates(
                    &s.query, &s.lake, &candidates, SigmaSource::Direct(sim), &weights, agg, threads, None, &trace,
                );
                prop_assert_eq!(drained_workers(&trace), threads);
                fast.sort_by_key(|&(t, _)| t);
                prop_assert_eq!(fast.len(), reference.len());
                for (&(ft, fs), &(rt, rs)) in fast.iter().zip(&reference) {
                    prop_assert_eq!(ft, rt);
                    prop_assert_eq!(
                        fs.to_bits(), rs.to_bits(),
                        "score of {:?} diverged bitwise: {} vs {} ({:?}, {} threads)",
                        ft, fs, rs, agg, threads
                    );
                }
                prop_assert_eq!(timings.tables_scored, reference.len());
            }
        }
    }

    /// The pruned, floor-seeded, bound-ordered path returns the same top-k
    /// as the raw reference for all four σ × aggregation combos and any
    /// thread count; every worker runs at least the bound phase.
    #[test]
    fn pruned_digest_search_keeps_the_reference_top_k(
        seed in any::<u64>(),
        k in 1usize..6,
        threads in 1usize..9,
    ) {
        let s = build_skewed_scenario(seed, 14, (threads * 16).max(40));
        let type_sim = TypeJaccard::new(&s.graph);
        let emb_sim = EmbeddingCosine::new(&s.store);
        for use_embeddings in [false, true] {
            for agg in [RowAgg::Max, RowAgg::Avg] {
                let opts = SearchOptions {
                    agg,
                    threads,
                    ..SearchOptions::top(k)
                };
                let weights = Informativeness::from_lake(&s.lake).query_weights(&s.lake, &s.query);
                let trace = QueryTrace::summary(seed);
                let (pruned, reference) = if use_embeddings {
                    let engine = ThetisEngine::new(&s.graph, &s.lake, EmbeddingCosine::new(&s.store));
                    (engine.execute(&s.query, opts, Candidates::Lake, None, &trace).ranked,
                     reference_scores(&s, &emb_sim, &weights, agg))
                } else {
                    let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
                    (engine.execute(&s.query, opts, Candidates::Lake, None, &trace).ranked,
                     reference_scores(&s, &type_sim, &weights, agg))
                };
                prop_assert_eq!(drained_workers(&trace), threads);
                let mut top = thetis_core::topk::TopK::new(k);
                for &(t, score) in &reference {
                    top.push(t, score);
                }
                prop_assert_eq!(pruned, top.into_sorted(), "agg = {:?}, {} threads", agg, threads);
            }
        }
    }

    /// Every σ lookup is either computed or served from the memo:
    /// `computed + served` equals the number of lookups, exactly — one per
    /// (query entity, distinct entity) of every scored table — and every
    /// computed pair left a filled cell behind.
    #[test]
    fn sigma_counters_account_for_every_lookup(
        seed in any::<u64>(),
        n_entities in 4usize..16,
        n_tables in 2usize..10,
        threads in 1usize..4,
    ) {
        let s = build_scenario(seed, n_entities, n_tables);
        let sim = TypeJaccard::new(&s.graph);
        let cache = SimilarityCache::new();
        let entities = s.query.distinct_entities();
        let rows = cache.rows(&sim, SigmaKernel::F64Exact, entities.clone(), s.graph.entity_count());
        let weights = Informativeness::from_lake(&s.lake).query_weights(&s.lake, &s.query);
        let candidates: Vec<TableId> = (0..s.lake.len() as u32).map(TableId).collect();
        score_candidates(
            &s.query,
            &s.lake,
            &candidates,
            SigmaSource::Memo(&rows),
            &weights,
            RowAgg::Max,
            threads,
            None,
            &QueryTrace::disabled(),
        );
        let distinct: Vec<Vec<EntityId>> = candidates
            .iter()
            .filter_map(|&t| s.lake.digest(t))
            .map(|d| d.distinct.clone())
            .collect();
        let lookups: usize = distinct.iter().map(|d| entities.len() * d.len()).sum();
        let stats = rows.stats();
        prop_assert_eq!(stats.computed + stats.served, lookups as u64);
        // Racing workers may fill a cell twice, but every cell filled once
        // is counted at least once.
        let mut pool: Vec<EntityId> = distinct.concat();
        pool.sort();
        pool.dedup();
        let filled = (0..entities.len())
            .flat_map(|i| pool.iter().map(move |&b| (i, b)))
            .filter(|&(i, b)| rows.cell(i, b).is_some())
            .count();
        prop_assert_eq!(filled, entities.len() * pool.len());
        prop_assert!(stats.computed >= filled as u64);
        if threads == 1 {
            prop_assert_eq!(stats.computed, filled as u64);
        }
    }

    /// A shared memo with room for one row evicts all the time, yet one
    /// search never evaluates a pair twice: its `sigma_computed` stays
    /// within (distinct query entities × distinct entities of its
    /// candidates), and it ranks bitwise like the exhaustive search.
    #[test]
    fn each_pair_is_computed_at_most_once_per_search_under_eviction(
        seed in any::<u64>(),
        n_entities in 4usize..16,
        n_tables in 2usize..12,
        k in 1usize..6,
        threads in 1usize..4,
    ) {
        let s = build_scenario(seed, n_entities, n_tables);
        let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
        let memo = SimilarityCache::with_capacity(s.graph.entity_count());
        let options = SearchOptions { threads, ..SearchOptions::top(k) };
        let off = QueryTrace::disabled();
        let mut pool: Vec<EntityId> = (0..s.lake.len() as u32)
            .filter_map(|t| s.lake.digest(TableId(t)))
            .flat_map(|d| d.distinct.iter().copied())
            .collect();
        pool.sort();
        pool.dedup();
        let bound = (s.query.distinct_entities().len() * pool.len()) as u64;
        let reference = engine.search(&s.query, SearchOptions { exhaustive: true, ..options });
        for _ in 0..2 {
            let res = engine.execute(&s.query, options, Candidates::Lake, Some(&memo), &off);
            prop_assert!(
                res.stats.sigma_computed() <= bound,
                "computed {} > bound {}", res.stats.sigma_computed(), bound
            );
            let bits = |r: &[(TableId, f64)]| -> Vec<(TableId, u64)> {
                r.iter().map(|&(t, x)| (t, x.to_bits())).collect()
            };
            prop_assert_eq!(bits(&res.ranked), bits(&reference.ranked));
        }
        prop_assert!(memo.len() <= s.graph.entity_count());
    }

    /// A stream of three queries through one shared memo of one row, with
    /// the epoch advancing between them, ranks each query bitwise like the
    /// exhaustive `execute`.
    #[test]
    fn shared_memo_stream_across_epochs_ranks_like_no_memo(
        seed in any::<u64>(),
        n_entities in 4usize..16,
        n_tables in 2usize..10,
        picks in proptest::collection::vec(proptest::collection::vec(any::<u32>(), 1..4), 3),
    ) {
        let s = build_scenario(seed, n_entities, n_tables);
        let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
        let shared = SharedSimilarityCache::new(0, s.graph.entity_count());
        let options = SearchOptions::top(5);
        let off = QueryTrace::disabled();
        for (epoch, pick) in picks.iter().enumerate() {
            let tuple = pick.iter().map(|&e| EntityId(e % n_entities as u32)).collect();
            let query = Query::single(tuple);
            let memo = shared.for_epoch(epoch as u64);
            let res = engine.execute(&query, options, Candidates::Lake, Some(memo), &off);
            let reference = engine.execute(
                &query,
                SearchOptions { exhaustive: true, ..options },
                Candidates::Lake,
                None,
                &off,
            );
            let bits = |r: &[(TableId, f64)]| -> Vec<(TableId, u64)> {
                r.iter().map(|&(t, x)| (t, x.to_bits())).collect()
            };
            prop_assert_eq!(bits(&res.ranked), bits(&reference.ranked), "query {}", epoch);
        }
        prop_assert_eq!(shared.invalidations(), 2);
    }

    /// A second identical search against a shared cache computes nothing:
    /// hit rate 1.0, same ranking.
    #[test]
    fn repeated_search_is_fully_cached(
        seed in any::<u64>(),
        n_entities in 4usize..16,
        n_tables in 2usize..10,
        k in 1usize..8,
    ) {
        let s = build_scenario(seed, n_entities, n_tables);
        let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
        let cache = SimilarityCache::new();
        // One worker, so both passes make the same prune decisions and
        // therefore the same lookups.
        let options = SearchOptions { threads: 1, ..SearchOptions::top(k) };
        let off = QueryTrace::disabled();
        let first = engine.execute(&s.query, options, Candidates::Lake, Some(&cache), &off);
        let second = engine.execute(&s.query, options, Candidates::Lake, Some(&cache), &off);
        prop_assert_eq!(&first.ranked, &second.ranked);
        prop_assert_eq!(second.stats.sigma_computed(), 0);
        if second.stats.sigma_cached() > 0 {
            prop_assert_eq!(second.stats.sigma_hit_rate(), 1.0);
        }
        prop_assert_eq!(
            first.stats.sigma_computed() + first.stats.sigma_cached(),
            second.stats.sigma_cached()
        );
    }

    /// One pipeline: every [`Candidates`] source × memo × trace of
    /// `execute` ranks bitwise like the untraced, memo-less run of the same
    /// source, with the same candidate and scored-table counts; only the
    /// fallback rung is flagged, it ranks like the whole lake, and the
    /// reduction is always `1 − candidates / |lake|`.
    #[test]
    fn candidate_sources_memos_and_traces_are_interchangeable(
        seed in any::<u64>(),
        n_entities in 4usize..16,
        n_tables in 2usize..10,
        k in 1usize..8,
        subset in any::<u16>(),
    ) {
        let s = build_scenario(seed, n_entities, n_tables);
        let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&s.graph, TypeFilter::none(), cfg, 7);
        let lsei = Lsei::build(&s.lake, signer, cfg, LseiMode::Entity);
        let among: Vec<TableId> = (0..s.lake.len() as u32)
            .filter(|&t| subset >> t & 1 == 1)
            .map(TableId)
            .collect();
        let source = |name: &str, trace: &QueryTrace| match name {
            "lake" => Candidates::Lake,
            "among" => Candidates::Among(&among),
            "lsei" => Candidates::lsei(Some(&lsei), &s.query, 1, trace),
            _ => Candidates::lsei::<TypeSigner<'_>>(None, &s.query, 1, trace),
        };
        let options = SearchOptions { threads: 1, ..SearchOptions::top(k) };
        let off = QueryTrace::disabled();
        let shared = SimilarityCache::new();
        let lake_ranked = engine.search(&s.query, options).ranked;
        for name in ["lake", "among", "lsei", "fallback"] {
            let reference = engine.execute(&s.query, options, source(name, &off), None, &off);
            for memo in [None, Some(&shared)] {
                for forced in [false, true] {
                    let trace = if forced { QueryTrace::forced(seed) } else { QueryTrace::disabled() };
                    let res = engine.execute(&s.query, options, source(name, &trace), memo, &trace);
                    let bits = |r: &[(TableId, f64)]| -> Vec<(TableId, u64)> {
                        r.iter().map(|&(t, x)| (t, x.to_bits())).collect()
                    };
                    prop_assert_eq!(bits(&res.ranked), bits(&reference.ranked), "{} {:?} {}", name, memo.is_some(), forced);
                    prop_assert_eq!(res.stats.candidates, reference.stats.candidates);
                    prop_assert_eq!(res.stats.tables_scored, reference.stats.tables_scored);
                    prop_assert_eq!(res.stats.degraded_reason.lsei_fallback, name == "fallback");
                    prop_assert_eq!(res.stats.degraded, name == "fallback");
                    let expected = 1.0 - res.stats.candidates as f64 / s.lake.len() as f64;
                    prop_assert_eq!(res.stats.reduction.to_bits(), expected.to_bits());
                    prop_assert_eq!(trace.is_empty(), !forced);
                }
            }
            if name == "fallback" {
                prop_assert_eq!(&reference.ranked, &lake_ranked);
                prop_assert_eq!(reference.stats.candidates, s.lake.len());
            }
        }
    }
}
