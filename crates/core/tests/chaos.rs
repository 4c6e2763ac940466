//! Chaos tests: deterministic fault injection against the search engine.
//!
//! These tests arm seeded failpoints (see `thetis_obs::faults`) and prove
//! the robustness contract of the degradation ladder:
//!
//! * the process never aborts — worker panics are isolated per table;
//! * tables that *were* scored keep bit-identical scores, so the degraded
//!   ranking equals the fault-free ranking minus the dropped tables;
//! * every degraded query says so (`SearchStats::degraded`) and accounts
//!   for what it skipped (`SearchStats::tables_unscored`);
//! * an armed-but-silent plan (probability 0) changes nothing at all.
//!
//! The fault plan is process-global, so every test serializes on
//! [`SERIAL`] and disarms via a drop guard even when an assertion fails.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use thetis_core::{Candidates, Query, SearchOptions, SearchResult, ThetisEngine, TypeJaccard};
use thetis_datalake::{CellValue, DataLake, Table, TableId};
use thetis_kg::{EntityId, KgBuilder, KnowledgeGraph};
use thetis_lsh::lsei::{Lsei, TypeSigner};
use thetis_obs::faults::{self, FaultPlan};
use thetis_obs::QueryTrace;

/// Serializes every test in this binary: the fault plan and the panic hook
/// are process-global state.
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

/// Replaces the panic hook with a silent one for the guard's lifetime:
/// injected panics are caught and expected, and their default backtrace
/// spam would drown the test output.
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

struct Scenario {
    graph: KnowledgeGraph,
    lake: DataLake,
    query: Query,
}

/// A deterministic small lake: `n_tables` tables of `rows_per_table` rows,
/// every cell linked, plus one unlinked table at the end.
fn build_scenario(seed: u64, n_tables: usize, rows_per_table: usize) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = KgBuilder::new();
    let root = b.add_type("Thing", None);
    let types: Vec<_> = (0..4)
        .map(|i| b.add_type(&format!("T{i}"), Some(root)))
        .collect();
    // Scale the entity pool with the table size: the digest-based scorer
    // collapses duplicate rows, so a slow scan needs mostly-distinct rows.
    let n_entities = 24usize.max(rows_per_table * 4);
    let entities: Vec<EntityId> = (0..n_entities)
        .map(|i| {
            let t = types[rng.random_range(0..types.len())];
            b.add_entity(&format!("e{i}"), vec![t])
        })
        .collect();
    let graph = b.freeze();

    let mut tables: Vec<Table> = (0..n_tables)
        .map(|ti| {
            let mut t = Table::new(format!("t{ti}"), vec!["a".into(), "b".into()]);
            for _ in 0..rows_per_table {
                let row = (0..2)
                    .map(|_| CellValue::LinkedEntity {
                        mention: "m".into(),
                        entity: entities[rng.random_range(0..entities.len())],
                    })
                    .collect();
                t.push_row(row);
            }
            t
        })
        .collect();
    let mut unlinked = Table::new("unlinked", vec!["a".into()]);
    unlinked.push_row(vec![CellValue::Text("plain".into())]);
    tables.push(unlinked);
    let lake = DataLake::from_tables(tables);

    let query = Query::new(vec![
        vec![entities[0], entities[1]],
        vec![entities[2], entities[3]],
    ]);
    Scenario { graph, lake, query }
}

/// Exhaustive options that rank *every* table: direct σ, no pruning, `k`
/// covers the whole lake. Workers only run when the lake gives each of them
/// 16 candidates, so multi-threaded tests size their lakes to match and
/// check [`drained_workers`].
fn exhaustive_options(lake: &DataLake, threads: usize) -> SearchOptions {
    SearchOptions {
        threads,
        ..SearchOptions::exhaustive(lake.len())
    }
}

/// Distinct scoring workers that drained on `trace` (`sched.drain` events
/// carry the worker's index).
fn drained_workers(trace: &QueryTrace) -> usize {
    trace
        .events()
        .iter()
        .filter(|e| e.name == "sched.drain")
        .filter_map(|e| e.attr_u64("worker"))
        .collect::<BTreeSet<_>>()
        .len()
}

/// Table ids dropped by panic isolation, recovered from the flight
/// recorder's `sched.panic` events.
fn panicked_tables(trace: &QueryTrace) -> BTreeSet<u32> {
    trace
        .events()
        .iter()
        .filter(|e| e.name == "sched.panic")
        .filter_map(|e| e.attr_u64("table"))
        .map(|t| t as u32)
        .collect()
}

/// Optionally persists a degraded-query trace for the CI artifact upload
/// (`THETIS_CHAOS_TRACE_OUT`).
fn maybe_write_trace_artifact(trace: &QueryTrace) {
    let Ok(path) = std::env::var("THETIS_CHAOS_TRACE_OUT") else {
        return;
    };
    let path = std::path::PathBuf::from(path);
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&path, trace.to_json()) {
        eprintln!("chaos: cannot write trace artifact {}: {e}", path.display());
    }
}

/// The acceptance test for panic isolation: a σ-kernel panic mid-query
/// must not abort the process; sibling tables complete, and the top-k
/// equals the fault-free ranking minus the panicked tables, with
/// `degraded = true` and accurate `tables_unscored`.
#[test]
fn sigma_panic_mid_query_drops_only_the_panicked_tables() {
    let _g = serial();
    let s = build_scenario(7, 64, 4);
    let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
    let options = exhaustive_options(&s.lake, 4);
    let baseline = engine.search(&s.query, options);
    assert!(!baseline.stats.degraded, "fault-free run must not degrade");

    // The per-hit fire decision depends on thread interleaving, so a fixed
    // seed does not guarantee a fixed panic count — try a few seeds until
    // at least one table panics (p = 0.25 over ~64 tables makes the first
    // seed overwhelmingly likely).
    let mut verified = false;
    for seed in 1..=5u64 {
        let _quiet = QuietPanics::install();
        let _armed = FaultGuard;
        faults::arm(FaultPlan::parse("sigma=panic@0.25", seed).unwrap());
        let trace = QueryTrace::forced(seed);
        let chaotic = engine.execute(&s.query, options, Candidates::Lake, None, &trace);
        let panicked = panicked_tables(&trace);
        if panicked.is_empty() {
            continue;
        }

        assert_eq!(drained_workers(&trace), 4, "every worker must run");
        assert!(chaotic.stats.degraded, "panicking run must report degraded");
        assert!(chaotic.stats.degraded_reason.worker_panic);
        assert_eq!(chaotic.stats.worker_panics(), panicked.len());
        assert_eq!(
            chaotic.stats.tables_unscored,
            panicked.len(),
            "every dropped table must be accounted for"
        );

        // The survivors keep bit-identical scores and order.
        let expected: Vec<(TableId, f64)> = baseline
            .ranked
            .iter()
            .copied()
            .filter(|(t, _)| !panicked.contains(&t.0))
            .collect();
        assert_eq!(chaotic.ranked.len(), expected.len());
        for ((ct, cs), (et, es)) in chaotic.ranked.iter().zip(&expected) {
            assert_eq!(ct, et, "survivor order diverged");
            assert_eq!(cs.to_bits(), es.to_bits(), "survivor score diverged");
        }

        maybe_write_trace_artifact(&trace);
        verified = true;
        break;
    }
    assert!(verified, "no seed in 1..=5 produced a panic at p = 0.25");
}

/// The `sigma` failpoint sits in the kernel-independent
/// `SigmaRows::build`, so an armed plan must fire *identically* under
/// the quantized f32 kernel. With a single worker the table order — and
/// therefore the failpoint hit sequence — is deterministic, so the same
/// plan + seed drops the same tables under f64 and f32, and each run's
/// survivors stay bit-identical to that kernel's own fault-free ranking.
#[test]
fn sigma_failpoint_fires_identically_under_the_f32_kernel() {
    use thetis_core::{EmbeddingCosine, SigmaKernel};
    use thetis_embedding::EmbeddingStore;

    let _g = serial();
    let s = build_scenario(7, 40, 4);
    let dim = 8usize;
    let mut rng = SmallRng::seed_from_u64(0xF32);
    let data: Vec<f32> = (0..s.graph.entity_count() * dim)
        .map(|_| rng.random_range(-1.0f32..1.0))
        .collect();
    let store = EmbeddingStore::from_raw(data, dim);
    let cos = EmbeddingCosine::new(&store);
    cos.warm(SigmaKernel::F32);
    let engine = ThetisEngine::new(&s.graph, &s.lake, cos);
    let single = exhaustive_options(&s.lake, 1);

    let mut panicked_per_kernel = Vec::new();
    for kernel in [SigmaKernel::F64Exact, SigmaKernel::F32] {
        let options = single.with_kernel(kernel);
        let baseline = engine.search(&s.query, options);
        assert!(!baseline.stats.degraded, "fault-free {kernel} run degraded");

        let _quiet = QuietPanics::install();
        let _armed = FaultGuard;
        faults::arm(FaultPlan::parse("sigma=panic@0.25", 1).unwrap());
        let trace = QueryTrace::forced(1);
        let chaotic = engine.execute(&s.query, options, Candidates::Lake, None, &trace);
        assert!(
            faults::hits("sigma") > 0,
            "the sigma failpoint was never reached under {kernel}"
        );
        let panicked = panicked_tables(&trace);
        assert!(
            !panicked.is_empty(),
            "plan sigma=panic@0.25 seed 1 fired nothing under {kernel}"
        );
        assert!(chaotic.stats.degraded);
        assert_eq!(chaotic.stats.tables_unscored, panicked.len());

        // Survivors keep this kernel's bit-exact fault-free scores.
        let expected: Vec<(TableId, f64)> = baseline
            .ranked
            .iter()
            .copied()
            .filter(|(t, _)| !panicked.contains(&t.0))
            .collect();
        assert_eq!(chaotic.ranked.len(), expected.len());
        for ((ct, cs), (et, es)) in chaotic.ranked.iter().zip(&expected) {
            assert_eq!(ct, et, "survivor order diverged under {kernel}");
            assert_eq!(
                cs.to_bits(),
                es.to_bits(),
                "survivor score diverged under {kernel}"
            );
        }
        panicked_per_kernel.push(panicked);
    }
    assert_eq!(
        panicked_per_kernel[0], panicked_per_kernel[1],
        "the same plan must drop the same tables under f64 and f32"
    );
}

/// Type-Jaccard σ evaluated `SLOW_REPEATS` times per pair. The deadline
/// test needs a scan of at least 160 ms whose cost is spread evenly over
/// the tables; with the memo off, σ is that cost, and a slower σ reaches it
/// on a lake small enough to build quickly in a release build too.
struct SlowSigma<'g>(TypeJaccard<'g>);

const SLOW_REPEATS: usize = 8;

impl thetis_core::EntitySimilarity for SlowSigma<'_> {
    fn sim(&self, a: EntityId, b: EntityId) -> f64 {
        let mut v = 0.0;
        for _ in 0..SLOW_REPEATS {
            v = std::hint::black_box(self.0.sim(a, b));
        }
        v
    }

    fn name(&self) -> &'static str {
        "slow-types"
    }
}

/// The acceptance test for deadlines: with a budget far below the full
/// scan time, the search returns quickly (≈ within 2× the budget) with a
/// valid partial top-k, `tables_unscored > 0`, and bit-identical scores
/// for whatever it did score.
#[test]
fn deadline_returns_early_with_a_valid_partial_ranking() {
    let _g = serial();

    // Size the lake adaptively so the full scan takes a measurable amount
    // of wall time on this machine/profile (debug vs release differ ~10×).
    // Without a memo every table pays for its own σ, so the scan's time is
    // spread evenly over the tables the deadline cuts between. 48 tables
    // give both workers their 16 candidates.
    let mut rows = 64usize;
    let (s, baseline, full_scan) = loop {
        let s = build_scenario(11, 48, rows);
        let engine = ThetisEngine::new(&s.graph, &s.lake, SlowSigma(TypeJaccard::new(&s.graph)));
        let t0 = Instant::now();
        let baseline = engine.search(&s.query, exhaustive_options(&s.lake, 2));
        let full_scan = t0.elapsed();
        if full_scan >= Duration::from_millis(160) || rows >= 16384 {
            break (s, baseline, full_scan);
        }
        rows *= 2;
    };
    assert!(
        full_scan >= Duration::from_millis(160),
        "could not build a slow enough lake (full scan {full_scan:?})"
    );

    let engine = ThetisEngine::new(&s.graph, &s.lake, SlowSigma(TypeJaccard::new(&s.graph)));
    let budget = full_scan / 8;
    let options = SearchOptions {
        deadline: Some(budget),
        ..exhaustive_options(&s.lake, 2)
    };
    let trace = QueryTrace::summary(11);
    let t0 = Instant::now();
    let partial = engine.execute(&s.query, options, Candidates::Lake, None, &trace);
    let elapsed = t0.elapsed();
    assert_eq!(drained_workers(&trace), 2, "both workers must run");

    // Granularity is one steal block, so allow 2× the budget plus slack
    // for scheduler noise — and in any case far less than the full scan.
    assert!(
        elapsed <= budget * 2 + Duration::from_millis(60),
        "deadline overshot: budget {budget:?}, elapsed {elapsed:?}"
    );
    assert!(
        elapsed < full_scan / 2,
        "deadline saved no time: full scan {full_scan:?}, elapsed {elapsed:?}"
    );

    assert!(partial.stats.degraded);
    assert!(partial.stats.degraded_reason.deadline);
    assert!(partial.stats.tables_unscored > 0, "nothing was skipped");
    assert!(
        !partial.ranked.is_empty(),
        "no progress before the deadline"
    );
    assert_eq!(
        partial.stats.tables_scored
            + partial.stats.tables_unscored
            + partial.stats.timings.tables_unlinked,
        partial.stats.candidates,
        "every candidate must have a disposition"
    );

    // Whatever was scored is bit-identical to the fault-free run, and the
    // partial ranking is internally sorted.
    let full: std::collections::BTreeMap<u32, u64> = baseline
        .ranked
        .iter()
        .map(|&(t, s)| (t.0, s.to_bits()))
        .collect();
    for window in partial.ranked.windows(2) {
        assert!(window[0].1 >= window[1].1, "partial ranking out of order");
    }
    for &(t, score) in &partial.ranked {
        assert_eq!(
            full.get(&t.0).copied(),
            Some(score.to_bits()),
            "partially scored {t:?} diverged from the fault-free score"
        );
    }
}

/// A zero wall-clock budget is the degenerate rung: an empty, fully
/// degraded result — never a panic or a hang.
#[test]
fn zero_deadline_degrades_to_an_empty_result() {
    let _g = serial();
    let s = build_scenario(3, 32, 4);
    let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
    let options = SearchOptions {
        deadline: Some(Duration::ZERO),
        ..exhaustive_options(&s.lake, 2)
    };
    let trace = QueryTrace::summary(3);
    let result = engine.execute(&s.query, options, Candidates::Lake, None, &trace);
    assert_eq!(drained_workers(&trace), 2, "both workers must run");
    assert!(result.ranked.is_empty());
    assert!(result.stats.degraded);
    assert!(result.stats.degraded_reason.deadline);
    assert_eq!(
        result.stats.tables_unscored + result.stats.timings.tables_unlinked,
        result.stats.candidates
    );
}

/// An armed plan whose failpoints never fire (probability 0) must be
/// completely invisible: bit-identical ranking, no degradation.
#[test]
fn zero_probability_plan_is_bit_identical_to_fault_free() {
    let _g = serial();
    let s = build_scenario(5, 64, 4);
    let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
    let options = exhaustive_options(&s.lake, 4);
    let baseline = engine.search(&s.query, options);

    let _armed = FaultGuard;
    faults::arm(
        FaultPlan::parse(
            "sigma=panic@0.0,lsei.read=corrupt@0.0,embedding.missing=error@0.0",
            9,
        )
        .unwrap(),
    );
    let trace = QueryTrace::summary(9);
    let armed = engine.execute(&s.query, options, Candidates::Lake, None, &trace);
    assert_eq!(drained_workers(&trace), 4, "every worker must run");
    assert_eq!(faults::fired("sigma"), 0);
    assert!(faults::hits("sigma") > 0, "failpoint was never reached");
    assert!(!armed.stats.degraded);
    assert_eq!(armed.ranked.len(), baseline.ranked.len());
    for ((at, ascore), (bt, bscore)) in armed.ranked.iter().zip(&baseline.ranked) {
        assert_eq!(at, bt);
        assert_eq!(ascore.to_bits(), bscore.to_bits());
    }
}

/// A missing/corrupt LSEI degrades to an exhaustive scan: same ranking as
/// the unfiltered search, flagged `lsei_fallback`.
#[test]
fn missing_lsei_falls_back_to_exhaustive_scan() {
    let _g = serial();
    let s = build_scenario(13, 32, 4);
    let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
    let options = exhaustive_options(&s.lake, 2);
    let trace = QueryTrace::forced(42);
    let candidates = Candidates::lsei::<TypeSigner>(None, &s.query, 1, &trace);
    let fallback: SearchResult = engine.execute(&s.query, options, candidates, None, &trace);
    let direct = engine.search(&s.query, options);

    assert!(fallback.stats.degraded);
    assert!(fallback.stats.degraded_reason.lsei_fallback);
    assert_eq!(fallback.ranked, direct.ranked);
    assert_eq!(drained_workers(&trace), 2, "both workers must run");
    assert!(
        trace.events().iter().any(|e| e.name == "lsei.fallback"),
        "fallback must be visible in the flight recorder"
    );

    // With a healthy index the same entry point is the normal prefiltered
    // path and reports nothing degraded.
    let config = thetis_lsh::LshConfig::new(30, 10);
    let signer = TypeSigner::new(&s.graph, thetis_lsh::TypeFilter::none(), config, 0xbeef);
    let lsei = Lsei::build(&s.lake, signer, config, thetis_lsh::lsei::LseiMode::Entity);
    let off = QueryTrace::disabled();
    let candidates = Candidates::lsei(Some(&lsei), &s.query, 1, &off);
    let healthy = engine.execute(&s.query, options, candidates, None, &off);
    assert!(!healthy.stats.degraded_reason.lsei_fallback);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under randomized σ-panic plans the engine never aborts, accounts
    /// for every candidate, and keeps survivors bit-identical to the
    /// fault-free ranking.
    #[test]
    fn chaos_accounting_invariant_holds(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let _g = serial();
        let s = build_scenario(seed, (threads * 16).max(24), 3);
        let engine = ThetisEngine::new(&s.graph, &s.lake, TypeJaccard::new(&s.graph));
        let options = exhaustive_options(&s.lake, threads);
        let baseline = engine.search(&s.query, options);

        let _quiet = QuietPanics::install();
        let _armed = FaultGuard;
        faults::arm(FaultPlan::parse("sigma=panic@0.2", fault_seed).unwrap());
        let trace = QueryTrace::forced(seed);
        let chaotic = engine.execute(&s.query, options, Candidates::Lake, None, &trace);
        let panicked = panicked_tables(&trace);

        prop_assert_eq!(drained_workers(&trace), threads);
        prop_assert_eq!(chaotic.stats.worker_panics(), panicked.len());
        prop_assert_eq!(chaotic.stats.tables_unscored, panicked.len());
        prop_assert_eq!(
            chaotic.stats.degraded,
            !panicked.is_empty(),
            "degraded flag must track whether anything was dropped"
        );
        prop_assert_eq!(
            chaotic.stats.tables_scored
                + chaotic.stats.tables_unscored
                + chaotic.stats.timings.tables_unlinked,
            chaotic.stats.candidates,
            "every candidate needs a disposition"
        );

        let expected: Vec<(TableId, f64)> = baseline
            .ranked
            .iter()
            .copied()
            .filter(|(t, _)| !panicked.contains(&t.0))
            .collect();
        prop_assert_eq!(chaotic.ranked.len(), expected.len());
        for ((ct, cs), (et, es)) in chaotic.ranked.iter().zip(&expected) {
            prop_assert_eq!(ct, et);
            prop_assert_eq!(cs.to_bits(), es.to_bits());
        }
    }
}

/// The `lake.delta` failpoint: a panic mid-delta during an epoch commit
/// must leave the previously published epoch fully readable — same epoch,
/// same postings, bit-identical search results — and a retry after the
/// fault clears must succeed normally.
#[test]
fn mid_delta_panic_leaves_the_previous_epoch_readable() {
    use thetis_datalake::{EpochLake, Mutation};

    let _g = serial();
    let s = build_scenario(11, 32, 3);
    let options = exhaustive_options(&s.lake, 2);
    let store = EpochLake::new(s.lake);

    let pinned = store.pin();
    let epoch_before = pinned.epoch();
    let postings_before = pinned.postings().clone();
    let engine = ThetisEngine::new(&s.graph, &pinned, TypeJaccard::new(&s.graph));
    let baseline = engine.search(&s.query, options);
    assert!(!baseline.stats.degraded);

    let mut incoming = Table::new("incoming", vec!["a".into()]);
    incoming.push_row(vec![CellValue::LinkedEntity {
        mention: "e0".into(),
        entity: EntityId(0),
    }]);

    // Arm the failpoint (probability defaults to 1: the very next delta
    // panics) and drive the commit into it.
    {
        let _quiet = QuietPanics::install();
        let _armed = FaultGuard;
        faults::arm(FaultPlan::parse("lake.delta=panic", 3).unwrap());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.commit(vec![Mutation::Add(incoming.clone())])
        }));
        assert!(outcome.is_err(), "the armed delta must panic");
    }

    // The published snapshot never changed: the panic unwound on the
    // writer's private clone, before the swap.
    assert_eq!(store.epoch(), epoch_before, "no partial epoch published");
    assert_eq!(store.pin().len(), pinned.len());
    assert_eq!(store.pin().postings(), &postings_before);
    assert_eq!(pinned.epoch(), epoch_before);

    // Reads against the surviving epoch are bit-identical to the baseline.
    let engine = ThetisEngine::new(&s.graph, &pinned, TypeJaccard::new(&s.graph));
    let trace = QueryTrace::summary(11);
    let after = engine.execute(&s.query, options, Candidates::Lake, None, &trace);
    assert_eq!(drained_workers(&trace), 2, "both workers must run");
    assert!(!after.stats.degraded, "surviving epoch must not degrade");
    assert_eq!(after.stats.lake_epoch, epoch_before);
    assert_eq!(after.ranked.len(), baseline.ranked.len());
    for ((at, ascore), (bt, bscore)) in after.ranked.iter().zip(&baseline.ranked) {
        assert_eq!(at, bt);
        assert_eq!(ascore.to_bits(), bscore.to_bits());
    }

    // With the fault disarmed the same batch lands cleanly.
    let epoch_after = store.commit(vec![Mutation::Add(incoming)]);
    assert_eq!(epoch_after, epoch_before + 1);
    let fresh = store.pin();
    assert_eq!(fresh.len(), pinned.len() + 1);
    assert!(fresh.postings()[&EntityId(0)].contains(&TableId(fresh.len() as u32 - 1)));
}
