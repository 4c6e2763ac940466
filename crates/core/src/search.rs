//! Algorithm 1: scoring candidate tables, optionally in parallel.
//!
//! Scoring runs off the lake's precomputed [`TableDigest`]s: per table, one
//! batched σ lookup per distinct query entity fills a [`SigmaRows`]
//! lattice, and the Hungarian matrix, row aggregation and pruning upper
//! bound all read from it — σ (or the search's memo rows, see
//! [`SigmaSource`]) is consulted once per (query entity, distinct entity)
//! pair instead of once per cell, and the ranking
//! stays bit-identical to the raw row walk (see
//! [`crate::mapping::score_matrix_digest`] and
//! [`crate::semrel::tuple_table_score_digest`] for why).
//!
//! Every scorer takes a [`QueryTrace`](thetis_obs::QueryTrace); pass
//! `QueryTrace::disabled()` for an untraced run — the handle is
//! `Option`-gated and records nothing.
//!
//! Candidates are distributed over workers by **work stealing**: a shared
//! atomic cursor hands out blocks of 8 candidates, so a worker that drew
//! the few giant tables simply claims fewer blocks while the others drain
//! the rest — no static chunk skew. A pass spawns its `threads` workers
//! only when each gets at least 16 candidates; smaller sets run inline on
//! the caller. The pruned scorer additionally orders candidates by
//! descending upper bound and seeds the shared top-k floor from the `k`
//! best bounds before the main loop.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use thetis_datalake::{DataLake, TableDigest, TableId};

use crate::query::Query;
use crate::semrel::RowAgg;
use crate::sigma::{SigmaRows, SigmaSource};
use crate::topk::TopK;

/// Work-stealing blocks claimed across all scoring passes.
static OBS_STEALS: thetis_obs::Counter = thetis_obs::Counter::new("core.sched_steals");
/// Candidates processed by scoring workers (one per steal-loop item).
static OBS_WORKER_TABLES: thetis_obs::Counter = thetis_obs::Counter::new("core.sched_tables");
/// Per-worker busy wall time (one record per worker drain), so
/// `nanos / count` is the mean worker occupancy of a scoring pass.
static OBS_WORKER_BUSY: thetis_obs::Span = thetis_obs::Span::new("core.worker_busy");
/// Panics caught during scoring (per-table isolation or a lost worker);
/// the query completes with partial results either way.
static OBS_WORKER_PANICS: thetis_obs::Counter = thetis_obs::Counter::new("core.worker_panics");

/// Timing breakdown of a scoring pass (reproduces the §7.3 "table scoring"
/// measurement: the share of time spent computing the mapping `μ_{T,Q}`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScoreTimings {
    /// Nanoseconds spent in the Hungarian column-mapping step.
    pub mapping_nanos: u64,
    /// Hungarian column-mapping invocations (one per query tuple per
    /// scored table).
    pub mapping_count: u64,
    /// Nanoseconds spent aggregating row scores into per-tuple SemRel
    /// values (everything in the scoring loop that is not the mapping).
    pub agg_nanos: u64,
    /// Nanoseconds spent scoring tables in total (mapping, upper-bound
    /// computation, and row aggregation included).
    pub scoring_nanos: u64,
    /// Tables actually scored (tables without entity links are skipped).
    pub tables_scored: usize,
    /// Tables skipped because their relevance upper bound could not beat
    /// the running top-k floor.
    pub tables_pruned: usize,
    /// σ evaluations actually performed: memo cells filled on the default
    /// path, every evaluation on the exhaustive one. Filled in by the
    /// engine from the search's [`MemoRows`](crate::cache::MemoRows) or
    /// its [`CountingSimilarity`](crate::cache::CountingSimilarity).
    pub sigma_computed: u64,
    /// σ lookups served from the search's memo rows (always 0 on the
    /// exhaustive path, which reads no memo).
    pub sigma_cached: u64,
    /// Candidates skipped because they carry no entity links (irrelevant
    /// by §4.2; includes every candidate when the query itself is empty).
    pub tables_unlinked: usize,
    /// Candidates whose scorer panicked: the panic was caught, the table's
    /// result dropped, and the pass continued (see `core.worker_panics`).
    pub tables_panicked: usize,
    /// Candidates never visited because the deadline expired first.
    pub tables_unscored: usize,
    /// Whether any scoring phase stopped early on an expired deadline.
    pub deadline_hit: bool,
}

impl ScoreTimings {
    /// Fraction of scoring time spent on the column mapping.
    pub fn mapping_fraction(&self) -> f64 {
        if self.scoring_nanos == 0 {
            0.0
        } else {
            self.mapping_nanos as f64 / self.scoring_nanos as f64
        }
    }

    /// Fraction of σ lookups served from the memo (0 when none happened).
    pub fn sigma_hit_rate(&self) -> f64 {
        let lookups = self.sigma_computed + self.sigma_cached;
        if lookups == 0 {
            0.0
        } else {
            self.sigma_cached as f64 / lookups as f64
        }
    }

    fn merge(&mut self, other: ScoreTimings) {
        self.mapping_nanos += other.mapping_nanos;
        self.mapping_count += other.mapping_count;
        self.agg_nanos += other.agg_nanos;
        self.scoring_nanos += other.scoring_nanos;
        self.tables_scored += other.tables_scored;
        self.tables_pruned += other.tables_pruned;
        self.sigma_computed += other.sigma_computed;
        self.sigma_cached += other.sigma_cached;
        self.tables_unlinked += other.tables_unlinked;
        self.tables_panicked += other.tables_panicked;
        self.tables_unscored += other.tables_unscored;
        self.deadline_hit |= other.deadline_hit;
    }
}

/// Candidates claimed per work-stealing block. Small blocks balance skewed
/// table sizes better; large blocks amortize the shared-cursor atomics.
/// This size suits lakes where a handful of tables dominate.
const STEAL_BLOCK: usize = 8;

/// Sequential-fallback cutoff, per thread: workers are only spawned when
/// each gets at least this many candidates, so a small candidate set never
/// pays thread-spawn overhead for a few tables each.
const MIN_PER_THREAD: usize = 16;

/// Workers to actually spawn for `n` work items under a budget of
/// `threads`: all of them once every worker gets [`MIN_PER_THREAD`] items
/// (compared by division, so no `threads` overflows), one otherwise, and
/// never more than there are blocks to claim.
fn workers_for(threads: usize, n: usize) -> usize {
    let threads = threads.max(1);
    if n / MIN_PER_THREAD < threads {
        1
    } else {
        threads.min(n.div_ceil(STEAL_BLOCK))
    }
}

/// What a [`work_steal`] pass did, beyond the per-worker accumulators.
#[derive(Debug, Clone, Copy, Default)]
struct StealReport {
    /// Items the surviving workers report as processed. Items claimed by a
    /// lost worker (see `lost_workers`) are *not* counted, so
    /// `n - processed` is exactly the number of items with no result.
    processed: u64,
    /// Whether the pass stopped early because the deadline expired.
    deadline_hit: bool,
    /// Workers whose thread died outright (a panic that escaped the
    /// per-item isolation). Their accumulators are dropped.
    lost_workers: u64,
}

/// Runs `work` over `0..n` in blocks claimed from a shared atomic cursor.
///
/// Each worker builds its accumulator with `make(worker)`, then repeatedly
/// steals the next block until the cursor passes `n`; `work` returns how
/// many items it processed (for utilization accounting). When `deadline`
/// is set, every worker re-checks the clock before claiming a block and
/// stops cooperatively once it has passed — block claiming is the
/// cancellation granularity, so an in-flight block always completes. A
/// *verbose* trace receives one `sched.steal` event per claimed block
/// (summary traces skip the per-block stream); every active trace gets one
/// `sched.drain` event per worker (blocks, items, busy nanos), and one
/// `sched.deadline` event when the budget expires; the same utilization
/// lands on the `core.sched_*` / `core.worker_busy` obs series.
///
/// A worker thread that dies (its panic escaped `work`'s own isolation) is
/// absorbed: its accumulator is dropped, the loss is counted in the
/// report, and the remaining workers drain normally.
fn work_steal<R, M, F>(
    n: usize,
    threads: usize,
    deadline: Option<Instant>,
    trace: &thetis_obs::QueryTrace,
    make: M,
    work: F,
) -> (Vec<R>, StealReport)
where
    R: Send,
    M: Fn(usize) -> R + Sync,
    F: Fn(&mut R, std::ops::Range<usize>, usize) -> u64 + Sync,
{
    let workers = workers_for(threads, n);
    let cursor = AtomicUsize::new(0);
    let expired = AtomicBool::new(false);
    let worker_loop = |wid: usize| -> (R, u64) {
        let busy = Instant::now();
        let mut acc = make(wid);
        let mut blocks = 0u64;
        let mut items = 0u64;
        loop {
            if let Some(d) = deadline {
                if expired.load(Ordering::Relaxed) {
                    break;
                }
                if Instant::now() >= d {
                    if !expired.swap(true, Ordering::Relaxed) {
                        trace.record_with("sched.deadline", || {
                            thetis_obs::trace_attrs![
                                ("worker", wid),
                                ("claimed", cursor.load(Ordering::Relaxed).min(n)),
                                ("total", n),
                            ]
                        });
                    }
                    break;
                }
            }
            let start = cursor.fetch_add(STEAL_BLOCK, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + STEAL_BLOCK).min(n);
            blocks += 1;
            if trace.is_verbose() {
                trace.record(
                    "sched.steal",
                    thetis_obs::trace_attrs![
                        ("worker", wid),
                        ("start", start),
                        ("len", end - start),
                    ],
                );
            }
            items += work(&mut acc, start..end, wid);
        }
        let busy_nanos = busy.elapsed().as_nanos() as u64;
        trace.record_with("sched.drain", || {
            thetis_obs::trace_attrs![
                ("worker", wid),
                ("blocks", blocks),
                ("tables", items),
                ("busy_nanos", busy_nanos),
            ]
        });
        if thetis_obs::enabled() {
            OBS_STEALS.add(blocks);
            OBS_WORKER_TABLES.add(items);
            OBS_WORKER_BUSY.record_nanos(busy_nanos, 1);
        }
        (acc, items)
    };
    if workers == 1 {
        let (acc, items) = worker_loop(0);
        let report = StealReport {
            processed: items,
            deadline_hit: expired.load(Ordering::Relaxed),
            lost_workers: 0,
        };
        return (vec![acc], report);
    }
    std::thread::scope(|scope| {
        let worker_loop = &worker_loop;
        let handles: Vec<_> = (0..workers)
            .map(|wid| scope.spawn(move || worker_loop(wid)))
            .collect();
        let mut accs = Vec::with_capacity(workers);
        let mut report = StealReport::default();
        for (wid, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok((acc, items)) => {
                    accs.push(acc);
                    report.processed += items;
                }
                Err(_) => {
                    report.lost_workers += 1;
                    if thetis_obs::enabled() {
                        OBS_WORKER_PANICS.inc();
                    }
                    trace.record_with("sched.panic", || {
                        thetis_obs::trace_attrs![("worker", wid), ("scope", "worker")]
                    });
                }
            }
        }
        report.deadline_hit = expired.load(Ordering::Relaxed);
        (accs, report)
    })
}

/// The panic payload's message, when it carries one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Scores one table under panic isolation: a panicking scorer is caught,
/// counted (`tables_panicked`, `core.worker_panics`, a `sched.panic` trace
/// event naming the table), and reported as `None` with its partial
/// timings dropped, so shared accounting never sees a half-updated table.
/// A clean `None` (no entity links) is counted as `tables_unlinked`.
#[allow(clippy::too_many_arguments)]
fn score_table_isolated(
    query: &Query,
    lake: &DataLake,
    table_id: TableId,
    sigma: SigmaSource<'_>,
    weights: &[Vec<f64>],
    agg: RowAgg,
    timings: &mut ScoreTimings,
    trace: &thetis_obs::QueryTrace,
    wid: usize,
) -> Option<f64> {
    let mut local = ScoreTimings::default();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        score_table(
            query, lake, table_id, sigma, weights, agg, &mut local, trace,
        )
    }));
    match outcome {
        Ok(score) => {
            timings.merge(local);
            if score.is_none() {
                timings.tables_unlinked += 1;
            }
            score
        }
        Err(payload) => {
            timings.tables_panicked += 1;
            if thetis_obs::enabled() {
                OBS_WORKER_PANICS.inc();
            }
            trace.record_with("sched.panic", || {
                thetis_obs::trace_attrs![
                    ("worker", wid),
                    ("table", table_id.0),
                    ("msg", panic_message(payload.as_ref())),
                ]
            });
            None
        }
    }
}

/// Resolves the digest of `table_id`: the lake's precomputed one when
/// *this table* is fresh (staleness is tracked per table, so one mutated
/// table no longer forces ad-hoc digests for the whole lake), otherwise an
/// ad-hoc build stored in `slot` (one-off scoring of a mutated table must
/// not panic). `None` means the table has no entity links and is
/// irrelevant by §4.2.
fn resolve_digest<'a>(
    lake: &'a DataLake,
    table_id: TableId,
    slot: &'a mut Option<TableDigest>,
) -> Option<&'a TableDigest> {
    if lake.digest_fresh(table_id) {
        lake.digest(table_id)
    } else {
        *slot = TableDigest::build(lake.table(table_id));
        slot.as_ref()
    }
}

/// Scores one table against the whole query (lines 3–15 of Algorithm 1):
/// per query tuple, compute the column mapping and the aggregated row
/// score, then average the per-tuple SemRel scores. `weights` holds the
/// query's informativeness weights, resolved once per search by
/// [`Informativeness::query_weights`](crate::Informativeness::query_weights):
/// slot `[t][i]` weighs `query.tuples[t][i]`.
///
/// Returns `None` for tables with no entity links (no row can have a
/// relevant mapping, so the table is irrelevant by §4.2).
///
/// An active `trace` receives, per query tuple, a `hungarian.map` event
/// (the chosen tuple→column mapping with each pair's column-relevance) and
/// a `semrel.tuple` event (the aggregated per-entity similarities `x_i` and
/// the tuple's Eq. 3 score), plus one `score.table` phase for the whole
/// table. [`QueryTrace::disabled`](thetis_obs::QueryTrace::disabled) costs
/// one branch per tuple.
#[allow(clippy::too_many_arguments)]
pub fn score_table(
    query: &Query,
    lake: &DataLake,
    table_id: TableId,
    sigma: SigmaSource<'_>,
    weights: &[Vec<f64>],
    agg: RowAgg,
    timings: &mut ScoreTimings,
    trace: &thetis_obs::QueryTrace,
) -> Option<f64> {
    if query.is_empty() {
        return None;
    }
    let mut slot = None;
    let digest = resolve_digest(lake, table_id, &mut slot)?;
    Some(score_digest(
        query, table_id, digest, sigma, weights, agg, timings, trace,
    ))
}

/// The digest-driven scoring kernel behind [`score_table`].
#[allow(clippy::too_many_arguments)]
fn score_digest(
    query: &Query,
    table_id: TableId,
    digest: &TableDigest,
    sigma: SigmaSource<'_>,
    weights: &[Vec<f64>],
    agg: RowAgg,
    timings: &mut ScoreTimings,
    trace: &thetis_obs::QueryTrace,
) -> f64 {
    debug_assert_eq!(weights.len(), query.len());
    let start = Instant::now();
    let sigma = SigmaRows::build(query, digest, sigma);
    let mut sum = 0.0;
    for ((ti, tuple), w) in query.tuples.iter().enumerate().zip(weights) {
        let map_start = Instant::now();
        let (mapping, relevance) =
            crate::mapping::map_tuple_to_columns_digest(tuple, digest, &sigma);
        let agg_start = Instant::now();
        timings.mapping_nanos += agg_start.duration_since(map_start).as_nanos() as u64;
        timings.mapping_count += 1;
        if trace.is_verbose() {
            trace.record(
                "hungarian.map",
                thetis_obs::trace_attrs![
                    ("table", table_id.0),
                    ("tuple", ti),
                    ("mapping", render_mapping(&mapping.columns)),
                    ("relevance", render_f64_list(&relevance)),
                ],
            );
        }
        let (tuple_score, xs) =
            crate::semrel::tuple_table_score_digest(tuple, digest, &mapping, &sigma, w, agg);
        if trace.is_verbose() {
            trace.record(
                "semrel.tuple",
                thetis_obs::trace_attrs![
                    ("table", table_id.0),
                    ("tuple", ti),
                    ("x", render_f64_list(&xs)),
                    ("score", tuple_score),
                ],
            );
        }
        sum += tuple_score;
        timings.agg_nanos += agg_start.elapsed().as_nanos() as u64;
    }
    timings.scoring_nanos += start.elapsed().as_nanos() as u64;
    timings.tables_scored += 1;
    let score = sum / query.len() as f64;
    trace.record_phase_with("score.table", start, || {
        thetis_obs::trace_attrs![("table", table_id.0), ("score", score)]
    });
    score
}

/// The mapping `τ` as a compact string, e.g. `"0→2,1→—"`.
fn render_mapping(columns: &[Option<usize>]) -> String {
    let mut out = String::new();
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match c {
            Some(j) => {
                out.push_str(&i.to_string());
                out.push('→');
                out.push_str(&j.to_string());
            }
            None => {
                out.push_str(&i.to_string());
                out.push_str("→—");
            }
        }
    }
    out
}

/// A float vector as a compact comma list, e.g. `"1.0000,0.9500"`.
fn render_f64_list(xs: &[f64]) -> String {
    let mut out = String::new();
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{x:.4}"));
    }
    out
}

/// An upper bound on [`score_table`] for the same arguments, cheap enough
/// to decide whether the Hungarian mapping and row aggregation are worth
/// running at all.
///
/// For every query entity `e_i` the bound takes
/// `x̄_i = max_{ē ∈ T} σ(e_i, ē)` over the table's *distinct* entities
/// (read straight from the digest's σ rows). Any real mapping aggregates σ
/// values drawn from that same entity pool, so `x_i ≤ x̄_i` under both
/// [`RowAgg::Max`] and [`RowAgg::Avg`], and Eq. 2–3 are monotone in each
/// `x_i` — hence `score ≤ bound`. When `sigma` is a search's memo rows
/// ([`SigmaSource::Memo`]) the σ values gathered here fill the rows for
/// the full scoring pass, so an unpruned table pays for the bound almost
/// nothing.
///
/// `weights` are the query's, as for [`score_table`]. Returns `None`
/// exactly when [`score_table`] would (no entity links or an empty query).
pub fn upper_bound_score(
    query: &Query,
    lake: &DataLake,
    table_id: TableId,
    sigma: SigmaSource<'_>,
    weights: &[Vec<f64>],
) -> Option<f64> {
    if query.is_empty() {
        return None;
    }
    let mut slot = None;
    let digest = resolve_digest(lake, table_id, &mut slot)?;
    let sigma = SigmaRows::build(query, digest, sigma);
    let best: Vec<(thetis_kg::EntityId, f64)> = sigma
        .entities()
        .iter()
        .map(|&e| (e, sigma.bound_of(e)))
        .collect();
    let lookup = |e: thetis_kg::EntityId| -> f64 {
        best.iter()
            .find(|&&(x, _)| x == e)
            .expect("tuple entity missing from σ rows")
            .1
    };
    let mut sum = 0.0;
    for (tuple, w) in query.tuples.iter().zip(weights) {
        let x: Vec<f64> = tuple.iter().map(|&e| lookup(e)).collect();
        sum += crate::semrel::distance_score(&x, w);
    }
    Some(sum / query.len() as f64)
}

/// Scores `candidates` over up to `threads` workers and returns all
/// `(table, score)` pairs (unsorted) plus merged timings.
///
/// The trace handle is shared across the scoring workers (its event buffer
/// is mutex-guarded and events are time-ordered on export). When
/// `deadline` is set the pass stops claiming work once it expires and
/// reports the unvisited candidates in `tables_unscored` (`deadline_hit`
/// set).
#[allow(clippy::too_many_arguments)]
pub fn score_candidates(
    query: &Query,
    lake: &DataLake,
    candidates: &[TableId],
    sigma: SigmaSource<'_>,
    weights: &[Vec<f64>],
    agg: RowAgg,
    threads: usize,
    deadline: Option<Instant>,
    trace: &thetis_obs::QueryTrace,
) -> (Vec<(TableId, f64)>, ScoreTimings) {
    if candidates.is_empty() {
        return (Vec::new(), ScoreTimings::default());
    }
    let (results, report) = work_steal(
        candidates.len(),
        threads,
        deadline,
        trace,
        |_| (Vec::<(TableId, f64)>::new(), ScoreTimings::default()),
        |acc, range, wid| {
            let mut done = 0u64;
            for &tid in &candidates[range] {
                if let Some(s) = score_table_isolated(
                    query, lake, tid, sigma, weights, agg, &mut acc.1, trace, wid,
                ) {
                    acc.0.push((tid, s));
                }
                done += 1;
            }
            done
        },
    );
    let mut all = Vec::with_capacity(candidates.len());
    let mut timings = ScoreTimings::default();
    for (part, t) in results {
        all.extend(part);
        timings.merge(t);
    }
    // Items never visited — deadline-skipped or claimed by a lost worker —
    // have no disposition yet; they are the unscored remainder.
    let accounted = timings.tables_scored + timings.tables_unlinked + timings.tables_panicked;
    timings.tables_unscored += candidates.len().saturating_sub(accounted);
    timings.deadline_hit |= report.deadline_hit;
    (all, timings)
}

/// Like [`score_candidates`], but skips the Hungarian mapping and row
/// aggregation for tables whose [`upper_bound_score`] falls strictly below
/// the running top-`k` floor, and returns only each worker's local top-`k`
/// survivors (at most `k · (workers + 1)` pairs).
///
/// The pass runs in four phases: (1) upper bounds for every candidate,
/// work-stolen across workers (with a [`SigmaSource::Memo`] the gathered
/// σ values fill the search's memo rows and the scoring phase reads them
/// back); (2) candidates sort by descending
/// bound — ties by ascending id — so the strongest tables are scored first
/// and the floor tightens as early as possible; (3) the `k` highest-bound
/// candidates are scored outright, seeding the floor at the best possible
/// value before any prune decision; (4) the remainder is work-stolen with
/// the shared atomic floor.
///
/// The floor is shared across workers through an atomic: it is the best
/// k-th-highest score any worker has seen so far, which is always ≤ the
/// final k-th-highest score, so a table pruned here — `score ≤ bound <
/// floor` — can never enter the final top-k, not even on a tie (ties enter
/// only at equal score). The ranking is therefore bit-identical to the
/// exhaustive path regardless of thread count or timing; only
/// `tables_pruned` may vary between runs.
///
/// A verbose trace additionally receives one `prune.skip` event per pruned
/// table (its upper bound and the floor that killed it) and a `prune.floor`
/// event each time the shared floor rises (the floor trajectory — when
/// pruning became effective); scored tables leave their `score.table` /
/// `hungarian.map` / `semrel.tuple` events via [`score_table`].
///
/// When `deadline` is set, every phase — bounding, floor seeding, and the
/// main loop — re-checks the clock at its claim granularity and stops
/// early; candidates the expired phases never visited are reported in
/// `tables_unscored`. The shared floor is seeded only from tables that were
/// actually scored, so every prune decision in a partial run is one the
/// full run would also have made: scored tables keep bit-identical scores.
#[allow(clippy::too_many_arguments)]
pub fn score_candidates_pruned(
    query: &Query,
    lake: &DataLake,
    candidates: &[TableId],
    sigma: SigmaSource<'_>,
    weights: &[Vec<f64>],
    agg: RowAgg,
    threads: usize,
    k: usize,
    deadline: Option<Instant>,
    trace: &thetis_obs::QueryTrace,
) -> (Vec<(TableId, f64)>, ScoreTimings) {
    if candidates.is_empty() || k == 0 {
        return (Vec::new(), ScoreTimings::default());
    }

    // Phase 1: upper bounds for every candidate, under the same per-table
    // panic isolation as scoring — a table whose σ kernel panics while
    // bounding is dropped (counted in `tables_panicked`) instead of taking
    // the whole pass down.
    let (bound_results, bound_report) = work_steal(
        candidates.len(),
        threads,
        deadline,
        trace,
        |_| (Vec::<(TableId, f64)>::new(), ScoreTimings::default()),
        |acc, range, wid| {
            let mut done = 0u64;
            for &tid in &candidates[range] {
                let start = Instant::now();
                let bound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    upper_bound_score(query, lake, tid, sigma, weights)
                }));
                acc.1.scoring_nanos += start.elapsed().as_nanos() as u64;
                match bound {
                    Ok(Some(b)) => acc.0.push((tid, b)),
                    Ok(None) => acc.1.tables_unlinked += 1,
                    Err(payload) => {
                        acc.1.tables_panicked += 1;
                        if thetis_obs::enabled() {
                            OBS_WORKER_PANICS.inc();
                        }
                        trace.record_with("sched.panic", || {
                            thetis_obs::trace_attrs![
                                ("worker", wid),
                                ("table", tid.0),
                                ("msg", panic_message(payload.as_ref())),
                            ]
                        });
                    }
                }
                done += 1;
            }
            done
        },
    );
    let mut timings = ScoreTimings::default();
    let mut bounded: Vec<(TableId, f64)> = Vec::with_capacity(candidates.len());
    for (part, t) in bound_results {
        bounded.extend(part);
        timings.merge(t);
    }
    // Candidates the bound phase never visited (deadline expiry or a lost
    // worker) get no bound and no later phase — they are unscored.
    let bound_accounted = bounded.len() + timings.tables_unlinked + timings.tables_panicked;
    timings.tables_unscored += candidates.len().saturating_sub(bound_accounted);
    timings.deadline_hit |= bound_report.deadline_hit;

    // Phase 2: strongest bounds first (ties by ascending id, so the visit
    // order is deterministic regardless of which worker bounded what).
    bounded.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    // f64 bits compare like integers for non-negative floats, and SemRel
    // scores are always positive, so `fetch_max` on the bit pattern keeps
    // the floor monotonically tightening without a lock.
    let floor_bits = AtomicU64::new(0.0f64.to_bits());
    let raise_floor = |top: &TopK<TableId>, wid: usize| {
        if top.len() == k {
            let min = top.min_score().expect("full top-k has a minimum");
            let bits = min.to_bits();
            let prev = floor_bits.fetch_max(bits, Ordering::Relaxed);
            if bits > prev {
                trace.record_with("prune.floor", || {
                    thetis_obs::trace_attrs![("worker", wid), ("floor", min)]
                });
            }
        }
    };

    // Phase 3: seed the floor by fully scoring the k highest-bound
    // candidates — the floor starts at the tightest value any order could
    // have produced after k tables, so phase 4 prunes from its first item.
    // The deadline is re-checked before every seed table; seeds never
    // visited join the unscored remainder.
    let seed_n = bounded.len().min(k);
    let mut seed_top: TopK<TableId> = TopK::new(k);
    let mut seeds_visited = 0usize;
    for &(tid, _) in &bounded[..seed_n] {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                timings.deadline_hit = true;
                break;
            }
        }
        seeds_visited += 1;
        if let Some(s) = score_table_isolated(
            query,
            lake,
            tid,
            sigma,
            weights,
            agg,
            &mut timings,
            trace,
            0,
        ) {
            seed_top.push(tid, s);
        }
    }
    timings.tables_unscored += seed_n - seeds_visited;
    raise_floor(&seed_top, 0);

    // Phase 4: the remainder, strongest first, under work stealing.
    let rest = &bounded[seed_n..];
    let (main_results, main_report) = work_steal(
        rest.len(),
        threads,
        deadline,
        trace,
        |_| (TopK::<TableId>::new(k), ScoreTimings::default()),
        |acc, range, wid| {
            let mut done = 0u64;
            for &(tid, bound) in &rest[range] {
                done += 1;
                let floor = f64::from_bits(floor_bits.load(Ordering::Relaxed));
                if bound < floor {
                    acc.1.tables_pruned += 1;
                    if trace.is_verbose() {
                        trace.record_with("prune.skip", || {
                            thetis_obs::trace_attrs![
                                ("table", tid.0),
                                ("bound", bound),
                                ("floor", floor),
                            ]
                        });
                    }
                    continue;
                }
                if let Some(s) = score_table_isolated(
                    query, lake, tid, sigma, weights, agg, &mut acc.1, trace, wid,
                ) {
                    acc.0.push(tid, s);
                    raise_floor(&acc.0, wid);
                }
            }
            done
        },
    );

    let mut all = seed_top.into_sorted();
    let mut main_timings = ScoreTimings::default();
    for (top, t) in main_results {
        all.extend(top.into_sorted());
        main_timings.merge(t);
    }
    // Phase-4 items that were never visited (deadline or lost worker): no
    // prune decision, no score — unscored.
    let main_accounted = main_timings.tables_scored
        + main_timings.tables_pruned
        + main_timings.tables_unlinked
        + main_timings.tables_panicked;
    main_timings.tables_unscored += rest.len().saturating_sub(main_accounted);
    main_timings.deadline_hit |= main_report.deadline_hit;
    timings.merge(main_timings);
    (all, timings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::TypeJaccard;
    use thetis_datalake::{CellValue, Table};
    use thetis_kg::{EntityId, KgBuilder, KnowledgeGraph};
    use thetis_obs::QueryTrace;

    /// Uniform weights for every tuple entity of `q`.
    fn ones(q: &Query) -> Vec<Vec<f64>> {
        q.tuples.iter().map(|t| vec![1.0; t.len()]).collect()
    }

    fn fixture() -> (KnowledgeGraph, DataLake, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let players: Vec<EntityId> = (0..6)
            .map(|i| b.add_entity(&format!("p{i}"), vec![p]))
            .collect();
        let g = b.freeze();
        let mk = |es: &[EntityId]| {
            let mut t = Table::new("t", vec!["c".into()]);
            for &e in es {
                t.push_row(vec![CellValue::LinkedEntity {
                    mention: "m".into(),
                    entity: e,
                }]);
            }
            t
        };
        let mut unlinked = Table::new("u", vec!["c".into()]);
        unlinked.push_row(vec![CellValue::Text("plain".into())]);
        let lake = DataLake::from_tables(vec![mk(&players[0..2]), mk(&players[2..4]), unlinked]);
        (g, lake, players)
    }

    #[test]
    fn exact_match_table_ranks_highest() {
        let off = QueryTrace::disabled();
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let mut t = ScoreTimings::default();
        let s0 = score_table(&q, &lake, TableId(0), sim, &w, RowAgg::Max, &mut t, &off).unwrap();
        let s1 = score_table(&q, &lake, TableId(1), sim, &w, RowAgg::Max, &mut t, &off).unwrap();
        assert_eq!(s0, 1.0);
        assert!(s1 < s0 && s1 > 0.0);
    }

    #[test]
    fn unlinked_tables_are_skipped() {
        let off = QueryTrace::disabled();
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let mut t = ScoreTimings::default();
        assert!(score_table(&q, &lake, TableId(2), sim, &w, RowAgg::Max, &mut t, &off).is_none());
        assert_eq!(t.tables_scored, 0);
    }

    #[test]
    fn stale_lake_scores_through_an_adhoc_digest() {
        let off = QueryTrace::disabled();
        let (g, mut lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let mut t = ScoreTimings::default();
        let fresh = score_table(&q, &lake, TableId(0), sim, &w, RowAgg::Max, &mut t, &off);
        // Touching another table through `table_mut` marks only *it* stale;
        // scoring the stale table falls back to an ad-hoc digest instead of
        // panicking, while fresh tables keep using their stored digest.
        lake.table_mut(TableId(1))
            .push_row(vec![CellValue::LinkedEntity {
                mention: "m".into(),
                entity: players[5],
            }]);
        assert!(!lake.digest_fresh(TableId(1)));
        assert!(lake.digest_fresh(TableId(0)), "staleness is per table");
        let unaffected = score_table(&q, &lake, TableId(0), sim, &w, RowAgg::Max, &mut t, &off);
        assert_eq!(fresh, unaffected);
        // The stale table itself scores without panicking.
        let _ = score_table(&q, &lake, TableId(1), sim, &w, RowAgg::Max, &mut t, &off);
        // Bulk mutation stales everything; scoring still must not panic.
        let _ = lake.tables_mut();
        assert!(!lake.digests_fresh());
        let stale = score_table(&q, &lake, TableId(0), sim, &w, RowAgg::Max, &mut t, &off);
        assert_eq!(fresh, stale);
    }

    #[test]
    fn parallel_matches_sequential() {
        let off = QueryTrace::disabled();
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let cands: Vec<TableId> = (0..3).map(TableId).collect();
        let (mut seq, _) = score_candidates(&q, &lake, &cands, sim, &w, RowAgg::Max, 1, None, &off);
        let (mut par, _) = score_candidates(&q, &lake, &cands, sim, &w, RowAgg::Max, 4, None, &off);
        seq.sort_by_key(|&(t, _)| t);
        par.sort_by_key(|&(t, _)| t);
        assert_eq!(seq, par);
    }

    #[test]
    fn work_stealing_covers_every_candidate_once() {
        // 48 candidates give each of 3 workers its 16: every candidate must
        // be scored exactly once no matter how the blocks interleave.
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let cands: Vec<TableId> = (0..16).flat_map(|_| (0..3).map(TableId)).collect();
        let trace = QueryTrace::summary(3);
        let (scored, timings) =
            score_candidates(&q, &lake, &cands, sim, &w, RowAgg::Max, 3, None, &trace);
        // 48 visits, 16 of them the unlinked table.
        assert_eq!(scored.len(), 32);
        assert_eq!(timings.tables_scored, 32);
        let drains = trace
            .events()
            .iter()
            .filter(|e| e.name == "sched.drain")
            .count();
        assert_eq!(drains, 3, "one drain per worker");
    }

    #[test]
    fn worker_count_follows_the_cutoff_without_overflow() {
        assert_eq!(workers_for(0, 1000), 1);
        assert_eq!(workers_for(1, 1000), 1);
        assert_eq!(workers_for(4, 63), 1);
        assert_eq!(workers_for(4, 64), 4);
        assert_eq!(workers_for(3, 48), 3);
        // `threads × MIN_PER_THREAD` would overflow here; the division
        // cannot, and no huge budget spawns more than one worker on a small
        // or even a maximal set.
        assert_eq!(workers_for(usize::MAX, 100), 1);
        assert_eq!(workers_for(usize::MAX, usize::MAX), 1);
        assert_eq!(workers_for(usize::MAX / 2, usize::MAX), 1);
        let most = usize::MAX / MIN_PER_THREAD;
        assert_eq!(workers_for(most, usize::MAX), most);
        assert!(workers_for(most, usize::MAX) <= usize::MAX.div_ceil(STEAL_BLOCK));
    }

    #[test]
    fn timings_accumulate() {
        let off = QueryTrace::disabled();
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let cands: Vec<TableId> = (0..3).map(TableId).collect();
        let (_, timings) = score_candidates(&q, &lake, &cands, sim, &w, RowAgg::Max, 1, None, &off);
        assert_eq!(timings.tables_scored, 2);
        assert!(timings.scoring_nanos >= timings.mapping_nanos);
        assert!(timings.mapping_fraction() <= 1.0);
        assert_eq!(timings.sigma_hit_rate(), 0.0);
    }

    #[test]
    fn upper_bound_dominates_the_real_score() {
        let off = QueryTrace::disabled();
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::new(vec![vec![players[0]], vec![players[2], players[4]]]);
        let w = ones(&q);
        for tid in [TableId(0), TableId(1)] {
            let bound = upper_bound_score(&q, &lake, tid, sim, &w).unwrap();
            for agg in [RowAgg::Max, RowAgg::Avg] {
                let mut t = ScoreTimings::default();
                let s = score_table(&q, &lake, tid, sim, &w, agg, &mut t, &off).unwrap();
                assert!(s <= bound + 1e-12, "{s} > {bound} for {tid:?} {agg:?}");
            }
        }
        assert!(upper_bound_score(&q, &lake, TableId(2), sim, &w).is_none());
    }

    #[test]
    fn pruned_search_keeps_the_same_top_k() {
        let off = QueryTrace::disabled();
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let cands: Vec<TableId> = (0..3).map(TableId).collect();
        let (exhaustive, _) =
            score_candidates(&q, &lake, &cands, sim, &w, RowAgg::Max, 1, None, &off);
        let (survivors, timings) =
            score_candidates_pruned(&q, &lake, &cands, sim, &w, RowAgg::Max, 1, 1, None, &off);
        let mut top = crate::topk::TopK::new(1);
        for &(t, s) in &exhaustive {
            top.push(t, s);
        }
        assert_eq!(survivors, top.into_sorted());
        assert_eq!(timings.tables_scored + timings.tables_pruned, 2);
    }

    #[test]
    fn pruning_actually_skips_dominated_tables() {
        let off = QueryTrace::disabled();
        // Table 0 holds the exact query entity (score 1.0, the maximum);
        // with k = 1 it has the highest bound, seeds the floor at 1.0, and
        // every other table gets pruned.
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let cands: Vec<TableId> = (0..3).map(TableId).collect();
        let (survivors, timings) =
            score_candidates_pruned(&q, &lake, &cands, sim, &w, RowAgg::Max, 1, 1, None, &off);
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].0, TableId(0));
        assert_eq!(timings.tables_scored, 1);
        assert_eq!(timings.tables_pruned, 1);
    }

    #[test]
    fn traced_scoring_matches_untraced_and_records_provenance() {
        let off = QueryTrace::disabled();
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let cands: Vec<TableId> = (0..3).map(TableId).collect();

        let (plain, _) =
            score_candidates_pruned(&q, &lake, &cands, sim, &w, RowAgg::Max, 1, 1, None, &off);
        let trace = thetis_obs::QueryTrace::forced(11);
        let (traced, _) =
            score_candidates_pruned(&q, &lake, &cands, sim, &w, RowAgg::Max, 1, 1, None, &trace);
        assert_eq!(plain, traced, "tracing must not perturb the ranking");

        let events = trace.events();
        let maps: Vec<_> = events
            .iter()
            .filter(|e| e.name == "hungarian.map")
            .collect();
        assert!(!maps.is_empty());
        assert_eq!(maps[0].attr_str("mapping"), Some("0→0"));
        let tuples: Vec<_> = events.iter().filter(|e| e.name == "semrel.tuple").collect();
        assert!(!tuples.is_empty());
        assert!(tuples[0].attr_f64("score").is_some());
        let skips: Vec<_> = events.iter().filter(|e| e.name == "prune.skip").collect();
        assert_eq!(skips.len(), 1, "table 1 is dominated and must be pruned");
        assert!(skips[0].attr_f64("bound").unwrap() < skips[0].attr_f64("floor").unwrap());
        let scored: Vec<_> = events.iter().filter(|e| e.name == "score.table").collect();
        assert_eq!(scored.len(), 1);
        assert_eq!(scored[0].attr_f64("score"), Some(plain[0].1));
        // The floor trajectory: seeding the floor from the best-bound table
        // is recorded before any prune decision.
        let floors: Vec<_> = events.iter().filter(|e| e.name == "prune.floor").collect();
        assert_eq!(floors.len(), 1);
        assert_eq!(floors[0].attr_f64("floor"), Some(plain[0].1));
        // Scheduler provenance: every worker drains exactly once per phase.
        let drains: Vec<_> = events.iter().filter(|e| e.name == "sched.drain").collect();
        assert_eq!(drains.len(), 2, "one bound phase + one scoring phase");
        assert!(events.iter().any(|e| e.name == "sched.steal"));
    }

    #[test]
    fn pruned_k_zero_returns_nothing() {
        let off = QueryTrace::disabled();
        let (g, lake, players) = fixture();
        let types = TypeJaccard::new(&g);
        let sim = SigmaSource::Direct(&types);
        let q = Query::single(vec![players[0]]);
        let w = ones(&q);
        let cands: Vec<TableId> = (0..3).map(TableId).collect();
        let (survivors, _) =
            score_candidates_pruned(&q, &lake, &cands, sim, &w, RowAgg::Max, 1, 0, None, &off);
        assert!(survivors.is_empty());
    }
}
