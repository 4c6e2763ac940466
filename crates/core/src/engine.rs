//! The Thetis search engine: one pipeline — a [`Candidates`] source, then
//! Algorithm 1 over those tables, then top-`k` — behind
//! [`ThetisEngine::execute`].

use std::borrow::Cow;
use std::time::{Duration, Instant};

use thetis_datalake::{DataLake, TableId};
use thetis_kg::KnowledgeGraph;
use thetis_lsh::lsei::{EntitySigner, Lsei, PrefilterResult};
use thetis_obs::QueryTrace;

use crate::cache::{CountingSimilarity, SimilarityCache};
use crate::informativeness::Informativeness;
use crate::query::Query;
use crate::search::{score_candidates, score_candidates_pruned, ScoreTimings};
use crate::semrel::RowAgg;
use crate::sigma::SigmaSource;
use crate::similarity::{EntitySimilarity, SigmaKernel};
use crate::topk::TopK;

/// One engine search end to end (prefilter excluded — that is `lsh.query`).
static OBS_SEARCH: thetis_obs::Span = thetis_obs::Span::new("core.search");
/// Hungarian column-mapping time, bulk-merged from the scoring workers.
static OBS_HUNGARIAN: thetis_obs::Span = thetis_obs::Span::new("core.hungarian");
/// Row-aggregation time, bulk-merged from the scoring workers.
static OBS_ROW_AGG: thetis_obs::Span = thetis_obs::Span::new("core.row_agg");
static OBS_SEARCHES: thetis_obs::Counter = thetis_obs::Counter::new("core.searches");
static OBS_CANDIDATES: thetis_obs::Counter = thetis_obs::Counter::new("core.candidates");
static OBS_TABLES_SCORED: thetis_obs::Counter = thetis_obs::Counter::new("core.tables_scored");
static OBS_TABLES_PRUNED: thetis_obs::Counter = thetis_obs::Counter::new("core.tables_pruned");
static OBS_SIGMA_COMPUTED: thetis_obs::Counter = thetis_obs::Counter::new("core.sigma_computed");
static OBS_SIGMA_CACHED: thetis_obs::Counter = thetis_obs::Counter::new("core.sigma_cached");
static OBS_SEARCH_LATENCY: thetis_obs::Histogram =
    thetis_obs::Histogram::new("core.search_latency");
/// Searches whose deadline expired before every candidate was visited.
static OBS_DEADLINE_EXPIRED: thetis_obs::Counter =
    thetis_obs::Counter::new("core.deadline_expired");
/// Prefiltered searches that fell back to an exhaustive scan because the
/// LSEI index was missing or failed verification.
static OBS_LSEI_FALLBACK: thetis_obs::Counter = thetis_obs::Counter::new("lsei.fallback");

/// Knobs of one search call.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Number of results to return.
    pub k: usize,
    /// Row-score aggregation (the paper recommends [`RowAgg::Max`]).
    pub agg: RowAgg,
    /// Worker threads for table scoring (0 = all available cores). A
    /// scoring pass spawns them only when each gets at least 16
    /// candidates; smaller candidate sets score on the calling thread.
    pub threads: usize,
    /// Run the exhaustive reference path instead of the optimised
    /// default. The default reads σ through dense memo rows (the caller's
    /// memo, else a query-scoped [`SimilarityCache`]), so each (query
    /// entity, lake entity) pair is evaluated at most once per search, and
    /// skips the Hungarian mapping and row aggregation for tables whose
    /// relevance upper bound cannot beat the running top-`k` floor. The
    /// exhaustive path evaluates σ directly and scores every candidate; it
    /// never reads or fills a memo, so it stays an independent check of
    /// the default. Both rank identically.
    pub exhaustive: bool,
    /// Wall-clock budget for the scoring pass. When it expires the search
    /// stops claiming work at steal-block granularity and returns the
    /// best-so-far top-`k` with [`SearchStats::degraded`] set and the
    /// skipped candidates counted in [`SearchStats::tables_unscored`].
    /// Tables that *were* scored keep bit-identical scores. There is no
    /// minimum-progress guarantee: a zero budget yields an empty, fully
    /// degraded result. `None` (the default) means unbounded.
    pub deadline: Option<Duration>,
    /// Which σ arithmetic the search runs (§16). The default,
    /// [`SigmaKernel::F64Exact`], is bit-identical to every release before
    /// quantization; `F32`/`I8` select the quantized slabs for bounded
    /// numeric drift in exchange for vectorized throughput. Memo rows
    /// are keyed by the kernel, so mixed-kernel callers sharing a cache
    /// never cross-contaminate.
    pub kernel: SigmaKernel,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            k: 10,
            agg: RowAgg::Max,
            threads: 0,
            exhaustive: false,
            deadline: None,
            kernel: SigmaKernel::F64Exact,
        }
    }
}

impl SearchOptions {
    /// Top-`k` search with defaults otherwise.
    pub fn top(k: usize) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }

    /// Top-`k` search on the exhaustive path — no memo, no pruning — the
    /// reference the optimised one is validated against.
    pub fn exhaustive(k: usize) -> Self {
        Self {
            k,
            exhaustive: true,
            ..Self::default()
        }
    }

    /// The same options with a wall-clock scoring budget attached.
    pub fn with_deadline(self, budget: Duration) -> Self {
        Self {
            deadline: Some(budget),
            ..self
        }
    }

    /// The same options running σ under `kernel`.
    pub fn with_kernel(self, kernel: SigmaKernel) -> Self {
        Self { kernel, ..self }
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Why a search result is partial — the degradation ladder's rungs, as a
/// bitset so a single query can degrade for several reasons at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedReasons {
    /// The wall-clock budget expired before every candidate was visited.
    pub deadline: bool,
    /// At least one table's scoring (or bounding) panicked and was dropped.
    pub worker_panic: bool,
    /// The LSEI prefilter was unusable (missing/corrupt index) and the
    /// search fell back to an exhaustive scan.
    pub lsei_fallback: bool,
}

impl DegradedReasons {
    /// Whether any reason is set.
    pub fn any(&self) -> bool {
        self.deadline || self.worker_panic || self.lsei_fallback
    }

    /// The set reasons as stable labels (for traces, CLI output, logs).
    pub fn labels(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.deadline {
            out.push("deadline");
        }
        if self.worker_panic {
            out.push("worker_panic");
        }
        if self.lsei_fallback {
            out.push("lsei_fallback");
        }
        out
    }
}

impl std::fmt::Display for DegradedReasons {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.any() {
            return f.write_str("none");
        }
        f.write_str(&self.labels().join("+"))
    }
}

/// Instrumentation of one search call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Tables that passed prefiltering (the whole lake without it).
    pub candidates: usize,
    /// Tables actually scored (candidates minus unlinked tables).
    pub tables_scored: usize,
    /// Search-space reduction achieved by the prefilter, in `[0, 1]`.
    pub reduction: f64,
    /// Wall time of the prefilter lookup, nanoseconds.
    pub prefilter_nanos: u64,
    /// Wall time of the whole search, nanoseconds.
    pub total_nanos: u64,
    /// Whether the ranking is partial: some candidate that would have been
    /// considered was skipped (deadline, panic, lost worker) or the
    /// prefilter fell back. Scored tables keep bit-identical scores even
    /// when this is set.
    pub degraded: bool,
    /// Candidates that received no disposition at all — neither scored,
    /// pruned, nor skipped as unlinked — plus tables dropped by panic
    /// isolation. Zero on a healthy run.
    pub tables_unscored: usize,
    /// Which rungs of the degradation ladder fired.
    pub degraded_reason: DegradedReasons,
    /// The lake generation this search read. A search pinned to an
    /// [`EpochLake`](thetis_datalake::EpochLake) snapshot reports the
    /// pinned epoch even while writers publish newer ones.
    pub lake_epoch: thetis_datalake::LakeEpoch,
    /// Scoring-time breakdown.
    pub timings: ScoreTimings,
}

impl SearchStats {
    /// Tables skipped by upper-bound pruning.
    pub fn tables_pruned(&self) -> usize {
        self.timings.tables_pruned
    }

    /// Tables dropped because their scoring panicked (isolated per table).
    pub fn worker_panics(&self) -> usize {
        self.timings.tables_panicked
    }

    /// σ evaluations actually performed.
    pub fn sigma_computed(&self) -> u64 {
        self.timings.sigma_computed
    }

    /// σ lookups served from the query-scoped memo.
    pub fn sigma_cached(&self) -> u64 {
        self.timings.sigma_cached
    }

    /// Fraction of σ lookups served from the memo.
    pub fn sigma_hit_rate(&self) -> f64 {
        self.timings.sigma_hit_rate()
    }
}

/// A ranked search result.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// `(table, SemRel)` pairs in descending score order.
    pub ranked: Vec<(TableId, f64)>,
    /// Instrumentation.
    pub stats: SearchStats,
}

impl SearchResult {
    /// Just the table ids, best first.
    pub fn table_ids(&self) -> Vec<TableId> {
        self.ranked.iter().map(|&(t, _)| t).collect()
    }
}

/// Which tables [`ThetisEngine::execute`] scores — the only thing that
/// differs between the paper's search modes.
#[derive(Debug)]
pub enum Candidates<'c> {
    /// Every table of the lake: brute-force Algorithm 1.
    Lake,
    /// An explicit candidate set from some other prefilter (e.g. the BM25
    /// prefilter of §7.3).
    Among(&'c [TableId]),
    /// The survivors of an LSEI lookup (§6, §6.2) and the lookup's wall
    /// time, reported as [`SearchStats::prefilter_nanos`].
    Prefiltered {
        /// Surviving tables, sorted and deduplicated.
        tables: Vec<TableId>,
        /// Wall time of the lookup, nanoseconds.
        nanos: u64,
    },
    /// The LSEI rung of the degradation ladder: the index was missing,
    /// truncated, failed its checksum or is in a retired format, so the
    /// whole lake is scanned and the result is marked
    /// `degraded_reason.lsei_fallback`.
    Fallback,
}

impl<'c> Candidates<'c> {
    /// The §6 LSEI entity lookup over the query's distinct entities, with
    /// per-entity band matches and per-table votes recorded on an active
    /// `trace` (see
    /// [`Lsei::prefilter_traced`](thetis_lsh::lsei::Lsei::prefilter_traced)).
    /// `None` — no usable index — yields [`Candidates::Fallback`].
    pub fn lsei<Sg: EntitySigner>(
        index: Option<&Lsei<Sg>>,
        query: &Query,
        votes: usize,
        trace: &QueryTrace,
    ) -> Self {
        match index {
            Some(index) => {
                Self::timed(|| index.prefilter_traced(&query.distinct_entities(), votes, trace))
            }
            None => Self::Fallback,
        }
    }

    /// The §6.2 lookup with query-side column aggregation: the entities at
    /// each tuple position merge into one LSEI lookup, so a 5-tuple query
    /// costs as much as a 1-tuple query.
    pub fn lsei_aggregated<Sg: EntitySigner>(
        index: &Lsei<Sg>,
        query: &Query,
        votes: usize,
    ) -> Self {
        Self::timed(|| {
            // Transpose tuples into per-position entity groups.
            let mut columns: Vec<Vec<thetis_kg::EntityId>> = vec![Vec::new(); query.width()];
            for tuple in &query.tuples {
                for (i, &e) in tuple.iter().enumerate() {
                    columns[i].push(e);
                }
            }
            index.prefilter_aggregated(&columns, votes)
        })
    }

    fn timed(prefilter: impl FnOnce() -> PrefilterResult) -> Self {
        let start = Instant::now();
        let tables = prefilter().tables;
        Self::Prefiltered {
            tables,
            nanos: start.elapsed().as_nanos() as u64,
        }
    }
}

/// The semantic table search engine of the paper, parameterized by the
/// entity similarity `σ` (types or embeddings).
pub struct ThetisEngine<'a, S> {
    graph: &'a KnowledgeGraph,
    lake: &'a DataLake,
    sim: S,
    inform: Informativeness,
}

impl<'a, S: EntitySimilarity> ThetisEngine<'a, S> {
    /// Creates an engine with IDF informativeness weights over `lake`
    /// (searches require fresh postings).
    pub fn new(graph: &'a KnowledgeGraph, lake: &'a DataLake, sim: S) -> Self {
        Self {
            graph,
            lake,
            sim,
            inform: Informativeness::from_lake(lake),
        }
    }

    /// Creates an engine with an explicit choice of informativeness
    /// weights (e.g. [`Informativeness::uniform`]).
    pub fn with_informativeness(
        graph: &'a KnowledgeGraph,
        lake: &'a DataLake,
        sim: S,
        inform: Informativeness,
    ) -> Self {
        Self {
            graph,
            lake,
            sim,
            inform,
        }
    }

    /// The reference knowledge graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        self.graph
    }

    /// The data lake being searched.
    pub fn lake(&self) -> &DataLake {
        self.lake
    }

    /// The similarity in use.
    pub fn similarity(&self) -> &S {
        &self.sim
    }

    /// How this engine weighs query entities; weights resolve against
    /// [`ThetisEngine::lake`].
    pub fn informativeness(&self) -> &Informativeness {
        &self.inform
    }

    /// Brute-force semantic search (Algorithm 1) over the whole lake.
    pub fn search(&self, query: &Query, options: SearchOptions) -> SearchResult {
        let off = QueryTrace::disabled();
        self.execute(query, options, Candidates::Lake, None, &off)
    }

    /// Semantic search restricted to an explicit candidate set (used for
    /// alternative prefilters, e.g. the BM25-prefiltering ablation of
    /// §7.3).
    pub fn search_among(
        &self,
        query: &Query,
        options: SearchOptions,
        candidates: &[TableId],
    ) -> SearchResult {
        let off = QueryTrace::disabled();
        self.execute(query, options, Candidates::Among(candidates), None, &off)
    }

    /// Semantic search with LSEI prefiltering (§6): only tables surviving
    /// the voting prefilter are scored.
    pub fn search_prefiltered<Sg: EntitySigner>(
        &self,
        query: &Query,
        options: SearchOptions,
        lsei: &Lsei<Sg>,
        votes: usize,
    ) -> SearchResult {
        let off = QueryTrace::disabled();
        let candidates = Candidates::lsei(Some(lsei), query, votes, &off);
        self.execute(query, options, candidates, None, &off)
    }

    /// The one search pipeline: Algorithm 1 over `candidates`, then top-`k`.
    /// Every other search method is a one-liner over this.
    ///
    /// `memo` is a caller-provided σ cache that outlives the call — the
    /// request path of a resident service, where one
    /// [`SharedSimilarityCache`](crate::cache::SharedSimilarityCache)
    /// (already resolved to its inner [`SimilarityCache`] via `for_epoch`)
    /// is shared across every concurrent query. The search resolves its
    /// σ rows from the memo once, up front, and counts its own lookups, so
    /// per-request [`SearchStats`] σ counters are exact under concurrency
    /// and a repeat query against a warm cache computes no σ at all
    /// ([`SearchStats::sigma_hit_rate`] of 1.0). The caller must clear or
    /// replace the cache when the underlying similarity changes. `None`
    /// uses a query-scoped memo. Under [`SearchOptions::exhaustive`] the
    /// memo is ignored, neither read nor filled: σ is evaluated directly
    /// on every lookup.
    ///
    /// An active `trace` receives the full per-query event stream (LSEI
    /// band matches and votes when the candidates came from
    /// [`Candidates::lsei`], Hungarian mappings, per-tuple SemRel
    /// breakdowns, prune decisions, σ-cache summary, ranked results, phase
    /// timings). Pass [`QueryTrace::disabled`] (or a sampled-out handle)
    /// for zero extra work.
    ///
    /// [`Candidates::Fallback`] — the degradation ladder's LSEI rung —
    /// bumps the `lsei.fallback` counter, records an `lsei.fallback` trace
    /// event, scans the whole lake and marks the result `degraded` with
    /// `degraded_reason.lsei_fallback` so callers can warn; the ranking
    /// itself is *complete* (every table was considered), just slower to
    /// produce.
    pub fn execute(
        &self,
        query: &Query,
        options: SearchOptions,
        candidates: Candidates<'_>,
        memo: Option<&SimilarityCache>,
        trace: &QueryTrace,
    ) -> SearchResult {
        let lsei_fallback = matches!(candidates, Candidates::Fallback);
        if lsei_fallback {
            if thetis_obs::enabled() {
                OBS_LSEI_FALLBACK.inc();
            }
            trace.record_with("lsei.fallback", || {
                thetis_obs::trace_attrs![("tables", self.lake.len())]
            });
        }
        let (candidates, prefilter_nanos): (Cow<'_, [TableId]>, u64) = match candidates {
            Candidates::Lake | Candidates::Fallback => (
                Cow::Owned((0..self.lake.len() as u32).map(TableId).collect()),
                0,
            ),
            Candidates::Among(tables) => (Cow::Borrowed(tables), 0),
            Candidates::Prefiltered { tables, nanos } => (Cow::Owned(tables), nanos),
        };
        let candidates: &[TableId] = &candidates;
        let reduction = if self.lake.is_empty() {
            0.0
        } else {
            1.0 - candidates.len() as f64 / self.lake.len() as f64
        };

        let _search = OBS_SEARCH.start();
        let start = Instant::now();
        // The epoch of the (pinned) lake view this whole search reads.
        let lake_epoch = self.lake.epoch();
        trace.record_with("lake.epoch", || {
            thetis_obs::trace_attrs![("epoch", lake_epoch)]
        });
        // The default path reads σ through memo rows: the caller's memo,
        // else a query-scoped one, resolved here once per search. The
        // exhaustive reference touches no memo at all.
        let owned = (memo.is_none() && !options.exhaustive).then(SimilarityCache::new);
        let cache = memo.or(owned.as_ref()).filter(|_| !options.exhaustive);
        let rows = cache.map(|c| {
            c.rows(
                &self.sim,
                options.kernel,
                query.distinct_entities(),
                self.graph.entity_count(),
            )
        });
        let counting = CountingSimilarity::with_kernel(&self.sim, options.kernel);
        let sigma = match &rows {
            Some(rows) => SigmaSource::Memo(rows),
            None => SigmaSource::Direct(&counting),
        };

        let threads = options.resolved_threads();
        // The budget covers the scoring pass; prefilter time already spent
        // is the caller's concern (it is typically microseconds).
        let deadline_at = options.deadline.map(|d| start + d);
        // `I(e)` of every query entity in the lake this search reads.
        let weights = self.inform.query_weights(self.lake, query);
        let (scored, mut timings) = if options.exhaustive {
            score_candidates(
                query,
                self.lake,
                candidates,
                sigma,
                &weights,
                options.agg,
                threads,
                deadline_at,
                trace,
            )
        } else {
            score_candidates_pruned(
                query,
                self.lake,
                candidates,
                sigma,
                &weights,
                options.agg,
                threads,
                options.k,
                deadline_at,
                trace,
            )
        };
        match (cache, &rows) {
            (Some(cache), Some(rows)) => {
                let counts = rows.stats();
                cache.record(counts);
                timings.sigma_computed = counts.computed;
                timings.sigma_cached = counts.served;
                counts.record_trace_summary(trace);
            }
            _ => timings.sigma_computed = counting.computed(),
        }

        let tables_unscored = timings.tables_unscored + timings.tables_panicked;
        let degraded_reason = DegradedReasons {
            deadline: timings.deadline_hit,
            worker_panic: timings.tables_panicked > 0,
            lsei_fallback: false,
        };
        let degraded = degraded_reason.any() || tables_unscored > 0;
        if degraded {
            trace.record_with("search.degraded", || {
                thetis_obs::trace_attrs![
                    ("reason", degraded_reason.to_string()),
                    ("tables_unscored", tables_unscored),
                    ("tables_panicked", timings.tables_panicked),
                ]
            });
        }

        let mut topk = TopK::new(options.k);
        for (tid, score) in scored {
            topk.push(tid, score);
        }
        let ranked = topk.into_sorted();
        if trace.is_active() {
            for (rank, &(tid, score)) in ranked.iter().enumerate() {
                trace.record(
                    "search.result",
                    thetis_obs::trace_attrs![
                        ("rank", rank + 1),
                        ("table", tid.0),
                        ("score", score)
                    ],
                );
            }
        }
        let total_nanos = prefilter_nanos + start.elapsed().as_nanos() as u64;
        trace.record_phase_with("core.search", start, || {
            thetis_obs::trace_attrs![
                ("candidates", candidates.len()),
                ("tables_scored", timings.tables_scored),
                ("tables_pruned", timings.tables_pruned),
            ]
        });
        if thetis_obs::enabled() {
            OBS_SEARCHES.inc();
            OBS_CANDIDATES.add(candidates.len() as u64);
            OBS_TABLES_SCORED.add(timings.tables_scored as u64);
            OBS_TABLES_PRUNED.add(timings.tables_pruned as u64);
            OBS_SIGMA_COMPUTED.add(timings.sigma_computed);
            OBS_SIGMA_CACHED.add(timings.sigma_cached);
            OBS_HUNGARIAN.record_nanos(timings.mapping_nanos, timings.mapping_count);
            OBS_ROW_AGG.record_nanos(timings.agg_nanos, timings.tables_scored as u64);
            OBS_SEARCH_LATENCY.observe_nanos(total_nanos);
            if timings.deadline_hit {
                OBS_DEADLINE_EXPIRED.inc();
            }
        }
        SearchResult {
            ranked,
            stats: SearchStats {
                candidates: candidates.len(),
                tables_scored: timings.tables_scored,
                reduction,
                prefilter_nanos,
                total_nanos,
                degraded: degraded || lsei_fallback,
                tables_unscored,
                degraded_reason: DegradedReasons {
                    lsei_fallback,
                    ..degraded_reason
                },
                lake_epoch,
                timings,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::TypeJaccard;
    use thetis_datalake::{CellValue, Table};
    use thetis_kg::{EntityId, KgBuilder};
    use thetis_lsh::lsei::{LseiMode, TypeSigner};
    use thetis_lsh::{LshConfig, TypeFilter};

    fn fixture() -> (KnowledgeGraph, DataLake, Vec<EntityId>, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let v = b.add_type("Volleyballer", Some(thing));
        let players: Vec<EntityId> = (0..8)
            .map(|i| b.add_entity(&format!("p{i}"), vec![p]))
            .collect();
        let volley: Vec<EntityId> = (0..8)
            .map(|i| b.add_entity(&format!("v{i}"), vec![v]))
            .collect();
        let g = b.freeze();
        let mk = |name: &str, es: &[EntityId]| {
            let mut t = Table::new(name, vec!["c".into()]);
            for &e in es {
                t.push_row(vec![CellValue::LinkedEntity {
                    mention: "m".into(),
                    entity: e,
                }]);
            }
            t
        };
        let lake = DataLake::from_tables(vec![
            mk("players_a", &players[0..4]),
            mk("players_b", &players[4..8]),
            mk("volley_a", &volley[0..4]),
            mk("volley_b", &volley[4..8]),
        ]);
        (g, lake, players, volley)
    }

    #[test]
    fn search_ranks_topically_relevant_tables_first() {
        let (g, lake, players, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let q = Query::single(vec![players[0]]);
        let res = engine.search(&q, SearchOptions::top(4));
        assert_eq!(res.ranked.len(), 4);
        // The table containing p0 first, then the other player table.
        assert_eq!(res.ranked[0].0, TableId(0));
        assert_eq!(res.ranked[1].0, TableId(1));
        assert!(res.ranked[0].1 > res.ranked[1].1);
        assert!(res.ranked[1].1 > res.ranked[2].1);
        assert_eq!(res.stats.tables_scored, 4);
    }

    #[test]
    fn prefiltered_search_matches_brute_force_top_results() {
        let (g, lake, players, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 7);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        let q = Query::single(vec![players[0]]);
        let brute = engine.search(&q, SearchOptions::top(2));
        let fast = engine.search_prefiltered(&q, SearchOptions::top(2), &lsei, 1);
        assert_eq!(brute.table_ids(), fast.table_ids());
        assert!(fast.stats.reduction >= 0.0);
        assert!(fast.stats.candidates <= lake.len());
    }

    #[test]
    fn aggregated_prefilter_also_finds_exact_tables() {
        let (g, lake, players, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 7);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        let q = Query::single(vec![players[0], players[1]]);
        let candidates = Candidates::lsei_aggregated(&lsei, &q, 1);
        let off = QueryTrace::disabled();
        let res = engine.execute(&q, SearchOptions::top(2), candidates, None, &off);
        assert!(res.table_ids().contains(&TableId(0)));
    }

    #[test]
    fn quantized_kernel_search_tracks_reference_ranking() {
        use crate::similarity::EmbeddingCosine;
        let (g, lake, players, _) = fixture();
        let n = g.entity_count();
        let mut store = thetis_embedding::EmbeddingStore::zeros(n, 8);
        for i in 0..n as u32 {
            let row = store.get_mut(EntityId(i));
            for (j, x) in row.iter_mut().enumerate() {
                *x = (((i as usize * 13 + j * 7) % 19) as f32 - 9.0) / 4.0;
            }
        }
        let engine = ThetisEngine::new(&g, &lake, EmbeddingCosine::new(&store));
        let q = Query::single(vec![players[0], players[3]]);
        let exact = engine.search(&q, SearchOptions::top(4));
        // The f64 reference never builds a slab; each quantized search
        // builds its own, so a silent fallback to the scalar path (whose
        // scores would pass the tolerance below) shows up as no growth.
        let mut slab_bytes = engine.similarity().slab_bytes();
        assert_eq!(slab_bytes, 0);
        for kernel in [SigmaKernel::F32, SigmaKernel::I8] {
            let quant = engine.search(&q, SearchOptions::top(4).with_kernel(kernel));
            let grown = engine.similarity().slab_bytes();
            assert!(
                grown > slab_bytes,
                "{kernel}: no slab built ({grown} bytes)"
            );
            slab_bytes = grown;
            assert_eq!(exact.table_ids(), quant.table_ids(), "{kernel}");
            for ((_, want), (_, got)) in exact.ranked.iter().zip(&quant.ranked) {
                assert!((want - got).abs() < 0.05, "{kernel}: {got} vs {want}");
            }
            // The default and exhaustive paths agree bit-for-bit per kernel.
            let reference = engine.search(&q, SearchOptions::exhaustive(4).with_kernel(kernel));
            assert_eq!(quant.ranked.len(), reference.ranked.len());
            for ((ta, sa), (tb, sb)) in quant.ranked.iter().zip(&reference.ranked) {
                assert_eq!(ta, tb);
                assert_eq!(sa.to_bits(), sb.to_bits());
            }
        }
    }

    #[test]
    fn stats_reflect_work_done() {
        let (g, lake, players, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let q = Query::single(vec![players[0]]);
        let res = engine.search(&q, SearchOptions::top(10));
        assert_eq!(res.stats.candidates, 4);
        assert_eq!(res.stats.reduction, 0.0);
        assert!(res.stats.total_nanos > 0);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let (g, lake, _, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let res = engine.search(&Query::new(vec![]), SearchOptions::top(5));
        assert!(res.ranked.is_empty());
    }

    #[test]
    fn optimized_search_matches_the_exhaustive_path() {
        let (g, lake, players, volley) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let q = Query::new(vec![vec![players[0]], vec![volley[1], players[3]]]);
        for k in [1, 2, 4, 10] {
            let fast = engine.search(&q, SearchOptions::top(k));
            let slow = engine.search(&q, SearchOptions::exhaustive(k));
            assert_eq!(fast.ranked, slow.ranked, "k = {k}");
        }
    }

    #[test]
    fn memoization_cuts_sigma_evaluations() {
        // Tables with overlapping entity sets: within one table the digest
        // already dedups σ to distinct pairs, so the memo's win is serving
        // the entities shared *across* tables.
        let mut b = KgBuilder::new();
        let thing = b.add_type("Thing", None);
        let p = b.add_type("Player", Some(thing));
        let players: Vec<EntityId> = (0..8)
            .map(|i| b.add_entity(&format!("p{i}"), vec![p]))
            .collect();
        let g = b.freeze();
        let mk = |name: &str, es: &[EntityId]| {
            let mut t = Table::new(name, vec!["c".into()]);
            for &e in es {
                t.push_row(vec![CellValue::LinkedEntity {
                    mention: "m".into(),
                    entity: e,
                }]);
            }
            t
        };
        let lake = DataLake::from_tables(vec![
            mk("a", &players[0..4]),
            mk("b", &players[2..6]),
            mk("c", &players[4..8]),
        ]);
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let q = Query::single(vec![players[0]]);
        // One worker, so the σ counts do not depend on thread timing.
        let memo = engine.search(
            &q,
            SearchOptions {
                threads: 1,
                ..SearchOptions::top(3)
            },
        );
        let raw = engine.search(&q, SearchOptions::exhaustive(3));
        assert_eq!(memo.ranked, raw.ranked);
        // 8 distinct lake entities → at most 8 distinct pairs to compute;
        // the 4 overlap entities are served from the memo on their second
        // table. The raw path recomputes per table: 3 × 4 = 12.
        assert!(memo.stats.sigma_computed() <= 8);
        assert!(raw.stats.sigma_computed() > memo.stats.sigma_computed());
        assert_eq!(raw.stats.sigma_cached(), 0);
        assert!(memo.stats.sigma_cached() > 0);
        assert!(memo.stats.sigma_hit_rate() > 0.0);
    }

    #[test]
    fn exhaustive_search_ignores_a_callers_memo() {
        let (g, lake, players, volley) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let q = Query::new(vec![vec![players[0]], vec![volley[1], players[3]]]);
        let memo = crate::cache::SimilarityCache::new();
        let off = QueryTrace::disabled();
        let options = SearchOptions::exhaustive(3);
        let with_memo = engine.execute(&q, options, Candidates::Lake, Some(&memo), &off);
        let without = engine.execute(&q, options, Candidates::Lake, None, &off);
        assert_eq!(
            memo.len(),
            0,
            "the exhaustive path filled the caller's memo"
        );
        assert_eq!(memo.stats(), crate::cache::CacheStats::default());
        assert_eq!(with_memo.stats.sigma_cached(), 0);
        assert_eq!(
            with_memo.stats.sigma_computed(),
            without.stats.sigma_computed()
        );
        let bits = |r: &[(TableId, f64)]| -> Vec<(TableId, u64)> {
            r.iter().map(|&(t, x)| (t, x.to_bits())).collect()
        };
        assert_eq!(bits(&with_memo.ranked), bits(&without.ranked));
    }

    #[test]
    fn shared_cache_serves_a_repeat_search_entirely() {
        let (g, lake, players, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let q = Query::single(vec![players[0], players[1]]);
        let cache = crate::cache::SimilarityCache::new();
        let off = QueryTrace::disabled();
        let run = || {
            engine.execute(
                &q,
                SearchOptions::top(4),
                Candidates::Lake,
                Some(&cache),
                &off,
            )
        };
        let first = run();
        let second = run();
        assert_eq!(first.ranked, second.ranked);
        assert!(first.stats.sigma_computed() > 0);
        assert_eq!(second.stats.sigma_computed(), 0);
        assert_eq!(second.stats.sigma_hit_rate(), 1.0);
    }

    #[test]
    fn shared_prefiltered_search_warms_across_queries_and_falls_back() {
        let (g, lake, players, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 7);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        let q = Query::single(vec![players[0]]);
        let opts = SearchOptions::top(4);
        let shared = crate::cache::SharedSimilarityCache::new(lake.epoch(), 0);
        let off = QueryTrace::disabled();

        let cache = shared.for_epoch(lake.epoch());
        let served = |index: Option<&Lsei<TypeSigner<'_>>>| {
            let candidates = Candidates::lsei(index, &q, 1, &off);
            engine.execute(&q, opts, candidates, Some(cache), &off)
        };
        let first = served(Some(&lsei));
        let plain = engine.search_prefiltered(&q, opts, &lsei, 1);
        assert_eq!(first.ranked, plain.ranked);
        assert!(first.stats.sigma_computed() > 0);
        assert!(!first.stats.degraded);

        // Second identical request: served entirely from the shared memo.
        let second = served(Some(&lsei));
        assert_eq!(second.ranked, first.ranked);
        assert_eq!(second.stats.sigma_computed(), 0);
        assert_eq!(second.stats.sigma_hit_rate(), 1.0);

        // Missing index: complete ranking, marked as the fallback rung.
        let fallback = served(None);
        assert!(fallback.stats.degraded);
        assert!(fallback.stats.degraded_reason.lsei_fallback);
        assert_eq!(fallback.ranked, engine.search(&q, opts).ranked);
    }

    #[test]
    fn traced_search_matches_untraced_and_records_the_pipeline() {
        let (g, lake, players, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let cfg = LshConfig::new(32, 8);
        let signer = TypeSigner::new(&g, TypeFilter::none(), cfg, 7);
        let lsei = Lsei::build(&lake, signer, cfg, LseiMode::Entity);
        let q = Query::single(vec![players[0]]);
        let opts = SearchOptions {
            threads: 2,
            ..SearchOptions::top(2)
        };

        let plain = engine.search_prefiltered(&q, opts, &lsei, 1);
        let traced_run = |trace: &QueryTrace| {
            let candidates = Candidates::lsei(Some(&lsei), &q, 1, trace);
            engine.execute(&q, opts, candidates, None, trace)
        };
        let trace = QueryTrace::forced(0xABCD);
        let traced = traced_run(&trace);
        assert_eq!(plain.ranked, traced.ranked);

        let events = trace.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        for expected in [
            "lsei.prefilter",
            "lsei.lookup",
            "lsei.admit",
            "hungarian.map",
            "semrel.tuple",
            "score.table",
            "sigma.cache",
            "search.result",
            "core.search",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        // Ranked results round-trip through the trace in rank order.
        let results: Vec<_> = events
            .iter()
            .filter(|e| e.name == "search.result")
            .collect();
        assert_eq!(results.len(), traced.ranked.len());
        for (i, (r, &(tid, score))) in results.iter().zip(&traced.ranked).enumerate() {
            assert_eq!(r.attr_u64("rank"), Some(i as u64 + 1));
            assert_eq!(r.attr_u64("table"), Some(tid.0 as u64));
            assert_eq!(r.attr_f64("score"), Some(score));
        }
        // The whole export survives a JSON round trip.
        let parsed = thetis_obs::parse_trace_json(&trace.to_json()).expect("parses");
        assert_eq!(parsed.events, events);

        // A disabled trace records nothing and does not perturb results.
        let off = QueryTrace::disabled();
        let silent = traced_run(&off);
        assert_eq!(silent.ranked, plain.ranked);
        assert!(off.is_empty());
    }

    #[test]
    fn pruning_is_reported_in_stats() {
        let (g, lake, players, _) = fixture();
        let engine = ThetisEngine::new(&g, &lake, TypeJaccard::new(&g));
        let q = Query::single(vec![players[0]]);
        let res = engine.search(&q, SearchOptions::top(1));
        // With k = 1 the exact-match table (score 1.0) is found first and
        // every other table's bound is below it.
        assert_eq!(res.ranked[0].0, TableId(0));
        assert!(res.stats.tables_pruned() > 0);
        assert_eq!(
            res.stats.tables_scored + res.stats.tables_pruned(),
            lake.len()
        );
    }
}
