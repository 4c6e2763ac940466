//! Reusable method runners: each returns a [`MethodReport`] over a query
//! set, so every experiment composes the same building blocks the paper's
//! evaluation does.

use serde::Serialize;
use thetis::baselines::union_search::tuples_to_columns;
use thetis::obs::QueryTrace;
use thetis::prelude::*;

use crate::context::BenchData;

/// Which entity similarity σ to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    /// Adjusted type Jaccard (STST).
    Types,
    /// Embedding cosine (STSE).
    Embeddings,
}

impl Sim {
    /// The paper's method prefix ("T" / "E" in Tables 3–4).
    pub fn letter(self) -> &'static str {
        match self {
            Sim::Types => "T",
            Sim::Embeddings => "E",
        }
    }
}

/// Per-query prefilter observations for Tables 3–4.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PrefilterStats {
    /// Mean search-space reduction across queries.
    pub mean_reduction: f64,
}

/// Scoring-optimizer counters summed across a query set (the before/after
/// evidence for σ memoization and upper-bound pruning).
#[derive(Debug, Clone, Default, Serialize)]
pub struct ScoringStats {
    /// σ evaluations actually performed.
    pub sigma_computed: u64,
    /// σ lookups served from the query-scoped memo.
    pub sigma_cached: u64,
    /// Tables fully scored.
    pub tables_scored: usize,
    /// Tables skipped by upper-bound pruning.
    pub tables_pruned: usize,
}

impl ScoringStats {
    fn absorb(&mut self, stats: &SearchStats) {
        self.sigma_computed += stats.sigma_computed();
        self.sigma_cached += stats.sigma_cached();
        self.tables_scored += stats.tables_scored;
        self.tables_pruned += stats.tables_pruned();
    }
}

/// Runs brute-force semantic search with explicit [`SearchOptions`],
/// returning the report plus the summed optimizer counters.
pub fn semantic_report_opts(
    data: &BenchData,
    sim: Sim,
    name: &str,
    queries: &[BenchQuery],
    gt: &GroundTruth,
    options: SearchOptions,
) -> (MethodReport, ScoringStats) {
    let graph = &data.bench.kg.graph;
    let mut scoring = ScoringStats::default();
    let report = match sim {
        Sim::Types => {
            let engine = ThetisEngine::new(graph, &data.bench.lake, TypeJaccard::new(graph));
            MethodReport::run(name, queries, gt, |q| {
                let res = engine.search(&Query::new(q.tuples.clone()), options);
                scoring.absorb(&res.stats);
                res.table_ids()
            })
        }
        Sim::Embeddings => {
            let cos = EmbeddingCosine::new(&data.store);
            // Quantized kernels score from a SoA slab; build it before the
            // timed runs so the one-time cost never lands in a query.
            cos.warm(options.kernel);
            let engine = ThetisEngine::new(graph, &data.bench.lake, cos);
            MethodReport::run(name, queries, gt, |q| {
                let res = engine.search(&Query::new(q.tuples.clone()), options);
                scoring.absorb(&res.stats);
                res.table_ids()
            })
        }
    };
    (report, scoring)
}

/// Runs brute-force semantic search (STST or STSE) with the default
/// (memoized + pruned) scoring path.
pub fn semantic_report(
    data: &BenchData,
    sim: Sim,
    queries: &[BenchQuery],
    gt: &GroundTruth,
    k: usize,
    agg: RowAgg,
) -> MethodReport {
    let options = SearchOptions {
        k,
        agg,
        ..SearchOptions::default()
    };
    let name = match sim {
        Sim::Types => "STST",
        Sim::Embeddings => "STSE",
    };
    semantic_report_opts(data, sim, name, queries, gt, options).0
}

/// Builds the LSEI for a similarity and configuration.
pub fn build_lsei<'a>(data: &'a BenchData, sim: Sim, cfg: LshConfig) -> LseiVariant<'a> {
    let graph = &data.bench.kg.graph;
    match sim {
        Sim::Types => {
            let filter = TypeFilter::from_lake(&data.bench.lake, graph, 0.5);
            LseiVariant::Types(Lsei::build(
                &data.bench.lake,
                TypeSigner::new(graph, filter, cfg, 0xA5),
                cfg,
                LseiMode::Entity,
            ))
        }
        Sim::Embeddings => LseiVariant::Embeddings(Lsei::build(
            &data.bench.lake,
            EmbeddingSigner::new(&data.store, cfg, 0xA5),
            cfg,
            LseiMode::Entity,
        )),
    }
}

/// An LSEI over either signer (the two are distinct types).
pub enum LseiVariant<'a> {
    /// Type-pair MinHash index.
    Types(Lsei<TypeSigner<'a>>),
    /// Hyperplane embedding index.
    Embeddings(Lsei<EmbeddingSigner<'a>>),
}

/// Runs LSH-prefiltered semantic search, returning the report and the mean
/// search-space reduction.
pub fn prefiltered_report(
    data: &BenchData,
    sim: Sim,
    cfg: LshConfig,
    votes: usize,
    queries: &[BenchQuery],
    gt: &GroundTruth,
    k: usize,
) -> (MethodReport, PrefilterStats) {
    let graph = &data.bench.kg.graph;
    let lsei = build_lsei(data, sim, cfg);
    let options = SearchOptions::top(k);
    let name = format!("{}{} v{}", sim.letter(), cfg, votes);
    let mut reductions = Vec::new();
    let report = match (&lsei, sim) {
        (LseiVariant::Types(lsei), _) => {
            let engine = ThetisEngine::new(graph, &data.bench.lake, TypeJaccard::new(graph));
            MethodReport::run(&name, queries, gt, |q| {
                let res =
                    engine.search_prefiltered(&Query::new(q.tuples.clone()), options, lsei, votes);
                reductions.push(res.stats.reduction);
                res.table_ids()
            })
        }
        (LseiVariant::Embeddings(lsei), _) => {
            let engine =
                ThetisEngine::new(graph, &data.bench.lake, EmbeddingCosine::new(&data.store));
            MethodReport::run(&name, queries, gt, |q| {
                let res =
                    engine.search_prefiltered(&Query::new(q.tuples.clone()), options, lsei, votes);
                reductions.push(res.stats.reduction);
                res.table_ids()
            })
        }
    };
    let stats = PrefilterStats {
        mean_reduction: thetis::eval::metrics::mean(&reductions),
    };
    (report, stats)
}

/// Runs LSH-prefiltered search with query-side column aggregation (§6.2):
/// all query entities merge into a single LSEI lookup.
pub fn prefiltered_aggregated_report(
    data: &BenchData,
    sim: Sim,
    cfg: LshConfig,
    votes: usize,
    queries: &[BenchQuery],
    gt: &GroundTruth,
    k: usize,
) -> (MethodReport, PrefilterStats) {
    let graph = &data.bench.kg.graph;
    let lsei = build_lsei(data, sim, cfg);
    let options = SearchOptions::top(k);
    let name = format!("{}{} colAgg", sim.letter(), cfg);
    let off = QueryTrace::disabled();
    let mut reductions = Vec::new();
    let report = match &lsei {
        LseiVariant::Types(lsei) => {
            let engine = ThetisEngine::new(graph, &data.bench.lake, TypeJaccard::new(graph));
            MethodReport::run(&name, queries, gt, |q| {
                let query = Query::new(q.tuples.clone());
                let candidates = Candidates::lsei_aggregated(lsei, &query, votes);
                let res = engine.execute(&query, options, candidates, None, &off);
                reductions.push(res.stats.reduction);
                res.table_ids()
            })
        }
        LseiVariant::Embeddings(lsei) => {
            let engine =
                ThetisEngine::new(graph, &data.bench.lake, EmbeddingCosine::new(&data.store));
            MethodReport::run(&name, queries, gt, |q| {
                let query = Query::new(q.tuples.clone());
                let candidates = Candidates::lsei_aggregated(lsei, &query, votes);
                let res = engine.execute(&query, options, candidates, None, &off);
                reductions.push(res.stats.reduction);
                res.table_ids()
            })
        }
    };
    let stats = PrefilterStats {
        mean_reduction: thetis::eval::metrics::mean(&reductions),
    };
    (report, stats)
}

/// Runs BM25 over text queries.
pub fn bm25_report(
    data: &BenchData,
    queries: &[BenchQuery],
    gt: &GroundTruth,
    k: usize,
) -> MethodReport {
    let index = Bm25Index::build(&data.bench.lake, Bm25Params::default());
    MethodReport::run("BM25text", queries, gt, |q| {
        index
            .search(&Bm25Index::text_query(&q.cell_texts(&data.bench.kg)), k)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    })
}

/// Runs the Starmie-like union-search baseline.
pub fn union_report(
    data: &BenchData,
    variant: UnionVariant,
    queries: &[BenchQuery],
    gt: &GroundTruth,
    k: usize,
) -> MethodReport {
    let graph = &data.bench.kg.graph;
    let union = UnionSearch::new(graph, &data.bench.lake, Some(&data.store));
    let name = match variant {
        UnionVariant::Strict => "SANTOS-like",
        UnionVariant::Embedding => "Starmie-like",
    };
    MethodReport::run(name, queries, gt, |q| {
        union
            .rank(&tuples_to_columns(&q.tuples), k, variant)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    })
}

/// Runs the D³L-like join-search baseline.
pub fn join_report(
    data: &BenchData,
    queries: &[BenchQuery],
    gt: &GroundTruth,
    k: usize,
) -> MethodReport {
    let join = JoinSearch::new(&data.bench.lake);
    MethodReport::run("D3L-like", queries, gt, |q| {
        join.rank(&tuples_to_columns(&q.tuples), k)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    })
}

/// Runs the TURL-like table-embedding baseline.
pub fn turl_report(
    data: &BenchData,
    queries: &[BenchQuery],
    gt: &GroundTruth,
    k: usize,
) -> MethodReport {
    let turl = TableEmbeddingSearch::build(&data.bench.lake, &data.store);
    MethodReport::run("TURL-like", queries, gt, |q| {
        turl.rank(&q.distinct_entities(), k)
            .into_iter()
            .map(|(t, _)| t)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> BenchData {
        BenchData::build(BenchmarkKind::Wt2015, 0.0004, 4)
    }

    #[test]
    fn all_method_runners_produce_reports() {
        let d = data();
        let q = &d.bench.queries1;
        let gt = &d.bench.gt1;
        let stst = semantic_report(&d, Sim::Types, q, gt, 10, RowAgg::Max);
        assert_eq!(stst.per_query.len(), 4);
        let stse = semantic_report(&d, Sim::Embeddings, q, gt, 10, RowAgg::Max);
        assert_eq!(stse.name, "STSE");
        let (lsh, stats) = prefiltered_report(&d, Sim::Types, LshConfig::new(32, 8), 1, q, gt, 10);
        assert!(stats.mean_reduction >= 0.0 && stats.mean_reduction <= 1.0);
        assert_eq!(lsh.per_query.len(), 4);
        assert_eq!(bm25_report(&d, q, gt, 10).per_query.len(), 4);
        assert_eq!(join_report(&d, q, gt, 10).per_query.len(), 4);
        assert_eq!(turl_report(&d, q, gt, 10).per_query.len(), 4);
        assert_eq!(
            union_report(&d, UnionVariant::Embedding, q, gt, 10).name,
            "Starmie-like"
        );
    }

    #[test]
    fn optimized_scoring_matches_exhaustive_and_computes_less() {
        let d = data();
        let q = &d.bench.queries1;
        let gt = &d.bench.gt1;
        let (fast, fast_stats) =
            semantic_report_opts(&d, Sim::Types, "STST", q, gt, SearchOptions::top(10));
        let (slow, slow_stats) = semantic_report_opts(
            &d,
            Sim::Types,
            "STST-exh",
            q,
            gt,
            SearchOptions::exhaustive(10),
        );
        assert_eq!(fast.mean_ndcg10, slow.mean_ndcg10);
        assert_eq!(slow_stats.sigma_cached, 0);
        assert_eq!(slow_stats.tables_pruned, 0);
        assert!(
            fast_stats.sigma_computed * 2 <= slow_stats.sigma_computed,
            "memoization only cut σ evaluations from {} to {}",
            slow_stats.sigma_computed,
            fast_stats.sigma_computed
        );
    }
}
