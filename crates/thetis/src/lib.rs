//! # Thetis: semantic table search in semantic data lakes
//!
//! A from-scratch Rust implementation of *"Fantastic Tables and Where to
//! Find Them: Table Search in Semantic Data Lakes"* (EDBT 2025): given a
//! query of entity tuples and a data lake whose cells are partially linked
//! to a knowledge graph, rank every table by semantic relevance —
//! retrieving topically related tables even when they share no text with
//! the query.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`kg`] — knowledge-graph substrate (taxonomy, CSR graph, synthetic
//!   DBpedia-shaped generator, TSV I/O);
//! * [`datalake`] — tables, cells, entity linking `Φ`, CSV I/O, stats;
//! * [`embedding`] — RDF2Vec-style embeddings (random walks + SGNS);
//! * [`lsh`] — MinHash / hyperplane signatures, banding, and the
//!   Locality-Sensitive Entity Index;
//! * [`core`] — the SemRel score, Hungarian column mapping, Algorithm 1,
//!   and [`core::ThetisEngine`];
//! * [`baselines`] — BM25, union search, join search, table embeddings;
//! * [`corpus`] — benchmark generators and graded ground truth;
//! * [`eval`] — NDCG/recall metrics and the experiment harness;
//! * [`obs`] — the observability layer (span timers, counters, latency
//!   histograms) every hot path above reports into.
//!
//! ## Quickstart
//!
//! ```
//! use thetis::prelude::*;
//!
//! // A small semantic data lake: synthetic KG + topic-conditioned tables.
//! let bench = Benchmark::build(&BenchmarkConfig::tiny(BenchmarkKind::Wt2015));
//!
//! // Search by example: one tuple of entities from the first query.
//! let engine = ThetisEngine::new(
//!     &bench.kg.graph,
//!     &bench.lake,
//!     TypeJaccard::new(&bench.kg.graph),
//! );
//! let query = Query::new(bench.queries1[0].tuples.clone());
//! let result = engine.search(&query, SearchOptions::top(10));
//! assert!(!result.ranked.is_empty());
//! assert!(result.ranked[0].1 >= result.ranked.last().unwrap().1);
//! ```

pub use thetis_baselines as baselines;
pub use thetis_core as core;
pub use thetis_corpus as corpus;
pub use thetis_datalake as datalake;
pub use thetis_embedding as embedding;
pub use thetis_eval as eval;
pub use thetis_kg as kg;
pub use thetis_lsh as lsh;
pub use thetis_obs as obs;
pub use thetis_serve as serve;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use thetis_baselines::{
        Bm25Index, Bm25Params, JoinSearch, TableEmbeddingSearch, UnionSearch, UnionVariant,
    };
    pub use thetis_core::{
        Candidates, DegradedReasons, EmbeddingCosine, EntitySimilarity, Informativeness,
        PredicateJaccard, Query, RowAgg, SearchOptions, SearchResult, SearchStats, SigmaKernel,
        SimilarityCache, ThetisEngine, TypeJaccard,
    };
    pub use thetis_corpus::{
        BenchQuery, Benchmark, BenchmarkConfig, BenchmarkKind, GroundTruth, TableGenConfig,
    };
    pub use thetis_datalake::{
        CellValue, DataLake, EntityLinker, ExactLabelLinker, LakeStats, NoisyLinker, Table,
        TableId, TokenLinker,
    };
    pub use thetis_embedding::{EmbeddingStore, Rdf2Vec, Rdf2VecConfig};
    pub use thetis_eval::{merge_top_half, MethodReport};
    pub use thetis_kg::{
        EntityId, KgBuilder, KgGeneratorConfig, KgStats, KnowledgeGraph, SyntheticKg, TopicId,
    };
    pub use thetis_lsh::lsei::{EmbeddingSigner, Lsei, LseiMode, TypeSigner};
    pub use thetis_lsh::{LshConfig, TypeFilter};
    pub use thetis_serve::{RunningServer, Server, ServerConfig, SimKind};
}
