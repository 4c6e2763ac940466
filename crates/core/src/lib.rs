//! Thetis core: the semantic table search of §4–§6 of
//! *"Fantastic Tables and Where to Find Them"* (EDBT 2025).
//!
//! Given a query of entity tuples and a semantic data lake
//! `(D, G, Φ)`, rank every table `T ∈ D` by
//!
//! ```text
//! SemRel_MAX(Q, T) = (1/|Q|) · Σ_{t_q ∈ Q} max-mapping score of t_q in T
//! ```
//!
//! where each query tuple is scored against a table by
//!
//! 1. assigning query entities to table columns with the **Hungarian
//!    method** so the summed column-relevance is maximal ([`mapping`]),
//! 2. scoring each row with an entity similarity `σ` ([`similarity`]:
//!    adjusted type-Jaccard or embedding cosine),
//! 3. aggregating row scores per query entity (max or average,
//!    [`semrel::RowAgg`]),
//! 4. converting the informativeness-weighted Euclidean distance from the
//!    perfect match into a similarity via `1 / (D_I + 1)` ([`semrel`]).
//!
//! [`engine::ThetisEngine`] packages the whole pipeline behind one method,
//! [`ThetisEngine::execute`]: a [`Candidates`] source (the whole lake, an
//! LSEI prefilter of §6/§6.2, or any other candidate set such as §7.3's
//! BM25), then Algorithm 1 over those tables with parallel scoring, then
//! top-`k`; `search`, `search_among` and `search_prefiltered` are
//! one-line shorthands for it. Scoring
//! cost is further cut by a query-scoped σ memo ([`cache`]) and by
//! upper-bound pruning ([`search::upper_bound_score`]) that skips the
//! Hungarian mapping for tables that cannot reach the current top-k floor;
//! both are on by default and never change the ranking.

pub mod axioms;
pub mod cache;
pub mod engine;
pub mod explain;
pub mod hungarian;
pub mod informativeness;
pub mod mapping;
pub mod query;
pub mod relaxation;
pub mod search;
pub mod semrel;
pub mod sigma;
pub mod similarity;
pub mod topk;

pub use cache::{CacheStats, CountingSimilarity, MemoRows, SharedSimilarityCache, SimilarityCache};
pub use engine::{
    Candidates, DegradedReasons, SearchOptions, SearchResult, SearchStats, ThetisEngine,
};
pub use explain::{explain, EntityMatch, Explanation, TupleExplanation};
pub use informativeness::Informativeness;
pub use query::{EntityTuple, Query};
pub use relaxation::{search_with_relaxation, RelaxationConfig, RelaxedSearch};
pub use search::ScoreTimings;
pub use semrel::RowAgg;
pub use sigma::{SigmaRows, SigmaSource};
pub use similarity::{
    EmbeddingCosine, EntitySimilarity, NeighborhoodJaccard, PredicateJaccard, SigmaKernel,
    TypeJaccard,
};
