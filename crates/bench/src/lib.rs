//! The Thetis benchmark harness: one module per paper artifact.
//!
//! Every table and figure of the paper's evaluation (§7) has a function
//! here that regenerates it on a scaled corpus; the `reproduce` binary
//! exposes them as subcommands. End-to-end and per-layer performance is
//! measured by the repository benchmark (`benchmark/`); the one timing bar
//! kept here is `delta-maintenance`'s delta-vs-rebuild ratio.
//!
//! | artifact | module |
//! |----------|--------|
//! | Table 2 (corpus statistics)             | [`experiments::table2`] |
//! | Figure 4 (NDCG@10, all methods)         | [`experiments::fig4`] |
//! | Figure 5 (recall@100/200, STSTC/STSEC)  | [`experiments::fig5`] |
//! | Table 3 (runtime by LSH config)         | [`experiments::table3`] |
//! | Table 4 (search-space reduction)        | [`experiments::table3`] |
//! | §7.3 scoring-cost breakdown             | [`experiments::scoring_cost`] |
//! | §7.4 synthetic scaling                  | [`experiments::scaling`] |
//! | §7.4 WT2019 / GitTables                 | [`experiments::other_corpora`] |
//! | Figure 6 (NDCG vs link coverage)        | [`experiments::fig6`] |
//! | Row-aggregation ablation (§7.2)         | [`experiments::ablations`] |
//! | BM25-as-prefilter ablation (§7.3)       | [`experiments::ablations`] |
//! | Noisy-linker robustness (§7.5)          | [`experiments::ablations`] |
//! | σ and relaxation extensions (§8)        | [`experiments::extensions`] |
//! | Incremental mutation vs rebuild         | [`experiments::delta`] |
//! | Resident query service, functional run  | [`experiments::serve_bench`] |

pub mod context;
pub mod experiments;
pub mod methods;

pub use context::{BenchData, Ctx};
