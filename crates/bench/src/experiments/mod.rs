//! One module per reproduced paper artifact; see the crate docs for the
//! artifact → module map.

pub mod ablations;
pub mod delta;
pub mod extensions;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod other_corpora;
pub mod scaling;
pub mod scoring_cost;
pub mod serve_bench;
pub mod table2;
pub mod table3;
