//! Thetis resident query service.
//!
//! `thetis-serve` keeps one semantic data lake — knowledge graph, linked
//! tables, informativeness weights, and the LSEI prefilter — loaded in
//! memory and answers concurrent search queries over a TCP socket speaking
//! line-delimited JSON ([`protocol`]). Compared to one-shot `thetis-cli`
//! invocations it amortizes the expensive parts (lake load, index build)
//! across every query and adds two things a resident process can offer:
//!
//! - **Admission control** ([`ServerConfig::max_inflight`]): a saturated
//!   server sheds excess searches immediately with an `overloaded`
//!   response instead of queueing them into a latency cliff.
//! - **A cross-query σ memo**
//!   ([`SharedSimilarityCache`](thetis_core::SharedSimilarityCache)):
//!   entity-pair similarities computed by one query are served to the
//!   next, bounded in memory and evicted whenever the lake epoch advances.
//!
//! Results are **bit-identical** to one-shot CLI runs over the same lake:
//! the server builds its LSEI with the exact CLI construction and the
//! shared memo only stores exact σ values, so memoization never changes a
//! score.
//!
//! ```no_run
//! use thetis_serve::{serve, Request, Server, ServerConfig};
//! # fn demo(graph: thetis_kg::KnowledgeGraph, lake: thetis_datalake::DataLake) {
//! let server = Server::new(graph, lake, None, ServerConfig::default());
//! let running = serve(server).unwrap();
//! eprintln!("serving on {}", running.addr());
//! running.join(); // until a {"op":"shutdown"} request arrives
//! # }
//! ```

pub mod metrics;
pub mod protocol;
pub mod server;

pub use metrics::ServeMetrics;
pub use protocol::{HealthStatus, Hit, MetricsSnapshot, Request, Response, ServerStats};
pub use server::{
    parse_query_spec, serve, RecoveryReport, RunningServer, Server, ServerConfig, SimKind,
};
