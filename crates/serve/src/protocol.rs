//! The wire protocol: line-delimited JSON, one request per line, one
//! response line back.
//!
//! Requests are a single flat object so clients in any language can speak
//! it with a string template. Every field except the operation's required
//! ones is optional; unknown fields are ignored. Scores travel twice: as a
//! plain `score` for humans and as `score_bits` (the IEEE-754 bit pattern
//! of the `f64`) for exact comparison — JSON float round-trips are not
//! guaranteed bit-exact, the bit pattern is.
//!
//! ```text
//! {"query":"Ron Santo,Chicago Cubs","k":5,"deadline_ms":50}
//! {"op":"stats"}
//! {"op":"add_table","name":"t9","csv":"player\nRon Santo\n"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```

use serde::{Deserialize, Serialize};

/// One client request. `op` defaults to `"search"` when absent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Request {
    /// `"search"` (default), `"stats"`, `"metrics"`, `"health"`,
    /// `"add_table"`, `"remove_table"`, `"ping"`, or `"shutdown"`.
    pub op: Option<String>,
    /// Entity-tuple query spec, `','` separating entities and `';'`
    /// tuples — the same syntax as `thetis-cli --query`.
    pub query: Option<String>,
    /// Results to return (default: the server's configured k).
    pub k: Option<u64>,
    /// Per-request wall-clock scoring budget in milliseconds, mapped onto
    /// [`SearchOptions::with_deadline`](thetis_core::SearchOptions): on
    /// expiry the response carries the best-so-far top-k with
    /// `degraded: true` and `"deadline"` among the reasons.
    pub deadline_ms: Option<u64>,
    /// LSEI voting threshold override (default: the server's).
    pub votes: Option<u64>,
    /// (`add_table`/`remove_table`) table name.
    pub name: Option<String>,
    /// (`add_table`) inline CSV content of the table to ingest.
    pub csv: Option<String>,
    /// σ kernel for this search: `"f64"` (bit-exact reference, the
    /// default), `"f32"`, or `"i8"` (quantized slabs). Unknown names are
    /// rejected with `status: "error"`.
    pub kernel: Option<String>,
    /// Test hook: hold the request for this long *after* pinning its lake
    /// snapshot and before scoring, while it still occupies an in-flight
    /// slot. Rejected unless the server was built with
    /// [`ServerConfig::allow_debug`](crate::ServerConfig).
    pub debug_hold_ms: Option<u64>,
}

impl Request {
    /// A plain search request for `query`.
    pub fn search(query: &str) -> Self {
        Self {
            query: Some(query.to_string()),
            ..Self::default()
        }
    }

    /// A bare operation request (`"stats"`, `"ping"`, `"shutdown"`).
    pub fn op(op: &str) -> Self {
        Self {
            op: Some(op.to_string()),
            ..Self::default()
        }
    }

    /// The effective operation (`"search"` when unset).
    pub fn operation(&self) -> &str {
        self.op.as_deref().unwrap_or("search")
    }
}

/// One ranked hit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hit {
    /// Table id in the pinned snapshot.
    pub table: u64,
    /// Table name.
    pub name: String,
    /// SemRel score (human-readable; may lose bits in JSON).
    pub score: f64,
    /// `score.to_bits()` — compare rankings with this, not with `score`.
    pub score_bits: u64,
}

/// Counters of a running server, returned by the `stats` op.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServerStats {
    /// Currently published lake epoch.
    pub epoch: u64,
    /// Search requests admitted so far.
    pub requests: u64,
    /// Search requests shed with `overloaded`.
    pub shed: u64,
    /// Requests answered with `status: "error"`.
    pub errors: u64,
    /// Searches currently executing.
    pub inflight: u64,
    /// σ cells held by the shared memo's resident rows, filled or not
    /// (8 bytes each): what `cache_capacity` bounds.
    pub cache_entries: u64,
    /// σ evaluations the shared memo performed (misses), cumulative.
    pub cache_computed: u64,
    /// σ lookups the shared memo served (hits), cumulative.
    pub cache_served: u64,
    /// Cumulative hit rate of the shared memo.
    pub cache_hit_rate: f64,
    /// Whole-memo drops forced by its capacity bound.
    pub cache_evictions: u64,
    /// Epoch advances that evicted the shared memo.
    pub cache_invalidations: u64,
    /// Searches answered degraded (deadline / panic / LSEI fallback).
    #[serde(default)]
    pub degraded: u64,
    /// Traces filed in the in-memory reservoir.
    #[serde(default)]
    pub traces_retained: u64,
    /// Traces promoted to the slow-query log.
    #[serde(default)]
    pub traces_promoted: u64,
    /// Heap bytes held by quantized σ slabs (0 until a quantized kernel
    /// builds one).
    #[serde(default)]
    pub sigma_slab_bytes: u64,
    /// Whether mutations are journaled to a write-ahead log.
    #[serde(default)]
    pub wal_enabled: bool,
    /// Mutation records durably appended since boot.
    #[serde(default)]
    pub wal_records: u64,
    /// Current journal size, bytes (header included).
    #[serde(default)]
    pub wal_bytes: u64,
    /// Journal records replayed at boot recovery.
    #[serde(default)]
    pub wal_replayed: u64,
    /// Torn/corrupt journal bytes truncated at boot recovery.
    #[serde(default)]
    pub wal_torn_bytes: u64,
    /// Checkpoints durably written since boot.
    #[serde(default)]
    pub checkpoints: u64,
    /// Consecutive checkpoint failures since the last success (0 when
    /// healthy; any non-zero value degrades the health verdict).
    #[serde(default)]
    pub checkpoint_failures: u64,
    /// Epoch of the last durable checkpoint (the boot epoch until one is
    /// written).
    #[serde(default)]
    pub checkpoint_epoch: u64,
    /// Mutations journaled since the last durable checkpoint (what a
    /// crash right now would have to replay).
    #[serde(default)]
    pub mutations_since_checkpoint: u64,
}

/// The exemplar attached to one latency bucket: the most recent concrete
/// observation that landed there.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExemplarInfo {
    /// The observed latency, nanoseconds.
    pub value_ns: u64,
    /// The query that produced it (resolvable in the trace reservoir and
    /// the slow-query log).
    pub query_id: u64,
    /// The lake epoch it ran against.
    pub lake_epoch: u64,
}

/// One windowed latency bucket.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BucketSnapshot {
    /// Upper bound in nanoseconds; `None` is the +Inf overflow bucket.
    pub le_ns: Option<u64>,
    /// Observations in this bucket over the window (non-cumulative).
    pub count: u64,
    /// The bucket's most recent observation, if any ever landed here.
    pub exemplar: Option<ExemplarInfo>,
}

/// One entry of the "slowest recent queries" table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SlowQuery {
    /// The query id (matches `Response::query_id` and the slowlog).
    pub query_id: u64,
    /// The protocol operation.
    pub op: String,
    /// Server-side latency, microseconds.
    pub latency_us: u64,
    /// Lake epoch the request was pinned to.
    pub epoch: u64,
    /// Degradation rungs that fired.
    pub reasons: Vec<String>,
    /// Why the trace was promoted to the slowlog, if it was.
    pub promoted_by: Option<String>,
}

/// The windowed metrics snapshot returned by the `metrics` op.
///
/// `window_*` fields cover the rolling window (how the server is doing
/// *now*); `total_*` fields are cumulative since boot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Width of the rolling window, seconds.
    pub window_secs: f64,
    /// Admitted searches per second over the window.
    pub qps: f64,
    /// Windowed p50 latency, microseconds (`None` when the window is empty).
    pub p50_us: Option<u64>,
    /// Windowed p99 latency, microseconds (`None` when the window is empty).
    pub p99_us: Option<u64>,
    /// Searches admitted inside the window.
    pub window_requests: u64,
    /// Searches shed inside the window.
    pub window_shed: u64,
    /// Error responses inside the window.
    pub window_errors: u64,
    /// Degraded searches inside the window.
    pub window_degraded: u64,
    /// Mutations committed inside the window.
    pub window_mutations: u64,
    /// Fraction of σ lookups served by the shared memo inside the window.
    pub window_sigma_hit_rate: f64,
    /// Traces filed in the reservoir since boot.
    pub traces_retained: u64,
    /// Traces promoted to the slow-query log since boot.
    pub traces_promoted: u64,
    /// Windowed latency buckets with exemplars, finite bounds first,
    /// +Inf last.
    pub buckets: Vec<BucketSnapshot>,
    /// Slowest retained queries, slowest first.
    pub slowest: Vec<SlowQuery>,
    /// Searches currently executing.
    pub inflight: u64,
    /// The admission-control bound.
    pub max_inflight: u64,
    /// Cumulative admitted searches.
    pub total_requests: u64,
    /// Cumulative shed searches.
    pub total_shed: u64,
    /// Cumulative error responses.
    pub total_errors: u64,
    /// Cumulative degraded searches.
    pub total_degraded: u64,
    /// Cumulative shared-memo hit rate.
    pub cache_hit_rate: f64,
    /// Currently published lake epoch.
    pub epoch: u64,
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Whether mutations are journaled to a write-ahead log.
    #[serde(default)]
    pub wal_enabled: bool,
    /// Seconds since the last durable checkpoint (since boot until one is
    /// written; 0.0 when the WAL is off). Scrape this: a growing age with
    /// a busy mutation window means recovery time is growing too.
    #[serde(default)]
    pub checkpoint_age_s: f64,
    /// Mutations journaled since the last durable checkpoint.
    #[serde(default)]
    pub mutations_since_checkpoint: u64,
    /// Checkpoints durably written since boot.
    #[serde(default)]
    pub checkpoints: u64,
    /// Consecutive checkpoint failures since the last success.
    #[serde(default)]
    pub checkpoint_failures: u64,
}

/// The `health` op's verdict.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HealthStatus {
    /// `"ready"`, `"degraded"`, or `"overloaded"` (worst rung wins).
    pub status: String,
    /// Human-readable causes, empty when ready.
    pub reasons: Vec<String>,
    /// Searches currently executing.
    pub inflight: u64,
    /// The admission-control bound.
    pub max_inflight: u64,
    /// Admitted searches per second over the window.
    pub qps: f64,
    /// Currently published lake epoch.
    pub epoch: u64,
}

/// One server response line.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Response {
    /// `"ok"`, `"overloaded"`, or `"error"`.
    pub status: String,
    /// Human-readable cause when `status` is not `"ok"`.
    pub error: Option<String>,
    /// Lake epoch this response was computed against: for searches, the
    /// epoch of the *pinned* snapshot (stable even if writers publish
    /// newer epochs mid-flight); for mutations, the newly published epoch.
    pub epoch: Option<u64>,
    /// Ranked results, best first (searches only).
    pub ranked: Option<Vec<Hit>>,
    /// Whether the ranking is partial (deadline, panic, LSEI fallback).
    pub degraded: Option<bool>,
    /// Which degradation rungs fired (`"deadline"`, `"worker_panic"`,
    /// `"lsei_fallback"`); empty on a healthy run.
    pub degraded_reason: Option<Vec<String>>,
    /// Fraction of this search's σ lookups served by the shared memo.
    pub sigma_hit_rate: Option<f64>,
    /// Candidate tables after prefiltering.
    pub candidates: Option<u64>,
    /// Tables actually scored.
    pub tables_scored: Option<u64>,
    /// Server-side wall time of the request, microseconds.
    pub micros: Option<u64>,
    /// Server counters (`stats` op only).
    pub stats: Option<ServerStats>,
    /// The server-assigned query id of this search: the key into the
    /// trace reservoir, the slow-query log, and exemplars.
    pub query_id: Option<u64>,
    /// Windowed metrics (`metrics` op only).
    pub metrics: Option<MetricsSnapshot>,
    /// Health verdict (`health` op only).
    pub health: Option<HealthStatus>,
}

impl Response {
    /// An `"error"` response with a cause.
    pub fn error(cause: impl Into<String>) -> Self {
        Self {
            status: "error".into(),
            error: Some(cause.into()),
            ..Self::default()
        }
    }

    /// The `"overloaded"` load-shedding response.
    pub fn overloaded() -> Self {
        Self {
            status: "overloaded".into(),
            error: Some("server saturated; retry with backoff".into()),
            ..Self::default()
        }
    }

    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_and_default_missing_fields() {
        let parsed: Request = serde_json::from_str(r#"{"query":"a,b;c","k":5}"#).unwrap();
        assert_eq!(parsed.operation(), "search");
        assert_eq!(parsed.query.as_deref(), Some("a,b;c"));
        assert_eq!(parsed.k, Some(5));
        assert_eq!(parsed.deadline_ms, None);

        let op: Request = serde_json::from_str(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(op.operation(), "stats");

        let json = serde_json::to_string(&Request::search("x,y")).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.query.as_deref(), Some("x,y"));
    }

    #[test]
    fn score_bits_survive_json_even_when_the_float_does_not() {
        // A score with a full mantissa, at the mercy of float
        // formatting: the bit pattern is the contract, not the decimal.
        let score = std::f64::consts::FRAC_1_PI;
        let hit = Hit {
            table: 3,
            name: "t".into(),
            score,
            score_bits: score.to_bits(),
        };
        let json = serde_json::to_string(&hit).unwrap();
        let back: Hit = serde_json::from_str(&json).unwrap();
        assert_eq!(back.score_bits, score.to_bits());
        assert_eq!(f64::from_bits(back.score_bits), score);
    }

    #[test]
    fn responses_roundtrip() {
        let resp = Response {
            status: "ok".into(),
            epoch: Some(7),
            ranked: Some(vec![Hit {
                table: 0,
                name: "players".into(),
                score: 1.0,
                score_bits: 1.0f64.to_bits(),
            }]),
            degraded: Some(false),
            degraded_reason: Some(vec![]),
            sigma_hit_rate: Some(0.5),
            candidates: Some(4),
            tables_scored: Some(4),
            micros: Some(1234),
            ..Response::default()
        };
        let back: Response = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert!(back.is_ok());
        assert_eq!(back.epoch, Some(7));
        assert_eq!(back.ranked.unwrap()[0].name, "players");
        assert!(Response::overloaded().status == "overloaded");
        assert!(!Response::error("boom").is_ok());
    }
}
