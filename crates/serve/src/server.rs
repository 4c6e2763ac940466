//! The resident server: one loaded lake, many concurrent queries.
//!
//! [`Server`] owns everything a query needs — the knowledge graph, the
//! [`EpochLake`] snapshot store, per-epoch derived state (informativeness
//! weights and the LSEI), the similarity, and the shared cross-query σ memo
//! — and [`serve`] exposes it over a TCP socket speaking the line-delimited
//! JSON protocol of [`protocol`](crate::protocol).
//!
//! ## Concurrency model
//!
//! One thread per connection; each search runs on the caller's connection
//! thread using the engine's existing work-stealing scorer. Admission
//! control is a single atomic in-flight counter: a search that would push
//! it past [`ServerConfig::max_inflight`] is shed immediately with an
//! `overloaded` response instead of queueing — the client owns the retry
//! policy, the server owns bounded latency.
//!
//! ## Epochs
//!
//! Every search pins the current [`EpochState`] (lake snapshot +
//! informativeness + LSEI, all derived from the same epoch) before doing
//! any work, so mutations committed mid-flight never tear a query.
//! Mutations commit through the [`EpochLake`] writer path; the LSEI is
//! delta-maintained from the previous epoch's index (one
//! `insert_table`/`remove_table` per mutation, never a rebuild) while the
//! informativeness weights are recomputed from the new snapshot. The
//! shared σ memo notices the epoch advance on the next search and evicts
//! itself (see [`SharedSimilarityCache`](thetis_core::SharedSimilarityCache)).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use thetis_obs::rolling::WindowClock;
use thetis_obs::{PromotionPolicy, QueryTrace};

use thetis_core::{
    EmbeddingCosine, EntitySimilarity, Informativeness, PredicateJaccard, Query, SearchOptions,
    SharedSimilarityCache, SigmaKernel, ThetisEngine, TypeJaccard,
};
use thetis_datalake::wal::{Wal, WalRecord};
use thetis_datalake::{DataLake, EntityLinker, EpochLake, ExactLabelLinker, Mutation, TableId};
use thetis_embedding::EmbeddingStore;
use thetis_kg::KnowledgeGraph;
use thetis_lsh::lsei::{Lsei, LseiMode, TypeSigner};
use thetis_lsh::{LshConfig, TypeFilter};

use crate::metrics::ServeMetrics;
use crate::protocol::{HealthStatus, Hit, MetricsSnapshot, Request, Response, ServerStats};

/// Search requests admitted (shed ones excluded).
static OBS_REQUESTS: thetis_obs::Counter = thetis_obs::Counter::new("serve.requests");
/// Search requests shed with `overloaded`.
static OBS_SHED: thetis_obs::Counter = thetis_obs::Counter::new("serve.shed");
/// Requests answered with an error status.
static OBS_ERRORS: thetis_obs::Counter = thetis_obs::Counter::new("serve.errors");
/// Mutations committed through the serve path.
static OBS_MUTATIONS: thetis_obs::Counter = thetis_obs::Counter::new("serve.mutations");
/// Server-side request latency, admission to response.
static OBS_LATENCY: thetis_obs::Histogram = thetis_obs::Histogram::new("serve.request_latency");

/// Which entity similarity the server answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// Adjusted type Jaccard (no training needed).
    Types,
    /// Predicate-set Jaccard.
    Predicates,
    /// Embedding cosine — requires an [`EmbeddingStore`] at construction.
    Embeddings,
}

/// Construction-time knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Searches allowed in flight at once; one more is shed, not queued.
    pub max_inflight: usize,
    /// Entry budget of the shared σ memo (0 = unbounded).
    pub cache_capacity: usize,
    /// Lock shards of the shared σ memo.
    pub cache_shards: usize,
    /// Default LSEI voting threshold (requests may override).
    pub votes: usize,
    /// Build and use the LSEI prefilter (recommended; without it every
    /// search scans the whole lake).
    pub use_lsei: bool,
    /// Default `k` when a request does not name one.
    pub k: usize,
    /// Scoring worker threads per request (0 = all cores). A server
    /// expecting many concurrent clients usually wants 1: concurrency
    /// across requests, not within one.
    pub threads: usize,
    /// Entity similarity to answer with.
    pub sim: SimKind,
    /// Default σ kernel for requests that do not name one (requests can
    /// still override per search via the wire op's `"kernel"` field).
    /// The matching quantized slab is warmed at boot so the first
    /// request never pays the one-time build.
    pub kernel: SigmaKernel,
    /// Honor the `debug_hold_ms` test hook (off for real deployments).
    pub allow_debug: bool,
    /// Time source of every rolling window and rate limiter: monotonic in
    /// production, manual in tests (advance it to decay windows without
    /// sleeping).
    pub clock: WindowClock,
    /// Slots of the rolling window.
    pub window_slots: usize,
    /// Width of one rolling-window slot.
    pub slot_duration: Duration,
    /// Append promoted slow-query traces to this JSONL file.
    pub slowlog: Option<PathBuf>,
    /// Traces kept in the in-memory reservoir.
    pub trace_capacity: usize,
    /// When a finished request's trace escalates to the slow-query log.
    pub promotion: PromotionPolicy,
    /// Write a JSON metrics snapshot (plus a Prometheus text rendering of
    /// the global registry, same stem with a `.prom` extension) to this
    /// path periodically and at shutdown.
    pub metrics_out: Option<PathBuf>,
    /// Interval between metrics-snapshot writes.
    pub metrics_interval: Duration,
    /// Emit rate-limited structured stderr lines on shed/degraded
    /// requests (the CLI turns this on; tests that shed on purpose leave
    /// it off).
    pub trouble_log: bool,
    /// Journal every mutation to this write-ahead log, fsync'd before the
    /// commit publishes, and recover `checkpoint + replay` at boot. The
    /// checkpoint lives next to the journal (same stem, `.ckpt`
    /// extension). `None` = in-memory only (mutations die with the
    /// process).
    pub wal: Option<PathBuf>,
    /// Checkpoint after this many journaled mutations (0 = only on the
    /// time interval and at shutdown).
    pub checkpoint_every: u64,
    /// Also checkpoint when the last one is older than this, measured on
    /// the injected clock and checked on the mutation path
    /// (`Duration::ZERO` disables the time trigger).
    pub checkpoint_interval: Duration,
    /// How long a graceful drain waits for in-flight searches before the
    /// final checkpoint.
    pub drain_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_inflight: std::thread::available_parallelism().map_or(4, |n| n.get() * 2),
            cache_capacity: 1 << 20,
            cache_shards: thetis_core::SimilarityCache::DEFAULT_SHARDS,
            votes: 1,
            use_lsei: true,
            k: 10,
            threads: 1,
            sim: SimKind::Types,
            kernel: SigmaKernel::default(),
            allow_debug: false,
            clock: WindowClock::monotonic(),
            window_slots: thetis_obs::DEFAULT_WINDOW_SLOTS,
            slot_duration: thetis_obs::DEFAULT_SLOT_DURATION,
            slowlog: None,
            trace_capacity: 256,
            promotion: PromotionPolicy::default(),
            metrics_out: None,
            metrics_interval: Duration::from_secs(5),
            trouble_log: false,
            wal: None,
            checkpoint_every: 64,
            checkpoint_interval: Duration::from_secs(300),
            drain_deadline: Duration::from_secs(5),
        }
    }
}

/// What boot-time crash recovery found and did. All zeroes/`None` when
/// the server starts without a WAL, or with a fresh one.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether a WAL is configured at all.
    pub wal_enabled: bool,
    /// Epoch of the checkpoint the recovery started from (`None`: no
    /// checkpoint yet — the freshly loaded lake was the base).
    pub checkpoint_epoch: Option<u64>,
    /// Journal records replayed onto the base.
    pub replayed: u64,
    /// Journal records skipped because the checkpoint already contained
    /// them (a crash between checkpoint rename and journal rotation).
    pub skipped: u64,
    /// Whether a torn/corrupt journal tail was truncated.
    pub torn: bool,
    /// Bytes that truncation dropped.
    pub dropped_bytes: u64,
    /// The epoch the server recovered to (== the published boot epoch).
    pub recovered_epoch: u64,
}

/// The durable side of the server: the open journal and where its
/// checkpoint lives. One mutex guards both — appends are already
/// serialized by the mutate lock, but `stats` reads the journal length
/// from other threads.
struct Durability {
    wal: Wal,
    checkpoint: PathBuf,
}

/// Everything derived from one lake epoch, swapped atomically as a unit so
/// a pinned request reads a coherent view.
struct EpochState {
    lake: Arc<DataLake>,
    inform: Informativeness,
    lsei: Option<Lsei<TypeSigner<'static>>>,
}

/// The resident query service. Shared across connection threads as an
/// `Arc`; all methods take `&self`.
pub struct Server {
    graph: &'static KnowledgeGraph,
    sim: Box<dyn EntitySimilarity + Send + Sync + 'static>,
    config: ServerConfig,
    epochs: EpochLake,
    state: RwLock<Arc<EpochState>>,
    /// Serializes mutation commits *and* the derived-state rebuild that
    /// follows, so two racing mutations cannot publish states out of
    /// epoch order.
    mutate: Mutex<()>,
    cache: SharedSimilarityCache,
    metrics: ServeMetrics,
    inflight: AtomicUsize,
    requests: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    degraded: AtomicU64,
    /// Clock reading of the last trouble line, for the 1/s rate limit.
    last_trouble_ns: AtomicU64,
    started: Instant,
    shutdown: AtomicBool,
    /// Durable journal + checkpoint path; `None` without `--wal`.
    durability: Option<Mutex<Durability>>,
    /// What boot-time recovery found (all-default without a WAL).
    recovery: RecoveryReport,
    /// Set by [`Server::drain`]: stop admitting searches and mutations.
    draining: AtomicBool,
    /// Mutation records durably appended since boot.
    wal_appends: AtomicU64,
    /// Checkpoints durably written since boot.
    checkpoints: AtomicU64,
    /// Consecutive checkpoint failures since the last success.
    checkpoint_failures: AtomicU64,
    /// Mutations journaled since the last durable checkpoint.
    mutations_since_checkpoint: AtomicU64,
    /// Epoch of the last durable checkpoint (boot epoch until one lands).
    checkpoint_epoch: AtomicU64,
    /// Injected-clock reading at the last durable checkpoint (or boot).
    checkpoint_ns: AtomicU64,
}

/// Decrements the in-flight counter even when a search panics.
struct InflightGuard<'a>(&'a Server);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Server {
    /// Builds a server over a linked lake.
    ///
    /// The graph (and embedding store, when `sim` is
    /// [`SimKind::Embeddings`]) are intentionally leaked to `'static`:
    /// they live for the whole process anyway — this is a resident service
    /// — and `'static` borrows are what lets the LSEI signer and the
    /// similarity live inside the server without self-referential
    /// lifetimes. `store` must be `Some` for the embeddings similarity.
    pub fn new(
        graph: KnowledgeGraph,
        lake: DataLake,
        store: Option<EmbeddingStore>,
        config: ServerConfig,
    ) -> Arc<Self> {
        Self::recover(graph, lake, store, config)
            .expect("server boot failed")
            .0
    }

    /// Builds a server with crash recovery: when [`ServerConfig::wal`] is
    /// set, the published boot state is `last checkpoint + journal
    /// replay` (with any torn tail truncated), not the passed-in `lake` —
    /// that is only the base for a journal that predates the first
    /// checkpoint, so it must be loaded the same way every boot.
    ///
    /// Fails (never panics) on unrecoverable durability damage: a corrupt
    /// checkpoint (the checkpoint writer is atomic and read-back
    /// verified, so damage means storage rot an operator must see) or a
    /// journal that does not belong to this base.
    pub fn recover(
        graph: KnowledgeGraph,
        mut lake: DataLake,
        store: Option<EmbeddingStore>,
        config: ServerConfig,
    ) -> Result<(Arc<Self>, RecoveryReport), String> {
        let mut report = RecoveryReport::default();
        let durability = match &config.wal {
            None => None,
            Some(path) => {
                report.wal_enabled = true;
                let checkpoint = path.with_extension("ckpt");
                if checkpoint.exists() {
                    // The checkpoint replaces the base, so the base goes
                    // first: recovery never holds two lakes. A failed read
                    // returns `Err` — the base was ours to drop either way.
                    drop(std::mem::take(&mut lake));
                    lake = thetis_datalake::read_checkpoint(&checkpoint)?;
                    report.checkpoint_epoch = Some(lake.epoch());
                }
                let (wal, replay) = Wal::recover(path)?;
                report.torn = replay.torn;
                report.dropped_bytes = replay.dropped_bytes;
                let outcome = thetis_datalake::apply_replay(&mut lake, &replay.records)?;
                report.replayed = outcome.applied;
                report.skipped = outcome.skipped;
                Some(Mutex::new(Durability { wal, checkpoint }))
            }
        };
        report.recovered_epoch = lake.epoch();
        let graph: &'static KnowledgeGraph = Box::leak(Box::new(graph));
        let store: Option<&'static EmbeddingStore> = store.map(|s| &*Box::leak(Box::new(s)));
        let sim: Box<dyn EntitySimilarity + Send + Sync + 'static> = match config.sim {
            SimKind::Types => Box::new(TypeJaccard::new(graph)),
            SimKind::Predicates => Box::new(PredicateJaccard::new(graph)),
            SimKind::Embeddings => {
                let cos = EmbeddingCosine::new(
                    store.expect("SimKind::Embeddings needs an embedding store"),
                );
                cos.warm(config.kernel);
                Box::new(cos)
            }
        };
        let epochs = EpochLake::new(lake);
        let epoch = epochs.epoch();
        let state = RwLock::new(Arc::new(Self::derive_state(graph, epochs.pin(), &config)));
        let metrics = ServeMetrics::new(
            config.clock.clone(),
            config.window_slots,
            config.slot_duration,
            config.trace_capacity,
            config.slowlog.as_deref(),
            config.promotion,
        )
        .expect("cannot open the slow-query log");
        let boot_ns = config.clock.now_ns();
        let server = Arc::new(Self {
            graph,
            sim,
            cache: SharedSimilarityCache::new(epoch, config.cache_shards, config.cache_capacity),
            config,
            epochs,
            state,
            mutate: Mutex::new(()),
            metrics,
            inflight: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            last_trouble_ns: AtomicU64::new(u64::MAX),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            durability,
            recovery: report.clone(),
            draining: AtomicBool::new(false),
            wal_appends: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            mutations_since_checkpoint: AtomicU64::new(0),
            checkpoint_epoch: AtomicU64::new(report.checkpoint_epoch.unwrap_or(epoch)),
            checkpoint_ns: AtomicU64::new(boot_ns),
        });
        Ok((server, report))
    }

    /// Builds the per-epoch derived state: informativeness weights and
    /// (when enabled) the LSEI, with exactly the `thetis-cli` index
    /// construction (recommended LSH config, 0.5 type filter, seed 42) so
    /// serve results are bit-identical to one-shot CLI runs.
    fn derive_state(
        graph: &'static KnowledgeGraph,
        lake: Arc<DataLake>,
        config: &ServerConfig,
    ) -> EpochState {
        let inform = Informativeness::from_lake(&lake);
        let lsei = config.use_lsei.then(|| {
            let cfg = LshConfig::recommended();
            let filter = TypeFilter::from_lake(&lake, graph, 0.5);
            Lsei::build(
                &lake,
                TypeSigner::new(graph, filter, cfg, 42),
                cfg,
                LseiMode::Entity,
            )
        });
        EpochState { lake, inform, lsei }
    }

    /// The (leaked) knowledge graph queries resolve against.
    pub fn graph(&self) -> &'static KnowledgeGraph {
        self.graph
    }

    /// The configuration this server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The currently published lake epoch.
    pub fn epoch(&self) -> u64 {
        self.epochs.epoch()
    }

    /// Runs `f` over the currently published (delta-maintained) LSEI —
    /// `None` when [`ServerConfig::use_lsei`] is off. The serve e2e suite
    /// uses this to assert the live index is equivalent to a from-scratch
    /// rebuild after mutation commits.
    pub fn with_lsei<R>(&self, f: impl FnOnce(Option<&Lsei<TypeSigner<'static>>>) -> R) -> R {
        let state = self.state.read().unwrap_or_else(|e| e.into_inner()).clone();
        f(state.lsei.as_ref())
    }

    /// Builds the LSEI from scratch over the current snapshot — the
    /// rebuild-equivalence oracle the e2e suite compares [`Server::with_lsei`]
    /// against. Never used on the serving path.
    pub fn rebuild_lsei(&self) -> Option<Lsei<TypeSigner<'static>>> {
        Self::derive_state(self.graph, self.epochs.pin(), &self.config).lsei
    }

    /// Whether a `shutdown` request was received.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests the accept loop to stop (idempotent).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        let cache = self.cache.cache();
        let cs = cache.stats();
        ServerStats {
            epoch: self.epochs.epoch(),
            requests: self.requests.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed) as u64,
            cache_entries: cache.len() as u64,
            cache_computed: cs.computed,
            cache_served: cs.served,
            cache_hit_rate: cs.hit_rate(),
            cache_evictions: cache.evictions(),
            cache_invalidations: self.cache.invalidations(),
            degraded: self.degraded.load(Ordering::Relaxed),
            traces_retained: self.metrics.retainer().recorded(),
            traces_promoted: self.metrics.retainer().promoted(),
            sigma_slab_bytes: self.sim.slab_bytes() as u64,
            wal_enabled: self.durability.is_some(),
            wal_records: self.wal_appends.load(Ordering::Relaxed),
            wal_bytes: self
                .durability
                .as_ref()
                .map_or(0, |d| d.lock().unwrap_or_else(|e| e.into_inner()).wal.len()),
            wal_replayed: self.recovery.replayed,
            wal_torn_bytes: self.recovery.dropped_bytes,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
            checkpoint_epoch: self.checkpoint_epoch.load(Ordering::Relaxed),
            mutations_since_checkpoint: self.mutations_since_checkpoint.load(Ordering::Relaxed),
        }
    }

    /// What boot-time crash recovery found and did (all-default without
    /// a WAL).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The server's rolling-window metrics core (tests reach the trace
    /// reservoir and the injected clock through this).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The full windowed metrics snapshot (the `metrics` op's payload).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let cache = self.cache.cache();
        let mut snap = self.metrics.snapshot();
        snap.inflight = self.inflight.load(Ordering::Relaxed) as u64;
        snap.max_inflight = self.config.max_inflight as u64;
        snap.total_requests = self.requests.load(Ordering::Relaxed);
        snap.total_shed = self.shed.load(Ordering::Relaxed);
        snap.total_errors = self.errors.load(Ordering::Relaxed);
        snap.total_degraded = self.degraded.load(Ordering::Relaxed);
        snap.cache_hit_rate = cache.stats().hit_rate();
        snap.epoch = self.epochs.epoch();
        snap.uptime_s = self.started.elapsed().as_secs_f64();
        snap.wal_enabled = self.durability.is_some();
        snap.checkpoint_age_s = if self.durability.is_some() {
            self.config
                .clock
                .now_ns()
                .saturating_sub(self.checkpoint_ns.load(Ordering::Relaxed)) as f64
                / 1e9
        } else {
            0.0
        };
        snap.mutations_since_checkpoint = self.mutations_since_checkpoint.load(Ordering::Relaxed);
        snap.checkpoints = self.checkpoints.load(Ordering::Relaxed);
        snap.checkpoint_failures = self.checkpoint_failures.load(Ordering::Relaxed);
        snap
    }

    /// The `health` op's verdict: `overloaded` when admission control is
    /// saturated or shed requests fall inside the window, `degraded` when
    /// degraded responses do, `ready` otherwise — worst rung wins, with
    /// every firing rung named in `reasons`.
    pub fn health(&self) -> HealthStatus {
        let inflight = self.inflight.load(Ordering::Relaxed);
        let mut reasons = Vec::new();
        let mut status = "ready";
        // Stale-WAL rungs: a journal growing far past the checkpoint
        // policy, or a checkpoint path that is failing outright, means
        // recovery time is growing unboundedly — degraded, so operators
        // see it long before a crash makes it a recovery-time problem.
        if self.durability.is_some() {
            let failures = self.checkpoint_failures.load(Ordering::Relaxed);
            if failures > 0 {
                status = "degraded";
                reasons.push(format!(
                    "{failures} consecutive checkpoint failure(s); journal not rotated"
                ));
            }
            let since = self.mutations_since_checkpoint.load(Ordering::Relaxed);
            let every = self.config.checkpoint_every;
            if every > 0 && since >= every.saturating_mul(2) {
                status = "degraded";
                reasons.push(format!(
                    "checkpoint overdue: {since} journaled mutation(s) since the last one \
                     (policy: every {every})"
                ));
            }
        }
        let window_degraded = self.metrics.window_degraded();
        if window_degraded > 0 {
            status = "degraded";
            reasons.push(format!(
                "{window_degraded} degraded response(s) in the window"
            ));
        }
        let window_shed = self.metrics.window_shed();
        if window_shed > 0 {
            status = "overloaded";
            reasons.push(format!("{window_shed} shed request(s) in the window"));
        }
        if inflight >= self.config.max_inflight {
            status = "overloaded";
            reasons.push(format!(
                "admission control saturated ({inflight}/{})",
                self.config.max_inflight
            ));
        }
        HealthStatus {
            status: status.into(),
            reasons,
            inflight: inflight as u64,
            max_inflight: self.config.max_inflight as u64,
            qps: self.metrics.snapshot().qps,
            epoch: self.epochs.epoch(),
        }
    }

    /// Rate-limited (≥1 s apart, measured on the injected clock) structured
    /// stderr line for operators; a no-op unless
    /// [`ServerConfig::trouble_log`] is on.
    fn log_trouble(&self, line: impl FnOnce() -> String) {
        if !self.config.trouble_log {
            return;
        }
        let now = self.config.clock.now_ns();
        let last = self.last_trouble_ns.load(Ordering::Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < 1_000_000_000 {
            return;
        }
        if self
            .last_trouble_ns
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            eprintln!("{}", line());
        }
    }

    /// Handles one request (transport-independent; the TCP layer and tests
    /// both come through here).
    pub fn handle(&self, req: &Request) -> Response {
        let resp = match req.operation() {
            "ping" => Response {
                status: "ok".into(),
                epoch: Some(self.epochs.epoch()),
                ..Response::default()
            },
            "stats" => Response {
                status: "ok".into(),
                epoch: Some(self.epochs.epoch()),
                stats: Some(self.stats()),
                ..Response::default()
            },
            "shutdown" => {
                self.request_shutdown();
                Response {
                    status: "ok".into(),
                    epoch: Some(self.epochs.epoch()),
                    ..Response::default()
                }
            }
            "metrics" => Response {
                status: "ok".into(),
                epoch: Some(self.epochs.epoch()),
                metrics: Some(self.metrics_snapshot()),
                ..Response::default()
            },
            "health" => Response {
                status: "ok".into(),
                epoch: Some(self.epochs.epoch()),
                health: Some(self.health()),
                ..Response::default()
            },
            "search" => self.handle_search(req),
            "add_table" => self.handle_add_table(req),
            "remove_table" => self.handle_remove_table(req),
            other => Response::error(format!("unknown op {other:?}")),
        };
        if resp.status == "error" {
            self.errors.fetch_add(1, Ordering::Relaxed);
            self.metrics.observe_error();
            if thetis_obs::enabled() {
                OBS_ERRORS.inc();
            }
        }
        resp
    }

    fn handle_search(&self, req: &Request) -> Response {
        // A draining server admits nothing new; in-flight searches finish.
        if self.draining.load(Ordering::Acquire) {
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.metrics.observe_shed();
            if thetis_obs::enabled() {
                OBS_SHED.inc();
            }
            let mut resp = Response::overloaded();
            resp.error = Some("server is draining; connection closing".into());
            return resp;
        }
        // Admission control: claim an in-flight slot or shed immediately.
        // fetch_add-then-check keeps the fast path one atomic; the guard
        // releases the slot on every exit path, panics included.
        if self.inflight.fetch_add(1, Ordering::AcqRel) >= self.config.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.metrics.observe_shed();
            if thetis_obs::enabled() {
                OBS_SHED.inc();
            }
            self.log_trouble(|| {
                format!(
                    "thetis-serve trouble: event=shed op=search inflight={} max_inflight={}",
                    self.inflight.load(Ordering::Relaxed),
                    self.config.max_inflight
                )
            });
            return Response::overloaded();
        }
        let _slot = InflightGuard(self);
        self.requests.fetch_add(1, Ordering::Relaxed);
        if thetis_obs::enabled() {
            OBS_REQUESTS.inc();
        }
        let started = Instant::now();

        let Some(spec) = req.query.as_deref() else {
            return Response::error("search needs a \"query\" field");
        };
        let (query, unknown) = parse_query_spec(spec, self.graph);
        if query.is_empty() {
            return Response::error(format!(
                "no query entity could be resolved against the KG (unknown: {unknown:?})"
            ));
        }
        if req.debug_hold_ms.is_some() && !self.config.allow_debug {
            return Response::error("debug_hold_ms is disabled on this server");
        }

        // Pin a coherent epoch view, then resolve the shared memo for it.
        let state = self.state.read().unwrap_or_else(|e| e.into_inner()).clone();
        let epoch = state.lake.epoch();
        let cache = self.cache.for_epoch(epoch);
        if let Some(ms) = req.debug_hold_ms.filter(|_| self.config.allow_debug) {
            // Test hook: park *after* pinning, while holding the slot, so
            // tests can overlap this request with mutations and saturation.
            std::thread::sleep(Duration::from_millis(ms));
        }

        let mut options = SearchOptions::top(req.k.map_or(self.config.k, |k| k as usize))
            .with_kernel(self.config.kernel);
        options.threads = self.config.threads;
        if let Some(ms) = req.deadline_ms {
            options = options.with_deadline(Duration::from_millis(ms));
        }
        if let Some(name) = req.kernel.as_deref() {
            let Some(kernel) = SigmaKernel::parse(name) else {
                return Response::error(format!(
                    "unknown kernel {name:?} (expected \"f64\", \"f32\", or \"i8\")"
                ));
            };
            options = options.with_kernel(kernel);
        }
        let votes = req.votes.map_or(self.config.votes, |v| v as usize);

        let engine = ThetisEngine::with_informativeness(
            self.graph,
            &state.lake,
            &*self.sim,
            state.inform.clone(),
        );
        // Always-on summary trace: a bounded handful of events per request
        // (phases, degradation rungs, epoch pins — never per-table streams),
        // so the retainer has the full trace of a request that only turned
        // out slow at the end. The fault-hit delta around the search is the
        // promotion signal for injected chaos.
        let query_id = self.metrics.next_query_id(spec);
        let trace = QueryTrace::summary(query_id);
        let faults_before = self.metrics.faults_fired();
        let result = engine.search_prefiltered_shared(
            &query,
            options,
            state.lsei.as_ref(),
            votes,
            cache,
            &trace,
        );
        let fault_fired = self.metrics.faults_fired() > faults_before;

        let ranked = result
            .ranked
            .iter()
            .map(|&(tid, score)| Hit {
                table: tid.0 as u64,
                name: state.lake.table(tid).name.clone(),
                score,
                score_bits: score.to_bits(),
            })
            .collect();
        let micros = started.elapsed().as_micros() as u64;
        if thetis_obs::enabled() {
            OBS_LATENCY.observe_nanos(micros * 1_000);
        }
        let reasons = result.stats.degraded_reason.labels();
        if result.stats.degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let promoted = self.metrics.observe_search(
            query_id,
            "search",
            micros * 1_000,
            result.stats.lake_epoch,
            &reasons,
            result.stats.timings.sigma_cached,
            result.stats.timings.sigma_computed,
            fault_fired,
            &trace,
        );
        if result.stats.degraded || fault_fired {
            self.log_trouble(|| {
                format!(
                    "thetis-serve trouble: event=degraded op=search \
                     query_id={query_id:#018x} latency_us={micros} \
                     reasons={} promoted={}",
                    if reasons.is_empty() {
                        "fault".to_string()
                    } else {
                        reasons.join("+")
                    },
                    promoted.unwrap_or("no"),
                )
            });
        }
        Response {
            status: "ok".into(),
            epoch: Some(result.stats.lake_epoch),
            ranked: Some(ranked),
            degraded: Some(result.stats.degraded),
            degraded_reason: Some(reasons.iter().map(|s| s.to_string()).collect()),
            sigma_hit_rate: Some(result.stats.sigma_hit_rate()),
            candidates: Some(result.stats.candidates as u64),
            tables_scored: Some(result.stats.tables_scored as u64),
            micros: Some(micros),
            query_id: Some(query_id),
            ..Response::default()
        }
    }

    fn handle_add_table(&self, req: &Request) -> Response {
        let Some(name) = req.name.as_deref() else {
            return Response::error("add_table needs a \"name\" field");
        };
        let Some(csv) = req.csv.as_deref() else {
            return Response::error("add_table needs a \"csv\" field");
        };
        let mut table =
            match thetis_datalake::csv::read_csv(name, std::io::Cursor::new(csv.as_bytes())) {
                Ok(t) => t,
                Err(e) => return Response::error(format!("cannot parse csv: {e}")),
            };
        ExactLabelLinker::new(self.graph).link_table(&mut table);
        self.commit(vec![Mutation::Add(table)])
    }

    fn handle_remove_table(&self, req: &Request) -> Response {
        let Some(name) = req.name.as_deref() else {
            return Response::error("remove_table needs a \"name\" field");
        };
        // Resolve against the current snapshot under the mutate lock so the
        // id cannot go stale between lookup and commit.
        let _mutating = self.mutate.lock().unwrap_or_else(|e| e.into_inner());
        let lake = self.epochs.pin();
        let Some(id) = lake
            .iter()
            .find(|&(id, t)| !lake.is_removed(id) && t.name == name)
            .map(|(id, _)| id)
        else {
            return Response::error(format!("no table named {name:?} in the lake"));
        };
        self.commit_locked(vec![Mutation::Remove(id)])
    }

    /// Commits a mutation batch and republishes the derived state.
    fn commit(&self, batch: Vec<Mutation>) -> Response {
        let _mutating = self.mutate.lock().unwrap_or_else(|e| e.into_inner());
        self.commit_locked(batch)
    }

    fn commit_locked(&self, batch: Vec<Mutation>) -> Response {
        if self.draining.load(Ordering::Acquire) {
            return Response::error("server is draining; mutation rejected");
        }
        // Delta-maintain the LSEI: replay the batch on a clone of the
        // previous epoch's index instead of rebuilding it over the whole
        // lake. Pre-commit context is captured first — Add ids are assigned
        // sequentially from the snapshot length, and Remove/Relink need the
        // outgoing table content to drive de-indexing — because the
        // snapshot advances once `commit` publishes.
        let prev = self.state.read().unwrap_or_else(|e| e.into_inner()).clone();
        let mut lsei = prev.lsei.clone();
        if let Some(lsei) = lsei.as_mut() {
            let pre = self.epochs.pin();
            let mut next_id = pre.len();
            for m in &batch {
                match m {
                    Mutation::Add(table) => {
                        let id = TableId::from_index(next_id);
                        next_id += 1;
                        lsei.insert_table(id, table);
                    }
                    Mutation::Remove(id) => lsei.remove_table(*id, pre.table(*id)),
                    Mutation::Relink(id, new) => lsei.relink_table(*id, pre.table(*id), new),
                }
            }
        }
        // WRITE-AHEAD: the whole batch is journaled and fsync'd *before*
        // the commit publishes, one record per mutation carrying the
        // epoch it will produce. A journal failure (I/O or injected
        // `wal.append`/`wal.fsync` fault) fails the mutation closed: the
        // journal rolled itself back, nothing publishes, the client sees
        // an error — an epoch a client ever observed is always on disk.
        let n_mutations = batch.len() as u64;
        if let Some(dur) = &self.durability {
            let pre_epoch = self.epochs.epoch();
            let records: Vec<WalRecord> = batch
                .iter()
                .enumerate()
                .map(|(i, m)| WalRecord {
                    epoch: pre_epoch + i as u64 + 1,
                    mutation: m.clone(),
                })
                .collect();
            let mut dur = dur.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = dur.wal.append_batch(&records) {
                self.log_trouble(|| {
                    format!("thetis-serve trouble: event=wal_append_failed error={e:?}")
                });
                return Response::error(format!("mutation not journaled (lake unchanged): {e}"));
            }
            self.wal_appends.fetch_add(n_mutations, Ordering::Relaxed);
        }
        let epoch = self.epochs.commit(batch);
        let lake = self.epochs.pin();
        if let Some(lsei) = lsei.as_mut() {
            // Each incremental op bumped the LSEI epoch once, matching the
            // lake's per-mutation bump, but re-anchor to the published
            // epoch so the pair can never drift.
            lsei.set_epoch(lake.epoch());
        }
        let inform = Informativeness::from_lake(&lake);
        let state = EpochState { lake, inform, lsei };
        *self.state.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(state);
        self.metrics.observe_mutation();
        if thetis_obs::enabled() {
            OBS_MUTATIONS.inc();
        }
        self.maybe_checkpoint(n_mutations);
        // The shared memo is invalidated lazily: the next search pinning
        // the new epoch evicts it through `for_epoch`.
        Response {
            status: "ok".into(),
            epoch: Some(epoch),
            ..Response::default()
        }
    }

    /// Checkpoint policy, evaluated after every commit (mutate lock
    /// held): every N journaled mutations, or when the last checkpoint is
    /// older than the configured interval.
    fn maybe_checkpoint(&self, n_mutations: u64) {
        if self.durability.is_none() {
            return;
        }
        let since = self
            .mutations_since_checkpoint
            .fetch_add(n_mutations, Ordering::Relaxed)
            + n_mutations;
        let due_count = self.config.checkpoint_every > 0 && since >= self.config.checkpoint_every;
        let interval_ns = self.config.checkpoint_interval.as_nanos() as u64;
        let age_ns = self
            .config
            .clock
            .now_ns()
            .saturating_sub(self.checkpoint_ns.load(Ordering::Relaxed));
        let due_age = interval_ns > 0 && age_ns >= interval_ns;
        if due_count || due_age {
            let _ = self.checkpoint("periodic");
        }
    }

    /// Takes a durable checkpoint of the *published* snapshot and rotates
    /// the journal. Failure is contained — the mutation that triggered it
    /// already committed and is journaled; an unrotated journal only
    /// costs replay time at next boot — but it is counted, logged, and
    /// degrades the health verdict until a checkpoint succeeds again.
    ///
    /// Caller must hold the mutate lock (checkpoint and commit must not
    /// interleave); the serving path does, [`Server::drain`] takes it.
    fn checkpoint(&self, cause: &str) -> Result<u64, String> {
        let Some(dur) = &self.durability else {
            return Err("no WAL configured".into());
        };
        let lake = self.epochs.pin();
        let mut dur = dur.lock().unwrap_or_else(|e| e.into_inner());
        match thetis_datalake::write_checkpoint(&lake, &dur.checkpoint) {
            Ok(()) => {
                // A crash between the rename above and this rotation is
                // safe: replay skips records the checkpoint already has.
                if let Err(e) = dur.wal.rotate() {
                    self.log_trouble(|| {
                        format!("thetis-serve trouble: event=wal_rotate_failed error={e:?}")
                    });
                }
                self.checkpoints.fetch_add(1, Ordering::Relaxed);
                self.checkpoint_failures.store(0, Ordering::Relaxed);
                self.mutations_since_checkpoint.store(0, Ordering::Relaxed);
                self.checkpoint_epoch.store(lake.epoch(), Ordering::Relaxed);
                self.checkpoint_ns
                    .store(self.config.clock.now_ns(), Ordering::Relaxed);
                Ok(lake.epoch())
            }
            Err(e) => {
                self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                self.log_trouble(|| {
                    format!(
                        "thetis-serve trouble: event=checkpoint_failed cause={cause} error={e:?}"
                    )
                });
                Err(e)
            }
        }
    }

    /// Whether [`Server::drain`] has started: no new searches or
    /// mutations are admitted.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Graceful drain (idempotent): stop admitting, wait for in-flight
    /// searches up to [`ServerConfig::drain_deadline`], then take a final
    /// checkpoint and rotate the journal. The accept loop runs this after
    /// shutdown, so [`RunningServer::join`]/[`RunningServer::shutdown`]
    /// return only once the final checkpoint is durable; a `kill -9`
    /// skips it by construction and recovery falls back to the journal.
    pub fn drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        let deadline = Instant::now() + self.config.drain_deadline;
        while self.inflight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(dur) = &self.durability {
            let _mutating = self.mutate.lock().unwrap_or_else(|e| e.into_inner());
            // Skip the write when it would change nothing: no mutations
            // since the last checkpoint and the checkpoint file exists.
            let dirty = self.mutations_since_checkpoint.load(Ordering::Relaxed) > 0
                || !dur
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .checkpoint
                    .exists();
            if dirty {
                let _ = self.checkpoint("shutdown");
            }
        }
    }
}

/// Parses a `"e1,e2;f1,f2"` spec against the KG label index, returning the
/// query plus the mentions that resolved to nothing (the caller decides
/// whether an entirely-unresolved query is an error).
pub fn parse_query_spec(spec: &str, graph: &KnowledgeGraph) -> (Query, Vec<String>) {
    let mut tuples = Vec::new();
    let mut unknown = Vec::new();
    for tuple_spec in spec.split(';') {
        let mut tuple = Vec::new();
        for mention in tuple_spec.split(',') {
            let mention = mention.trim();
            if mention.is_empty() {
                continue;
            }
            match graph.entity_by_label(mention) {
                Some(e) => tuple.push(e),
                None => unknown.push(mention.to_string()),
            }
        }
        if !tuple.is_empty() {
            tuples.push(tuple);
        }
    }
    (Query::new(tuples), unknown)
}

/// A server bound to its socket with the accept loop running.
pub struct RunningServer {
    server: Arc<Server>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    metrics_writer: Option<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    /// The address the server actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying server (stats, in-process mutation, shutdown).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Signals shutdown and waits for the accept loop to exit. Open
    /// connections finish their current request and close on client EOF.
    pub fn shutdown(mut self) {
        self.server.request_shutdown();
        self.reap();
    }

    /// Blocks until the accept loop exits (a `shutdown` request arrived).
    pub fn join(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics_writer.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.server.request_shutdown();
        self.reap();
    }
}

/// Binds the server's configured address and starts the accept loop on a
/// background thread. One thread per connection; each connection handles
/// line-delimited JSON requests until EOF.
pub fn serve(server: Arc<Server>) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(&server.config.addr)?;
    let addr = listener.local_addr()?;
    // Non-blocking accept so the loop can observe the shutdown flag
    // without a sentinel connection.
    listener.set_nonblocking(true)?;
    let accept_server = Arc::clone(&server);
    let acceptor = std::thread::Builder::new()
        .name("thetis-serve-accept".into())
        .spawn(move || {
            loop {
                if accept_server.shutdown_requested() {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let conn_server = Arc::clone(&accept_server);
                        let _ = std::thread::Builder::new()
                            .name("thetis-serve-conn".into())
                            .spawn(move || handle_connection(conn_server, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            // `shutdown` is a graceful drain: stop admitting, let
            // in-flight requests finish up to the drain deadline, land
            // the final checkpoint — all before `join`/`shutdown`
            // return, so the process can exit the moment they do.
            accept_server.drain();
        })?;
    let metrics_writer = match server.config.metrics_out.clone() {
        Some(path) => {
            let writer_server = Arc::clone(&server);
            Some(
                std::thread::Builder::new()
                    .name("thetis-serve-metrics".into())
                    .spawn(move || metrics_writer_loop(writer_server, path))?,
            )
        }
        None => None,
    };
    Ok(RunningServer {
        server,
        addr,
        acceptor: Some(acceptor),
        metrics_writer,
    })
}

/// Writes the windowed JSON snapshot (and a Prometheus text rendering of
/// the global registry alongside it, same stem with a `.prom` extension)
/// every [`ServerConfig::metrics_interval`], plus one final write at
/// shutdown so the last snapshot always survives the process.
fn metrics_writer_loop(server: Arc<Server>, path: PathBuf) {
    let write_once = |server: &Server| {
        let snap = server.metrics_snapshot();
        if let Ok(json) = serde_json::to_string_pretty(&snap) {
            write_atomically(&path, json.as_bytes());
        }
        let prom = thetis_obs::snapshot().render_text();
        write_atomically(&path.with_extension("prom"), prom.as_bytes());
    };
    let interval = server
        .config
        .metrics_interval
        .max(Duration::from_millis(100));
    let mut last = Instant::now();
    write_once(&server);
    while !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
        if last.elapsed() >= interval {
            write_once(&server);
            last = Instant::now();
        }
    }
    write_once(&server);
}

/// Write-to-temp-then-rename so a scraper never reads a torn file.
fn write_atomically(path: &std::path::Path, bytes: &[u8]) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, bytes).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// One connection: read a line, answer a line, until EOF or I/O error. A
/// malformed line gets an `error` response instead of killing the
/// connection — clients pipelining requests keep their line alignment.
fn handle_connection(server: Arc<Server>, stream: TcpStream) {
    stream.set_nonblocking(false).ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let resp = match serde_json::from_str::<Request>(&line) {
            Ok(req) => server.handle(&req),
            Err(e) => {
                server.errors.fetch_add(1, Ordering::Relaxed);
                if thetis_obs::enabled() {
                    OBS_ERRORS.inc();
                }
                Response::error(format!("bad request: {e}"))
            }
        };
        let json = serde_json::to_string(&resp).unwrap_or_else(|_| {
            "{\"status\":\"error\",\"error\":\"response serialization failed\"}".into()
        });
        if writer
            .write_all(json.as_bytes())
            .and_then(|_| writer.write_all(b"\n"))
            .and_then(|_| writer.flush())
            .is_err()
        {
            break;
        }
    }
}
