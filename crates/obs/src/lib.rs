//! # thetis-obs: the observability layer of the Thetis workspace
//!
//! A zero-dependency metrics substrate shared by every crate in the
//! workspace: scoped span timers, atomic counters, and fixed-bucket
//! latency histograms, all behind one process-global registry.
//!
//! Three properties drive the design:
//!
//! * **~Zero cost when disabled.** The registry starts disabled; every
//!   recording call first does one relaxed atomic load and a branch and
//!   returns immediately when metrics are off. No allocation, no lock, no
//!   clock read happens on the disabled path.
//! * **Cheap when enabled.** Call sites hold [`Counter`] / [`Span`] /
//!   [`Histogram`] handles in `static`s; the first recording resolves the
//!   handle against the registry (one mutex acquisition, ever), after
//!   which recording is a relaxed `fetch_add` on a shared cell. Hot loops
//!   should still record in bulk (e.g. add a per-search delta rather than
//!   one increment per σ evaluation).
//! * **Deterministic reports.** Snapshots order metrics by name, so two
//!   runs that record the same values render byte-identical text/JSON.
//!
//! ## Usage
//!
//! ```
//! use thetis_obs as obs;
//!
//! static SEARCHES: obs::Counter = obs::Counter::new("example.searches");
//! static SCORING: obs::Span = obs::Span::new("example.scoring");
//!
//! obs::set_enabled(true);
//! {
//!     let _guard = SCORING.start(); // records on drop
//!     SEARCHES.add(1);
//! }
//! let report = obs::snapshot();
//! assert_eq!(report.counter("example.searches"), Some(1));
//! assert!(report.span("example.scoring").is_some());
//! obs::set_enabled(false);
//! ```
//!
//! Spans are nesting-aware: a span opened while another span is open on
//! the same thread contributes its wall time to the parent's *total* but
//! not to the parent's *self* time, so a report cleanly separates "time in
//! LSEI prefiltering" from "time in the search that called it".

mod counter;
pub mod faults;
mod histogram;
mod registry;
pub mod report;
pub mod retain;
pub mod rolling;
mod span;
pub mod trace;

pub use counter::Counter;
pub use histogram::{Histogram, HISTOGRAM_BOUNDS_NS};
pub use report::{
    lint_prometheus_text, sparkline, CounterSnapshot, HistogramSnapshot, Report, SpanSnapshot,
    SPARKS,
};
pub use retain::{read_slowlog, PromotionPolicy, RetainedTrace, Slowlog, TraceRetainer};
pub use rolling::{
    Exemplar, RollingCounter, RollingHistogram, WindowClock, WindowedHistogram,
    DEFAULT_SLOT_DURATION, DEFAULT_WINDOW_SLOTS,
};
pub use span::{Span, SpanGuard};
pub use trace::{
    parse_trace_json, render_waterfall_events, set_trace_sampling, should_trace, trace_sampling,
    AttrValue, ParsedTrace, QueryTrace, TraceEvent, TracePhase,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Environment variable that force-disables all telemetry and tracing:
/// `thetis-cli` skips [`set_enabled`]/[`set_trace_sampling`] entirely
/// when it is set to `0`.
pub const OBS_ENV_VAR: &str = "THETIS_OBS";

/// Whether the `THETIS_OBS=0` kill switch is set in the environment.
///
/// Only the exact value `0` disables; unset or any other value means
/// "follow the binary's own flags".
pub fn env_disabled() -> bool {
    std::env::var(OBS_ENV_VAR).is_ok_and(|v| v == "0")
}

/// Whether metrics recording is currently on.
///
/// This is the only check on the hot path: one relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide.
///
/// Disabling does not clear already-recorded values; see [`reset`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zeroes every registered metric (handles stay valid).
pub fn reset() {
    registry::global().reset();
}

/// Takes a deterministic snapshot of every registered metric, ordered by
/// name.
pub fn snapshot() -> Report {
    registry::global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The registry is process-global, so tests that flip `ENABLED` or
    /// call `reset` must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    static C_DET: Counter = Counter::new("test.determinism.counter");
    static S_DET: Span = Span::new("test.determinism.span");
    static H_DET: Histogram = Histogram::new("test.determinism.histogram");

    #[test]
    fn snapshot_output_is_deterministic() {
        let _g = serial();
        set_enabled(true);
        reset();
        // Record fixed values (bypassing the clock) twice and compare the
        // rendered output byte for byte.
        let render = || {
            reset();
            C_DET.add(7);
            C_DET.add(35);
            S_DET.record_nanos(1_500, 3);
            H_DET.observe_nanos(999);
            H_DET.observe_nanos(25_000_000);
            let r = snapshot();
            (r.render_text(), r.render_json())
        };
        let (text_a, json_a) = render();
        let (text_b, json_b) = render();
        assert_eq!(text_a, text_b);
        assert_eq!(json_a, json_b);
        assert!(text_a.contains("thetis_counter_total{name=\"test.determinism.counter\"} 42"));
        assert!(json_a.contains("\"test.determinism.span\""));
        set_enabled(false);
    }

    static C_OFF: Counter = Counter::new("test.disabled.counter");
    static S_OFF: Span = Span::new("test.disabled.span");
    static H_OFF: Histogram = Histogram::new("test.disabled.histogram");

    #[test]
    fn disabled_registry_takes_the_cheap_path() {
        let _g = serial();
        set_enabled(false);
        reset();
        // With the registry disabled nothing registers and nothing records:
        // the calls return before touching the registry, which is exactly
        // the "atomic load + branch" cheap path.
        C_OFF.add(1_000);
        S_OFF.record_nanos(1_000, 1);
        H_OFF.observe_nanos(1_000);
        drop(S_OFF.start());
        let report = snapshot();
        assert_eq!(report.counter("test.disabled.counter"), None);
        assert!(report.span("test.disabled.span").is_none());
        assert!(!report.render_text().contains("test.disabled"));
        // The handles never resolved a cell — proof the registry was not
        // consulted at all on the disabled path.
        assert!(!C_OFF.is_registered());
        assert!(!S_OFF.is_registered());
        assert!(!H_OFF.is_registered());
    }

    static S_OUTER: Span = Span::new("test.nesting.outer");
    static S_INNER: Span = Span::new("test.nesting.inner");

    #[test]
    fn nested_spans_split_self_time_from_total() {
        let _g = serial();
        set_enabled(true);
        reset();
        {
            let _outer = S_OUTER.start();
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = S_INNER.start();
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let report = snapshot();
        let outer = report.span("test.nesting.outer").unwrap();
        let inner = report.span("test.nesting.inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // The inner span's wall time is excluded from the outer's self time.
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
        set_enabled(false);
    }

    static C_RESET: Counter = Counter::new("test.reset.counter");

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _g = serial();
        set_enabled(true);
        reset();
        C_RESET.add(5);
        assert_eq!(snapshot().counter("test.reset.counter"), Some(5));
        reset();
        assert_eq!(snapshot().counter("test.reset.counter"), Some(0));
        set_enabled(false);
    }

    static H_BUCKETS: Histogram = Histogram::new("test.buckets.histogram");

    #[test]
    fn histogram_buckets_are_cumulative_in_the_report() {
        let _g = serial();
        set_enabled(true);
        reset();
        H_BUCKETS.observe_nanos(500); // < 1µs
        H_BUCKETS.observe_nanos(5_000_000); // 5ms
        H_BUCKETS.observe_nanos(u64::MAX); // overflow bucket
        let report = snapshot();
        let h = report.histogram("test.buckets.histogram").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
        let text = report.render_text();
        assert!(text.contains("le=\"+Inf\"} 3"));
        set_enabled(false);
    }
}
