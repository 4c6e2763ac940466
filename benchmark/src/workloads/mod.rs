//! The four workloads and what they share: run configuration, the result
//! a run hands back, and the bookkeeping of timed searches.

use std::path::PathBuf;
use std::time::Duration;

use crate::client::Conn;
use crate::rng::Rng;
use crate::stats::{self, RankDigest};
use crate::sut::{self, Answer, CoreStats, Inputs, Reply, Width};
use crate::trace::Tracer;

pub mod ingest;
pub mod scan_cold;
pub mod served;

/// The run length every op count is quoted for.
const REFERENCE_SECONDS: f64 = 12.0;
/// Query pairs generated per lake — 200 one-tuple and 200 five-tuple
/// queries — unless a run needs more distinct ones.
pub const N_QUERIES: usize = 200;
/// Times a run sets the system up; `setup_s` is the median.
const SETUPS: usize = 3;
/// Responses compared against the reference answer per run.
pub const CHECKED: usize = 20;

#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// Run length asked for; op counts scale with it.
    pub seconds: f64,
    pub trace: bool,
    /// A tenth of the ops, for smoke use; numbers are not comparable.
    pub quick: bool,
    /// Scratch and result directory (journals, traces, result files).
    pub out: PathBuf,
}

impl Cfg {
    /// Scales an op count quoted for a 12-second run to this run. Counts
    /// are fixed up front, not durations, so two runs of one seed issue
    /// exactly the same ops.
    pub fn ops(&self, per_reference_run: usize) -> usize {
        let scale = self.seconds / REFERENCE_SECONDS * if self.quick { 0.1 } else { 1.0 };
        ((per_reference_run as f64 * scale).round() as usize).max(4)
    }

    /// How often a run sets the system up: three times for a median,
    /// once where speed matters more than the number.
    pub fn setups(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUPS
        }
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops issued, and those that errored, were shed, came back degraded
    /// or failed an output check.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Counts that must repeat exactly between runs of one seed.
    pub exact: Vec<(&'static str, u64)>,
    /// Digest of every response, where the workload is deterministic.
    pub rank_digest: Option<String>,
    /// One line per failed check or unmet workload premise.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::spec::find(name).is_some(), "unknown metric {name}");
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Sets each metric to the median duration of the spans named beside
    /// it, in units of which `per_ms` make a millisecond.
    pub fn set_spans(&mut self, tr: &Tracer, metrics: &[(&'static str, &str, f64)]) {
        for &(metric, span, per_ms) in metrics {
            self.set(metric, tr.median(span, per_ms));
        }
    }

    /// Closes a traced run: keeps its spans for the Chrome trace.
    pub fn traced(&mut self, tr: Tracer) {
        self.set("trace.spans", tr.spans().len() as f64);
        self.trace = Some(tr);
    }
}

/// One search over a connection: the decoded reply, or the error that
/// stood in for one, and the client-observed latency.
pub fn search_over(
    conn: &mut Conn,
    inputs: &Inputs,
    op: &SearchOp,
) -> (Result<Reply, String>, Duration) {
    let line = sut::search_line(&inputs.spec(op.width, op.index));
    let start = std::time::Instant::now();
    match conn.call(&line) {
        Ok((reply, took)) => (Reply::decode(reply), took),
        Err(e) => (Err(e), start.elapsed()),
    }
}

/// One search op of a schedule: which query, spelled for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOp {
    pub width: Width,
    pub index: usize,
}

/// The width query pair `pair` is issued at: two one-tuple queries to
/// one five-tuple query. The 2:1 mix keeps the median inside the
/// one-tuple mode and the tail percentile inside the five-tuple mode; an
/// even mix would put the median on the gap between the two.
fn width_of(pair: usize) -> Width {
    if pair % 3 == 2 {
        Width::Five
    } else {
        Width::One
    }
}

/// Query pairs `0..n`, each issued once at its own width, in a seeded
/// order that keeps the widths interleaved `1 1 5 1 1 5 …`. Five-tuple
/// query `i` contains one-tuple query `i`, so no query shares a tuple
/// with another.
///
/// The seed decides the order only, never which queries run or how wide:
/// a tail percentile over a seed-picked third of the pairs moves by a
/// fifth from seed to seed, which is the queries' doing, not the
/// program's.
pub fn distinct_schedule(n: usize, seed: u64) -> Vec<SearchOp> {
    // The pairs of one width, in an order of their own.
    let seeded = |width: Width, stream: u64| {
        let pairs: Vec<usize> = (0..n).filter(|&p| width_of(p) == width).collect();
        let order = Rng::new(seed, stream).permutation(pairs.len());
        order.into_iter().map(move |i| pairs[i])
    };
    let mut ones = seeded(Width::One, 0x0DE7);
    let mut fives = seeded(Width::Five, 0x0DE8);
    // Slot `i` has the width of pair `i`, so each width has as many
    // slots as pairs.
    (0..n)
        .map(|slot| match width_of(slot) {
            Width::One => (Width::One, ones.next()),
            Width::Five => (Width::Five, fives.next()),
        })
        .map(|(width, index)| SearchOp {
            width,
            index: index.expect("as many slots as pairs of each width"),
        })
        .collect()
}

/// Query pairs `from..from + n` in index order: the warm-up that closes
/// a set-up, the same whatever the seed.
pub fn warm_up_ops(from: usize, n: usize) -> Vec<SearchOp> {
    (from..from + n)
        .map(|index| SearchOp {
            width: width_of(index),
            index,
        })
        .collect()
}

/// The spec pool of the Zipf workloads: one-tuple queries `0..n`, rank
/// `r` being query `r`. The seed decides the draws, not the pool: a
/// seed-picked pool, or a seed-picked hot head of it, moves the tail
/// percentile by a fifth from seed to seed.
pub fn pool_ops(n: usize) -> Vec<SearchOp> {
    (0..n)
        .map(|index| SearchOp {
            width: Width::One,
            index,
        })
        .collect()
}

/// Timed searches of one caller, in issue order.
#[derive(Debug, Default)]
pub struct SearchLog {
    pub issued: u64,
    pub latency_ms: Vec<f64>,
    pub ndcg: Vec<f64>,
    pub digest: RankDigest,
    pub failed: u64,
    /// Server-side `micros` and memo hit rate per response (served
    /// workloads), next to the client's latency for the same search.
    pub server_ms: Vec<f64>,
    pub sigma_hit_rate: Vec<f64>,
    pub candidates: u64,
    pub tables_scored: u64,
    pub core: CoreStats,
}

impl SearchLog {
    fn ranking(&mut self, inputs: &Inputs, op: &SearchOp, took: Duration, ranked: &[(u64, u64)]) {
        self.latency_ms.push(took.as_secs_f64() * 1e3);
        self.ndcg.push(inputs.ndcg10(op.width, op.index, ranked));
        self.digest.response(ranked);
    }

    /// One log for several passes over one schedule: the first pass's
    /// counts and digest, each search's latency the median of its
    /// latencies over the passes, and every pass's searches and failures
    /// counted.
    pub fn median_of(passes: Vec<SearchLog>) -> SearchLog {
        let latency_ms = (0..passes[0].latency_ms.len())
            .map(|i| stats::median(&passes.iter().map(|p| p.latency_ms[i]).collect::<Vec<_>>()))
            .collect();
        let issued = passes.iter().map(|p| p.issued).sum();
        let failed = passes.iter().map(|p| p.failed).sum();
        let first = passes.into_iter().next().expect("at least one pass");
        SearchLog {
            issued,
            failed,
            latency_ms,
            ..first
        }
    }

    /// An in-process answer.
    pub fn answer(&mut self, inputs: &Inputs, op: &SearchOp, took: Duration, a: &Answer) {
        self.issued += 1;
        self.ranking(inputs, op, took, &a.ranked);
        self.failed += a.stats.degraded as u64;
        self.candidates += a.stats.candidates;
        self.tables_scored += a.stats.tables_scored;
        let c = &mut self.core;
        c.tables_pruned += a.stats.tables_pruned;
        c.sigma_computed += a.stats.sigma_computed;
        c.sigma_cached += a.stats.sigma_cached;
        c.mapping_ns += a.stats.mapping_ns;
        c.agg_ns += a.stats.agg_ns;
        c.scoring_ns += a.stats.scoring_ns;
    }

    /// A served reply, or the error that stood in for one.
    pub fn reply(
        &mut self,
        inputs: &Inputs,
        op: &SearchOp,
        took: Duration,
        r: &Result<Reply, String>,
    ) {
        self.issued += 1;
        match r {
            Ok(r) => {
                self.ranking(inputs, op, took, &r.ranked);
                self.failed += (!r.ok || r.degraded) as u64;
                self.server_ms.push(r.micros as f64 / 1e3);
                self.sigma_hit_rate.push(r.sigma_hit_rate);
                self.candidates += r.candidates;
                self.tables_scored += r.tables_scored;
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// The end-to-end search metrics over every caller's log and the wall
/// time they ran in. `search_p95_ms` is only a p95 with 200 samples or
/// more; a quick run prints the name over whatever it has.
pub fn search_metrics(out: &mut Outcome, logs: &[SearchLog], wall: Duration) {
    let latency = stats::sorted(
        logs.iter()
            .flat_map(|l| l.latency_ms.iter().copied())
            .collect(),
    );
    let ndcg: Vec<f64> = logs.iter().flat_map(|l| l.ndcg.iter().copied()).collect();
    out.attempted += logs.iter().map(|l| l.issued).sum::<u64>();
    out.failed += logs.iter().map(|l| l.failed).sum::<u64>();
    if latency.is_empty() {
        out.fail("no search completed".into());
        return;
    }
    if stats::supported_percentile(latency.len()) < Some(95) {
        out.notes.push(format!(
            "search_p95_ms rests on {} samples; fewer than ten lie beyond it",
            latency.len()
        ));
    }
    out.set("search_p50_ms", stats::percentile(&latency, 50));
    out.set("search_p95_ms", stats::percentile(&latency, 95));
    out.set("search_qps", latency.len() as f64 / wall.as_secs_f64());
    out.set("ndcg10", stats::mean(&ndcg));
}

/// Sets the system up `cfg.setups()` times, closing every set-up but the
/// last; returns the last, to measure on, and the median set-up time in
/// seconds.
pub fn set_up_repeatedly<R>(
    cfg: &Cfg,
    mut set_up: impl FnMut() -> Result<(R, Duration), String>,
    close: impl Fn(R),
) -> Result<(R, f64), String> {
    let mut took = Vec::new();
    let mut ready = None;
    for _ in 0..cfg.setups() {
        if let Some(previous) = ready.take() {
            close(previous);
        }
        let (r, t) = set_up()?;
        took.push(t.as_secs_f64());
        ready = Some(r);
    }
    Ok((ready.expect("at least one set-up"), stats::median(&took)))
}

/// `n` indices spread evenly over `0..len`.
pub fn sample_indices(len: usize, n: usize) -> Vec<usize> {
    let n = n.min(len);
    (0..n).map(|i| i * len / n.max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seconds: f64, quick: bool) -> Cfg {
        Cfg {
            seed: 1,
            seconds,
            trace: false,
            quick,
            out: PathBuf::new(),
        }
    }

    #[test]
    fn op_counts_scale_with_the_run_length() {
        assert_eq!(cfg(12.0, false).ops(210), 210);
        assert_eq!(cfg(6.0, false).ops(210), 105);
        assert_eq!(cfg(12.0, true).ops(210), 21);
        assert_eq!(cfg(1.0, true).ops(10), 4, "never fewer than four");
    }

    #[test]
    fn distinct_schedule_never_repeats_a_query() {
        let s = distinct_schedule(N_QUERIES, 12);
        assert_eq!(s.len(), N_QUERIES);
        assert!(s
            .iter()
            .enumerate()
            .all(|(i, o)| (o.width == Width::Five) == (i % 3 == 2)));
        // No pair index is used twice, by either width: no shared tuple.
        let mut seen = std::collections::BTreeSet::new();
        assert!(s
            .iter()
            .all(|o| o.index < N_QUERIES && seen.insert(o.index)));
        // Same seed, same schedule; another seed, the same queries at
        // the same widths in another order.
        assert_eq!(s, distinct_schedule(N_QUERIES, 12));
        let other = distinct_schedule(N_QUERIES, 13);
        assert_ne!(s, other);
        let set = |s: &[SearchOp]| {
            let mut ops: Vec<_> = s
                .iter()
                .map(|o| (o.index, o.width == Width::Five))
                .collect();
            ops.sort();
            ops
        };
        assert_eq!(set(&s), set(&other));
    }

    #[test]
    fn warm_up_ops_follow_the_schedule_and_ignore_the_seed() {
        let w = warm_up_ops(200, 4);
        assert_eq!(
            w.iter().map(|o| o.index).collect::<Vec<_>>(),
            [200, 201, 202, 203]
        );
        assert_eq!(w[0].width, Width::Five);
        assert_eq!(w[1].width, Width::One);
    }

    #[test]
    fn passes_fold_into_per_search_medians() {
        let pass = |latency_ms: Vec<f64>, failed: u64| SearchLog {
            issued: latency_ms.len() as u64,
            latency_ms,
            failed,
            candidates: 7,
            ..SearchLog::default()
        };
        let log = SearchLog::median_of(vec![
            pass(vec![1.0, 9.0], 0),
            pass(vec![3.0, 5.0], 1),
            pass(vec![2.0, 7.0], 0),
        ]);
        assert_eq!(log.latency_ms, [2.0, 7.0]);
        assert_eq!((log.issued, log.failed), (6, 1));
        assert_eq!(log.candidates, 7, "counts are one pass's");
    }

    #[test]
    fn sample_indices_are_spread_and_in_range() {
        assert_eq!(sample_indices(100, 4), vec![0, 25, 50, 75]);
        assert_eq!(sample_indices(3, 20), vec![0, 1, 2]);
        assert!(sample_indices(0, 5).is_empty());
    }
}
