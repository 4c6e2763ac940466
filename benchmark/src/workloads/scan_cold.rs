//! `scan-cold`: the paper's brute-force STST row.
//!
//! An in-process `ThetisEngine::search` with type-Jaccard σ over `wt`,
//! one thread, every query issued once. Every table reaches `core` with a
//! fresh per-query memo, so `core` — σ rows, memo, Hungarian, row
//! aggregation, pruning, top-k — does all the work; `lsh` and `serve` do
//! none. A gain in the LSEI or the server must not move this workload.

use std::time::{Duration, Instant};

use super::{
    distinct_schedule, sample_indices, search_metrics, set_up_repeatedly, warm_up_ops, Cfg,
    Outcome, SearchLog, SearchOp, CHECKED, N_QUERIES,
};
use crate::stats;
use crate::sut::{Answer, Inputs, LakeKind, ScanEngine, Scoring, World};
use crate::trace::Tracer;

/// Timed searches of a 12-second run.
const TIMED: usize = 200;
/// Times a run issues its timed schedule: each search's latency is the
/// median of that many, and `search_qps` that of the median pass. This
/// box changes speed by a fifth every few seconds; one pass of ten
/// seconds catches one or two of its moods, three passes outvote them.
const PASSES: usize = 3;
/// Untimed warm-up searches that close every set-up.
const WARM_UP: usize = 20;
/// Searches of each pass of a traced run (default, traced, exhaustive,
/// two threads).
const TRACED: usize = 40;

/// The timed searches and, from the query pairs after theirs, the
/// warm-up ones; and the query pairs to generate for both.
fn plan(cfg: &Cfg, timed: usize) -> (usize, Vec<SearchOp>, Vec<SearchOp>) {
    let (timed, warm) = (cfg.ops(timed), cfg.ops(WARM_UP));
    let pairs = N_QUERIES.max(timed + warm);
    (
        pairs,
        distinct_schedule(timed, cfg.seed),
        warm_up_ops(timed, warm),
    )
}

fn warm_up(inputs: &Inputs, engine: &ScanEngine, ops: &[SearchOp]) {
    for op in ops {
        engine.search(&inputs.query(op.width, op.index), Scoring::Default, 1);
    }
}

/// Inputs in memory → first answer: link, index, derive the engine's
/// informativeness, answer one search (whatever is built lazily on first
/// use is paid here). The rest of the warm-up follows untimed.
fn set_up(inputs: &Inputs, warm: &[SearchOp]) -> (World, Duration) {
    let mut world = inputs.world();
    let start = Instant::now();
    world.link();
    world.index();
    warm_up(inputs, &world.scan_engine(), &warm[..1]);
    let took = start.elapsed();
    warm_up(inputs, &world.scan_engine(), &warm[1..]);
    (world, took)
}

fn timed(
    inputs: &Inputs,
    engine: &ScanEngine,
    op: &SearchOp,
    path: Scoring,
    threads: usize,
) -> (Answer, Duration) {
    let q = inputs.query(op.width, op.index);
    let start = Instant::now();
    let answer = engine.search(&q, path, threads);
    (answer, start.elapsed())
}

pub fn run(cfg: &Cfg) -> Outcome {
    if cfg.trace {
        traced(cfg)
    } else {
        untraced(cfg)
    }
}

fn untraced(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let (pairs, schedule, warm) = plan(cfg, TIMED);
    let inputs = Inputs::generate(LakeKind::Wt, pairs);

    let (world, setup_s) = set_up_repeatedly(cfg, || Ok(set_up(&inputs, &warm)), drop)
        .expect("an in-process set-up cannot fail");
    let engine = world.scan_engine();
    out.set("setup_s", setup_s);

    // The schedule runs `PASSES` times over. A query owns its memo, so
    // it is as cold the third time as the first; what differs between
    // passes is how fast the box happens to be.
    let mut passes = Vec::with_capacity(PASSES);
    let mut walls = Vec::with_capacity(PASSES);
    let mut answers = Vec::new();
    for _ in 0..PASSES {
        let mut log = SearchLog::default();
        answers.clear();
        let start = Instant::now();
        for op in &schedule {
            let (answer, took) = timed(&inputs, &engine, op, Scoring::Default, 1);
            log.answer(&inputs, op, took, &answer);
            answers.push(answer.ranked);
        }
        walls.push(start.elapsed().as_secs_f64());
        passes.push(log);
    }
    out.attempted += 1;
    if passes.iter().any(|p| p.digest != passes[0].digest) {
        out.fail("two passes of one schedule ranked differently".into());
    }
    let log = SearchLog::median_of(passes);
    let wall = Duration::from_secs_f64(stats::median(&walls));

    // The default path (memoize + prune) must rank exactly as the
    // exhaustive reference does, bit for bit.
    for i in sample_indices(schedule.len(), CHECKED) {
        let op = &schedule[i];
        let (reference, _) = timed(&inputs, &engine, op, Scoring::Exhaustive, 1);
        out.attempted += 1;
        if reference.ranked != answers[i] {
            out.fail(format!(
                "query {i} ({op:?}): default and exhaustive rankings differ"
            ));
        }
    }

    out.exact = vec![
        ("searches", log.issued),
        ("candidates", log.candidates),
        ("tables_scored", log.tables_scored),
        ("sigma_computed", log.core.sigma_computed),
        ("sigma_cached", log.core.sigma_cached),
    ];
    out.rank_digest = Some(log.digest.hex());
    search_metrics(&mut out, &[log], wall);
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out
}

fn traced(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::recording();
    let (pairs, schedule, warm) = plan(cfg, TRACED);
    let inputs = tr.span("corpus.generate", 0, |_| {
        Inputs::generate(LakeKind::Wt, pairs)
    });
    out.set("corpus.tables", inputs.tables() as f64);
    out.set("corpus.rows", inputs.rows() as f64);

    let mut world = inputs.world();
    tr.span("datalake.link", 0, |_| world.link());
    tr.span("datalake.index", 0, |_| world.index());
    let engine = tr.span("core.informativeness", 0, |_| world.scan_engine());
    warm_up(&inputs, &engine, &warm);

    let pass = |path: Scoring, threads: usize| -> Vec<f64> {
        schedule
            .iter()
            .map(|op| timed(&inputs, &engine, op, path, threads).1.as_secs_f64() * 1e3)
            .collect()
    };

    // Every search runs twice, recorder off and recorder on, taking
    // turns to go first so neither side always runs on the warmer cache:
    // the difference is what tracing costs.
    let mut log = SearchLog::default();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for (i, op) in schedule.iter().enumerate() {
        let id = i as u64 + 1;
        let mut plain = || {
            let took = timed(&inputs, &engine, op, Scoring::Default, 1).1;
            untraced_ms.push(took.as_secs_f64() * 1e3);
        };
        if i % 2 == 0 {
            plain();
        }
        let start = Instant::now();
        tr.span("op.search", id, |tr| {
            let (answer, took) = tr.span("core.search", id, |tr| {
                let at = tr.now_ns();
                let (answer, took) = timed(&inputs, &engine, op, Scoring::Default, 1);
                // What the engine itself attributes to scoring tables;
                // the rest of the call is `core.search`'s self time.
                tr.returned("core.scoring", id, at, answer.stats.scoring_ns);
                (answer, took)
            });
            log.answer(&inputs, op, took, &answer);
        });
        traced_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if i % 2 == 1 {
            plain();
        }
    }
    let exhaustive_ms = pass(Scoring::Exhaustive, 1);
    let two_threads_ms = pass(Scoring::Default, 2);

    let n = schedule.len() as f64;
    let call_ms: f64 = log.latency_ms.iter().sum();
    out.set_spans(
        &tr,
        &[
            ("corpus.generate_s", "corpus.generate", 1e-3),
            ("datalake.link_s", "datalake.link", 1e-3),
            ("datalake.index_s", "datalake.index", 1e-3),
            ("core.informativeness_ms", "core.informativeness", 1.0),
            ("core.search_among_ms", "core.search", 1.0),
        ],
    );
    core_metrics(&mut out, &log, n, call_ms);
    out.set(
        "core.exhaustive_ratio",
        untraced_ms.iter().sum::<f64>() / exhaustive_ms.iter().sum::<f64>(),
    );
    out.set(
        "core.threads2_speedup",
        untraced_ms.iter().sum::<f64>() / two_threads_ms.iter().sum::<f64>(),
    );
    out.set(
        "trace_overhead_share",
        stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0,
    );
    out.attempted = log.issued;
    out.failed = log.failed;
    out.traced(tr);
    out
}

/// The `core.*` metrics read off the engine's returned `SearchStats`,
/// per query, and the share of call time the engine does not attribute
/// to scoring tables.
pub fn core_metrics(out: &mut Outcome, log: &SearchLog, n: f64, call_ms: f64) {
    let c = &log.core;
    let lookups = (c.sigma_computed + c.sigma_cached).max(1) as f64;
    out.set("core.sigma_computed_per_query", c.sigma_computed as f64 / n);
    out.set("core.sigma_cached_per_query", c.sigma_cached as f64 / n);
    out.set("core.sigma_hit_rate", c.sigma_cached as f64 / lookups);
    out.set("core.tables_scored_per_query", log.tables_scored as f64 / n);
    out.set("core.tables_pruned_per_query", c.tables_pruned as f64 / n);
    out.set("core.mapping_ms_per_query", c.mapping_ns as f64 / 1e6 / n);
    out.set("core.agg_ms_per_query", c.agg_ns as f64 / 1e6 / n);
    out.set("core.scoring_ms_per_query", c.scoring_ns as f64 / 1e6 / n);
    out.set(
        "core.unattributed_share",
        1.0 - c.scoring_ns as f64 / 1e6 / call_ms,
    );
}
