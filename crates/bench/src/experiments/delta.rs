//! `delta-maintenance` microbench: incremental mutation vs full rebuild,
//! and the served commit that sits between them.
//!
//! The delta paths (`DataLake::{add_table, remove_table}` plus
//! `Lsei::{insert_table, remove_table}`) exist to make patching the
//! indexes for one table O(cells of that table) instead of O(corpus). This
//! experiment measures three sides on the CI smoke lake:
//!
//! * **delta**: one full remove+re-add cycle of a representative table,
//!   patching postings, digests, and band buckets in place;
//! * **rebuild**: postings + digests from scratch plus `Lsei::build` over
//!   the whole corpus — what every mutation used to cost;
//! * **commit**: the same remove and re-add as two `EpochLake::commit`s —
//!   what a *served* mutation pays to publish a new snapshot around the
//!   delta (fork the lake: names, schemas and the posting map are copied,
//!   cells are shared). Reported, not asserted: it is wall time on this
//!   box, and the number the delta/rebuild ratio leaves out.
//!
//! The acceptance bar is delta ≥ 10× cheaper than rebuild; the run fails
//! loudly if the smoke lake ever regresses below that.

use serde::Serialize;
use std::time::Instant;
use thetis::datalake::{EpochLake, Mutation};
use thetis::lsh::lsei::LseiMode;
use thetis::prelude::*;

use crate::context::Ctx;

/// Same cap as the smoke workload: CI wants seconds, not fidelity.
const MAX_SCALE: f64 = 0.002;

/// Remove+re-add cycles timed on the delta side.
const DELTA_ITERS: usize = 24;

/// Full rebuilds timed on the baseline side.
const REBUILD_ITERS: usize = 6;

/// Remove+re-add cycles timed on the commit side (two commits each).
const COMMIT_ITERS: usize = 24;

/// The acceptance ratio: a delta must be at least this much cheaper than a
/// rebuild on the smoke lake.
const MIN_SPEEDUP: f64 = 10.0;

#[derive(Serialize)]
struct DeltaSummary {
    tables: usize,
    entities: usize,
    delta_iters: usize,
    rebuild_iters: usize,
    /// Mean seconds for one single-table mutation (lake + LSEI patch).
    mean_delta_seconds: f64,
    /// Mean seconds for one full rebuild (postings + digests + LSEI).
    mean_rebuild_seconds: f64,
    /// `mean_rebuild_seconds / mean_delta_seconds`.
    speedup: f64,
    commit_iters: usize,
    /// Mean seconds for one single-mutation `EpochLake::commit` (snapshot
    /// fork + lake delta + publish; no LSEI, no journal).
    mean_commit_seconds: f64,
}

/// Runs the delta-vs-rebuild comparison.
pub fn run(ctx: &Ctx) -> String {
    let scale = ctx.scale.min(MAX_SCALE);
    eprintln!("[delta-maintenance] scale {scale}");
    let data = crate::context::BenchData::build(BenchmarkKind::Wt2015, scale, 4);
    let graph = &data.bench.kg.graph;
    let mut lake = data.bench.lake.clone();

    let cfg = LshConfig::recommended();
    let filter = TypeFilter::from_lake(&lake, graph, 0.5);
    let signer = || TypeSigner::new(graph, filter.clone(), cfg, 9);
    let mut lsei = Lsei::build(&lake, signer(), cfg, LseiMode::Entity);

    // A representative victim: the table with the median row count.
    let mut by_rows: Vec<(TableId, usize)> = lake.iter().map(|(id, t)| (id, t.n_rows())).collect();
    by_rows.sort_by_key(|&(_, n)| n);
    let mut victim = by_rows[by_rows.len() / 2].0;

    // Delta side: a full remove + re-add cycle is *two* mutations, so one
    // mutation costs half a cycle. The re-added table gets a fresh id at
    // the end of the lake (removed slots stay as tombstones), which is
    // exactly how deltas behave in production.
    let start = Instant::now();
    for _ in 0..DELTA_ITERS {
        let old = lake.remove_table(victim);
        lsei.remove_table(victim, &old);
        let id = lake.add_table(old);
        lsei.insert_table(id, lake.table(id));
        victim = id;
    }
    let mean_delta_seconds = start.elapsed().as_secs_f64() / (DELTA_ITERS * 2) as f64;

    // Rebuild side: what the same mutation costs without the delta paths —
    // postings and digests from scratch, then a full LSEI build.
    let start = Instant::now();
    for _ in 0..REBUILD_ITERS {
        let mut fresh = DataLake::from_tables(lake.tables().to_vec());
        fresh.rebuild_postings();
        let rebuilt = Lsei::build(&fresh, signer(), cfg, LseiMode::Entity);
        assert_eq!(
            rebuilt.parts().4,
            lsei.parts().4,
            "rebuild must cover the same tables"
        );
    }
    let mean_rebuild_seconds = start.elapsed().as_secs_f64() / REBUILD_ITERS as f64;

    // Commit side: the same cycle through the snapshot store, one commit
    // per mutation as the server issues them. The re-added table is copied
    // out of the snapshot outside the timer (a served add arrives with its
    // table).
    let tables = lake.len();
    let store = EpochLake::new(lake);
    let mut commit_time = std::time::Duration::ZERO;
    for _ in 0..COMMIT_ITERS {
        let table = store.pin().table(victim).clone();
        let start = Instant::now();
        store.commit(vec![Mutation::Remove(victim)]);
        store.commit(vec![Mutation::Add(table)]);
        commit_time += start.elapsed();
        victim = TableId::from_index(store.pin().len() - 1);
    }
    let mean_commit_seconds = commit_time.as_secs_f64() / (COMMIT_ITERS * 2) as f64;

    let speedup = mean_rebuild_seconds / mean_delta_seconds;
    let summary = DeltaSummary {
        tables,
        entities: graph.entity_count(),
        delta_iters: DELTA_ITERS * 2,
        rebuild_iters: REBUILD_ITERS,
        mean_delta_seconds,
        mean_rebuild_seconds,
        speedup,
        commit_iters: COMMIT_ITERS * 2,
        mean_commit_seconds,
    };
    let line = format!(
        "delta-maintenance: {} tables — delta {:.1}µs/mutation, rebuild {:.1}ms, \
         speedup {:.0}x; served commit {:.1}µs/mutation",
        summary.tables,
        mean_delta_seconds * 1e6,
        mean_rebuild_seconds * 1e3,
        speedup,
        mean_commit_seconds * 1e6,
    );
    ctx.write_json(&format!("delta_summary{}", ctx.thread_suffix()), &summary);
    println!("{line}");
    assert!(
        speedup >= MIN_SPEEDUP,
        "delta maintenance regressed: only {speedup:.1}x cheaper than a full \
         rebuild (acceptance bar is {MIN_SPEEDUP}x)"
    );
    line
}
