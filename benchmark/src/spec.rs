//! The benchmark's vocabulary: workloads and metrics, by name. The
//! root `BENCHMARK.json` repeats these tables for the driver; a unit test
//! keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before `compare` calls it a regression; `None` for layer metrics,
    /// which explain a change but do not gate it.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "scan-cold",
        "in-process brute-force scan of wt, every query once with a fresh memo: core does all the work, lsh and serve none",
    ),
    (
        "lsei-embed",
        "served embedding search over syn, every query new, one connection: LSEI reduction and sigma kernels decide latency and the shared memo does not fit",
    ),
    (
        "serve-hot",
        "two connections drawing Zipf from 16 specs over wt: the shared memo stays hot, so what remains is serve, the snapshot pin, memo probes and obs",
    ),
    (
        "ingest-mixed",
        "a journaled writer adding and removing tables beside a closed-loop reader over wt, then a crash and recovery: commits, WAL, checkpoints and LSEI deltas next to reads",
    ),
];

use Better::{Higher, Lower};

/// What a user of the system sees, on every workload, tracing off. The
/// bounds are three times the widest inter-quartile spread seen over ten
/// seeds on the two-core reference box (README, "First baseline"),
/// capped at the 25 % the driver allows.
pub const END_TO_END: [Metric; 6] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("search_p50_ms", "ms", Lower, 0.25),
    gated("search_p95_ms", "ms", Lower, 0.25),
    gated("search_qps", "1/s", Higher, 0.25),
    gated("ndcg10", "ratio", Higher, 0.2),
    gated("peak_rss_mb", "MiB", Lower, 0.05),
];

/// End-to-end on `ingest-mixed` only. The driver wants every end-to-end
/// metric from every workload, so `BENCHMARK.json` carries these under
/// `per_layer`; `compare` applies the bounds here all the same.
pub const INGEST: [Metric; 3] = [
    gated("ingest.commit_p50_ms", "ms", Lower, 0.25),
    gated("ingest.commit_p90_ms", "ms", Lower, 0.25),
    gated("ingest.recover_s", "s", Lower, 0.25),
];

/// One layer each, from the traced run. A layer the workload never
/// reaches reports 0.
pub const PER_LAYER: [Metric; 61] = [
    layer("corpus.generate_s", "s", Lower),
    layer("corpus.tables", "count", Higher),
    layer("corpus.rows", "count", Higher),
    layer("datalake.link_s", "s", Lower),
    layer("datalake.index_s", "s", Lower),
    layer("datalake.pin_ns", "ns", Lower),
    layer("datalake.commit_ms", "ms", Lower),
    layer("datalake.wal_append_ms", "ms", Lower),
    layer("datalake.wal_bytes_per_commit", "bytes", Lower),
    layer("datalake.checkpoint_ms", "ms", Lower),
    layer("datalake.checkpoint_bytes", "bytes", Lower),
    layer("datalake.read_checkpoint_ms", "ms", Lower),
    layer("datalake.replay_ms", "ms", Lower),
    layer("datalake.replay_records", "count", Lower),
    layer("embedding.train_s", "s", Lower),
    layer("embedding.sigma_ns_per_pair.f64", "ns", Lower),
    layer("embedding.sigma_ns_per_pair.f32", "ns", Lower),
    layer("embedding.sigma_ns_per_pair.i8", "ns", Lower),
    layer("embedding.slab_bytes", "bytes", Lower),
    layer("lsh.build_s", "s", Lower),
    layer("lsh.prefilter_us", "us", Lower),
    layer("lsh.candidates_per_query", "count", Lower),
    layer("lsh.reduction", "ratio", Higher),
    layer("lsh.clone_ms", "ms", Lower),
    layer("lsh.insert_us", "us", Lower),
    layer("lsh.remove_us", "us", Lower),
    layer("lsh.first_prefilter_after_mutation_us", "us", Lower),
    layer("lsh.snapshot_bytes", "bytes", Lower),
    layer("lsh.save_ms", "ms", Lower),
    layer("lsh.load_ms", "ms", Lower),
    layer("core.search_among_ms", "ms", Lower),
    layer("core.engine_new_us", "us", Lower),
    layer("core.sigma_computed_per_query", "count", Lower),
    layer("core.sigma_cached_per_query", "count", Higher),
    layer("core.sigma_hit_rate", "ratio", Higher),
    layer("core.tables_scored_per_query", "count", Lower),
    layer("core.tables_pruned_per_query", "count", Higher),
    layer("core.mapping_ms_per_query", "ms", Lower),
    layer("core.agg_ms_per_query", "ms", Lower),
    layer("core.scoring_ms_per_query", "ms", Lower),
    layer("core.unattributed_share", "ratio", Lower),
    layer("core.exhaustive_ratio", "ratio", Lower),
    layer("core.threads2_speedup", "ratio", Higher),
    layer("core.informativeness_ms", "ms", Lower),
    layer("serve.boot_s", "s", Lower),
    layer("serve.parse_us", "us", Lower),
    layer("serve.handle_ms", "ms", Lower),
    layer("serve.micros_ms", "ms", Lower),
    layer("serve.encode_us", "us", Lower),
    layer("serve.wire_overhead_ms", "ms", Lower),
    layer("serve.commit_handle_ms", "ms", Lower),
    layer("serve.commit_unattributed_share", "ratio", Lower),
    layer("serve.memo_hit_rate", "ratio", Higher),
    layer("serve.memo_evictions", "count", Lower),
    layer("serve.memo_invalidations", "count", Lower),
    layer("serve.shed", "count", Lower),
    layer("serve.degraded", "count", Lower),
    layer("serve.drain_s", "s", Lower),
    layer("obs.tax_share", "ratio", Lower),
    layer("trace_overhead_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

/// Every metric a traced run prints: the layers, then the ingest-only
/// end-to-end ones.
pub fn traced() -> impl Iterator<Item = &'static Metric> {
    PER_LAYER.iter().chain(INGEST.iter())
}

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(traced()).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    use serde_json::Value;

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json: Value = serde_json::from_str(&text).expect("valid JSON");
        let list = |key: &str| json[key].as_array().cloned().unwrap_or_default();

        let names: Vec<_> = list("workloads")
            .iter()
            .map(|w| w["name"].as_str().unwrap_or("").to_string())
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.0.to_string()));
        for (w, ours) in list("workloads").iter().zip(WORKLOADS) {
            assert_eq!(w["why"].as_str(), Some(ours.1));
            assert!(ours.1.len() <= 200 && !ours.1.contains('\n'));
        }

        let check = |key: &str, ours: Vec<&Metric>, bounded: bool| {
            let theirs = list(key);
            assert_eq!(theirs.len(), ours.len(), "{key} length");
            for (t, m) in theirs.iter().zip(ours) {
                assert_eq!(t["name"].as_str(), Some(m.name), "{key}");
                assert_eq!(t["unit"].as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(t["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
                let bound = if bounded { m.bound } else { None };
                assert_eq!(t["bound"].as_f64(), bound, "{}", m.name);
            }
        };
        check("end_to_end", END_TO_END.iter().collect(), true);
        check("per_layer", traced().collect(), false);
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(traced()) {
            assert!(ok(m.name, "_.-", 64), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(m.unit, "_/%.-", 16), "unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(traced().count() <= 128);
    }
}
