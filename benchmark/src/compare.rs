//! `compare`: two result sets, one row per workload and metric, by the
//! rules a performance claim has to meet. `selfcheck`: two sets of the
//! same code must agree.
//!
//! A result set is the merged summary `benchmark run` prints last and
//! saves as `out/summary.json`: `{"runs": [...]}`, one record per workload
//! and seed. Runs of a workload pair up in file order, so both sides
//! should come from the same `--seed` and `--repeat`.

use serde_json::Value;

use crate::report;
use crate::spec::{self, Better, Metric};
use crate::stats;
use crate::workloads::Cfg;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better, B won nine pairs in ten, and the medians
    /// differ by more than A's own inter-quartile spread.
    Gain,
    /// B's median is not worse than A's by more than the bound.
    Same,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A's own spread exceeds the bound: nothing can be said either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Same => "same",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub a_median: f64,
    pub b_median: f64,
    /// B against A as a share of A's median; positive is worse.
    pub worse_by: f64,
    /// A's inter-quartile distance as a share of its median (`None` with
    /// a single run, where no spread can be taken).
    pub spread: Option<f64>,
    pub b_wins: usize,
    pub a_wins: usize,
    pub verdict: Verdict,
}

/// Judges metric `m` from paired runs `a[i]`, `b[i]`.
pub fn judge(m: &Metric, a: &[f64], b: &[f64]) -> Row {
    let bound = m.bound.expect("only gated metrics are judged");
    let (a_median, b_median) = (stats::median(a), stats::median(b));
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (b_median - a_median) / a_median.abs();
    let iqr = (a.len() >= 2).then(|| {
        let (q1, q3) = stats::quartiles(a);
        q3 - q1
    });
    let spread = iqr.map(|d| d / a_median.abs());
    let pairs = a.iter().zip(b);
    let b_wins = pairs
        .clone()
        .filter(|(x, y)| sign * (*y - *x) < 0.0)
        .count();
    let a_wins = pairs
        .clone()
        .filter(|(x, y)| sign * (*y - *x) > 0.0)
        .count();
    let n = a.len().min(b.len());
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else if n >= 10
        && b_wins * 10 >= n * 9
        && iqr.is_some_and(|d| (b_median - a_median).abs() > d)
    {
        Verdict::Gain
    } else {
        Verdict::Same
    };
    Row {
        a_median,
        b_median,
        worse_by,
        spread,
        b_wins,
        a_wins,
        verdict,
    }
}

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json: Value = serde_json::from_str(text.trim()).map_err(|e| format!("{path}: {e}"))?;
    match json.get("runs").and_then(Value::as_array) {
        Some(runs) => Ok(runs.clone()),
        // A single run's result file is a set of one.
        None if json.get("workload").is_some() => Ok(vec![json]),
        None => Err(format!("{path}: neither a summary nor a run record")),
    }
}

fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r["workload"].as_str() == Some(workload))
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

/// The metrics `compare` gates: the end-to-end ones everywhere, and the
/// ingest-only ones wherever a record carries them.
fn gated() -> impl Iterator<Item = &'static Metric> {
    spec::END_TO_END.iter().chain(spec::INGEST.iter())
}

fn table(a: &[Value], b: &[Value]) -> bool {
    println!(
        "{:<13} {:<22} {:>12} {:>12} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound", "spread", "B wins"
    );
    let mut clean = true;
    for (workload, _) in spec::WORKLOADS {
        for m in gated() {
            let (xs, ys) = (values(a, workload, m.name), values(b, workload, m.name));
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let row = judge(m, &xs, &ys);
            clean &= row.verdict != Verdict::Regression;
            println!(
                "{workload:<13} {:<22} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}% {:>7} {:>4}/{:<2}  {}",
                m.name,
                row.a_median,
                row.b_median,
                row.worse_by * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                row.spread
                    .map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0)),
                row.b_wins,
                row.b_wins + row.a_wins,
                row.verdict.as_str()
            );
        }
        let failed = |runs: &[Value]| -> u64 {
            runs.iter()
                .filter(|r| r["workload"].as_str() == Some(workload))
                .filter_map(|r| r["failed"].as_u64())
                .sum()
        };
        if failed(a) + failed(b) > 0 {
            clean = false;
            println!(
                "{workload:<13} failed ops: A {}, B {}",
                failed(a),
                failed(b)
            );
        }
    }
    clean
}

pub fn compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes two result files: A.json B.json".into());
    };
    Ok(table(&load(a)?, &load(b)?))
}

/// What must repeat exactly between two runs of one workload and seed.
fn exact_mismatches(a: &Value, b: &Value) -> Vec<String> {
    let mut out = Vec::new();
    if a["rank_digest"].as_str() != b["rank_digest"].as_str() {
        out.push(format!(
            "rank_digest {:?} vs {:?}",
            a["rank_digest"].as_str(),
            b["rank_digest"].as_str()
        ));
    }
    if let Value::Object(fields) = &a["exact"] {
        for (k, v) in fields {
            if v.as_u64() != b["exact"][k.as_str()].as_u64() {
                out.push(format!(
                    "{k} {:?} vs {:?}",
                    v.as_u64(),
                    b["exact"][k.as_str()].as_u64()
                ));
            }
        }
    }
    out
}

/// Gated metrics of one workload on which runs `x` and `y` lie further
/// apart than the bound, printing one row per metric.
fn apart(workload: &str, x: &Value, y: &Value) -> Vec<&'static str> {
    let mut out = Vec::new();
    for m in gated() {
        let value = |r: &Value| r["metrics"][m.name]["value"].as_f64();
        let (Some(p), Some(q), Some(bound)) = (value(x), value(y), m.bound) else {
            continue;
        };
        let share = (q - p).abs() / p.abs();
        if share > bound {
            out.push(m.name);
        }
        println!(
            "{workload:<13} {:<22} {p:>12.4} {q:>12.4} {:>6.1}% of {:>3.0}%  {}",
            m.name,
            share * 100.0,
            bound * 100.0,
            if share > bound { "APART" } else { "ok" }
        );
    }
    out
}

/// Two back-to-back sets of the same code: every gated metric must agree
/// within its bound, and rank digests and exact counts must be identical.
/// A single pair of runs on a shared two-core box now and then differs by
/// more than a bound on one timing, so a workload that disagrees runs a
/// third time and passes if that run agrees with either of the first two;
/// exact fields get no second chance.
pub fn selfcheck(cfg: &Cfg) -> Result<bool, String> {
    let cfg = Cfg {
        trace: false,
        ..cfg.clone()
    };
    let first = report::run_set(&cfg)?;
    let second = report::run_set(&cfg)?;
    let mut ok = first.1 && second.1;
    println!("== selfcheck: second set against first");
    for (x, y) in first.0.iter().zip(&second.0) {
        let workload = x["workload"].as_str().unwrap_or("?");
        for miss in exact_mismatches(x, y) {
            ok = false;
            println!("{workload:<13} NOT EXACT: {miss}");
        }
        let disputed = apart(workload, x, y);
        if disputed.is_empty() {
            continue;
        }
        println!("{workload:<13} third run to settle {disputed:?}");
        let (z, passed) = report::run_isolated(workload, &cfg)?;
        ok &= passed && exact_mismatches(x, &z).is_empty();
        let (vs_first, vs_second) = (apart(workload, x, &z), apart(workload, y, &z));
        for name in disputed {
            if vs_first.contains(&name) && vs_second.contains(&name) {
                ok = false;
                println!("{workload:<13} {name}: three runs, no two agree");
            }
        }
    }
    println!("selfcheck {}", if ok { "green" } else { "RED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: Metric = Metric {
        name: "search_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.10),
    };
    const RATE: Metric = Metric {
        name: "search_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.10),
    };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn a_clear_win_is_a_gain_and_a_clear_loss_a_regression() {
        let a = around(100.0, 0.2);
        let win = judge(&LATENCY, &a, &around(80.0, 0.2));
        assert_eq!(win.verdict, Verdict::Gain);
        assert_eq!((win.b_wins, win.a_wins), (10, 0));
        assert_eq!(
            judge(&LATENCY, &a, &around(115.0, 0.2)).verdict,
            Verdict::Regression
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&RATE, &a, &around(80.0, 0.2)).verdict,
            Verdict::Regression
        );
        assert_eq!(judge(&RATE, &a, &around(120.0, 0.2)).verdict, Verdict::Gain);
    }

    #[test]
    fn inside_the_bound_is_the_same_and_a_noisy_baseline_is_unresolved() {
        let a = around(100.0, 0.2);
        // 5% worse: inside the 10% bound.
        assert_eq!(
            judge(&LATENCY, &a, &around(105.0, 0.2)).verdict,
            Verdict::Same
        );
        // Better, but by less than A's own quartile distance.
        let wide = around(100.0, 1.5);
        assert_eq!(
            judge(&LATENCY, &wide, &around(98.0, 1.5)).verdict,
            Verdict::Same
        );
        // A's spread alone exceeds the bound.
        let noisy = around(100.0, 4.0);
        let row = judge(&LATENCY, &noisy, &around(60.0, 0.2));
        assert!(row.spread.unwrap() > 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let row = judge(&LATENCY, &[100.0, 101.0, 99.0], &[50.0, 51.0, 49.0]);
        assert_eq!(row.verdict, Verdict::Same);
        let single = judge(&LATENCY, &[100.0], &[120.0]);
        assert_eq!(single.spread, None);
        assert_eq!(single.verdict, Verdict::Regression);
    }

    #[test]
    fn exact_fields_must_match() {
        let rec = |digest: &str, n: u64| {
            serde_json::from_str::<Value>(&format!(
                r#"{{"rank_digest":"{digest}","exact":{{"candidates":{n}}}}}"#
            ))
            .unwrap()
        };
        assert!(exact_mismatches(&rec("ab", 5), &rec("ab", 5)).is_empty());
        assert_eq!(exact_mismatches(&rec("ab", 5), &rec("cd", 6)).len(), 2);
    }
}
