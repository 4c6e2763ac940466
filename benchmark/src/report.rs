//! Running workloads and printing what they measured: one table per
//! workload for people, one JSON object on the last line for tools, and
//! one result file per workload and seed under the output directory.

use std::path::{Path, PathBuf};

use serde_json::Value;

use crate::spec::{self, Metric};
use crate::trace;
use crate::workloads::{ingest, scan_cold, served, Cfg, Outcome};

pub fn run_workload(name: &str, cfg: &Cfg) -> Result<Outcome, String> {
    match name {
        "scan-cold" => Ok(scan_cold::run(cfg)),
        "lsei-embed" => Ok(served::run(&served::LSEI_EMBED, cfg)),
        "serve-hot" => Ok(served::run(&served::SERVE_HOT, cfg)),
        "ingest-mixed" => Ok(ingest::run(cfg)),
        other => Err(format!(
            "unknown workload {other:?}; choose one of {}",
            spec::WORKLOADS.map(|w| w.0).join(", ")
        )),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The metrics a run must print, by mode. A layer the workload does not
/// reach reads 0; a missing end-to-end metric is a bug in the workload.
fn listed(cfg: &Cfg) -> Vec<&'static Metric> {
    if cfg.trace {
        spec::traced().collect()
    } else {
        spec::END_TO_END.iter().collect()
    }
}

/// The object the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics exactly the ones listed for the mode.
fn result_line(cfg: &Cfg, out: &Outcome) -> Vec<(&'static str, Value)> {
    let metric = |m: &Metric| {
        let value = Value::Float(out.get(m.name).unwrap_or(0.0));
        (
            m.name,
            obj(vec![("value", value), ("unit", Value::Str(m.unit.into()))]),
        )
    };
    vec![
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", Value::UInt(out.attempted.max(1))),
        ("failed", Value::UInt(out.failed)),
        (
            "metrics",
            obj(listed(cfg).into_iter().map(metric).collect()),
        ),
    ]
}

/// `result_line` plus what `compare` and `selfcheck` need: which run it
/// was, what must repeat exactly, and the ingest-only end-to-end metrics
/// an untraced `ingest-mixed` run measures besides the listed ones.
fn run_record(name: &str, cfg: &Cfg, out: &Outcome) -> Value {
    let mut fields = vec![
        ("workload", Value::Str(name.into())),
        ("seed", Value::UInt(cfg.seed)),
        ("seconds", Value::Float(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        ("quick", Value::Bool(cfg.quick)),
        (
            "exact",
            obj(out
                .exact
                .iter()
                .map(|&(k, v)| (k, Value::UInt(v)))
                .collect()),
        ),
        (
            "rank_digest",
            out.rank_digest.clone().map_or(Value::Null, Value::Str),
        ),
        (
            "notes",
            Value::Array(out.notes.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    fields.extend(result_line(cfg, out));
    if !cfg.trace {
        if let Some((_, Value::Object(metrics))) = fields.last_mut() {
            for m in &spec::INGEST {
                if let Some(value) = out.get(m.name) {
                    let entry = obj(vec![
                        ("value", Value::Float(value)),
                        ("unit", Value::Str(m.unit.into())),
                    ]);
                    metrics.push((m.name.to_string(), entry));
                }
            }
        }
    }
    obj(fields)
}

fn print_table(name: &str, cfg: &Cfg, out: &Outcome) {
    let mode = match (cfg.trace, cfg.quick) {
        (true, _) => "traced: per-layer metrics",
        (false, false) => "tracing off: end-to-end metrics",
        (false, true) => "QUICK: a tenth of the ops, NOT comparable with full runs",
    };
    println!("== {name}  seed {}  {mode}", cfg.seed);
    for m in listed(cfg) {
        let Some(value) = out.get(m.name) else {
            continue;
        };
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
        println!(
            "  {:<40} {:>16.4} {:<6} {} is better{bound}",
            m.name,
            value,
            m.unit,
            m.better.as_str()
        );
    }
    if !cfg.trace {
        // The ingest-only end-to-end metrics ride along on untraced runs
        // too, for people; the driver's object has no room for them.
        for m in &spec::INGEST {
            if let Some(value) = out.get(m.name) {
                println!(
                    "  {:<40} {:>16.4} {:<6} (ingest-mixed only)",
                    m.name, value, m.unit
                );
            }
        }
    }
    let fail_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<40} {:>16.4} {:<6} {} failed of {} attempted",
        "fail_rate", fail_rate, "ratio", out.failed, out.attempted
    );
    for (k, v) in &out.exact {
        println!("  exact {k:<34} {v:>16}");
    }
    if let Some(d) = &out.rank_digest {
        println!("  rank_digest {d}");
    }
    for note in &out.notes {
        println!("  ! {note}");
    }
    if let Some(tr) = &out.trace {
        println!(
            "  {:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total ms", "self ms"
        );
        for (span, total, own, count) in trace::by_name(tr) {
            println!(
                "  {span:<28} {count:>8} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
}

/// Runs one workload, prints its table, and writes its record file (and
/// its Chrome trace on a traced run). Returns the object the driver
/// reads, and whether every check passed.
fn run_one(name: &str, cfg: &Cfg) -> Result<(Value, bool), String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let out = run_workload(name, cfg)?;
    print_table(name, cfg, &out);
    if let Some(tr) = &out.trace {
        let path = cfg.out.join(format!("trace-{name}.json"));
        trace::write_chrome(&path, tr).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  trace written to {}", path.display());
    }
    save(&record_path(name, cfg), &run_record(name, cfg, &out))?;
    Ok((obj(result_line(cfg, &out)), out.failed == 0))
}

fn save(path: &Path, value: &Value) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// `benchmark run`: one workload in this process (the driver's form — the
/// last line is its result object), or all four, `repeat` times over
/// consecutive seeds (the last line is the merged summary `compare`
/// reads, also saved as `summary.json`).
pub fn run(cfg: &Cfg, workload: Option<&str>, repeat: u64) -> Result<bool, String> {
    if let Some(name) = workload {
        let (line, correct) = run_one(name, cfg)?;
        println!(
            "{}",
            serde_json::to_string(&line).map_err(|e| e.to_string())?
        );
        return Ok(correct);
    }
    let mut runs = Vec::new();
    let mut correct = true;
    for i in 0..repeat {
        let cfg = Cfg {
            seed: cfg.seed + i,
            ..cfg.clone()
        };
        let (set, ok) = run_set(&cfg)?;
        runs.extend(set);
        correct &= ok;
    }
    let summary = obj(vec![("runs", Value::Array(runs))]);
    save(&cfg.out.join("summary.json"), &summary)?;
    println!(
        "{}",
        serde_json::to_string(&summary).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// All four workloads once; their records and whether all passed.
pub fn run_set(cfg: &Cfg) -> Result<(Vec<Value>, bool), String> {
    let mut runs = Vec::new();
    let mut correct = true;
    for (name, _) in spec::WORKLOADS {
        let (record, ok) = run_isolated(name, cfg)?;
        runs.push(record);
        correct &= ok;
    }
    Ok((runs, correct))
}

/// One workload in a process of its own, exactly as the driver runs it —
/// so peak memory, the allocator's state and the global metrics registry
/// of one run never leak into the next. The child prints its own table;
/// returns the record it wrote and whether it passed.
pub fn run_isolated(name: &str, cfg: &Cfg) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut child = std::process::Command::new(exe);
    child
        .args(["run", "--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out);
    if cfg.quick {
        child.arg("--quick");
    }
    let status = child
        .status()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let text = std::fs::read_to_string(record_path(name, cfg))
        .map_err(|e| format!("{name} left no result file: {e}"))?;
    let record = serde_json::from_str(&text).map_err(|e| format!("{name}: {e}"))?;
    Ok((record, status.success()))
}

fn record_path(name: &str, cfg: &Cfg) -> PathBuf {
    let suffix = if cfg.trace { "-trace" } else { "" };
    cfg.out.join(format!("{name}-{}{suffix}.json", cfg.seed))
}
