//! The repo benchmark: four workloads, socket-to-σ metrics, and a traced
//! per-layer run. See `benchmark/README.md`.

mod client;
mod compare;
mod report;
mod rng;
mod spec;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Cfg;

const USAGE: &str = "\
usage: benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
                       [--repeat N] [--out DIR]
       benchmark compare A.json B.json
       benchmark selfcheck [--seed N] [--seconds S] [--quick] [--out DIR]

run        every workload (or just W), tracing off: the end-to-end metrics.
           With --trace: the per-layer metrics and one Chrome trace each.
           The last line of stdout is one JSON object.
compare    two result sets (each a merged summary of several runs).
selfcheck  two back-to-back sets of the same code must agree.
workloads  scan-cold, lsei-embed, serve-hot, ingest-mixed";

struct Args {
    command: String,
    workload: Option<String>,
    files: Vec<String>,
    /// Sets to run, over consecutive seeds (all-workload runs only).
    repeat: u64,
    cfg: Cfg,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: "run".into(),
        workload: None,
        files: Vec::new(),
        repeat: 1,
        cfg: Cfg {
            seed: 12,
            seconds: 12.0,
            trace: false,
            quick: false,
            out: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            parsed.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.cfg.seconds = s;
            }
            "--trace" => {
                parsed.cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => parsed.cfg.quick = true,
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--out" => parsed.cfg.out = PathBuf::from(value("--out")?),
            other if !other.starts_with("--") => parsed.files.push(other.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "run" => report::run(&args.cfg, args.workload.as_deref(), args.repeat),
        "compare" => compare::compare(&args.files),
        "selfcheck" => compare::selfcheck(&args.cfg),
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
