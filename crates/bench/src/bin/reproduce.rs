//! `reproduce` — regenerate every table and figure of the Thetis paper on
//! scaled synthetic corpora.
//!
//! ```sh
//! cargo run --release -p thetis-bench --bin reproduce -- all
//! cargo run --release -p thetis-bench --bin reproduce -- fig4 --scale 0.01
//! ```
//!
//! Subcommands: `table2`, `fig4`, `fig5`, `table3` (includes Table 4),
//! `scoring-cost`, `scaling`, `other-corpora` (WT2019 + GitTables),
//! `fig6`, `agg-ablation`, `bm25-prefilter`, `noisy-linking`,
//! `sim-ablation`, `relaxation`, `delta-maintenance`, `serve`, `all`.
//!
//! Flags: `--scale <f64>` (default 0.01 — 1/100 of each paper corpus),
//! `--queries <n>` (default 50), `--out <dir>` (default `results/`,
//! created on the first write), `--connect <host:port>` (`serve` only).

use std::path::PathBuf;
use std::process::ExitCode;

use thetis_bench::experiments;
use thetis_bench::Ctx;

const USAGE: &str = "usage: reproduce <experiment> [--scale F] [--queries N] [--out DIR]
                     [--connect HOST:PORT]
experiments:
  table2         Table 2   corpus statistics (all four corpora)
  fig4           Figure 4  NDCG@10: STST/STSE, 6 LSH configs, BM25, union search
  fig5           Figure 5  recall@100/200 incl. STSTC/STSEC combinations
  table3         Tables 3+4  runtime and search-space reduction per LSH config
  scoring-cost   §7.3      per-table scoring cost, share spent in μ(T,Q)
  scaling        §7.4      synthetic corpora scaling (3 sizes)
  other-corpora  §7.4      WT2019 and GitTables measurements
  fig6           Figure 6  NDCG@10 vs entity-link coverage caps
  agg-ablation   §7.2      row aggregation max vs avg
  bm25-prefilter §7.3      BM25 as prefilter vs LSH
  noisy-linking  §7.5      degraded-linker robustness
  sim-ablation   §8        all four σ instantiations head to head
  relaxation     §8        query relaxation on over-specialized queries
  delta-maintenance CI     incremental mutation vs full rebuild microbench
  serve          CI        open-loop functional run of the resident query
                           service (in-process, or an external server
                           via --connect HOST:PORT)
  all            run every paper artifact above (table2 to relaxation)

Performance is measured by the repository benchmark (benchmark/run.sh).";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    let mut scale = 0.01f64;
    let mut queries = 50usize;
    let mut out = PathBuf::from("results");
    let mut connect: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a float"));
                i += 2;
            }
            "--queries" => {
                queries = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--queries needs an integer"));
                i += 2;
            }
            "--out" => {
                out = args
                    .get(i + 1)
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a path"));
                i += 2;
            }
            "--connect" => {
                connect = args
                    .get(i + 1)
                    .cloned()
                    .or_else(|| die("--connect needs HOST:PORT"));
                i += 2;
            }
            other => die(&format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if !(0.0..=1.0).contains(&scale) || scale <= 0.0 {
        die("--scale must be in (0, 1]");
    }

    let ctx = Ctx::new(scale, queries, out).with_connect(connect);
    let start = std::time::Instant::now();
    let known = run_experiment(&ctx, &command);
    if !known {
        eprintln!("unknown experiment {command:?}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    eprintln!("[done] {command} in {:.1}s", start.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

fn run_experiment(ctx: &Ctx, command: &str) -> bool {
    match command {
        "table2" => experiments::table2::run(ctx),
        "fig4" => experiments::fig4::run(ctx),
        "fig5" => experiments::fig5::run(ctx),
        "table3" | "table4" => experiments::table3::run(ctx),
        "scoring-cost" => experiments::scoring_cost::run(ctx),
        "scaling" => experiments::scaling::run(ctx),
        "other-corpora" | "wt2019" | "gittables" => experiments::other_corpora::run(ctx),
        "fig6" => experiments::fig6::run(ctx),
        "agg-ablation" => experiments::ablations::agg_ablation(ctx),
        "bm25-prefilter" => experiments::ablations::bm25_prefilter_ablation(ctx),
        "noisy-linking" => experiments::ablations::noisy_linking(ctx),
        "sim-ablation" => experiments::extensions::sim_ablation(ctx),
        "relaxation" => experiments::extensions::relaxation(ctx),
        "delta-maintenance" | "delta" => experiments::delta::run(ctx),
        "serve" => experiments::serve_bench::run(ctx),
        "all" => {
            for cmd in [
                "table2",
                "fig4",
                "fig5",
                "table3",
                "scoring-cost",
                "scaling",
                "other-corpora",
                "fig6",
                "agg-ablation",
                "bm25-prefilter",
                "noisy-linking",
                "sim-ablation",
                "relaxation",
            ] {
                eprintln!("\n===== {cmd} =====");
                run_experiment(ctx, cmd);
            }
            String::new()
        }
        _ => return false,
    };
    true
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
