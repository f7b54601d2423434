//! Regenerate the paper's tables and figures.
//!
//! Usage:
//! ```text
//! experiments [--quick] [--out DIR] [--seeds N] [--jobs N] <id>...
//! experiments all
//! experiments list
//! ```
//! `--jobs N` sets the number of sweep worker threads (default: all
//! cores; `--jobs 1` runs serially — results are identical either way).
//! Each tuning session runs on the worker thread that claimed it.
//! Experiment ids: `table1 fig2 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//! fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23`. An unknown
//! flag, a flag without its value or an unparsable number prints usage
//! and exits 2 before any experiment runs.

use ixtune_bench::figures::{self, ExpConfig};
use ixtune_core::RolloutPolicy;
use ixtune_workload::gen::BenchmarkKind;
use std::process::exit;
use std::str::FromStr;
use std::time::Instant;

const USAGE: &str = "usage: experiments [--quick] [--out DIR] [--seeds N] [--jobs N] <id>...
       experiments all | list";

/// Report a command-line error with the usage text and exit 2.
fn usage_error(error: &str) -> ! {
    eprintln!("{error}\n{USAGE}");
    exit(2)
}

/// `value` of flag `name` parsed as a number.
fn number<T: FromStr>(name: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{name}: expected a number, got `{value}`")))
}

const ALL: &[&str] = &[
    "table1", "fig2", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
];

/// Beyond-the-paper experiments, run on request (not part of `all`).
const EXTRAS: &[&str] = &["robustness", "extensions"];

fn run_one(id: &str, cfg: &ExpConfig) -> Option<String> {
    use BenchmarkKind::*;
    let out = match id {
        "table1" => figures::table1(cfg),
        "fig2" => figures::fig2(cfg),
        "fig8" => figures::greedy_comparison(TpcDs, "fig8", cfg),
        "fig9" => figures::greedy_comparison(RealD, "fig9", cfg),
        "fig10" => figures::greedy_comparison(RealM, "fig10", cfg),
        "fig11" => figures::rl_comparison(TpcDs, "fig11", cfg),
        "fig12" => figures::rl_comparison(RealD, "fig12", cfg),
        "fig13" => figures::rl_comparison(RealM, "fig13", cfg),
        "fig14" => {
            let mut s = figures::convergence(TpcDs, 10, 5_000, "fig14a", cfg);
            s.push_str(&figures::convergence(RealD, 10, 5_000, "fig14b", cfg));
            s.push_str(&figures::convergence(RealM, 20, 5_000, "fig14c", cfg));
            s
        }
        "fig15" => {
            let mut s = String::new();
            for (kind, tag) in [(TpcDs, "a"), (RealD, "b"), (RealM, "c")] {
                s.push_str(&figures::dta_comparison(
                    kind,
                    true,
                    &format!("fig15{tag}-sc"),
                    cfg,
                ));
                s.push_str(&figures::dta_comparison(
                    kind,
                    false,
                    &format!("fig15{tag}-nosc"),
                    cfg,
                ));
            }
            s
        }
        "fig16" => figures::greedy_comparison(Job, "fig16", cfg),
        "fig17" => figures::greedy_comparison(TpcH, "fig17", cfg),
        "fig18" => figures::rl_comparison(Job, "fig18", cfg),
        "fig19" => figures::rl_comparison(TpcH, "fig19", cfg),
        "fig20" => {
            let mut s = figures::dta_comparison(Job, false, "fig20a-nosc", cfg);
            s.push_str(&figures::dta_comparison(TpcH, true, "fig20b-sc", cfg));
            s.push_str(&figures::dta_comparison(TpcH, false, "fig20c-nosc", cfg));
            s
        }
        "fig21" => {
            let mut s = figures::convergence(Job, 10, 1_000, "fig21a", cfg);
            s.push_str(&figures::convergence(TpcH, 10, 1_000, "fig21b", cfg));
            s
        }
        "fig22" => {
            let mut s = String::new();
            for kind in BenchmarkKind::ALL {
                s.push_str(&figures::ablation(
                    kind,
                    RolloutPolicy::FixedStep(0),
                    &format!("fig22-{}", kind.name().to_lowercase()),
                    cfg,
                ));
            }
            s
        }
        "fig23" => {
            let mut s = String::new();
            for kind in BenchmarkKind::ALL {
                s.push_str(&figures::ablation(
                    kind,
                    RolloutPolicy::RandomStep,
                    &format!("fig23-{}", kind.name().to_lowercase()),
                    cfg,
                ));
            }
            s
        }
        "robustness" => {
            let mut s = String::new();
            for eps in [0.02, 0.10] {
                s.push_str(&figures::robustness(TpcH, eps, cfg));
            }
            s
        }
        "extensions" => {
            let mut s = figures::extensions(TpcH, cfg);
            s.push_str(&figures::extensions(TpcDs, cfg));
            s
        }
        _ => return None,
    };
    Some(out)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = ExpConfig::new("results");
    let mut quick = false;
    let mut ids: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => cfg.out_dir = value("--out").into(),
            "--seeds" => {
                let n: u64 = number("--seeds", &value("--seeds"));
                cfg.seeds = (1..=n).collect();
            }
            "--jobs" => cfg.jobs = number("--jobs", &value("--jobs")),
            "list" => {
                println!("available experiments: {}", ALL.join(" "));
                println!("extras (not in `all`): {}", EXTRAS.join(" "));
                return;
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag `{flag}`")),
            id => ids.push(id.to_string()),
        }
    }
    if quick {
        cfg = cfg.quick();
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }

    let started = Instant::now();
    for id in &ids {
        let t = Instant::now();
        match run_one(id, &cfg) {
            Some(text) => {
                println!("{text}");
                eprintln!("[{id} done in {:.1?}]", t.elapsed());
            }
            None => eprintln!("unknown experiment `{id}` — try `list`"),
        }
    }
    eprintln!(
        "all requested experiments finished in {:.1?}; results in {}",
        started.elapsed(),
        cfg.out_dir.display()
    );
}
