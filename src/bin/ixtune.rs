//! `ixtune` — command-line front end for budget-aware index tuning.
//!
//! ```text
//! ixtune stats <workload>
//! ixtune candidates <workload> [--limit N]
//! ixtune tune <workload> [--algo NAME] [--budget B] [--k K]
//!                        [--seed S] [--storage-gb G]
//! ixtune compress [--instances N]
//! ```
//!
//! `<workload>` ∈ {tpch, tpcds, job, reald, realm}. Algorithms:
//! `mcts` (default), `vanilla`, `two-phase`, `autoadmin`, `bandits`,
//! `nodba`, `dta`. A bad command line — unknown command, workload,
//! algorithm or flag, a flag without its value, an unparsable number —
//! prints usage and exits 2 before any work starts.

use ixtune::baselines::{DbaBandits, DtaTuner, NoDba};
use ixtune::candidates::generate_default;
use ixtune::core::prelude::*;
use ixtune::optimizer::{CostModel, SimulatedOptimizer};
use ixtune::workload::compress::compress;
use ixtune::workload::gen::{tpch, BenchmarkKind};
use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

/// Print `error` and the usage text; a bad command line exits 2.
fn usage(error: &str) -> ExitCode {
    eprintln!(
        "{error}\n\
         usage:\n  \
         ixtune stats <workload>\n  \
         ixtune candidates <workload> [--limit N]\n  \
         ixtune tune <workload> [--algo mcts|vanilla|two-phase|autoadmin|bandits|nodba|dta]\n\
         \x20                   [--budget B] [--k K] [--seed S] [--storage-gb G]\n  \
         ixtune compress [--instances N]\n\n\
         workloads: tpch tpcds job reald realm"
    );
    ExitCode::from(2)
}

/// Parse `--name value` pairs, accepting only the flags in `allowed`.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--").filter(|n| allowed.contains(n)) else {
            return Err(format!("unknown argument `{arg}`"));
        };
        let Some(value) = args.next() else {
            return Err(format!("{arg} requires a value"));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

/// The value of `--name` parsed as `T`, or `default` when the flag is absent.
fn flag<T: FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: expected a number, got `{v}`")),
    }
}

fn workload(arg: Option<&String>) -> Result<BenchmarkKind, String> {
    let arg = arg.ok_or("missing <workload>")?;
    BenchmarkKind::parse(arg).ok_or_else(|| format!("unknown workload `{arg}`"))
}

fn tuner_by_name(name: &str) -> Option<Box<dyn Tuner>> {
    match name {
        "mcts" => Some(Box::new(MctsTuner::default())),
        "vanilla" => Some(Box::new(VanillaGreedy)),
        "two-phase" | "twophase" => Some(Box::new(TwoPhaseGreedy)),
        "autoadmin" => Some(Box::new(AutoAdminGreedy)),
        "bandits" => Some(Box::new(DbaBandits::default())),
        "nodba" => Some(Box::new(NoDba::default())),
        "dta" => Some(Box::new(DtaTuner)),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => usage(&error),
    }
}

/// Run one command; `Err` is a command-line error, reported before any
/// work starts.
fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };

    match cmd.as_str() {
        "stats" => {
            let kind = workload(args.get(1))?;
            parse_flags(&args[2..], &[])?;
            let inst = kind.generate();
            println!("{}", inst.stats());
        }
        "candidates" => {
            let kind = workload(args.get(1))?;
            let flags = parse_flags(&args[2..], &["limit"])?;
            let limit: usize = flag(&flags, "limit", 40)?;
            let inst = kind.generate();
            let cands = generate_default(&inst);
            println!(
                "{} candidate indexes for {} ({} query-index pairs):",
                cands.len(),
                kind.name(),
                cands.num_query_index_pairs()
            );
            for idx in cands.indexes.iter().take(limit) {
                println!(
                    "  {}  (~{} MB)",
                    idx.describe(&inst.schema),
                    idx.size_bytes(&inst.schema) / (1 << 20)
                );
            }
            if cands.len() > limit {
                println!("  … {} more (raise --limit)", cands.len() - limit);
            }
        }
        "tune" => {
            let kind = workload(args.get(1))?;
            let flags = parse_flags(&args[2..], &["algo", "budget", "k", "seed", "storage-gb"])?;
            let algo = flags.get("algo").map(String::as_str).unwrap_or("mcts");
            let tuner = tuner_by_name(algo).ok_or_else(|| format!("unknown algorithm `{algo}`"))?;
            let budget: usize = flag(
                &flags,
                "budget",
                kind.budget_grid()[kind.budget_grid().len() / 2],
            )?;
            let k: usize = flag(&flags, "k", 10)?;
            let seed: u64 = flag(&flags, "seed", 1)?;
            let storage_gb: Option<f64> = flags
                .contains_key("storage-gb")
                .then(|| flag(&flags, "storage-gb", 0.0))
                .transpose()?;
            let inst = kind.generate();
            let cands = generate_default(&inst);
            let opt = SimulatedOptimizer::new(inst, cands.indexes.clone(), CostModel::default());
            let ctx = TuningContext::new(&opt, &cands);
            let constraints = match storage_gb {
                Some(gb) => Constraints::with_storage(k, (gb * (1u64 << 30) as f64) as u64),
                None => Constraints::cardinality(k),
            };

            let req = TuningRequest::new(constraints, budget).with_seed(seed);
            let start = std::time::Instant::now();
            let result = tuner.tune(&ctx, &req);
            println!(
                "{} on {} (K={k}, B={budget}, seed={seed}): {:.1}% improvement, {} calls, {:.2?}",
                result.algorithm,
                kind.name(),
                result.improvement_pct(),
                result.calls_used,
                start.elapsed()
            );
            for id in result.config.iter() {
                let idx = opt.candidate(id);
                println!(
                    "  CREATE INDEX ... {}  (~{} MB)",
                    idx.describe(opt.schema()),
                    idx.size_bytes(opt.schema()) / (1 << 20)
                );
            }
            println!(
                "total index size ~{} MB; budget spent on {} configurations × {} queries",
                opt.config_size_bytes(&result.config) / (1 << 20),
                result.layout.distinct_configurations(),
                result.layout.distinct_queries()
            );
        }
        "compress" => {
            let flags = parse_flags(&args[1..], &["instances"])?;
            let instances: usize = flag(&flags, "instances", 5)?;
            let multi = tpch::generate_multi(1.0, instances, 7);
            let c = compress(&multi.workload);
            println!(
                "TPC-H multi-instance: {} instances → {} templates (ratio {:.1}x)",
                c.original_len,
                c.workload.len(),
                c.ratio()
            );
            for (q, &size) in c.workload.queries.iter().zip(&c.cluster_sizes) {
                println!("  {:<8} {} instances, weight {}", q.name, size, q.weight);
            }
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}
