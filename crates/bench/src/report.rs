//! Report rendering: paper-style text tables and CSV/JSON result files.

use crate::runner::Cell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Render one K's worth of cells as a budget × algorithm table, mirroring
/// the figures' series (x-axis budget, one line per algorithm).
pub fn render_table(title: &str, cells: &[Cell]) -> String {
    let budgets: BTreeSet<usize> = cells.iter().map(|c| c.budget).collect();
    let mut algos: Vec<String> = Vec::new();
    for c in cells {
        if !algos.contains(&c.algorithm) {
            algos.push(c.algorithm.clone());
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = write!(out, "{:>10}", "budget");
    for a in &algos {
        let _ = write!(out, " | {a:>22}");
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:->10}", "");
    for _ in &algos {
        let _ = write!(out, "-+-{:->22}", "");
    }
    let _ = writeln!(out);
    for b in budgets {
        let _ = write!(out, "{b:>10}");
        for a in &algos {
            match cells.iter().find(|c| c.budget == b && &c.algorithm == a) {
                Some(c) if c.seeds > 1 => {
                    let _ = write!(out, " | {:>13.1}% ± {:>4.1}", c.mean_pct, c.std_pct);
                }
                Some(c) => {
                    let _ = write!(out, " | {:>15.1}%      ", c.mean_pct);
                }
                None => {
                    let _ = write!(out, " | {:>22}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// CSV rows for a list of cells (one file per experiment). Algorithm names
/// are quoted (ablation variant names contain commas).
pub fn to_csv(cells: &[Cell]) -> String {
    let mut out = String::from("algorithm,k,budget,mean_pct,std_pct,seeds,calls_used\n");
    for c in cells {
        let _ = writeln!(
            out,
            "\"{}\",{},{},{:.4},{:.4},{},{}",
            c.algorithm.replace('"', "\"\""),
            c.k,
            c.budget,
            c.mean_pct,
            c.std_pct,
            c.seeds,
            c.calls_used
        );
    }
    out
}

/// Write an experiment's CSV and JSON into `dir`. Each cell's summed
/// session counters ride in its `telemetry` object in `<name>.json`.
pub fn write_results(dir: &Path, name: &str, cells: &[Cell]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{name}.csv")), to_csv(cells))?;
    let json = serde_json::to_string_pretty(cells).expect("cells serialize");
    fs::write(dir.join(format!("{name}.json")), json)?;
    Ok(())
}

/// Render a simple two-column series (e.g. convergence traces).
pub fn render_series(title: &str, xlabel: &str, columns: &[(&str, &[f64])]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    let _ = write!(out, "{xlabel:>8}");
    for (name, _) in columns {
        let _ = write!(out, " | {name:>16}");
    }
    let _ = writeln!(out);
    let len = columns.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    for i in 0..len {
        let _ = write!(out, "{:>8}", i + 1);
        for (_, v) in columns {
            match v.get(i) {
                Some(x) => {
                    let _ = write!(out, " | {:>15.1}%", x);
                }
                None => {
                    let _ = write!(out, " | {:>16}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixtune_core::budget::SessionTelemetry;

    fn cells() -> Vec<Cell> {
        vec![
            Cell {
                algorithm: "A".into(),
                k: 5,
                budget: 100,
                mean_pct: 10.0,
                std_pct: 1.0,
                seeds: 5,
                calls_used: 100,
                telemetry: SessionTelemetry {
                    what_if_calls: 100,
                    cache_hits: 40,
                    derivations: 25,
                    other_calls: 100,
                    wall_clock_ms: 12.5,
                    ..SessionTelemetry::default()
                },
            },
            Cell {
                algorithm: "B".into(),
                k: 5,
                budget: 100,
                mean_pct: 20.0,
                std_pct: 0.0,
                seeds: 1,
                calls_used: 90,
                telemetry: SessionTelemetry::default(),
            },
        ]
    }

    #[test]
    fn table_contains_all_algorithms() {
        let t = render_table("test", &cells());
        assert!(t.contains("A"));
        assert!(t.contains("B"));
        assert!(t.contains("10.0"));
        assert!(t.contains("20.0"));
        assert!(t.contains("± "));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = to_csv(&cells());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("\"A\",5,100,"));
    }

    #[test]
    fn csv_quotes_commas_and_inner_quotes() {
        let mut cs = cells();
        cs[0].algorithm = "MCTS[UCT, fixed-step(0), \"BCE\"]".into();
        let csv = to_csv(&cs);
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("\"MCTS[UCT, fixed-step(0), \"\"BCE\"\"]\","));
    }

    #[test]
    fn write_results_creates_files() {
        let dir = std::env::temp_dir().join("ixtune-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        write_results(&dir, "t", &cells()).unwrap();
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["t.csv", "t.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_renders_rows() {
        let s = render_series("conv", "round", &[("X", &[1.0, 2.0][..])]);
        assert!(s.contains("round"));
        assert!(s.contains("2.0%"));
    }
}
