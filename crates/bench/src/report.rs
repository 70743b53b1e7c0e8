//! Text and CSV rendering of regenerated tables and figures.

use std::fmt::Write as _;

use crate::efficiency::EfficiencyFigure;
use crate::tables::{ComparisonTable, RedundancyTable};

/// The row lines of section `section` (a JSON array with one object per
/// line) of the bench snapshot at `path`; empty when the file or the
/// section is missing. Benches that rewrite their `"after"` rows use it
/// to carry the `"before"` rows over.
pub fn snapshot_rows(path: &str, section: &str) -> Vec<String> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let header = format!("\"{section}\": [");
    existing
        .lines()
        .skip_while(|line| line.trim() != header)
        .skip(1)
        .take_while(|line| !line.trim().starts_with(']'))
        .map(|line| line.trim().trim_matches(',').trim().to_string())
        .filter(|line| !line.is_empty())
        .collect()
}

/// Renders a comparison table in the paper's layout.
pub fn render_comparison(table: &ComparisonTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", table.title);
    let _ = writeln!(
        out,
        "{:>5}  {:<12} {:>10} {:>14} {:>6}  ({} trials/row)",
        "n",
        table.algo_column,
        "cycle",
        "maxcck",
        "%",
        table.rows.first().map(|r| r.agg.trials).unwrap_or(0)
    );
    let mut last_n = None;
    for row in &table.rows {
        if last_n.is_some() && last_n != Some(row.n) {
            let _ = writeln!(out, "{}", "-".repeat(56));
        }
        last_n = Some(row.n);
        let _ = writeln!(
            out,
            "{:>5}  {:<12} {:>10.1} {:>14.1} {:>5.0}%",
            row.n, row.label, row.agg.mean_cycles, row.agg.mean_maxcck, row.agg.percent_solved
        );
    }
    out
}

/// Renders a comparison table as CSV.
pub fn comparison_csv(table: &ComparisonTable) -> String {
    let mut out = String::from("n,algorithm,cycle,maxcck,percent_solved,trials\n");
    for row in &table.rows {
        let _ = writeln!(
            out,
            "{},{},{:.3},{:.3},{:.3},{}",
            row.n,
            row.label,
            row.agg.mean_cycles,
            row.agg.mean_maxcck,
            row.agg.percent_solved,
            row.agg.trials
        );
    }
    out
}

/// Renders Table 4 in the paper's layout.
pub fn render_redundancy(table: &RedundancyTable) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", table.title);
    let _ = writeln!(
        out,
        "{:>8} {:>5} {:>12} {:>12}",
        "problem", "n", "Rslv/rec", "Rslv/norec"
    );
    let mut last_family = "";
    for row in &table.rows {
        if !last_family.is_empty() && last_family != row.family {
            let _ = writeln!(out, "{}", "-".repeat(40));
        }
        last_family = row.family;
        let _ = writeln!(
            out,
            "{:>8} {:>5} {:>12.1} {:>12.1}",
            row.family, row.n, row.rec, row.norec
        );
    }
    out
}

/// Renders Table 4 as CSV.
pub fn redundancy_csv(table: &RedundancyTable) -> String {
    let mut out = String::from("family,n,rslv_rec,rslv_norec\n");
    for row in &table.rows {
        let _ = writeln!(
            out,
            "{},{},{:.3},{:.3}",
            row.family, row.n, row.rec, row.norec
        );
    }
    out
}

/// Renders an efficiency figure (Figure 2) as text: the underlying
/// means, the sampled series, and the crossover.
pub fn render_efficiency(fig: &EfficiencyFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== figure2: estimated efficiency on {} n={} (1 nogood check = 1 time-unit) ==",
        fig.family, fig.n
    );
    let _ = writeln!(
        out,
        "{:<12} cycle {:>9.1}  maxcck {:>11.1}",
        fig.awc_label, fig.awc_cycles, fig.awc_maxcck
    );
    let _ = writeln!(
        out,
        "{:<12} cycle {:>9.1}  maxcck {:>11.1}",
        "DB", fig.db_cycles, fig.db_maxcck
    );
    let _ = writeln!(out, "{:>7} {:>14} {:>14}", "delay", fig.awc_label, "DB");
    for p in &fig.points {
        let marker = if p.awc < p.db { "  <- AWC wins" } else { "" };
        let _ = writeln!(out, "{:>7} {:>14.0} {:>14.0}{marker}", p.delay, p.awc, p.db);
    }
    match fig.crossover {
        Some(d) => {
            let _ = writeln!(
                out,
                "crossover: {} becomes more efficient past a delay of ≈ {d:.0} time-units",
                fig.awc_label
            );
        }
        None => {
            let _ = writeln!(out, "no crossover in this regime");
        }
    }
    out
}

/// Renders an efficiency figure as CSV.
pub fn efficiency_csv(fig: &EfficiencyFigure) -> String {
    let mut out = String::from("delay,awc_time_units,db_time_units\n");
    for p in &fig.points {
        let _ = writeln!(out, "{},{:.3},{:.3}", p.delay, p.awc, p.db);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::EfficiencyPoint;
    use crate::tables::{RedundancyRow, Row};
    use discsp_core::Aggregate;

    fn sample_comparison() -> ComparisonTable {
        let agg = Aggregate {
            trials: 4,
            mean_cycles: 83.25,
            mean_maxcck: 58084.4,
            percent_solved: 100.0,
            mean_redundant: 0.0,
            mean_messages: 120.0,
        };
        ComparisonTable {
            id: "table1",
            title: "table1: test".into(),
            algo_column: "learn",
            rows: vec![
                Row {
                    n: 60,
                    label: "Rslv".into(),
                    agg,
                },
                Row {
                    n: 90,
                    label: "Rslv".into(),
                    agg,
                },
            ],
        }
    }

    #[test]
    fn comparison_rendering() {
        let text = render_comparison(&sample_comparison());
        assert!(text.contains("table1: test"));
        assert!(text.contains("83.2"));
        assert!(text.contains("100%"));
        // Separator between n groups.
        assert!(text.contains("----"));
        let csv = comparison_csv(&sample_comparison());
        assert!(csv.starts_with("n,algorithm"));
        assert!(csv.contains("60,Rslv,83.250"));
    }

    #[test]
    fn redundancy_rendering() {
        let table = RedundancyTable {
            id: "table4",
            title: "table4: test".into(),
            rows: vec![
                RedundancyRow {
                    family: "d3c",
                    n: 60,
                    rec: 69.1,
                    norec: 1612.3,
                },
                RedundancyRow {
                    family: "d3s",
                    n: 50,
                    rec: 195.3,
                    norec: 1105.3,
                },
            ],
        };
        let text = render_redundancy(&table);
        assert!(text.contains("Rslv/norec"));
        assert!(text.contains("1612.3"));
        let csv = redundancy_csv(&table);
        assert!(csv.contains("d3s,50,195.300,1105.300"));
    }

    #[test]
    fn efficiency_rendering() {
        let fig = EfficiencyFigure {
            family: "d3s1",
            n: 50,
            awc_label: "AWC+4thRslv".into(),
            awc_cycles: 130.0,
            awc_maxcck: 38000.0,
            db_cycles: 690.0,
            db_maxcck: 11000.0,
            points: vec![
                EfficiencyPoint {
                    delay: 0,
                    awc: 38000.0,
                    db: 11000.0,
                },
                EfficiencyPoint {
                    delay: 100,
                    awc: 51000.0,
                    db: 80000.0,
                },
            ],
            crossover: Some(48.2),
        };
        let text = render_efficiency(&fig);
        assert!(text.contains("crossover"));
        assert!(text.contains("AWC wins"));
        let csv = efficiency_csv(&fig);
        assert!(csv.contains("100,51000.000,80000.000"));
    }
}
