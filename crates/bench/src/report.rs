//! Rendering sweep results as aligned Markdown tables and CSV files.

use crate::sweep::SweepResult;
use crate::timing::TimingResult;

/// A rendered table: a header row plus data rows of equal width.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportTable {
    /// Table title (e.g. `"Figure 2: K vs average waiting time"`).
    pub title: String,
    /// Column headers; column 0 is the x-axis.
    pub header: Vec<String>,
    /// Data rows, formatted.
    pub rows: Vec<Vec<String>>,
}

impl ReportTable {
    /// Builds a table from a waiting-time sweep.
    pub fn from_sweep(title: &str, result: &SweepResult) -> Self {
        let mut header = vec![result.axis.clone()];
        if let Some(first) = result.points.first() {
            header.extend(first.algos.iter().map(|a| a.algo.clone()));
        }
        let rows = result
            .points
            .iter()
            .map(|p| {
                let mut row = vec![format_x(p.x)];
                row.extend(p.algos.iter().map(|a| format!("{:.4}", a.mean_waiting)));
                row
            })
            .collect();
        ReportTable { title: title.to_string(), header, rows }
    }

    /// Builds a table from a timing sweep: per algorithm one mean,
    /// median and p95 column (milliseconds).
    pub fn from_timing(title: &str, result: &TimingResult) -> Self {
        let mut header = vec![result.axis.clone()];
        if let Some(first) = result.points.first() {
            for t in &first.algos {
                header.push(format!("{} mean (ms)", t.algo));
                header.push(format!("{} p50 (ms)", t.algo));
                header.push(format!("{} p95 (ms)", t.algo));
            }
        }
        let rows = result
            .points
            .iter()
            .map(|p| {
                let mut row = vec![format_x(p.x)];
                for t in &p.algos {
                    row.push(format!("{:.3}", t.mean_ms));
                    row.push(format!("{:.3}", t.median_ms));
                    row.push(format!("{:.3}", t.p95_ms));
                }
                row
            })
            .collect();
        ReportTable { title: title.to_string(), header, rows }
    }
}

fn format_x(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

/// Renders a table as GitHub-flavored Markdown with aligned columns.
pub fn render_markdown(table: &ReportTable) -> String {
    let cols = table.header.len();
    let mut widths: Vec<usize> = table.header.iter().map(String::len).collect();
    for row in &table.rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = format!("## {}\n\n", table.title);
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let padded: Vec<String> =
            cells.iter().zip(widths).map(|(c, &w)| format!("{c:>w$}")).collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&fmt_row(&table.header, &widths));
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    out.push_str(&format!("| {} |\n", sep.join(" | ")));
    for row in &table.rows {
        out.push_str(&fmt_row(row, &widths));
    }
    let _ = cols;
    out
}

/// Renders a table as CSV.
pub fn render_csv(table: &ReportTable) -> String {
    let mut out = String::new();
    out.push_str(&table.header.join(","));
    out.push('\n');
    for row in &table.rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{AlgoPoint, SweepPoint};

    fn sample_sweep() -> SweepResult {
        SweepResult {
            axis: "K".to_string(),
            points: vec![
                SweepPoint {
                    x: 4.0,
                    algos: vec![
                        AlgoPoint {
                            algo: "FLAT".into(),
                            mean_waiting: 2.5,
                            mean_cost: 40.0,
                        },
                        AlgoPoint {
                            algo: "DRP".into(),
                            mean_waiting: 1.25,
                            mean_cost: 20.0,
                        },
                    ],
                },
                SweepPoint {
                    x: 5.0,
                    algos: vec![
                        AlgoPoint {
                            algo: "FLAT".into(),
                            mean_waiting: 2.0,
                            mean_cost: 32.0,
                        },
                        AlgoPoint {
                            algo: "DRP".into(),
                            mean_waiting: 1.0,
                            mean_cost: 16.0,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn markdown_contains_all_cells() {
        let table = ReportTable::from_sweep("Figure 2", &sample_sweep());
        let md = render_markdown(&table);
        assert!(md.contains("## Figure 2"));
        assert!(md.contains("FLAT"));
        assert!(md.contains("2.5000"));
        assert!(md.contains("| 5"));
        // Header + separator + 2 data rows.
        assert_eq!(md.lines().filter(|l| l.starts_with('|')).count(), 4);
    }

    #[test]
    fn csv_roundtrips_structure() {
        let table = ReportTable::from_sweep("t", &sample_sweep());
        let csv = render_csv(&table);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "K,FLAT,DRP");
        assert!(lines[1].starts_with("4,"));
    }

    #[test]
    fn timing_table_has_mean_median_p95_columns() {
        use crate::timing::{AlgoTiming, TimingPoint, TimingResult};
        let result = TimingResult {
            axis: "K".into(),
            points: vec![TimingPoint {
                x: 4.0,
                algos: vec![AlgoTiming {
                    algo: "DRP".into(),
                    mean_ms: 1.5,
                    median_ms: 1.25,
                    p95_ms: 2.75,
                }],
            }],
        };
        let table = ReportTable::from_timing("Figure 6", &result);
        assert_eq!(
            table.header,
            vec!["K", "DRP mean (ms)", "DRP p50 (ms)", "DRP p95 (ms)"]
        );
        assert_eq!(table.rows[0], vec!["4", "1.500", "1.250", "2.750"]);
    }

    #[test]
    fn fractional_x_values_format_with_decimals() {
        let mut sweep = sample_sweep();
        sweep.axis = "Phi".into();
        sweep.points[0].x = 0.5;
        let table = ReportTable::from_sweep("t", &sweep);
        assert_eq!(table.rows[0][0], "0.50");
        assert_eq!(table.rows[1][0], "5");
    }
}
