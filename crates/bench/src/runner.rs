//! The report registry: every table and figure of the reproduction,
//! named once. `dbcast paper` runs them by name.

use std::io;
use std::path::Path;

use dbcast_alloc::DrpCds;
use dbcast_baselines::AlgoSpec;
use dbcast_index::{EnergyModel, IndexParams, IndexedProgram};
use dbcast_model::{BroadcastProgram, ChannelAllocator};
use dbcast_sim::validate_against_model;
use dbcast_workload::{paper, SizeDistribution, TraceBuilder, WorkloadBuilder};

use crate::ablations::{ablate_cds_threshold, ablate_gopt_budget, ablate_split_priority};
use crate::config::{ExperimentConfig, SweepAxis};
use crate::report::{render_csv, render_markdown, ReportTable};
use crate::sweep::run_sweep;
use crate::timing::run_timing_sweep;

/// One report of the paper reproduction: what it runs, the files it
/// writes and whether CI pins them byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Report {
    /// Tables 2–4: the worked example's profile, DRP trace and CDS trace.
    Tables,
    /// Figure 2: number of channels `K` vs average waiting time.
    Fig2,
    /// Figure 3: number of broadcast items `N` vs average waiting time.
    Fig3,
    /// Figure 4: diversity parameter `Φ` vs average waiting time.
    Fig4,
    /// Figure 5: skewness parameter `θ` vs average waiting time.
    Fig5,
    /// Figure 6: number of channels `K` vs execution time.
    Fig6,
    /// Figure 7: number of broadcast items `N` vs execution time.
    Fig7,
    /// Extra: analytical Eq. 2 vs the trace simulator, first 5 seeds.
    SimValidation,
    /// Extra: (1, m) air indexing, access/tuning/energy vs the index
    /// copy count m per allocator, first 10 seeds.
    Indexing,
    /// Extra: the DRP split rule, CDS threshold and GOPT budget
    /// ablations, first 10 seeds.
    Ablations,
}

impl Report {
    /// Every report, in the order `dbcast paper all` runs them.
    pub const ALL: [Report; 10] = [
        Report::Tables,
        Report::Fig2,
        Report::Fig3,
        Report::Fig4,
        Report::Fig5,
        Report::Fig6,
        Report::Fig7,
        Report::SimValidation,
        Report::Indexing,
        Report::Ablations,
    ];

    /// The name `dbcast paper` takes.
    pub fn name(self) -> &'static str {
        match self {
            Report::Tables => "tables",
            Report::Fig2 => "fig2_channels",
            Report::Fig3 => "fig3_items",
            Report::Fig4 => "fig4_diversity",
            Report::Fig5 => "fig5_skewness",
            Report::Fig6 => "fig6_exec_channels",
            Report::Fig7 => "fig7_exec_items",
            Report::SimValidation => "sim_validation",
            Report::Indexing => "indexing",
            Report::Ablations => "ablations",
        }
    }

    /// The report named `name`, if any.
    pub fn from_name(name: &str) -> Option<Report> {
        Report::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Whether CI regenerates this report and fails on any difference
    /// from the committed files. The seeded reports are; Figures 6–7
    /// and the GOPT-budget ablation print wall-clock times.
    pub fn pinned(self) -> bool {
        match self {
            Report::Tables
            | Report::Fig2
            | Report::Fig3
            | Report::Fig4
            | Report::Fig5
            | Report::SimValidation
            | Report::Indexing => true,
            Report::Fig6 | Report::Fig7 | Report::Ablations => false,
        }
    }

    /// The files [`run`](Self::run) writes: the Markdown report, then
    /// its CSV table where it has one.
    pub fn files(self) -> &'static [&'static str] {
        match self {
            Report::Tables => &["tables_2_3_4.md"],
            Report::Fig2 => &["fig2_channels.md", "fig2_channels.csv"],
            Report::Fig3 => &["fig3_items.md", "fig3_items.csv"],
            Report::Fig4 => &["fig4_diversity.md", "fig4_diversity.csv"],
            Report::Fig5 => &["fig5_skewness.md", "fig5_skewness.csv"],
            Report::Fig6 => &["fig6_exec_channels.md", "fig6_exec_channels.csv"],
            Report::Fig7 => &["fig7_exec_items.md", "fig7_exec_items.csv"],
            Report::SimValidation => &["sim_validation.md", "sim_validation.csv"],
            Report::Indexing => &["indexing.md"],
            Report::Ablations => &["ablations.md"],
        }
    }

    /// Runs the report, writes its [`files`](Self::files) under `dir`
    /// (created if needed) and returns the Markdown.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors while writing the files.
    pub fn run(self, config: &ExperimentConfig, dir: &Path) -> io::Result<String> {
        let table = match self {
            Report::Tables => return self.write(dir, tables_markdown(), None),
            Report::Fig2 => waiting_figure(
                config,
                SweepAxis::paper_channels(),
                "Figure 2: channel number K vs average waiting time W_b (s)",
            ),
            Report::Fig3 => waiting_figure(
                config,
                SweepAxis::paper_items(),
                "Figure 3: broadcast items N vs average waiting time W_b (s)",
            ),
            Report::Fig4 => waiting_figure(
                config,
                SweepAxis::paper_diversity(),
                "Figure 4: diversity Phi vs average waiting time W_b (s)",
            ),
            Report::Fig5 => waiting_figure(
                config,
                SweepAxis::paper_skewness(),
                "Figure 5: skewness theta vs average waiting time W_b (s)",
            ),
            Report::Fig6 => timing_figure(
                config,
                SweepAxis::paper_channels(),
                "Figure 6: channel number K vs execution time",
            ),
            Report::Fig7 => timing_figure(
                config,
                SweepAxis::paper_items(),
                "Figure 7: broadcast items N vs execution time",
            ),
            Report::SimValidation => sim_validation(config, seed_prefix(config, 5)),
            Report::Indexing => {
                let table = indexing(seed_prefix(config, 10));
                return self.write(dir, render_markdown(&table), None);
            }
            Report::Ablations => {
                let seeds = seed_prefix(config, 10);
                let md = [
                    ablate_split_priority(seeds),
                    ablate_cds_threshold(seeds),
                    ablate_gopt_budget(seeds),
                ]
                .iter()
                .map(render_markdown)
                .collect();
                return self.write(dir, md, None);
            }
        };
        self.write(dir, render_markdown(&table), Some(render_csv(&table)))
    }

    fn write(self, dir: &Path, md: String, csv: Option<String>) -> io::Result<String> {
        let files = self.files();
        assert_eq!(files.len(), 1 + usize::from(csv.is_some()), "{}: files", self.name());
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(files[0]), &md)?;
        if let Some(csv) = csv {
            std::fs::write(dir.join(files[1]), csv)?;
        }
        Ok(md)
    }
}

fn waiting_figure(config: &ExperimentConfig, axis: SweepAxis, title: &str) -> ReportTable {
    ReportTable::from_sweep(title, &run_sweep(config, &axis, &AlgoSpec::paper_lineup()))
}

fn timing_figure(config: &ExperimentConfig, axis: SweepAxis, title: &str) -> ReportTable {
    ReportTable::from_timing(
        title,
        &run_timing_sweep(config, &axis, &AlgoSpec::timing_lineup()),
    )
}

/// Replays the paper's worked example: the Table 2 profile, the DRP
/// splitting trace of Table 3 and the CDS move trace of Table 4.
fn tables_markdown() -> String {
    let db = paper::table2_profile();
    let outcome = DrpCds::new().allocate_traced(&db, 5).expect("paper example is feasible");

    let mut md = String::from("## Tables 2-4: the paper's worked example\n\n");
    md.push_str("### Table 2 profile (15 items, 5 channels)\n\n");
    md.push_str("| item | freq | size |\n|---|---|---|\n");
    for d in db.iter() {
        md.push_str(&format!(
            "| d{} | {:.4} | {:.2} |\n",
            d.id().index() + 1,
            d.frequency(),
            d.size()
        ));
    }

    md.push_str("\n### Table 3: DRP iterations\n\n");
    for (i, it) in outcome.drp.iterations().iter().enumerate() {
        md.push_str(&format!("Iteration {i} (total cost {:.2}):\n\n", it.total_cost()));
        md.push_str("| group | members | cost |\n|---|---|---|\n");
        for (g, snap) in it.groups.iter().enumerate() {
            let members: Vec<String> =
                snap.members.iter().map(|m| format!("d{}", m.index() + 1)).collect();
            md.push_str(&format!(
                "| {} | {{{}}} | {:.2} |\n",
                g + 1,
                members.join(" "),
                snap.cost
            ));
        }
        md.push('\n');
    }

    md.push_str("### Table 4: CDS iterations\n\n");
    md.push_str(&format!("Initial cost: {:.2}\n\n", outcome.cds.initial_cost));
    md.push_str("| step | move | reduction | cost after |\n|---|---|---|---|\n");
    for (i, s) in outcome.cds.steps.iter().enumerate() {
        md.push_str(&format!(
            "| {} | d{}: c{} -> c{} | {:.2} | {:.2} |\n",
            i + 1,
            s.mv.item.index() + 1,
            s.mv.from.index() + 1,
            s.mv.to.index() + 1,
            s.reduction,
            s.cost_after
        ));
    }
    md.push_str(&format!(
        "\nLocal optimum cost: {:.2} (paper: 22.29)\n",
        outcome.cds.final_cost()
    ));
    md
}

/// The first `n` of the configured seeds (all of them when fewer).
fn seed_prefix(config: &ExperimentConfig, n: usize) -> &[u64] {
    &config.seeds[..config.seeds.len().min(n)]
}

/// Analytical Eq. 2 vs the trace simulator at the configured fixed
/// parameters, one row per seed.
fn sim_validation(config: &ExperimentConfig, seeds: &[u64]) -> ReportTable {
    let mut table = ReportTable {
        title: "Simulation validation: analytical W_b vs discrete-event mean".to_string(),
        header: vec![
            "seed".into(),
            "analytical (s)".into(),
            "empirical (s)".into(),
            "rel. error".into(),
            "CI95 (s)".into(),
        ],
        rows: Vec::new(),
    };
    for &seed in seeds {
        let db = WorkloadBuilder::new(config.items)
            .skewness(config.skewness)
            .sizes(SizeDistribution::Diversity { phi_max: config.diversity })
            .seed(seed)
            .build()
            .expect("valid parameters");
        let alloc =
            DrpCds::new().allocate(&db, config.channels).expect("feasible instance");
        let trace = TraceBuilder::new(&db)
            .requests(30_000)
            .seed(seed.wrapping_add(1000))
            .build()
            .expect("valid trace parameters");
        let report = validate_against_model(&db, &alloc, &trace, config.bandwidth)
            .expect("validation inputs are consistent");
        table.rows.push(vec![
            seed.to_string(),
            format!("{:.4}", report.analytical),
            format!("{:.4}", report.empirical),
            format!("{:.4}", report.relative_error()),
            format!("{:.4}", report.ci95),
        ]);
    }
    table
}

/// (1, m) air indexing over DRP-CDS and FLAT programs (N = 100, K = 5):
/// mean access, tuning and energy over `seeds` for fixed m = 1, 4, 32
/// and the per-channel optimum m*.
fn indexing(seeds: &[u64]) -> ReportTable {
    let radio = EnergyModel::typical();
    let params = IndexParams { index_size: 1.0, header_size: 0.1 };
    let k = 5;

    let mut table = ReportTable {
        title: "Indexing: access / tuning / energy vs index copies m (N = 100, K = 5)"
            .to_string(),
        header: vec![
            "allocator".into(),
            "m".into(),
            "access (s)".into(),
            "tuning (s)".into(),
            "energy (mJ)".into(),
            "battery x".into(),
        ],
        rows: Vec::new(),
    };

    for spec in [AlgoSpec::DrpCds, AlgoSpec::Flat] {
        let algo = spec.build(0);
        for m_choice in ["1", "4", "m*", "32"] {
            let mut access = 0.0;
            let mut tuning = 0.0;
            let mut energy = 0.0;
            let mut unindexed_energy = 0.0;
            for &seed in seeds {
                let db = WorkloadBuilder::new(100)
                    .skewness(0.8)
                    .sizes(SizeDistribution::Diversity { phi_max: 2.0 })
                    .seed(seed)
                    .build()
                    .expect("valid parameters");
                let alloc = algo.allocate(&db, k).expect("feasible");
                let program = BroadcastProgram::new(&db, &alloc, 10.0).expect("valid");
                let indexed = match m_choice {
                    "m*" => IndexedProgram::with_optimal_segments(&program, params),
                    fixed => {
                        let m: usize = fixed.parse().expect("numeric m");
                        IndexedProgram::new(&program, &vec![m; k], params)
                    }
                }
                .expect("valid indexing");
                let metrics = indexed.expected_metrics(&db).expect("items covered");
                access += metrics.access;
                tuning += metrics.tuning;
                energy += metrics.energy(&radio);
                unindexed_energy += metrics.energy_unindexed(&radio);
            }
            let d = seeds.len() as f64;
            table.rows.push(vec![
                algo.name().to_string(),
                m_choice.to_string(),
                format!("{:.3}", access / d),
                format!("{:.3}", tuning / d),
                format!("{:.1}", energy / d),
                format!("{:.1}", unindexed_energy / energy),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed reports, at the repository root.
    fn results_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dbcast-runner-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_report_is_named_once() {
        let mut names: Vec<&str> = Report::ALL.iter().map(|r| r.name()).collect();
        for report in Report::ALL {
            assert_eq!(Report::from_name(report.name()), Some(report));
        }
        assert_eq!(Report::from_name("all"), None);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Report::ALL.len(), "report names are not unique");
    }

    #[test]
    fn every_pinned_report_is_committed() {
        let pinned: Vec<Report> = Report::ALL.into_iter().filter(|r| r.pinned()).collect();
        assert_eq!(pinned.len(), 7);
        for report in pinned {
            for file in report.files() {
                assert!(results_dir().join(file).is_file(), "results/{file} is missing");
            }
        }
    }

    #[test]
    fn tables_report_reproduces_the_committed_file() {
        let dir = tmpdir("tables");
        let md = Report::Tables.run(&ExperimentConfig::quick(), &dir).unwrap();
        let written = std::fs::read(dir.join("tables_2_3_4.md")).unwrap();
        let committed = std::fs::read(results_dir().join("tables_2_3_4.md")).unwrap();
        assert_eq!(written, committed);
        assert_eq!(md.as_bytes(), committed);
        assert!(md.contains("135.60"));
        assert!(md.contains("29.04"));
        // The paper prints 24.09 by summing rounded group costs; the
        // exact value is 24.0847 and renders as 24.08.
        assert!(md.contains("24.08"));
        assert!(md.contains("22.29"));
        // Table 4's first move: d10 from channel 4 to channel 2.
        assert!(md.contains("| 1 | d10: c4 -> c2 |"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sim_validation_report_has_small_errors() {
        let cfg = ExperimentConfig {
            items: 30,
            channels: 3,
            seeds: vec![0, 1],
            ..ExperimentConfig::default()
        };
        let dir = tmpdir("simval");
        let md = Report::SimValidation.run(&cfg, &dir).unwrap();
        for file in Report::SimValidation.files() {
            assert!(dir.join(file).is_file(), "{file} not written");
        }
        assert!(md.contains("seed"));
        // Every data row's relative error column should be < 0.1.
        for line in md.lines().filter(|l| l.starts_with("|") && !l.contains("seed")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            if cells.len() >= 5 {
                if let Ok(err) = cells[4].parse::<f64>() {
                    assert!(err < 0.1, "relative error {err} too large: {line}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
