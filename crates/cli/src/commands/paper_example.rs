//! `dbcast paper-example` — replay the paper's worked example.

use dbcast_alloc::DrpCds;

use crate::args::Args;
use crate::commands::CliError;

/// Replays the Table 2 profile through DRP and CDS, printing the same
/// traces as the paper's Tables 3 and 4.
///
/// With `--trace`, prints every DRP iteration and CDS move.
///
/// # Errors
///
/// I/O failures only (the example itself always succeeds).
pub fn run_paper_example(
    args: &Args,
    out: &mut impl std::io::Write,
) -> Result<(), CliError> {
    let db = dbcast_workload::paper::table2_profile();
    let outcome = DrpCds::new().allocate_traced(&db, 5)?;

    writeln!(out, "paper worked example: 15 items, 5 channels")?;
    if args.switch("trace") {
        for (i, it) in outcome.drp.iterations().iter().enumerate() {
            writeln!(out, "DRP iteration {i} (total cost {:.2}):", it.total_cost())?;
            for (g, snap) in it.groups.iter().enumerate() {
                let members: Vec<String> =
                    snap.members.iter().map(|m| format!("d{}", m.index() + 1)).collect();
                writeln!(
                    out,
                    "  group {}: {{{}}} cost {:.2}",
                    g + 1,
                    members.join(" "),
                    snap.cost
                )?;
            }
        }
        for (i, s) in outcome.cds.steps.iter().enumerate() {
            writeln!(
                out,
                "CDS step {}: move d{} from group {} to group {} (dc = {:.2}, cost -> {:.2})",
                i + 1,
                s.mv.item.index() + 1,
                s.mv.from.index() + 1,
                s.mv.to.index() + 1,
                s.reduction,
                s.cost_after
            )?;
        }
    }
    writeln!(
        out,
        "DRP cost: {:.2} (paper Table 3: 24.09 from rounded groups)",
        outcome.drp.allocation.total_cost()
    )?;
    writeln!(out, "DRP-CDS cost: {:.2} (paper Table 4: 22.29)", outcome.cds.final_cost())?;
    writeln!(out, "CDS moves applied: {}", outcome.cds.steps.len())?;
    Ok(())
}
