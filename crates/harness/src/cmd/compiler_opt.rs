//! Regenerates the compiler–runtime-interface gap-closing experiment the
//! paper's conclusion calls for: SPF baseline vs SPF+CRI vs hand-coded
//! message passing, with message/byte/time columns. All six applications
//! are hinted — the regular ones through rectangular (MGS: triangular)
//! sections, the irregular ones (IGrid, NBF) through the
//! inspector/executor subsystem, whose amortized walk cost is split out
//! into its own columns (inspections, schedule reuses, inspector
//! seconds).
//!
//! Usage: `compiler_opt [scale] [nprocs] [--engine E]` (defaults 0.1
//! and 8). The hinted runs' message bounds at 8 nodes and scale 0.08
//! are held by `tests/cri_equivalence.rs` (Jacobi) and
//! `tests/inspector_equivalence.rs` (IGrid).

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!("Compiler-runtime interface: closing the SPF gap (scale {scale}, {nprocs} procs)\n");
    let rows = crate::compiler_opt(&cli);
    let mut t = Table::new(vec![
        "Program", "Version", "Time (s)", "Speedup", "Msgs", "KBytes", "Insp", "Reuse", "Insp (s)",
    ]);
    for r in &rows {
        for (name, run) in [("SPF", &r.spf), ("SPF+CRI", &r.cri), ("PVMe", &r.mpl)] {
            let irregular = name == "SPF+CRI" && run.dsm.inspections > 0;
            t.row(vec![
                r.app.name().to_string(),
                name.to_string(),
                f2(run.time_us / 1e6),
                f2(run.speedup_vs(r.seq_us)),
                run.messages.to_string(),
                run.kbytes.to_string(),
                if irregular {
                    run.dsm.inspections.to_string()
                } else {
                    "-".into()
                },
                if irregular {
                    run.dsm.schedule_reuse.to_string()
                } else {
                    "-".into()
                },
                if irregular {
                    f2(r.inspect_secs())
                } else {
                    "-".into()
                },
            ]);
        }
    }
    println!("{}", render_table(&t));
    for r in &rows {
        println!(
            "{}: CRI eliminates {:.1}% of SPF's messages \
             (validates {}, pages pushed {}, direct reduces {})",
            r.app.name(),
            100.0 * r.message_reduction(),
            r.cri.dsm.validates,
            r.cri.dsm.pages_pushed,
            r.cri.dsm.direct_reduces,
        );
    }
    Ok(())
}
