//! Regenerates the compiler–runtime-interface gap-closing experiment the
//! paper's conclusion calls for: SPF baseline vs SPF+CRI vs hand-coded
//! message passing, with message/byte/time columns. All six applications
//! are hinted — the regular ones through rectangular (MGS: triangular)
//! sections, the irregular ones (IGrid, NBF) through the
//! inspector/executor subsystem, whose amortized walk cost is split out
//! into its own columns (inspections, schedule reuses, inspector
//! seconds).
//!
//! Usage: `compiler_opt [scale] [nprocs] [--engine E] [--gate APP]
//! [--check-baseline FILE]` (defaults 0.1 and 8).
//!
//! With `--check-baseline FILE`, the subcommand additionally asserts the CI
//! regression gate: FILE records `scale nprocs max_msgs`, and the gated
//! application's hinted run — `--gate` selects it, default jacobi; run
//! at exactly the recorded configuration, overriding any conflicting
//! command-line scale/nprocs — must not exceed `max_msgs` and must stay
//! ≥ 30% below the SPF baseline. Exit status 1 on regression, 2 on an
//! unreadable or malformed baseline file.

use crate::baseline;
use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    let gate = flags.value("--gate").unwrap_or_else(|| "jacobi".into());
    let baseline = baseline::from_flags(flags, "max_msgs")?;
    let cli = baseline::gate_config(cli, baseline.as_ref());
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

    if let Some(b) = baseline {
        let row = rows
            .iter()
            .find(|r| r.app.name().eq_ignore_ascii_case(&gate))
            .ok_or_else(|| Exit::error(format!("unknown --gate application {gate:?}")))?;
        let msgs = row.cri.messages;
        let reduction = row.message_reduction();
        println!(
            "\nbaseline check (scale {}, {} procs): hinted {} {msgs} msgs \
             (recorded max {}), reduction {:.1}% (required >= 30%)",
            b.scale,
            b.nprocs,
            row.app.name(),
            b.max_count,
            100.0 * reduction
        );
        if msgs > b.max_count || reduction < 0.30 {
            return Err(Exit::failure(format!(
                "REGRESSION: hinted {} message count above baseline",
                row.app.name()
            )));
        }
        println!("baseline check passed");
    }
    Ok(())
}
