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

use apps::{AppId, RunResult, RunSpec, Version};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f2, render_table};
use crate::Table;

const VERSIONS: [(&str, Version); 3] = [
    ("SPF", Version::Spf),
    ("SPF+CRI", Version::SpfCri),
    ("PVMe", Version::Pvme),
];

/// Every application unhinted, hinted and in PVMe.
pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    cli.grid(&AppId::ALL, &VERSIONS.map(|(_, v)| v))
}

/// Fraction of the SPF run's messages the hints eliminated.
pub(crate) fn message_reduction(spf: &RunResult, cri: &RunResult) -> f64 {
    if spf.messages == 0 {
        return 0.0;
    }
    1.0 - cri.messages as f64 / spf.messages as f64
}

/// Total virtual seconds the hinted run spent in inspector walks (zero
/// for the statically hinted apps) — the amortized cost the irregular
/// rows split out.
pub(crate) fn inspect_secs(cri: &RunResult) -> f64 {
    cri.dsm.inspect_us as f64 / 1e6
}

pub fn render(cli: &Cli, cells: &Cells) {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!("Compiler-runtime interface: closing the SPF gap (scale {scale}, {nprocs} procs)\n");
    let mut t = Table::new(vec![
        "Program", "Version", "Time (s)", "Speedup", "Msgs", "KBytes", "Insp", "Reuse", "Insp (s)",
    ]);
    for app in AppId::ALL {
        for (name, v) in VERSIONS {
            let spec = cli.spec(app, v);
            let run = cells.get(&spec);
            let irregular = v == Version::SpfCri && run.dsm.inspections > 0;
            let inspector = |column: String| if irregular { column } else { "-".into() };
            t.row(vec![
                app.name().to_string(),
                name.to_string(),
                f2(run.time_us / 1e6),
                f2(cells.speedup(&spec)),
                run.messages.to_string(),
                run.kbytes.to_string(),
                inspector(run.dsm.inspections.to_string()),
                inspector(run.dsm.schedule_reuse.to_string()),
                inspector(f2(inspect_secs(run))),
            ]);
        }
    }
    println!("{}", render_table(&t));
    for app in AppId::ALL {
        let spf = cells.get(&cli.spec(app, Version::Spf));
        let cri = cells.get(&cli.spec(app, Version::SpfCri));
        println!(
            "{}: CRI eliminates {:.1}% of SPF's messages \
             (validates {}, pages pushed {}, direct reduces {})",
            app.name(),
            100.0 * message_reduction(spf, cri),
            cri.dsm.validates,
            cri.dsm.pages_pushed,
            cri.dsm.direct_reduces,
        );
    }
}
