//! Regenerates Figure 1: 8-processor speedups for the regular
//! applications (SPF/Tmk, hand-coded TreadMarks, XHPF, PVMe).
//!
//! Usage: `figure1 [scale] [nprocs] [--engine sequential|seeded:N]`
//! (defaults 0.1, 8 and the deterministic sequential engine).

use apps::{AppId, RunSpec, Version};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f2, render_table};
use crate::Table;

/// The regular applications in the four figure versions.
pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    cli.grid(&AppId::REGULAR, &Version::FIGURE)
}

pub fn render(cli: &Cli, cells: &Cells) {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!(
        "Figure 1: {nprocs}-Processor Speedups, Regular Applications (scale {scale}, {} engine, {} protocol)\n",
        cli.engine,
        cli.protocol
    );
    let mut t = Table::new(vec!["Program", "SPF/Tmk", "Tmk", "XHPF", "PVMe"]);
    for app in AppId::REGULAR {
        let mut row = vec![app.name().to_string()];
        row.extend(Version::FIGURE.map(|v| f2(cells.speedup(&cli.spec(app, v)))));
        t.row(row);
    }
    println!("{}", render_table(&t));
}
