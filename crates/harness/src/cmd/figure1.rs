//! Regenerates Figure 1: 8-processor speedups for the regular
//! applications (SPF/Tmk, hand-coded TreadMarks, XHPF, PVMe).
//!
//! Usage: `figure1 [scale] [nprocs] [--engine sequential|seeded:N]`
//! (defaults 0.1, 8 and the deterministic sequential engine).

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!(
        "Figure 1: {nprocs}-Processor Speedups, Regular Applications (scale {scale}, {} engine, {} protocol)\n",
        cli.engine,
        cli.protocol
    );
    let mut t = Table::new(vec!["Program", "SPF/Tmk", "Tmk", "XHPF", "PVMe"]);
    for row in crate::figure1(&cli) {
        t.row(vec![
            row.app.name().to_string(),
            f2(row.speedup(0)),
            f2(row.speedup(1)),
            f2(row.speedup(2)),
            f2(row.speedup(3)),
        ]);
    }
    println!("{}", render_table(&t));
    Ok(())
}
