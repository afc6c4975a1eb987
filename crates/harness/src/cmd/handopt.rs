//! Regenerates §5 "Results of Hand Optimizations": the hand-optimized
//! shared-memory variants vs their baselines and references.
//!
//! Usage: `handopt [scale] [nprocs]` (defaults 0.1 and 8).

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!("Section 5: Results of Hand Optimizations (scale {scale}, {nprocs} procs)\n");
    let mut t = Table::new(vec![
        "Program",
        "Optimization",
        "Base",
        "Optimized",
        "Reference",
        "(vs)",
    ]);
    for r in crate::handopt(&cli) {
        t.row(vec![
            r.app.name().to_string(),
            r.what.to_string(),
            f2(r.base),
            f2(r.opt),
            f2(r.reference),
            r.ref_name.to_string(),
        ]);
    }
    println!("{}", render_table(&t));
    Ok(())
}
