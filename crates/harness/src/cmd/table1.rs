//! Regenerates Table 1: data-set sizes and sequential execution times.
//!
//! Usage: `table1 [scale] [--engine sequential|seeded:N]`
//! (defaults 0.1 and the deterministic sequential engine).

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f1, render_table};
use crate::Table;

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let scale = cli.scale;
    println!("Table 1: Data Set Sizes and Sequential Execution Time (scale {scale})\n");
    let mut t = Table::new(vec!["Program", "Problem Size", "Time (sec.)"]);
    for row in crate::table1(&cli) {
        t.row(vec![row.app.name().to_string(), row.size, f1(row.secs)]);
    }
    println!("{}", render_table(&t));
    Ok(())
}
