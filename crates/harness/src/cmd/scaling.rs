//! Extension study: speedups at 1, 2, 4, 8 processors for every
//! application and version.
//!
//! Usage: `scaling [scale] [max_procs]` (defaults 0.1 and 8).

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;
use apps::AppId;

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, maxp) = (cli.scale, cli.nprocs);
    println!(
        "Scaling study (scale {scale}, up to {maxp} procs, {} protocol)\n",
        cli.protocol
    );
    let rows = crate::scaling(&cli, &AppId::ALL);
    let mut header = vec!["Program".to_string(), "Version".to_string()];
    let mut np = 1;
    while np <= maxp {
        header.push(format!("{np}p"));
        np *= 2;
    }
    let mut t = Table::new(header);
    for r in rows {
        let mut cells = vec![r.app.name().to_string(), r.version.name().to_string()];
        for (_, s) in &r.points {
            cells.push(f2(*s));
        }
        t.row(cells);
    }
    println!("{}", render_table(&t));
    Ok(())
}
