//! Regenerates Table 2: 8-processor message totals and data totals
//! (kilobytes) for the regular applications, with the hinted SPF+CRI
//! column folded in — the sweep-level view of the gap-closing claim
//! (`compiler_opt` shows one point; this shows the whole row).
//!
//! Usage: `table2 [scale] [nprocs] [--engine sequential|seeded:N]`
//! (defaults 0.1, 8 and the deterministic sequential engine).

use apps::{AppId, RunResult, RunSpec, Version};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::render_table;
use crate::Table;

/// The regular applications in the figure versions and SPF+CRI.
pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    cli.grid(&AppId::REGULAR, &Version::SWEEP)
}

pub fn render(cli: &Cli, cells: &Cells) {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!(
        "Table 2: {nprocs}-Processor Message Totals and Data Totals (KB), Regular Applications (scale {scale}, {} protocol)\n",
        cli.protocol
    );
    println!("{}", render_table(&totals(cli, cells, &AppId::REGULAR)));
}

/// Message totals, then data totals (KB), of `apps` in every sweep
/// version: Tables 2 and 3.
pub(super) fn totals(cli: &Cli, cells: &Cells, apps: &[AppId]) -> Table {
    let header = ["", "Program"].into_iter().map(str::to_string);
    let versions = Version::SWEEP.iter().map(|v| v.name().to_string());
    let mut t = Table::new(header.chain(versions).collect());
    let mut block = |what: &str, column: fn(&RunResult) -> u64| {
        for (k, &app) in apps.iter().enumerate() {
            let mut row = vec![
                if k == 0 { what } else { "" }.to_string(),
                app.name().to_string(),
            ];
            row.extend(Version::SWEEP.map(|v| column(cells.get(&cli.spec(app, v))).to_string()));
            t.row(row);
        }
    };
    block("Message", |r| r.messages);
    block("Data", |r| r.kbytes);
    t
}
