//! Regenerates Table 2: 8-processor message totals and data totals
//! (kilobytes) for the regular applications, with the hinted SPF+CRI
//! column folded in — the sweep-level view of the gap-closing claim
//! (`compiler_opt` shows one point; this shows the whole row).
//!
//! Usage: `table2 [scale] [nprocs] [--engine sequential|seeded:N]`
//! (defaults 0.1, 8 and the deterministic sequential engine).

use crate::cli::{Cli, Exit, Flags};
use crate::experiments::speedup_rows;
use crate::report::render_table;
use crate::Table;
use apps::{AppId, Version};

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!(
        "Table 2: {nprocs}-Processor Message Totals and Data Totals (KB), Regular Applications (scale {scale}, {} protocol)\n",
        cli.protocol
    );
    let rows = speedup_rows(&cli, &AppId::REGULAR, &Version::SWEEP);
    let header: Vec<String> = ["", "Program"]
        .into_iter()
        .map(str::to_string)
        .chain(Version::SWEEP.iter().map(|v| v.name().to_string()))
        .collect();
    let mut t = Table::new(header);
    for (k, row) in rows.iter().enumerate() {
        let mut cells = vec![
            if k == 0 { "Message" } else { "" }.to_string(),
            row.app.name().to_string(),
        ];
        cells.extend(row.results.iter().map(|r| r.messages.to_string()));
        t.row(cells);
    }
    for (k, row) in rows.iter().enumerate() {
        let mut cells = vec![
            if k == 0 { "Data" } else { "" }.to_string(),
            row.app.name().to_string(),
        ];
        cells.extend(row.results.iter().map(|r| r.kbytes.to_string()));
        t.row(cells);
    }
    println!("{}", render_table(&t));
    Ok(())
}
