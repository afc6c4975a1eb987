//! Regenerates Figure 2 (speedups) and Table 3 (message/data totals)
//! for the irregular applications, grown with the SPF+CRI
//! (inspector/executor) column and its amortized inspector cost split
//! out — the repository's answer to the paper's §6 conclusion.
//!
//! Usage: `figure2_table3 [scale] [nprocs]` (defaults 0.1 and 8). The
//! headline cell's trace and causal report are `dsm trace` / `dsm
//! analyze --app igrid --version cri`.

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;
use apps::Version;

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    let rows = crate::figure2_table3(&cli);
    let header: Vec<String> = std::iter::once("Program".to_string())
        .chain(Version::SWEEP.iter().map(|v| v.name().to_string()))
        .collect();
    println!("Figure 2: {nprocs}-Processor Speedups, Irregular Applications (scale {scale})\n");
    let mut t = Table::new(header.clone());
    for row in &rows {
        let mut cells = vec![row.app.name().to_string()];
        cells.extend((0..Version::SWEEP.len()).map(|i| f2(row.speedup(i))));
        t.row(cells);
    }
    println!("{}", render_table(&t));
    println!("Table 3: Message Totals and Data Totals (KB), Irregular Applications\n");
    let mut t = Table::new(
        std::iter::once(String::new())
            .chain(header)
            .collect::<Vec<_>>(),
    );
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
    for row in &rows {
        let cri = row.get(Version::SpfCri);
        let spf = row.get(Version::Spf);
        println!(
            "{}: inspector cost {:.4}s amortized over {} schedule reuses \
             ({} inspections); SPF+CRI sends {:.1}% fewer messages than SPF",
            row.app.name(),
            cri.dsm.inspect_us as f64 / 1e6,
            cri.dsm.schedule_reuse,
            cri.dsm.inspections,
            100.0 * (1.0 - cri.messages as f64 / spf.messages.max(1) as f64),
        );
    }
    Ok(())
}
