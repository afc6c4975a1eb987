//! Regenerates Figure 2 (speedups) and Table 3 (message/data totals)
//! for the irregular applications, grown with the SPF+CRI
//! (inspector/executor) column and its amortized inspector cost split
//! out — the repository's answer to the paper's §6 conclusion.
//!
//! Usage: `figure2_table3 [scale] [nprocs] [--trace-out FILE]
//! [--analyze]` (defaults 0.1 and 8). `--trace-out` additionally
//! records a traced IGrid SPF+CRI run and writes it as Chrome/Perfetto
//! trace JSON; `--analyze` prints a compact causal summary of the same
//! run (critical-path length, wait share, hottest sharing sites).

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;
use apps::Version;

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    let trace_out = flags.value("--trace-out");
    let do_analyze = flags.has("--analyze");
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

    // A separate traced run, so the table numbers above come from
    // tracing-free executions.
    if let Some(path) = trace_out {
        let spec = cli.spec(apps::AppId::IGrid, Version::SpfCri);
        let n = crate::trace_analysis::export_traced_run(&path, spec)
            .map_err(|e| Exit::failure(format!("error: {e}")))?;
        println!("\nwrote IGrid SPF+CRI trace to {path} ({n} events)");
    }

    // Compact causal summary of the headline configuration, from its
    // own traced side run (the tables stay tracing-free).
    if do_analyze {
        let spec = cli.spec(apps::AppId::IGrid, Version::SpfCri);
        let s = crate::critical_path::summarize_traced_run(spec)
            .map_err(|e| Exit::failure(format!("error: {e}")))?;
        println!("\n{s}");
    }
    Ok(())
}
