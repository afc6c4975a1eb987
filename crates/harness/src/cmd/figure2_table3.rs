//! Regenerates Figure 2 (speedups) and Table 3 (message/data totals)
//! for the irregular applications, grown with the SPF+CRI
//! (inspector/executor) column and its amortized inspector cost split
//! out — the repository's answer to the paper's §6 conclusion.
//!
//! Usage: `figure2_table3 [scale] [nprocs]` (defaults 0.1 and 8). The
//! headline cell's breakdown, trace and causal report are `dsm analyze
//! --app igrid --version cri`.

use apps::{AppId, RunSpec, Version};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f2, render_table};
use crate::Table;

/// The irregular applications in the figure versions and SPF+CRI.
pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    cli.grid(&AppId::IRREGULAR, &Version::SWEEP)
}

pub fn render(cli: &Cli, cells: &Cells) {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    let versions = Version::SWEEP.iter().map(|v| v.name().to_string());
    let header: Vec<String> = std::iter::once("Program".to_string())
        .chain(versions)
        .collect();
    println!("Figure 2: {nprocs}-Processor Speedups, Irregular Applications (scale {scale})\n");
    let mut t = Table::new(header);
    for app in AppId::IRREGULAR {
        let mut row = vec![app.name().to_string()];
        row.extend(Version::SWEEP.map(|v| f2(cells.speedup(&cli.spec(app, v)))));
        t.row(row);
    }
    println!("{}", render_table(&t));
    println!("Table 3: Message Totals and Data Totals (KB), Irregular Applications\n");
    let totals = super::table2::totals(cli, cells, &AppId::IRREGULAR);
    println!("{}", render_table(&totals));
    for app in AppId::IRREGULAR {
        let cri = cells.get(&cli.spec(app, Version::SpfCri));
        let spf = cells.get(&cli.spec(app, Version::Spf));
        println!(
            "{}: inspector cost {:.4}s amortized over {} schedule reuses \
             ({} inspections); SPF+CRI sends {:.1}% fewer messages than SPF",
            app.name(),
            cri.dsm.inspect_us as f64 / 1e6,
            cri.dsm.schedule_reuse,
            cri.dsm.inspections,
            100.0 * (1.0 - cri.messages as f64 / spf.messages.max(1) as f64),
        );
    }
}
