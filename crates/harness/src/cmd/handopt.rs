//! Regenerates §5 "Results of Hand Optimizations": the hand-optimized
//! shared-memory variants vs their baselines and references.
//!
//! Usage: `handopt [scale] [nprocs]` (defaults 0.1 and 8).

use apps::{AppId, RunSpec, Version};
use Version::{HandOpt, Pvme, Spf, SpfCri, Tmk};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f2, render_table};
use crate::Table;

/// One row: the application, what the optimization is (paper §5
/// wording), the version the paper optimized, the optimized one, the
/// reference it is compared against and that reference's name.
type Row = (AppId, &'static str, [Version; 3], &'static str);

const ROWS: [Row; 5] = [
    // Jacobi: SPF + data aggregation, compared against PVMe (7.23/7.55).
    (
        AppId::Jacobi,
        "SPF + data aggregation",
        [Spf, HandOpt, Pvme],
        "PVMe",
    ),
    // Shallow: SPF + merged loops + aggregation, vs hand-coded Tmk
    // (5.96/6.21).
    (
        AppId::Shallow,
        "SPF + merged loops + aggregation",
        [Spf, HandOpt, Tmk],
        "Tmk",
    ),
    // MGS: hand-coded Tmk + broadcast / merged sync+data (5.09 from 4.19).
    (
        AppId::Mgs,
        "Tmk + broadcast, merged sync+data",
        [Tmk, HandOpt, Pvme],
        "PVMe",
    ),
    // Compiler-described counterpart of the same §5.3 idea: the CRI
    // triangular sections + the master's sequential-producer
    // declaration push the pivot with the rendezvous. Compared
    // against the hand broadcast it imitates.
    (
        AppId::Mgs,
        "SPF + CRI pivot push (triangular sections)",
        [Spf, SpfCri, HandOpt],
        "Tmk+bcast",
    ),
    // 3-D FFT: SPF + data aggregation, vs PVMe (5.05/5.12).
    (
        AppId::Fft3d,
        "SPF + data aggregation",
        [Spf, HandOpt, Pvme],
        "PVMe",
    ),
];

/// Every row's base, optimized and reference versions.
pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    let versions = |&(app, _, versions, _): &Row| versions.map(|v| cli.spec(app, v));
    ROWS.iter().flat_map(versions).collect()
}

pub fn render(cli: &Cli, cells: &Cells) {
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
    for (app, what, versions, ref_name) in ROWS {
        let mut row = vec![app.name().to_string(), what.to_string()];
        row.extend(versions.map(|v| f2(cells.speedup(&cli.spec(app, v)))));
        row.push(ref_name.to_string());
        t.row(row);
    }
    println!("{}", render_table(&t));
}
