//! Extension study: speedups at 1, 2, 4, 8 processors for every
//! application and version.
//!
//! Usage: `scaling [scale] [max_procs]` (defaults 0.1 and 8).

use apps::{AppId, RunSpec, Version};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f2, render_table};
use crate::Table;

/// 1, 2, 4, ... up to `cli.nprocs`.
fn procs(cli: &Cli) -> impl Iterator<Item = usize> {
    let max = cli.nprocs;
    std::iter::successors(Some(1), |n| Some(n * 2)).take_while(move |&n| n <= max)
}

/// `app` in `version` at every processor count.
fn row(cli: &Cli, app: AppId, version: Version) -> impl Iterator<Item = RunSpec> + '_ {
    procs(cli).map(move |nprocs| RunSpec {
        nprocs,
        ..cli.spec(app, version)
    })
}

/// Every application in every sweep version — the paper's figure
/// versions plus the hinted SPF+CRI column — at every processor count,
/// under the selected coherence protocol.
pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    let apps = AppId::ALL.iter();
    let rows = apps.flat_map(|&app| Version::SWEEP.map(|v| (app, v)));
    rows.flat_map(|(app, v)| row(cli, app, v)).collect()
}

pub fn render(cli: &Cli, cells: &Cells) {
    let (scale, maxp) = (cli.scale, cli.nprocs);
    println!(
        "Scaling study (scale {scale}, up to {maxp} procs, {} protocol)\n",
        cli.protocol
    );
    let mut header = vec!["Program".to_string(), "Version".to_string()];
    header.extend(procs(cli).map(|np| format!("{np}p")));
    let mut t = Table::new(header);
    for app in AppId::ALL {
        for v in Version::SWEEP {
            let mut cols = vec![app.name().to_string(), v.name().to_string()];
            cols.extend(row(cli, app, v).map(|spec| f2(cells.speedup(&spec))));
            t.row(cols);
        }
    }
    println!("{}", render_table(&t));
}
