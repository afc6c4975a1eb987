//! Regenerates Table 1: data-set sizes and sequential execution times.
//!
//! Usage: `table1 [scale] [--engine sequential|seeded:N]`
//! (defaults 0.1 and the deterministic sequential engine).

use apps::{AppId, RunSpec, Version};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f1, render_table};
use crate::Table;

/// The `Seq` program of every application.
pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    AppId::ALL.map(|app| cli.spec(app, Version::Seq)).to_vec()
}

pub fn render(cli: &Cli, cells: &Cells) {
    let scale = cli.scale;
    println!("Table 1: Data Set Sizes and Sequential Execution Time (scale {scale})\n");
    let mut t = Table::new(vec!["Program", "Problem Size", "Time (sec.)"]);
    for app in AppId::ALL {
        let secs = cells.get(&cli.spec(app, Version::Seq)).time_us / 1e6;
        t.row(vec![
            app.name().to_string(),
            size_desc(app, scale),
            f1(secs),
        ]);
    }
    println!("{}", render_table(&t));
}

/// Workload descriptions, matching the paper's Table 1.
pub(crate) fn size_desc(app: AppId, scale: f64) -> String {
    match app {
        AppId::Jacobi => {
            let p = apps::jacobi::params(scale);
            format!("{0} x {0}, {1} iterations", p.n, p.iters)
        }
        AppId::Shallow => {
            let p = apps::shallow::params(scale);
            format!("{0} x {0}, {1} iterations", p.n, p.iters)
        }
        AppId::Mgs => {
            let p = apps::mgs::params(scale);
            format!("{0} x {0}", p.n)
        }
        AppId::Fft3d => {
            let p = apps::fft3d::params(scale);
            format!("{}x{}x{}, {} iterations", p.n1, p.n2, p.n3, p.iters)
        }
        AppId::IGrid => {
            let p = apps::igrid::params(scale);
            format!("{}, {} iterations", p.n, p.iters)
        }
        AppId::Nbf => {
            let p = apps::nbf::params(scale);
            format!("{} molecules, {} iterations", p.m, p.iters)
        }
    }
}
