//! Regenerates the §2.3 ablation: the improved compiler/run-time
//! interface (fork-join via barrier departure/arrival, 2(n-1) messages
//! per loop) against the original scheme (full barriers plus control
//! variables faulted from shared pages, 8(n-1) messages per loop).
//!
//! Usage: `interface_ablation [scale] [nprocs]` (defaults 0.1 and 8).

use apps::{AppId, RunSpec, Version};

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f2, render_table};
use crate::Table;

const APPS: [AppId; 2] = [AppId::Jacobi, AppId::Fft3d];

/// `app`'s SPF version under the improved interface and the original.
fn pair(cli: &Cli, app: AppId) -> [RunSpec; 2] {
    let improved = cli.spec(app, Version::Spf);
    let mut original = improved;
    original.cfg.improved_forkjoin = false;
    [improved, original]
}

pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    APPS.iter().flat_map(|&app| pair(cli, app)).collect()
}

pub fn render(cli: &Cli, cells: &Cells) {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!("Section 2.3: Fork-Join Interface Ablation (scale {scale}, {nprocs} procs)\n");
    let mut t = Table::new(vec![
        "Program",
        "Improved msgs",
        "Original msgs",
        "Improved time(s)",
        "Original time(s)",
        "Slowdown",
    ]);
    for app in APPS {
        let [imp, orig] = pair(cli, app).map(|spec| cells.get(&spec));
        t.row(vec![
            app.name().to_string(),
            imp.messages.to_string(),
            orig.messages.to_string(),
            f2(imp.time_us / 1e6),
            f2(orig.time_us / 1e6),
            format!("{:.1}%", (orig.time_us / imp.time_us - 1.0) * 100.0),
        ]);
    }
    println!("{}", render_table(&t));
}
