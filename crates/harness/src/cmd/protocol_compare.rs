//! The protocol-comparison experiment: the same SPF programs under the
//! original distributed-diff protocol (LRC) and under home-based LRC
//! (HLRC), side by side — time, messages, bytes, access-miss round trips
//! and eager-flush traffic. The expected shape: HLRC needs one
//! whole-page fetch per access miss where LRC needs one diff exchange
//! per writer, and pays for it in update traffic.
//!
//! Usage: `protocol_compare [scale] [nprocs] [--engine E]` (defaults
//! 0.1 and 8). HLRC Jacobi's round-trip bound at 8 nodes and scale 0.08
//! is held by `tests/protocol_equivalence.rs`; a traced and analyzed
//! Jacobi run under either protocol is `dsm analyze --app jacobi
//! --protocol lrc|hlrc`.

use apps::{AppId, RunSpec, Version};
use treadmarks::ProtocolMode;

use crate::cli::Cli;
use crate::experiments::Cells;
use crate::report::{f2, render_table};
use crate::Table;

/// `app`'s SPF version under LRC, then HLRC.
fn pair(cli: &Cli, app: AppId) -> [RunSpec; 2] {
    ProtocolMode::ALL.map(|p| cli.spec(app, Version::Spf).protocol(p))
}

/// The regular applications' SPF versions under both protocols.
pub fn cells(cli: &Cli) -> Vec<RunSpec> {
    AppId::REGULAR
        .iter()
        .flat_map(|&app| pair(cli, app))
        .collect()
}

pub fn render(cli: &Cli, cells: &Cells) {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!("Protocol comparison: LRC vs home-based LRC (scale {scale}, {nprocs} procs)\n");
    let mut t = Table::new(vec![
        "Program", "Protocol", "Time (s)", "Speedup", "Msgs", "KBytes", "Miss RTs", "Flush KB",
    ]);
    for app in AppId::REGULAR {
        for (name, spec) in ["LRC", "HLRC"].into_iter().zip(pair(cli, app)) {
            let run = cells.get(&spec);
            t.row(vec![
                app.name().to_string(),
                name.to_string(),
                f2(run.time_us / 1e6),
                f2(cells.speedup(&spec)),
                run.messages.to_string(),
                run.kbytes.to_string(),
                run.miss_round_trips().to_string(),
                (run.flush_bytes() / 1024).to_string(),
            ]);
        }
    }
    println!("{}", render_table(&t));
    for app in AppId::REGULAR {
        let [lrc, hlrc] = pair(cli, app).map(|spec| cells.get(&spec));
        // Fraction of LRC's access-miss round trips HLRC eliminated
        // (negative if HLRC took more).
        let reduction = match lrc.miss_round_trips() {
            0 => 0.0,
            rts => 1.0 - hlrc.miss_round_trips() as f64 / rts as f64,
        };
        println!(
            "{}: HLRC eliminates {:.1}% of LRC's access-miss round trips \
             (pages flushed {}, pages fetched {}, stale flushes dropped {})",
            app.name(),
            100.0 * reduction,
            hlrc.dsm.home_flush_pages,
            hlrc.dsm.page_fetches,
            hlrc.dsm.stale_flush_drops,
        );
    }
}
