//! The protocol-comparison experiment: the same SPF programs under the
//! original distributed-diff protocol (LRC) and under home-based LRC
//! (HLRC), side by side — time, messages, bytes, access-miss round trips
//! and eager-flush traffic. The expected shape: HLRC needs one
//! whole-page fetch per access miss where LRC needs one diff exchange
//! per writer, and pays for it in update traffic.
//!
//! Usage: `protocol_compare [scale] [nprocs] [--engine E]` (defaults
//! 0.1 and 8). HLRC Jacobi's round-trip bound at 8 nodes and scale 0.08
//! is held by `tests/protocol_equivalence.rs`; a traced or analyzed
//! Jacobi run under either protocol is `dsm trace` / `dsm analyze`
//! `--app jacobi --protocol lrc|hlrc`.

use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;

pub fn run(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    println!("Protocol comparison: LRC vs home-based LRC (scale {scale}, {nprocs} procs)\n");
    let rows = crate::protocol_compare(&cli);
    let mut t = Table::new(vec![
        "Program", "Protocol", "Time (s)", "Speedup", "Msgs", "KBytes", "Miss RTs", "Flush KB",
    ]);
    for r in &rows {
        for (name, run) in [("LRC", &r.lrc), ("HLRC", &r.hlrc)] {
            t.row(vec![
                r.app.name().to_string(),
                name.to_string(),
                f2(run.time_us / 1e6),
                f2(run.speedup_vs(r.seq_us)),
                run.messages.to_string(),
                run.kbytes.to_string(),
                run.miss_round_trips().to_string(),
                (run.flush_bytes() / 1024).to_string(),
            ]);
        }
    }
    println!("{}", render_table(&t));
    for r in &rows {
        println!(
            "{}: HLRC eliminates {:.1}% of LRC's access-miss round trips \
             (pages flushed {}, pages fetched {}, stale flushes dropped {})",
            r.app.name(),
            100.0 * r.round_trip_reduction(),
            r.hlrc.dsm.home_flush_pages,
            r.hlrc.dsm.page_fetches,
            r.hlrc.dsm.stale_flush_drops,
        );
    }
    Ok(())
}
