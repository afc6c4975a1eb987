//! The protocol-comparison experiment: the same SPF programs under the
//! original distributed-diff protocol (LRC) and under home-based LRC
//! (HLRC), side by side — time, messages, bytes, access-miss round trips
//! and eager-flush traffic. The expected shape: HLRC needs one
//! whole-page fetch per access miss where LRC needs one diff exchange
//! per writer, and pays for it in update traffic.
//!
//! Usage: `protocol_compare [scale] [nprocs] [--engine E] [--check-baseline FILE]
//! [--trace-out FILE] [--analyze]` (defaults 0.1 and 8). `--trace-out`
//! additionally records a traced HLRC Jacobi run and writes it as
//! Chrome/Perfetto trace JSON; `--analyze` prints compact causal
//! summaries of Jacobi under *both* protocols, so the bottleneck shift
//! (LRC diff traffic vs HLRC page fetches) is visible side by side.
//!
//! With `--check-baseline FILE`, the subcommand additionally asserts the CI
//! regression gate: FILE records `scale nprocs max_round_trips`, and
//! HLRC Jacobi — run at exactly that recorded configuration, overriding
//! any conflicting command-line scale/nprocs — must not exceed
//! `max_round_trips` access-miss round trips and must stay strictly
//! below the LRC baseline's. Exit status 1 on regression, 2 on an
//! unreadable or malformed baseline file.

use crate::baseline;
use crate::cli::{Cli, Exit, Flags};
use crate::report::{f2, render_table};
use crate::Table;
use treadmarks::ProtocolMode;

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    let trace_out = flags.value("--trace-out");
    let do_analyze = flags.has("--analyze");
    let baseline = baseline::from_flags(flags, "max_round_trips")?;
    let cli = baseline::gate_config(cli, baseline.as_ref());
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

    if let Some(b) = baseline {
        let jacobi = rows
            .iter()
            .find(|r| r.app == apps::AppId::Jacobi)
            .expect("jacobi row present");
        let hlrc_rts = jacobi.hlrc.miss_round_trips();
        let lrc_rts = jacobi.lrc.miss_round_trips();
        println!(
            "\nbaseline check (scale {}, {} procs): HLRC Jacobi {hlrc_rts} round trips \
             (recorded max {}), LRC {lrc_rts}",
            b.scale, b.nprocs, b.max_count
        );
        if hlrc_rts > b.max_count || hlrc_rts >= lrc_rts {
            return Err(Exit::failure(
                "REGRESSION: HLRC Jacobi access-miss round trips above baseline",
            ));
        }
        println!("baseline check passed");
    }

    // A separate traced run, so the table numbers above come from
    // tracing-free executions.
    let jacobi = cli.spec(apps::AppId::Jacobi, apps::Version::Spf);
    if let Some(path) = trace_out {
        let n =
            crate::trace_analysis::export_traced_run(&path, jacobi.protocol(ProtocolMode::Hlrc))
                .map_err(|e| Exit::failure(format!("error: {e}")))?;
        println!("\nwrote HLRC Jacobi trace to {path} ({n} events)");
    }

    // Compact causal summaries of Jacobi under both protocols, each
    // from its own traced side run (the table stays tracing-free).
    if do_analyze {
        for protocol in ProtocolMode::ALL {
            let s = crate::critical_path::summarize_traced_run(jacobi.protocol(protocol))
                .map_err(|e| Exit::failure(format!("error: {e}")))?;
            println!("\n{s}");
        }
    }
    Ok(())
}
