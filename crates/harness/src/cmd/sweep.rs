//! `sweep` — run the benchmark grid and emit the perf trajectory.
//!
//! Runs every application × protocol × scale × page-size cell
//! (see [`crate::bench_sweep`]) and writes `BENCH_sweep.json`: per
//! cell the deterministic simulated quantities (virtual time, messages,
//! bytes) next to the host quantities (wall-clock µs, scratch-arena
//! counters), plus aggregate simulated-seconds-per-host-second. The
//! committed file is the simulator's perf trajectory: a perf change
//! shows up as a wall-clock diff with simulated columns untouched.
//!
//! Usage: `sweep [scale-mult] [nprocs] [--smoke] [--out FILE] [--check FILE]`
//!
//! * `--smoke` — the reduced CI grid (one scale, one page size).
//! * `--out FILE` — where to write the document (default `BENCH_sweep.json`).
//! * `--check FILE` — don't run anything; parse and schema-validate an
//!   existing document, print its summary, exit non-zero on failure.
//!
//! The common `--protocol` flag is accepted but ignored: the grid covers
//! both protocols. `--engine seeded:N` is refused: the trajectory is the
//! FIFO schedule's. The cells fan out across cores, longest-expected
//! first.

use crate::bench_sweep::{full_grid, run_grid, smoke_grid};
use crate::cli::{Cli, Exit, Flags};
use crate::SweepDoc;

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    let smoke = flags.has("--smoke");
    let out = flags
        .value("--out")
        .unwrap_or_else(|| "BENCH_sweep.json".into());
    let check = flags.value("--check");

    if let Some(path) = check {
        return check_file(&path);
    }
    if cli.engine != sp2sim::EngineKind::Sequential {
        return Err(Exit::usage(
            "sweep records the sequential schedule only; explore seeds with another subcommand",
        ));
    }

    let cells = if smoke {
        smoke_grid(cli.nprocs, cli.scale)
    } else {
        full_grid(cli.nprocs, cli.scale)
    };
    eprintln!(
        "sweep: {} cells ({}), nprocs {}, scale x{}",
        cells.len(),
        if smoke { "smoke grid" } else { "full grid" },
        cli.nprocs,
        cli.scale,
    );

    let doc = SweepDoc {
        cells: run_grid(&cells),
    };
    let text = doc.render();
    std::fs::write(&out, &text).map_err(|e| Exit::error(format!("cannot write {out}: {e}")))?;
    print_summary(&doc);
    eprintln!("sweep: wrote {out}");
    Ok(())
}

fn check_file(path: &str) -> Result<(), Exit> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Exit::error(format!("cannot read {path}: {e}")))?;
    let doc = SweepDoc::parse(&text).map_err(|e| Exit::failure(format!("error: {path}: {e}")))?;
    eprintln!(
        "sweep: {path} is a valid {} document",
        crate::bench_sweep::SCHEMA
    );
    print_summary(&doc);
    Ok(())
}

fn print_summary(doc: &SweepDoc) {
    println!(
        "cells {}  simulated {:.1} s  host {:.1} s  throughput {:.2} sim-s/host-s  arena hit rate {:.1}%",
        doc.cells.len(),
        doc.total_time_us() / 1e6,
        doc.total_wall_us() as f64 / 1e6,
        doc.sims_per_sec(),
        100.0 * doc.arena_hit_rate(),
    );
    println!(
        "breakdown: wait {:.1} s  service {:.1} s (virtual, summed over nodes and cells)",
        doc.total_wait_us() / 1e6,
        doc.total_service_us() / 1e6,
    );
    println!(
        "causal: critical path {:.1} s (summed over cells)",
        doc.total_critical_path_us() / 1e6,
    );
}
