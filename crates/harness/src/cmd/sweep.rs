//! `sweep` — re-record `BENCH_sweep.json`, the golden virtual-clock cells.
//!
//! Usage: `sweep [--out FILE]` (default `BENCH_sweep.json`).
//!
//! Runs every cell [`crate::bench_sweep::document`] lists, across
//! cores, and writes the document. The cells are fixed: a scale, a
//! processor count, `--engine` or `--protocol` other than the defaults
//! is a usage error. The root tests `tests/bench_sweep.rs`,
//! `cri_golden.rs` and `mp_equivalence.rs` render the same cells and
//! hold them against the committed file, and `experiment_shape.rs`
//! asserts the paper's claims over its paper rows, so this is how a
//! change that means to move a simulated column records the move.

use sp2sim::EngineKind;
use treadmarks::ProtocolMode;

use crate::cli::{Cli, Exit, Flags};

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    let fixed = (cli.scale, cli.nprocs) == super::COMMON.defaults
        && cli.engine == EngineKind::Sequential
        && cli.protocol == ProtocolMode::Lrc;
    if !fixed {
        return Err(Exit::usage(
            "sweep records its fixed cells: it takes no scale, nprocs, --engine or --protocol",
        ));
    }
    let out = flags
        .value("--out")
        .unwrap_or_else(|| "BENCH_sweep.json".into());
    let doc = crate::bench_sweep::document();
    std::fs::write(&out, doc.render())
        .map_err(|e| Exit::error(format!("cannot write {out}: {e}")))?;
    eprintln!("sweep: wrote {out}");
    Ok(())
}
