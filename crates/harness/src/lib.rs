//! # harness — regenerates every table and figure of the paper
//!
//! One binary, `dsm`: each table, figure and tool is a subcommand, listed
//! with its summary, defaults and flags in [`cmd::COMMANDS`] (`dsm help`
//! prints that table; `dsm all` prints its ten paper artifacts in order).
//! Artifacts declare cells and render them: each artifact's module lists
//! the runs it reads, [`experiments::Cells`] runs each distinct one once
//! — an artifact's own list alone, the union of all ten under `all` —
//! and the artifact renders its table from them with the `report`
//! module's aligned text tables. `sweep` is [`bench_sweep`], `analyze` is
//! [`trace_analysis`] and [`critical_path`]. Every cell any of
//! them runs goes through [`oracle`],
//! which holds its checksum against the sequential program's and fails
//! the subcommand on a wrong result. The full suite is
//! `cargo run --release -p harness -- all`.
//!
//! Problem scale: experiments accept a `scale` (1.0 = paper sizes).
//! Because virtual time is simulated, speedups are deterministic; small
//! scales run in seconds and preserve the paper's qualitative shape,
//! while `scale = 1.0` reproduces the calibrated magnitudes.

#![forbid(unsafe_code)]

pub mod bench_sweep;
pub mod cli;
pub mod cmd;
pub mod critical_path;
pub mod experiments;
pub mod json;
pub mod oracle;
pub mod report;
pub mod sweep;
pub mod trace_analysis;

pub use critical_path::{check_dag, CriticalPath, DagCheck, Segment, SegmentKind};
pub use json::Json;
pub use report::{render_table, Table};
pub use sweep::sweep_map;
pub use trace_analysis::{
    analyze, to_chrome_trace, validate_chrome_trace, EpochBreakdown, NodeBreakdown, TraceAnalysis,
};
