//! The `sweep` product: `BENCH_sweep.json`, the one committed record of
//! the virtual clock.
//!
//! The file lists a fixed set of cells — `cells`, the paper's own among
//! them — and, per cell, only simulated quantities, which are
//! deterministic: rendering the cells again gives the committed file byte
//! for byte, and three root tests hold every cell to its row:
//! `tests/bench_sweep.rs` the unhinted shared-memory and `Seq` cells and
//! the file's layout, `tests/cri_golden.rs` the hinted cells and
//! `tests/mp_equivalence.rs` the message-passing ones. A change that
//! moves a simulated column therefore fails the test suite until the
//! file is re-recorded (`dsm sweep`), and the diff of the file is the
//! review of what moved. `tests/experiment_shape.rs` asserts the
//! paper's claims over the paper's rows. The host clock of these cells
//! is the benchmark's (`BENCH_host.json`), not this file's.
//!
//! Per cell, the row (`bench_sweep/v5`) holds:
//!
//! * the run — `app`, `version`, `protocol`, `nprocs`, `scale`,
//!   `page_words`;
//! * the timed region — `time_us`, `messages`, `bytes`;
//! * the event trace's breakdown, summed over nodes over the whole run —
//!   `wait_us` (synchronization waits) and `service_us` (protocol
//!   service, app-side plus the request loops);
//! * the causal columns — `critical_path_us` (the longest dependence
//!   chain through the correlation-id DAG) and `cp_wait_share` (the
//!   fraction of it not spent computing);
//! * the hottest sharing sites — `hot_page` (most faults) and `hot_lock`
//!   (most blocked time), `-1` when there is none;
//! * `kinds` — messages and bytes of the timed region per message kind
//!   that sent any;
//! * `hints` — the counters a hinted run's plans must keep:
//!   `pages_pushed`, `validates`, `validate_pages`, `inspections`,
//!   `schedule_reuse`;
//! * `checksum` — the result vector, every number exact.
//!
//! v5 dropped v4's host columns (wall-clock time, the scratch-arena
//! counters, the totals and the throughput) and added the hinted and
//! message-passing cells with `kinds`, `hints` and `checksum`.

use apps::{AppId, RunResult, RunSpec, Version};
use sp2sim::stats::ALL_KINDS;
use sp2sim::EngineKind;
use treadmarks::ProtocolMode::{self, Hlrc, Lrc};

use crate::cli::Cli;
use crate::cmd::{compiler_opt, figure1, figure2_table3, handopt, table2};
use crate::experiments::Cells;
use crate::json::{num, obj, Json};
use crate::sweep::sweep_map;

/// Schema tag of the document.
const SCHEMA: &str = "bench_sweep/v5";

/// The hinted (SPF+CRI) cells: on 8 nodes, the benchmark's five
/// `cri-hinted` cells at reduced scales with IGrid under both protocols,
/// then Jacobi under both protocols; on 3 nodes, where blocks are uneven
/// and MGS's last dispatches are empty on some nodes, the five apps whose
/// descriptors derive from their loops' footprints.
const HINTED: [(AppId, ProtocolMode, usize, f64); 13] = [
    (AppId::IGrid, Hlrc, 8, 0.2),
    (AppId::IGrid, Lrc, 8, 0.2),
    (AppId::Nbf, Lrc, 8, 0.2),
    (AppId::Shallow, Lrc, 8, 0.1),
    (AppId::Mgs, Lrc, 8, 0.12),
    (AppId::Fft3d, Lrc, 8, 0.25),
    (AppId::Jacobi, Lrc, 8, 0.1),
    (AppId::Jacobi, Hlrc, 8, 0.1),
    (AppId::Jacobi, Lrc, 3, 0.1),
    (AppId::Shallow, Lrc, 3, 0.09),
    (AppId::Mgs, Lrc, 3, 0.12),
    (AppId::Fft3d, Lrc, 3, 0.25),
    (AppId::Nbf, Lrc, 3, 0.2),
];

/// The scale of the paper's cells: the largest at which re-rendering
/// them keeps `cargo build --release && cargo test -q` within 20 s of its
/// wall time without them (on two x86-64 cores, a warm test run: +16 s
/// at 0.5, about +20 s at 0.52, +59 s at 0.8).
pub const PAPER_SCALE: f64 = 0.5;

/// Every cell of the file, in file order, all on the FIFO schedule with
/// tracing on:
///
/// 1. the compiler-parallelized shared-memory version ([`Version::Spf`])
///    of every application on 8 nodes — per application HLRC then LRC,
///    then scale (0.05, 0.1), then page size (256, 512 words);
/// 2. the hinted cells (`HINTED`);
/// 3. XHPF then PVMe of every application on 8 and on 3 nodes at
///    scale 0.05;
/// 4. the paper's cells: the distinct cells, `Seq` baselines included,
///    that Figures 1–2, Tables 2–3, §5 and the compiler–runtime study
///    read on 8 nodes under LRC at [`PAPER_SCALE`].
pub fn cells() -> Vec<RunSpec> {
    let traced = |spec: RunSpec| RunSpec {
        cfg: spec.cfg.with_trace(true),
        ..spec
    };
    let mut cells = Vec::new();
    for app in AppId::ALL {
        for protocol in [Hlrc, Lrc] {
            for scale in [0.05, 0.1] {
                for page_words in [256, 512] {
                    let mut spec = RunSpec::new(app, Version::Spf, 8, scale).protocol(protocol);
                    spec.cfg.page_words = page_words;
                    cells.push(traced(spec));
                }
            }
        }
    }
    for (app, protocol, nprocs, scale) in HINTED {
        let spec = RunSpec::new(app, Version::SpfCri, nprocs, scale).protocol(protocol);
        cells.push(traced(spec));
    }
    for app in AppId::ALL {
        for version in [Version::Xhpf, Version::Pvme] {
            for nprocs in [8, 3] {
                cells.push(traced(RunSpec::new(app, version, nprocs, 0.05)));
            }
        }
    }
    let paper = Cli {
        scale: PAPER_SCALE,
        nprocs: 8,
        engine: EngineKind::Sequential,
        protocol: Lrc,
    };
    let lists = [
        figure1::cells,
        table2::cells,
        figure2_table3::cells,
        handopt::cells,
        compiler_opt::cells,
    ];
    let specs: Vec<RunSpec> = lists.iter().flat_map(|list| list(&paper)).collect();
    cells.extend(Cells::distinct(&specs).into_iter().map(traced));
    cells
}

/// Run `spec` (through [`crate::oracle`]) and render its row. The spec
/// must have tracing on: the breakdown and causal columns come from the
/// trace.
pub fn row(spec: &RunSpec) -> Json {
    render(spec, &crate::oracle::run(spec))
}

/// The row of `r`, the run of `spec`.
pub fn render(spec: &RunSpec, r: &RunResult) -> Json {
    let trace = r.trace.as_ref().expect("sweep cells run traced");
    let breakdown = crate::trace_analysis::analyze(trace);
    let (critical_path_us, cp_wait_share) = crate::critical_path::compute(trace)
        .map_or((0.0, 0.0), |cp| (cp.length_us(), cp.wait_share()));
    let hot_page = r
        .sharing
        .hottest_pages()
        .first()
        .map_or(-1, |(p, _)| *p as i64);
    let hot_lock = r.sharing.hottest_lock().map_or(-1, i64::from);
    let kinds = ALL_KINDS
        .iter()
        .filter(|&&k| r.stats.messages(k) > 0)
        .map(|&k| {
            let pair = obj(vec![
                ("messages", num(r.stats.messages(k) as f64)),
                ("bytes", num(r.stats.bytes_of(k) as f64)),
            ]);
            (k.label().to_string(), pair)
        })
        .collect();
    let d = &r.dsm;
    obj(vec![
        ("app", Json::Str(spec.app.name().into())),
        ("version", Json::Str(spec.version.name().into())),
        ("protocol", Json::Str(spec.cfg.protocol.name().into())),
        ("nprocs", num(spec.nprocs as f64)),
        ("scale", num(spec.scale)),
        ("page_words", num(spec.cfg.page_words as f64)),
        ("time_us", num(r.time_us)),
        ("messages", num(r.messages as f64)),
        ("bytes", num(r.stats.total_bytes() as f64)),
        ("wait_us", num(breakdown.wait_us())),
        ("service_us", num(breakdown.service_us())),
        ("critical_path_us", num(critical_path_us)),
        ("cp_wait_share", num(cp_wait_share)),
        ("hot_page", num(hot_page as f64)),
        ("hot_lock", num(hot_lock as f64)),
        ("kinds", Json::Obj(kinds)),
        (
            "hints",
            obj(vec![
                ("pages_pushed", num(d.pages_pushed as f64)),
                ("validates", num(d.validates as f64)),
                ("validate_pages", num(d.validate_pages as f64)),
                ("inspections", num(d.inspections as f64)),
                ("schedule_reuse", num(d.schedule_reuse as f64)),
            ]),
        ),
        (
            "checksum",
            Json::Arr(r.checksum.iter().map(|&x| num(x)).collect()),
        ),
    ])
}

/// The whole document: every cell of `cells`, run across cores, in file
/// order.
pub fn document() -> Json {
    let rows = sweep_map(&cells(), row);
    obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("cells", num(rows.len() as f64)),
        ("grid", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::baseline;

    /// A cell listed twice is recorded twice — at a paper scale of 0.05
    /// or 0.1 the paper's SPF cells are grid cells — and a paper cell
    /// without its `Seq` row has no speedup on record.
    #[test]
    fn cells_are_distinct_and_hold_every_paper_baseline() {
        let untraced = |spec: RunSpec| RunSpec {
            cfg: spec.cfg.with_trace(false),
            ..spec
        };
        let cells: Vec<RunSpec> = cells().into_iter().map(untraced).collect();
        for (i, cell) in cells.iter().enumerate() {
            assert!(
                !cells[..i].contains(cell),
                "cell {i} is listed twice: {cell:?}"
            );
        }
        for cell in cells.iter().filter(|c| c.scale == PAPER_SCALE) {
            let seq = baseline(cell);
            assert!(cells.contains(&seq), "no Seq row for {cell:?}");
        }
    }
}
