//! The committed `BENCH_sweep.json` is what the simulator computes today.
//!
//! The file is the one record of the virtual clock: every cell of
//! `harness::bench_sweep::cells` — the SPF grid, the hinted (SPF+CRI)
//! cells and the message-passing (XHPF, PVMe) cells — with its virtual
//! time, traffic in total and per message kind, trace breakdown, causal
//! columns, hint counters and checksum. This file holds the unhinted
//! shared-memory cells (SPF, hand-coded, hand-optimized) and the file's
//! shape; `cri_golden` and `mp_equivalence` hold the other cells, each
//! with the same comparison (`golden`). A change that
//! moves anything simulated — a lost push, an extra validate, a split
//! or resized message, a bit of virtual time or of a result — fails one
//! of them, naming each cell and key that moved.

mod golden;

use apps::Version;
use harness::bench_sweep::cells;
use harness::Json;

/// The unhinted shared-memory versions: the compiler-parallelized one
/// of every application on 8 nodes, under both protocols, at two scales
/// and two page sizes, and the hand-coded and hand-optimized ones.
#[test]
fn spf_cells_match_bench_sweep_json() {
    golden::assert_cells_match(|s| {
        matches!(s.version, Version::Spf | Version::Tmk | Version::HandOpt)
    });
}

/// The file is `dsm sweep`'s output: its schema, one row per cell and
/// the renderer's layout, so a re-recording changes no byte that the
/// cell comparisons do not explain.
#[test]
fn bench_sweep_json_is_the_rendered_document() {
    let file = golden::committed();
    assert_eq!(
        file.get("schema").and_then(Json::as_str),
        Some("bench_sweep/v5")
    );
    let rows = file
        .get("grid")
        .and_then(Json::as_arr)
        .map_or(0, <[_]>::len);
    assert_eq!(rows, cells().len(), "one row per cell");
    assert_eq!(file.get("cells").and_then(Json::as_u64), Some(rows as u64));
    assert!(
        file.render() == golden::COMMITTED,
        "BENCH_sweep.json is not laid out as `dsm sweep` writes it; re-record it"
    );
}
