//! Golden virtual columns of the hinted (SPF+CRI) cells.
//!
//! The hint engine turns a loop's descriptors into validates, pushes and
//! home placements; how it gets from descriptor to page list is host-side
//! work and must move nothing simulated. The thirteen hinted cells of
//! `harness::bench_sweep::cells` (8 nodes, and 3 nodes where blocks are
//! uneven; reduced scales) are rendered
//! and compared exactly with their rows of the committed
//! `BENCH_sweep.json`: virtual time to the bit, messages and bytes in
//! total and per kind, the hint counters a replayed plan must keep
//! (`pages_pushed`, `validates`, `validate_pages`, `inspections`,
//! `schedule_reuse`) and the result. `cri_equivalence` pins hinted
//! against unhinted memory and `inspector_equivalence` the dynamic
//! descriptors; this pins every hinted cell across commits, so a lost
//! push, an extra validate or a schedule-reuse count that drifted shows
//! up here by name.

mod golden;

use apps::Version;

#[test]
fn hinted_cells_match_the_recorded_columns() {
    golden::assert_cells_match(|s| s.version == Version::SpfCri);
}
