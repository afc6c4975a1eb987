//! Golden virtual columns of the message-passing versions.
//!
//! The XHPF and PVMe programs are the denominator of the paper's
//! comparison, and a host-side change to their data path (`sp2sim::codec`,
//! `mpl`, `xhpf`, the apps' `mp_node`s) must move nothing simulated: not
//! a message, not a byte, not a bit of virtual time or of the result.
//! The message-passing cells of `harness::bench_sweep::cells` (every
//! application on 8 and 3 nodes at 0.05, on 8 at the paper's scale) are
//! rendered and compared exactly with their rows of `BENCH_sweep.json`.
//! `cross_version` pins the results against `Seq` and
//! `engine_equivalence` pins Jacobi across engines; this pins every
//! message-passing cell across commits, so a dropped, split or resized
//! message shows up here and not only in the benchmark's in-process gate.

mod golden;

use apps::Version;

#[test]
fn message_passing_cells_match_the_recorded_columns() {
    golden::assert_cells_match(|s| matches!(s.version, Version::Xhpf | Version::Pvme));
}
