//! Golden virtual columns of the hinted (SPF+CRI) cells.
//!
//! The hint engine turns a loop's descriptors into validates, pushes and
//! home placements; how it gets from descriptor to page list is host-side
//! work and must move nothing simulated. The table below was recorded
//! from the commit *before* hint plans and page runs replaced per-dispatch
//! descriptor evaluation over per-page sets (sequential engine, 8 nodes,
//! reduced scales) and is compared exactly: virtual time to the bit,
//! messages and bytes in total and per kind, the hint counters a replayed
//! plan must keep (`pages_pushed`, `validates`, `validate_pages`,
//! `inspections`, `schedule_reuse`) and the result's bits.
//! `cri_equivalence` pins hinted against unhinted memory and
//! `inspector_equivalence` the dynamic descriptors; this pins every
//! hinted cell across commits, so a lost push, an extra validate or a
//! schedule-reuse count that drifted shows up here by name.
//!
//! To re-record after a change that *means* to move a column (say why in
//! the PR): `cargo test --release --test cri_golden -- --ignored
//! --nocapture print_golden_table` and paste the rows.

use apps::{AppId, RunResult, RunSpec, Version};
use sp2sim::stats::ALL_KINDS;
use treadmarks::ProtocolMode::{self, Hlrc, Lrc};

const NPROCS: usize = 8;

/// The benchmark's five `cri-hinted` cells at a reduced scale, plus
/// Jacobi under both protocols at scale 0.1 (its message bound at 0.08
/// is held by `tests/cri_equivalence.rs`).
const CELLS: [(AppId, ProtocolMode, f64); 7] = [
    (AppId::IGrid, Hlrc, 0.2),
    (AppId::Nbf, Lrc, 0.2),
    (AppId::Shallow, Lrc, 0.1),
    (AppId::Mgs, Lrc, 0.12),
    (AppId::Fft3d, Lrc, 0.25),
    (AppId::Jacobi, Lrc, 0.1),
    (AppId::Jacobi, Hlrc, 0.1),
];

fn mix(h: u64, x: u64) -> u64 {
    // Order-sensitive, so swapped components do not cancel.
    (h.rotate_left(7) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One cell of the table: everything simulated that a hinted run reports.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Golden {
    /// `RunResult::time_us.to_bits()`.
    time_bits: u64,
    /// Messages and payload bytes of the timed region.
    traffic: (u64, u64),
    /// Per-kind message and byte counts, folded in `ALL_KINDS` order.
    kinds_fold: u64,
    /// `pages_pushed`, `validates`, `validate_pages`.
    hints: (u64, u64, u64),
    /// `inspections`, `schedule_reuse`.
    schedules: (u64, u64),
    /// The checksum vector's bit patterns, folded in order.
    checksum_fold: u64,
}

impl Golden {
    fn of(r: &RunResult) -> Golden {
        Golden {
            time_bits: r.time_us.to_bits(),
            traffic: (r.stats.total_messages(), r.stats.total_bytes()),
            kinds_fold: ALL_KINDS.iter().fold(0, |h, &k| {
                mix(mix(h, r.stats.messages(k)), r.stats.bytes_of(k))
            }),
            hints: (r.dsm.pages_pushed, r.dsm.validates, r.dsm.validate_pages),
            schedules: (r.dsm.inspections, r.dsm.schedule_reuse),
            checksum_fold: r.checksum.iter().fold(0, |h, x| mix(h, x.to_bits())),
        }
    }
}

fn measure(app: AppId, protocol: ProtocolMode, scale: f64) -> Golden {
    let spec = RunSpec::new(app, Version::SpfCri, NPROCS, scale);
    Golden::of(&spec.protocol(protocol).run())
}

const fn g(
    time_bits: u64,
    traffic: (u64, u64),
    kinds_fold: u64,
    hints: (u64, u64, u64),
    schedules: (u64, u64),
    checksum_fold: u64,
) -> Golden {
    Golden {
        time_bits,
        traffic,
        kinds_fold,
        hints,
        schedules,
        checksum_fold,
    }
}

/// Recorded at the parent of the hint-plan change, in `CELLS` order.
#[rustfmt::skip]
const TABLE: [Golden; 7] = [
    g(0x40eaa27d79435e62, (272, 321400), 0x4fc46301cb4c5b97, (358, 40, 20), (128, 300), 0x9a397bc11a87a851), // IGrid hlrc @0.2
    g(0x40f88641b0052c8e, (238, 2526752), 0x63c3d9cc2d22a4fb, (345, 72, 3), (64, 840), 0xb4c4a4374f5dcdcf), // NBF lrc @0.2
    g(0x40f3982afb2643e9, (764, 2678208), 0x586fa4a36f3c6ef1, (1809, 248, 126), (0, 0), 0xb489247b742ce038), // Shallow lrc @0.1
    g(0x410534219d0c9c16, (3324, 2545384), 0xb48123c573efda31, (1597, 984, 6), (0, 0), 0x80b3f88cfddcc40b), // MGS lrc @0.12
    g(0x41074fe2c31954ba, (1664, 8161352), 0x1078568691e253d0, (2112, 240, 772), (0, 0), 0xc2c1176052df2226), // 3-D FFT lrc @0.25
    g(0x40e1442b1da4610d, (594, 255792), 0x2ac89181cba80a8d, (352, 176, 106), (0, 0), 0x9cbc9cc52b201f6f), // Jacobi lrc @0.1
    g(0x40f17bc6ee36f900, (1214, 1963496), 0x1446717a97e320be, (308, 176, 148), (0, 0), 0x9cbc9cc52b201f6f), // Jacobi hlrc @0.1
];

#[test]
fn hinted_cells_match_the_recorded_columns() {
    let mut bad = Vec::new();
    for ((app, protocol, scale), want) in CELLS.into_iter().zip(TABLE) {
        let got = measure(app, protocol, scale);
        if got != want {
            bad.push(format!(
                "{} SPF+CRI {protocol} @{scale}:\n   got {got:?}\n  want {want:?}",
                app.name()
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "simulated columns moved:\n{}",
        bad.join("\n")
    );
}

#[test]
#[ignore = "prints the table for re-recording"]
fn print_golden_table() {
    for (app, protocol, scale) in CELLS {
        let c = measure(app, protocol, scale);
        println!(
            "    g({:#018x}, {:?}, {:#018x}, {:?}, {:?}, {:#018x}), // {} {protocol} @{scale}",
            c.time_bits,
            c.traffic,
            c.kinds_fold,
            c.hints,
            c.schedules,
            c.checksum_fold,
            app.name()
        );
    }
}
