//! Golden virtual columns of the message-passing versions.
//!
//! The XHPF and PVMe programs are the denominator of the paper's
//! comparison, and a host-side change to their data path (`sp2sim::codec`,
//! `mpl`, `xhpf`, the apps' `mp_node`s) must move nothing simulated: not
//! a message, not a byte, not a bit of virtual time or of the result.
//! The table below was recorded from the commit *before* the pack/unpack
//! rework of that path (sequential engine, scale 0.05) and is compared
//! exactly. `cross_version` pins the results against `Seq` and
//! `engine_equivalence` pins Jacobi across engines; this pins every
//! message-passing cell across commits, so a dropped, split or resized
//! message shows up here and not only in the benchmark's in-process gate.
//!
//! To re-record after a change that *means* to move a column (say why in
//! the PR): `cargo test --release --test mp_equivalence -- --ignored
//! --nocapture print_golden_table` and paste the rows.

use apps::{AppId, RunResult, RunSpec, Version};
use sp2sim::MsgKind;

const SCALE: f64 = 0.05;

/// One cell of the table: everything simulated that a run reports.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Golden {
    /// `RunResult::time_us.to_bits()`.
    time_bits: u64,
    /// `Data` messages and payload bytes of the timed region.
    data: (u64, u64),
    /// `Sync` messages and payload bytes of the timed region.
    sync: (u64, u64),
    /// Messages of every other kind (the message-passing programs send none).
    other_msgs: u64,
    /// The checksum vector's bit patterns, folded in order.
    checksum_fold: u64,
}

impl Golden {
    fn of(r: &RunResult) -> Golden {
        let kind = |k: MsgKind| (r.stats.messages(k), r.stats.bytes_of(k));
        let data = kind(MsgKind::Data);
        let sync = kind(MsgKind::Sync);
        Golden {
            time_bits: r.time_us.to_bits(),
            data,
            sync,
            other_msgs: r.stats.total_messages() - data.0 - sync.0,
            // Order-sensitive, so swapped components do not cancel.
            checksum_fold: r.checksum.iter().fold(0u64, |h, x| {
                (h.rotate_left(7) ^ x.to_bits()).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }),
        }
    }
}

fn cells() -> impl Iterator<Item = (AppId, Version, usize)> {
    AppId::ALL.into_iter().flat_map(|app| {
        [Version::Xhpf, Version::Pvme]
            .into_iter()
            .flat_map(move |v| [8usize, 3].into_iter().map(move |np| (app, v, np)))
    })
}

fn measure(app: AppId, v: Version, np: usize) -> Golden {
    Golden::of(&RunSpec::new(app, v, np, SCALE).run())
}

const fn g(
    time_bits: u64,
    data: (u64, u64),
    sync: (u64, u64),
    other_msgs: u64,
    checksum_fold: u64,
) -> Golden {
    Golden {
        time_bits,
        data,
        sync,
        other_msgs,
        checksum_fold,
    }
}

/// Recorded at the parent of the pack/unpack rework, in `cells()` order.
#[rustfmt::skip]
const TABLE: [Golden; 24] = [
    g(0x40b8612f286bca0b, (70, 57120), (140, 0), 0, 0xf025ac1a88f6219e), // Jacobi Xhpf x8
    g(0x40b2416bca1af281, (20, 16320), (40, 0), 0, 0xf025ac1a88f6219e), // Jacobi Xhpf x3
    g(0x409680a1af286bc8, (70, 57120), (0, 0), 0, 0xf025ac1a88f6219e), // Jacobi Pvme x8
    g(0x40a34f6bca1af287, (20, 16320), (0, 0), 0, 0xf025ac1a88f6219e), // Jacobi Pvme x3
    g(0x40c1288d79435e4e, (315, 131040), (126, 0), 0, 0xf9cf74d4b7391369), // Shallow Xhpf x8
    g(0x40bcdbfd4e25b9ee, (105, 43680), (36, 0), 0, 0xf9cf74d4b7391369), // Shallow Xhpf x3
    g(0x409f66c7691840ac, (90, 131040), (0, 0), 0, 0xf9cf74d4b7391369), // Shallow Pvme x8
    g(0x40aad6308158ed22, (30, 43680), (0, 0), 0, 0xf9cf74d4b7391369), // Shallow Pvme x3
    g(0x40ef8e2b48c2057c, (357, 145656), (1428, 0), 0, 0x45bea51a97d45b62), // MGS Xhpf x8
    g(0x40dcc68158ed22cb, (102, 41616), (408, 0), 0, 0x45bea51a97d45b62), // MGS Xhpf x3
    g(0x40c32cf08158ed2d, (357, 145656), (0, 0), 0, 0x45bea51a97d45b62), // MGS Pvme x8
    g(0x40c2132d23081596, (102, 41616), (0, 0), 0, 0x45bea51a97d45b62), // MGS Pvme x3
    g(0x40c1715e50d79436, (168, 14784), (140, 0), 0, 0xcabf8898b0d48af6), // 3-D FFT Xhpf x8
    g(0x40b81250d79435dc, (28, 10880), (40, 0), 0, 0xf648ddf6bf774e60), // 3-D FFT Xhpf x3
    g(0x40a94c35e50d793e, (140, 14784), (0, 0), 0, 0xcabf8898b0d48af6), // 3-D FFT Pvme x8
    g(0x40ae6435e50d7946, (20, 10880), (0, 0), 0, 0xf648ddf6bf774e60), // 3-D FFT Pvme x3
    g(0x40c3104e25b9efc6, (210, 105336), (42, 0), 0, 0x8104c42139384736), // IGrid Xhpf x8
    g(0x40bc42a712dcf7e4, (30, 30096), (12, 0), 0, 0x1f3c3ddab882c34b), // IGrid Xhpf x3
    g(0x40ad510d79435e55, (84, 8736), (0, 0), 0, 0x8104c42139384736), // IGrid Pvme x8
    g(0x40b61dbf53896e7e, (24, 2496), (0, 0), 0, 0x1f3c3ddab882c34b), // IGrid Pvme x3
    g(0x40f1a4dedcf7ea6e, (798, 2373504), (42, 0), 0, 0xaeb2d464f243340c), // NBF Xhpf x8
    g(0x40e787840227e1d0, (114, 530784), (12, 0), 0, 0xaeb2d464f243340c), // NBF Xhpf x3
    g(0x40ca3c60113f0e89, (84, 206976), (0, 0), 0, 0xaeb2d464f243340c), // NBF Pvme x8
    g(0x40e01b5fb2643e84, (24, 59136), (0, 0), 0, 0xaeb2d464f243340c), // NBF Pvme x3
];

#[test]
fn message_passing_cells_match_the_recorded_columns() {
    let mut bad = Vec::new();
    for ((app, v, np), want) in cells().zip(TABLE) {
        let got = measure(app, v, np);
        if got != want {
            bad.push(format!(
                "{} {:?} on {np}:\n   got {got:?}\n  want {want:?}",
                app.name(),
                v
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
    for (app, v, np) in cells() {
        let c = measure(app, v, np);
        println!(
            "    g({:#018x}, ({}, {}), ({}, {}), {}, {:#018x}), // {} {:?} x{np}",
            c.time_bits,
            c.data.0,
            c.data.1,
            c.sync.0,
            c.sync.1,
            c.other_msgs,
            c.checksum_fold,
            app.name(),
            v
        );
    }
}
