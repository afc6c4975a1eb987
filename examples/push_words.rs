//! What SPF+CRI's pushes carry, word by word.
//!
//! Run with: `cargo run --release --example push_words`
//!
//! A hinted loop's producers push what its consumers read. Under LRC a
//! push of a page carries the meet of the producer's newest range with
//! the words the consumer's footprint touches there, and the range's
//! other words as holes the consumer faults on if it ever reads them
//! (`treadmarks::hole`). For each cell this prints, over every push of a
//! range to a node (whole run):
//!
//! * `pushes` — pages pushed, one per target;
//! * `changed` — words the pushed ranges changed;
//! * `sent` — words sent with their values (all of `changed` for a page
//!   pushed whole);
//! * `read` — words the consumers' footprints touch on the pages pushed
//!   by meet (a page whose range lies inside its meet goes whole);
//!
//! then the timed region's push and total megabytes, the hole faults of
//! the timed region and of the whole run (the master's checksum reads
//! every word), and the whole traffic of XHPF (compiler-generated
//! message passing) on the same cell. The cells: the `cri-hinted`
//! benchmark workload's five (8 nodes) and Shallow and 3-D FFT at 0.25 on
//! 8, 16 and 32 nodes.

use apps::{AppId, RunSpec, Version};
use sp2sim::MsgKind;
use treadmarks::ProtocolMode;

fn main() {
    use AppId::*;
    use ProtocolMode::*;
    let mut cells = vec![
        (IGrid, Hlrc, 0.48, 8),
        (Nbf, Lrc, 0.5, 8),
        (Shallow, Lrc, 0.2, 8),
        (Mgs, Lrc, 0.25, 8),
        (Fft3d, Lrc, 0.5, 8),
    ];
    for app in [Shallow, Fft3d] {
        cells.extend([8, 16, 32].map(|np| (app, Lrc, 0.25, np)));
    }
    println!(
        "{:<16} {:>3} {:>5} {:>7} {:>10} {:>10} {:>10} {:>8} {:>8} {:>6} {:>6} {:>8}",
        "cell",
        "np",
        "scale",
        "pushes",
        "changed",
        "sent",
        "read",
        "push MB",
        "all MB",
        "holes",
        "in run",
        "XHPF MB"
    );
    let mb = |bytes: u64| bytes as f64 / 1e6;
    for (app, protocol, scale, np) in cells {
        let r = RunSpec::new(app, Version::SpfCri, np, scale)
            .protocol(protocol)
            .run();
        let xhpf = RunSpec::new(app, Version::Xhpf, np, scale).run();
        let d = &r.dsm;
        println!(
            "{:<16} {np:>3} {scale:>5} {:>7} {:>10} {:>10} {:>10} {:>8.2} {:>8.2} {:>6} {:>6} {:>8.2}",
            format!("{} {}", app.name(), protocol),
            d.pages_pushed,
            d.push_words_changed,
            d.push_words_sent,
            d.push_words_read,
            mb(r.stats.bytes_of(MsgKind::Push)),
            mb(r.stats.total_bytes()),
            r.timed_hole_faults,
            d.hole_faults,
            mb(xhpf.stats.total_bytes()),
        );
    }
}
