//! The paper's central claim, live: on irregular applications, the
//! compiler + DSM combination crushes compiler-generated message passing.
//!
//! Run with: `cargo run --release --example irregular [scale]`
//!
//! IGrid's accesses go through an indirection map established at run
//! time. The XHPF compiler cannot analyze them and falls back to
//! broadcasting every processor's whole partition after every step; the
//! DSM simply faults in the handful of boundary pages that actually
//! changed. The SPF+CRI row goes one step further: an inspector walks
//! the map once, and the cached communication schedule turns the
//! remaining faults into rendezvous pushes and tree reductions (its
//! amortized walk cost is printed alongside). The data volumes make
//! the mechanism obvious.

use apps::{AppId, RunSpec, Version};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let nprocs = 8;

    for app in AppId::IRREGULAR {
        let seq = RunSpec::new(app, Version::Seq, 1, scale).run();
        println!(
            "{}, sequential time {:.2}s (scale {scale})",
            app.name(),
            seq.time_us / 1e6
        );
        println!(
            "  {:<12} {:>8} {:>10} {:>10}",
            "version", "speedup", "messages", "data KB"
        );
        let mut spf_t = 0.0;
        let mut xhpf_t = 0.0;
        for v in Version::SWEEP {
            let r = RunSpec::new(app, v, nprocs, scale).run();
            if v == Version::Spf {
                spf_t = r.time_us;
            }
            if v == Version::Xhpf {
                xhpf_t = r.time_us;
            }
            let inspector = if r.dsm.inspections > 0 {
                format!(
                    "  (inspector: {} walks, {} reuses, {:.4}s)",
                    r.dsm.inspections,
                    r.dsm.schedule_reuse,
                    r.dsm.inspect_us as f64 / 1e6
                )
            } else {
                String::new()
            };
            println!(
                "  {:<12} {:>8.2} {:>10} {:>10}{inspector}",
                v.name(),
                r.speedup_vs(seq.time_us),
                r.messages,
                r.kbytes
            );
        }
        println!(
            "  => compiler+DSM outperforms compiler-generated message passing by {:.0}%\n",
            (xhpf_t / spf_t - 1.0) * 100.0
        );
    }
}
