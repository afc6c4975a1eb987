//! The paper's headline comparison on one regular application.
//!
//! Run with: `cargo run --release --example dsm_vs_mp [scale]`
//!
//! Runs Jacobi in all four program versions (compiler-generated shared
//! memory, hand-coded TreadMarks, compiler-generated message passing,
//! hand-coded PVMe) on 8 simulated processors and prints the Figure 1 /
//! Table 2 row, demonstrating the paper's regular-application result:
//! message passing wins, but the DSM versions are close behind.

use apps::{AppId, RunSpec, Version};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let nprocs = 8;

    let seq = RunSpec::new(AppId::Jacobi, Version::Seq, 1, scale).run();
    println!(
        "Jacobi, sequential time {:.2}s (scale {scale})\n",
        seq.time_us / 1e6
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10}",
        "version", "speedup", "messages", "data KB"
    );
    for v in Version::FIGURE {
        let r = RunSpec::new(AppId::Jacobi, v, nprocs, scale).run();
        assert_eq!(r.checksum, seq.checksum, "all versions agree bitwise");
        println!(
            "{:<12} {:>8.2} {:>10} {:>10}",
            v.name(),
            r.speedup_vs(seq.time_us),
            r.messages,
            r.kbytes
        );
    }
    println!("\n(results verified bit-identical to the sequential run)");
}
