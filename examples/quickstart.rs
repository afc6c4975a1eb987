//! Quickstart: a four-node TreadMarks cluster sharing one array.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! Demonstrates the core DSM workflow of the paper's hand-coded
//! shared-memory programs: allocate shared memory, write your partition,
//! synchronize with a barrier, read whatever you need on demand — the
//! DSM fetches exactly the pages that changed, as diffs.

use sp2sim::{Cluster, ClusterConfig};
use treadmarks::{Tmk, TmkConfig};

fn main() {
    const N: usize = 4096;
    let out = Cluster::run(ClusterConfig::sp2(4), |node| {
        let tmk = Tmk::new(node, TmkConfig::default());
        let me = tmk.proc_id();
        let np = tmk.nprocs();
        let data = tmk.malloc_f64(N);

        // Everyone fills its own block: data[i] = i².
        let chunk = N / np;
        let mine = me * chunk..(me + 1) * chunk;
        {
            let mut w = tmk.write(data, mine.clone());
            for i in mine.clone() {
                w[i] = (i * i) as f64;
            }
        }
        tmk.barrier(0);

        // Every node now sums the *whole* array: remote pages fault in
        // on demand and are cached afterwards. The view is a window onto
        // the cached pages, not a copy — it must be dropped before the
        // next barrier, so it lives in this one expression.
        let total: f64 = tmk.read(data, 0..N).slice().iter().sum();

        tmk.barrier(1);
        let stats = tmk.finish();
        (total, stats.faults)
    });

    let expect: f64 = (0..N).map(|i| (i * i) as f64).sum();
    for (id, (total, faults)) in out.results.iter().enumerate() {
        println!("node {id}: sum = {total} (expected {expect}), faults taken = {faults}");
        assert_eq!(*total, expect);
    }
    println!(
        "cluster: {} messages, {} KB of data, {} simulated",
        out.stats.total_messages(),
        out.stats.total_kbytes(),
        out.elapsed,
    );
}
