//! The quickstart demo workload, shared by the quickstart example and
//! the engine-equivalence tests — one definition, so what the example
//! shows is exactly what is correctness-pinned.

use sp2sim::{Cluster, ClusterConfig, EngineKind, RunOutput};
use treadmarks::{Tmk, TmkConfig};

/// Elements in the shared array.
pub const QUICKSTART_LEN: usize = 4096;

/// The sum every node must compute: `Σ i²` over the array.
pub fn quickstart_expected() -> f64 {
    (0..QUICKSTART_LEN).map(|i| (i * i) as f64).sum()
}

/// Run the quickstart workload — every node writes its partition
/// (`data[i] = i²`), barriers, reads and sums the whole array, barriers,
/// finishes — on `nprocs` nodes under the given schedule.
pub fn quickstart(engine: EngineKind, nprocs: usize) -> RunOutput<f64> {
    Cluster::run(ClusterConfig::sp2_on(nprocs, engine), |node| {
        let tmk = Tmk::new(node, TmkConfig::default());
        let me = tmk.proc_id();
        let data = tmk.malloc_f64(QUICKSTART_LEN);
        let chunk = QUICKSTART_LEN / tmk.nprocs();
        let mine = me * chunk..(me + 1) * chunk;
        {
            let mut w = tmk.write(data, mine.clone());
            for i in mine.clone() {
                w[i] = (i * i) as f64;
            }
        }
        tmk.barrier(0);
        // A view is a window onto the page frames: it must be gone before
        // the next barrier, so it lives in this one expression.
        let total: f64 = tmk.read(data, 0..QUICKSTART_LEN).slice().iter().sum();
        tmk.barrier(1);
        tmk.finish();
        total
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_sums_correctly_on_every_schedule() {
        for engine in EngineKind::explore(8) {
            let out = quickstart(engine, 4);
            let expect = quickstart_expected();
            assert!(out.results.iter().all(|&s| s == expect), "engine {engine}");
        }
    }
}
