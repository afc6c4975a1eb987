//! Running cells and passes, and the correctness gates every cell run
//! goes through. A [`Session`] is one workload's state across set-up,
//! timed passes and traced passes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use apps::common::checksums_close;
use apps::runner::run_with_cfg_on;
use apps::{AppId, RunResult, Version};
use sp2sim::EngineKind;
use treadmarks::{DsmStats, TmkConfig};

use crate::alloc;
use crate::cells::{Cell, Workload, NPROCS};
use crate::fold::{fold, Fold};

/// The simulated columns of one cell run. Bit-exact on the sequential
/// engine, so they are compared with `==` (the time by its bits).
#[derive(Clone, Copy, Debug)]
pub struct SimCols {
    pub time_us: f64,
    pub messages: u64,
    pub bytes: u64,
}

impl PartialEq for SimCols {
    fn eq(&self, o: &SimCols) -> bool {
        self.time_us.to_bits() == o.time_us.to_bits()
            && self.messages == o.messages
            && self.bytes == o.bytes
    }
}

/// Host cost of one pass (sums over its cells; the peak is the largest
/// single cell's high-water above its own starting point).
#[derive(Clone, Copy, Default, Debug)]
pub struct PassCost {
    pub wall_s: f64,
    pub alloc_bytes: u64,
    pub allocs: u64,
    pub peak_live_bytes: u64,
}

/// A traced pass: its host cost and where the time went.
#[derive(Clone, Copy, Debug)]
pub struct TracedPass {
    pub cost: PassCost,
    pub fold: Fold,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Run one simulation on the sequential engine, measuring its host
/// cost from outside. A panic inside the simulator is an `Err`, not the
/// end of the benchmark.
fn run_measured(
    app: AppId,
    version: Version,
    scale: f64,
    cfg: TmkConfig,
) -> (Result<RunResult, String>, PassCost) {
    alloc::reset_peak();
    let before = alloc::snapshot();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_with_cfg_on(EngineKind::Sequential, app, version, NPROCS, scale, cfg)
    }));
    let wall_s = start.elapsed().as_secs_f64();
    let after = alloc::snapshot();
    let cost = PassCost {
        wall_s,
        alloc_bytes: after.bytes - before.bytes,
        allocs: after.count - before.count,
        peak_live_bytes: after.peak - before.live,
    };
    (result.map_err(panic_message), cost)
}

/// One timed round: an untraced pass and, right after it, the
/// sequential programs on the same inputs.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    pub cost: PassCost,
    /// Host seconds of the `Version::Seq` runs of this round.
    pub seq_s: f64,
}

/// One set-up: its wall time, and the part of it that was the
/// sequential programs — how fast the box was just then (see
/// `report::setup_adjusted`).
#[derive(Clone, Copy, Debug)]
pub struct SetUp {
    pub wall_s: f64,
    pub seq_s: f64,
}

pub struct Session {
    pub workload: Workload,
    pub cells: Vec<Cell>,
    /// `Version::Seq` checksum per cell (`None`: the reference run
    /// itself failed, which fails every run of the cell).
    refs: Vec<Option<Vec<f64>>>,
    /// Simulated columns of each cell's first good run; every later
    /// run, traced or not, must reproduce them.
    pub sims: Vec<Option<SimCols>>,
    pub setups: Vec<SetUp>,
    pub rounds: Vec<Round>,
    pub traced: Vec<TracedPass>,
    /// DSM counters summed over the cells of the latest untraced pass.
    pub counts: DsmStats,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Session {
    pub fn new(workload: Workload, seed: u64) -> Session {
        let cells = workload.cells(seed);
        Session {
            workload,
            refs: vec![None; cells.len()],
            sims: vec![None; cells.len()],
            cells,
            setups: Vec::new(),
            rounds: Vec::new(),
            traced: Vec::new(),
            counts: DsmStats::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Run every cell's sequential program (`Version::Seq` at the
    /// cell's scale), keep the checksums as the cells' references, and
    /// return the host seconds the runs took. One run per cell, also
    /// where two cells share an app and a scale, so that the total
    /// does not depend on whether a seed happened to jitter them apart.
    fn sequential_programs(&mut self) -> f64 {
        let mut seq_s = 0.0;
        for i in 0..self.cells.len() {
            let c = self.cells[i];
            let (r, cost) = run_measured(c.app, Version::Seq, c.scale, TmkConfig::default());
            seq_s += cost.wall_s;
            self.refs[i] = r.ok().map(|r| r.checksum);
        }
        seq_s
    }

    /// One set-up: the sequential reference runs and one warm-up pass,
    /// timed together.
    pub fn set_up(&mut self) {
        let start = Instant::now();
        let seq_s = self.sequential_programs();
        self.pass(false);
        self.setups.push(SetUp {
            wall_s: start.elapsed().as_secs_f64(),
            seq_s,
        });
    }

    /// One timed round. The sequential programs run again right after
    /// the pass so that `slowdown_x` divides two times taken within a
    /// second of each other: this box's speed drifts by tens of per
    /// cent over minutes, and the two move together.
    pub fn timed_round(&mut self) {
        let (cost, _) = self.pass(false);
        let seq_s = self.sequential_programs();
        self.rounds.push(Round { cost, seq_s });
    }

    pub fn traced_pass(&mut self) {
        let (cost, fold) = self.pass(true);
        self.traced.push(TracedPass { cost, fold });
    }

    fn fail(&mut self, cell: usize, why: &str) {
        self.failed += 1;
        self.failures.push(format!(
            "{}: {}: {why}",
            self.workload.name(),
            self.cells[cell]
        ));
    }

    /// Run every cell once and put each run through the gates.
    fn pass(&mut self, trace: bool) -> (PassCost, Fold) {
        let mut total = PassCost::default();
        let mut counts = DsmStats::default();
        let mut folded = Fold::default();
        for i in 0..self.cells.len() {
            let c = self.cells[i];
            let cfg = TmkConfig {
                page_words: c.page_words,
                ..TmkConfig::default()
            }
            .with_protocol(c.protocol)
            .with_trace(trace);
            let (result, cost) = run_measured(c.app, c.version, c.scale, cfg);
            total.wall_s += cost.wall_s;
            total.alloc_bytes += cost.alloc_bytes;
            total.allocs += cost.allocs;
            total.peak_live_bytes = total.peak_live_bytes.max(cost.peak_live_bytes);
            self.attempted += 1;
            let r = match result {
                Ok(r) => r,
                Err(panic) => {
                    self.fail(i, &format!("panicked: {panic}"));
                    continue;
                }
            };
            if let Err(why) = self.gate(i, &r, trace, &mut folded) {
                self.fail(i, &why);
            }
            counts.merge(&r.dsm);
        }
        if !trace {
            self.counts = counts;
        }
        (total, folded)
    }

    /// Record what the run measured, then check it. The bookkeeping
    /// comes first so that a failing cell still counts in the sums and
    /// the fold it belongs to.
    fn gate(
        &mut self,
        i: usize,
        r: &RunResult,
        trace: bool,
        folded: &mut Fold,
    ) -> Result<(), String> {
        let sim = SimCols {
            time_us: r.time_us,
            messages: r.messages,
            bytes: r.stats.total_bytes(),
        };
        let first = *self.sims[i].get_or_insert(sim);
        let mut dropped = 0;
        if trace {
            let data = r.trace.as_ref().ok_or("traced run returned no trace")?;
            let f = fold(data)?;
            folded.add(&f);
            dropped = f.dropped;
        }

        let reference = self.refs[i]
            .as_ref()
            .ok_or("the sequential reference run failed")?;
        if !checksums_close(&r.checksum, reference, 1e-9) {
            return Err(format!(
                "checksum {:?} differs from the sequential {:?}",
                r.checksum, reference
            ));
        }
        if r.dsm.service_errors > 0 {
            return Err(format!("{} service errors", r.dsm.service_errors));
        }
        if first != sim {
            return Err(format!(
                "simulated columns moved between passes: {first:?} then {sim:?}"
            ));
        }
        if dropped > 0 {
            return Err(format!("trace dropped {dropped} events"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real (tiny) workload end to end: two Jacobi cells through
    /// set-up, a timed pass and a traced pass.
    #[test]
    fn real_cells_pass_every_gate_and_fold_within_their_wall() {
        let _serial = alloc::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = Session::new(Workload::GridSmall, 1);
        s.cells.truncate(2);
        s.refs.truncate(2);
        s.sims.truncate(2);
        s.set_up();
        s.timed_round();
        s.traced_pass();
        assert_eq!((s.attempted, s.failed), (6, 0), "{:?}", s.failures);
        assert!(s.sims.iter().all(Option::is_some));
        assert!(s.counts.faults > 0 && s.counts.barriers > 0);
        let round = &s.rounds[0];
        assert!(round.cost.wall_s > 0.0 && round.cost.alloc_bytes > 0);
        assert!(round.cost.peak_live_bytes > 0 && round.seq_s > 0.0);
        let t = &s.traced[0];
        assert!(t.fold.events > 0 && t.fold.dropped == 0);
        let folded = t.fold.total_ns() as f64 / 1e9;
        assert!(
            folded > 0.0 && folded <= t.cost.wall_s,
            "{folded} vs {}",
            t.cost.wall_s
        );
    }

    #[test]
    fn a_wrong_checksum_or_a_moved_column_fails_the_cell_not_the_run() {
        let _serial = alloc::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut s = Session::new(Workload::GridSmall, 1);
        s.cells.truncate(1);
        s.refs.truncate(1);
        s.sims.truncate(1);
        s.set_up();
        assert_eq!(s.failed, 0);
        // Corrupt the reference: the next run must fail its checksum.
        s.refs[0].as_mut().unwrap()[0] += 1.0;
        s.timed_round();
        assert_eq!(s.failed, 1);
        assert!(s.failures[0].contains("checksum"), "{:?}", s.failures);
        // The round re-ran the sequential program, which restored the
        // reference. Move a recorded column instead.
        s.sims[0].as_mut().unwrap().messages += 1;
        s.timed_round();
        assert_eq!(s.failed, 2);
        assert!(s.failures[1].contains("moved"), "{:?}", s.failures);
        assert_eq!(s.attempted, 3);
    }
}
