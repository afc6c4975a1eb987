//! Parallel sweep runner.
//!
//! A parameter sweep is a bag of completely independent simulations, so
//! the right parallelization is one *simulation* per worker — and that
//! is only safe and profitable when each simulation runs on the
//! sequential engine (single-threaded, deterministic, no oversubscription).
//! With the threaded engine every simulation already spawns a thread per
//! simulated node, so the sweep runs those one after another instead.

use std::sync::Mutex;

use apps::RunSpec;
use sp2sim::EngineKind;

/// Map `f` over `specs`; the results come back in `specs`' order, and
/// the first worker panic propagates. Sequential-engine specs fan out
/// across OS threads, each worker pulling the next one off a shared
/// queue — so `specs`' order is also the schedule; threaded-engine
/// specs then run one after another on the calling thread.
pub fn sweep_map<R, F>(specs: &[RunSpec], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&RunSpec) -> R + Sync,
{
    let (fan_out, serial): (Vec<_>, Vec<_>) = specs
        .iter()
        .enumerate()
        .partition(|(_, spec)| spec.engine == EngineKind::Sequential);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(fan_out.len());
    // A job is a whole simulation: the lock around the queue is noise.
    let queue = Mutex::new(fan_out.into_iter());
    let drain = || {
        let next = || queue.lock().expect("no job runs under the lock").next();
        std::iter::from_fn(next)
            .map(|(i, spec)| (i, f(spec)))
            .collect::<Vec<_>>()
    };
    // The calling thread is the first worker.
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    done.extend(serial.into_iter().map(|(i, spec)| (i, f(spec))));

    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{AppId, Version};

    /// `n` distinct specs on `engine`, told apart by their `nprocs`.
    fn specs(n: usize, engine: EngineKind) -> Vec<RunSpec> {
        let spec = |np| RunSpec::new(AppId::Jacobi, Version::Pvme, np, 0.03).on(engine);
        (1..=n).map(spec).collect()
    }

    #[test]
    fn sweep_preserves_order() {
        let out = sweep_map(&specs(100, EngineKind::Sequential), |s| s.nprocs * 3);
        assert_eq!(out, (1..=100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_engine_specs_run_serially_and_keep_their_places() {
        let mut mixed = specs(6, EngineKind::Sequential);
        mixed[1].engine = EngineKind::Threaded;
        mixed[4].engine = EngineKind::Threaded;
        let caller = std::thread::current().id();
        let out = sweep_map(&mixed, |s| {
            let serial = s.engine == EngineKind::Threaded;
            assert!(!serial || std::thread::current().id() == caller);
            s.nprocs + 1
        });
        assert_eq!(out, vec![2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "spec 3 failed")]
    fn first_worker_panic_propagates() {
        sweep_map(&specs(8, EngineKind::Sequential), |s| {
            assert!(s.nprocs != 3, "spec 3 failed");
        });
    }

    #[test]
    fn sweep_runs_real_simulations() {
        let out = sweep_map(&specs(3, EngineKind::Sequential), |s| s.run().nprocs);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
