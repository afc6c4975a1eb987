//! Parallel sweep runner.
//!
//! A parameter sweep is a bag of completely independent simulations,
//! and a simulation is single-threaded and touches nothing global (all
//! its fibers run on the OS thread that started it), so the right
//! parallelization is one *simulation* per worker.

use std::sync::Mutex;

use apps::RunSpec;

/// Map `f` over `specs`; the results come back in `specs`' order, and
/// the first worker panic propagates. The specs fan out across OS
/// threads, each worker pulling the next one off a shared queue — so
/// `specs`' order is also the schedule.
pub fn sweep_map<R, F>(specs: &[RunSpec], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&RunSpec) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(specs.len());
    // A job is a whole simulation: the lock around the queue is noise.
    let queue = Mutex::new(specs.iter().enumerate());
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

    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{AppId, Version};

    /// `n` distinct specs, told apart by their `nprocs`.
    fn specs(n: usize) -> Vec<RunSpec> {
        let spec = |np| RunSpec::new(AppId::Jacobi, Version::Pvme, np, 0.03);
        (1..=n).map(spec).collect()
    }

    #[test]
    fn sweep_preserves_order() {
        let out = sweep_map(&specs(100), |s| s.nprocs * 3);
        assert_eq!(out, (1..=100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "spec 3 failed")]
    fn first_worker_panic_propagates() {
        sweep_map(&specs(8), |s| {
            assert!(s.nprocs != 3, "spec 3 failed");
        });
    }

    #[test]
    fn sweep_runs_real_simulations() {
        let out = sweep_map(&specs(3), |s| s.run().nprocs);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
