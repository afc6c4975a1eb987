//! Bounded-time stress for the threaded engine's historical failure
//! cell: irregular apps, hinted vs unhinted, under real OS scheduling.
//!
//! Two real bugs lived here. Roughly one threaded run in two hundred
//! diverged: a lazy diff could materialize from the writer's *live*
//! frame at wall-clock time (fixed by serving the published image),
//! and a diff served while the page was dirty left the twin anchored
//! at a stale baseline, so the next freeze re-included already-served
//! words and rolled a concurrent writer's values back (fixed by
//! re-anchoring the twin in `DsmState::freeze`). Separately,
//! about one NBF/HLRC run in three hundred deadlocked: `Tmk::publish`
//! dropped the state lock between the flush and the home-copy
//! buffering, so the service thread could ship the interval before
//! its own-home ranges existed, permanently deferring page requests
//! (fixed by making publish one critical section). This suite hammers
//! exactly those cells many times per test-suite run, with every
//! iteration under a watchdog so a recurrence shows up as a clean
//! panic — never as a hung CI job.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use apps::{AppId, RunSpec, Version};
use sp2sim::EngineKind;
use treadmarks::ProtocolMode;

/// Run `f` on a helper thread and fail loudly if it neither finishes
/// nor panics within `secs` seconds. On timeout the helper is left
/// detached — the panic fails this test and the process exits when the
/// harness is done, so a deadlocked run cannot wedge the suite.
fn bounded(label: String, secs: u64, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let h = thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => h.join().expect("helper signalled completion"),
        // The sender dropped without sending: the run panicked.
        // Propagate its payload as this test's failure.
        Err(mpsc::RecvTimeoutError::Disconnected) => match h.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("sender dropped after a clean run"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: still running after {secs}s — likely deadlock")
        }
    }
}

/// The run on the engine this suite is about.
fn threaded(app: AppId, v: Version, nprocs: usize, scale: f64, p: ProtocolMode) -> RunSpec {
    let spec = RunSpec::new(app, v, nprocs, scale);
    spec.on(EngineKind::Threaded).protocol(p)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// One shot of the previously-flaky cell: a threaded-engine hinted run
/// against a threaded-engine unhinted run of the same irregular app.
/// Equivalence mirrors `tests/inspector_equivalence.rs`: NBF bitwise,
/// IGrid bitwise except the tree-folded square-sum component.
fn one_shot(app: AppId, protocol: ProtocolMode, nprocs: usize, scale: f64, ctx: &str) {
    let run = |version| threaded(app, version, nprocs, scale, protocol).run();
    let spf = run(Version::Spf);
    let cri = run(Version::SpfCri);
    let mismatch = match app {
        AppId::Nbf => bits(&spf.checksum) != bits(&cri.checksum),
        AppId::IGrid => {
            bits(&spf.checksum[..5]) != bits(&cri.checksum[..5])
                || !apps::common::checksums_close(&spf.checksum, &cri.checksum, 1e-12)
        }
        _ => unreachable!("irregular apps only"),
    };
    assert!(
        !mismatch,
        "{ctx}: threaded divergence: {:?} vs {:?}",
        spf.checksum, cri.checksum
    );
}

/// ≥ 50 watchdogged iterations of the divergence cell, cycling both
/// irregular apps, both protocols, and a spread of cluster sizes and
/// scales so the OS scheduler sees a different interleaving surface
/// each time. At the pre-fix failure rate (~1/200 per run, 4 runs per
/// iteration) this loop had better-than-even odds of catching the bug
/// in a single suite execution; across CI runs it is near-certain.
#[test]
fn fifty_threaded_irregular_iterations_stay_equivalent() {
    for i in 0..50u64 {
        let app = AppId::IRREGULAR[(i % 2) as usize];
        let nprocs = 3 + (i % 3) as usize;
        let scale = 0.02 + 0.01 * ((i / 2) % 3) as f64;
        for protocol in ProtocolMode::ALL {
            let ctx = format!("iter {i}: {app:?}/{protocol}/{nprocs}p/{scale}");
            bounded(ctx.clone(), 120, move || {
                one_shot(app, protocol, nprocs, scale, &ctx)
            });
        }
    }
}

/// The deadlock guard on the regular side: repeated threaded runs of
/// the transpose-heavy 3-D FFT (the heaviest barrier/serve traffic per
/// unit of compute), each under the watchdog. Any wedge in the
/// serve/flush window fails in bounded time.
#[test]
fn threaded_fft3d_runs_complete_in_bounded_time() {
    for i in 0..10u64 {
        for protocol in ProtocolMode::ALL {
            let ctx = format!("iter {i}: Fft3d/{protocol}");
            bounded(ctx.clone(), 120, move || {
                let r = threaded(AppId::Fft3d, Version::Spf, 4, 0.035, protocol).run();
                assert!(r.time_us > 0.0, "{ctx}: empty run");
            });
        }
    }
}

/// Every FFT version on the thread-per-node engine, against the
/// sequential program — what CI's `threaded-stress` job loops 50 times.
#[test]
fn threaded_fft3d_version_matrix() {
    bounded("Fft3d version matrix".into(), 120, || {
        let seq = RunSpec::new(AppId::Fft3d, Version::Seq, 1, 0.05).run();
        for v in [Version::HandOpt].into_iter().chain(Version::SWEEP) {
            let r = threaded(AppId::Fft3d, v, 4, 0.05, ProtocolMode::Lrc).run();
            let close = apps::common::checksums_close(&r.checksum, &seq.checksum, 1e-9);
            assert!(close, "{v:?}: {:?} vs {:?}", r.checksum, seq.checksum);
            // The element-0 probe is reduction-free: bit-exact.
            assert_eq!(r.checksum[2..], seq.checksum[2..], "probe {v:?}");
        }
    });
}
