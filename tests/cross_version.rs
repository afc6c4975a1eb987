//! Cross-version validation at processor counts the per-module unit
//! tests do not cover (odd counts exercise uneven partitions; 8 matches
//! the paper's platform; 1 degenerates every protocol path).

use apps::common::checksums_close;
use apps::{AppId, RunResult, RunSpec, Version};

const SCALE: f64 = 0.035;

fn run(app: AppId, version: Version, nprocs: usize) -> RunResult {
    RunSpec::new(app, version, nprocs, SCALE).run()
}

fn check(app: AppId, nprocs: usize, tol: Option<f64>) {
    let seq = run(app, Version::Seq, 1);
    for v in [Version::Spf, Version::Tmk, Version::Xhpf, Version::Pvme] {
        let r = run(app, v, nprocs);
        match tol {
            None => assert_eq!(
                r.checksum,
                seq.checksum,
                "{} {:?} on {} procs",
                app.name(),
                v,
                nprocs
            ),
            Some(t) => assert!(
                checksums_close(&r.checksum, &seq.checksum, t),
                "{} {:?} on {} procs: {:?} vs {:?}",
                app.name(),
                v,
                nprocs,
                r.checksum,
                seq.checksum
            ),
        }
    }
}

#[test]
fn jacobi_on_odd_and_paper_counts() {
    check(AppId::Jacobi, 3, None);
    check(AppId::Jacobi, 8, None);
}

#[test]
fn shallow_on_odd_and_paper_counts() {
    check(AppId::Shallow, 3, None);
    check(AppId::Shallow, 8, None);
}

#[test]
fn mgs_on_odd_and_paper_counts() {
    check(AppId::Mgs, 3, None);
    check(AppId::Mgs, 8, None);
}

#[test]
fn fft_on_odd_and_paper_counts() {
    check(AppId::Fft3d, 3, Some(1e-9));
    check(AppId::Fft3d, 8, Some(1e-9));
}

#[test]
fn igrid_on_odd_and_paper_counts() {
    check(AppId::IGrid, 3, Some(1e-12));
    check(AppId::IGrid, 8, Some(1e-12));
}

#[test]
fn nbf_on_odd_and_paper_counts() {
    check(AppId::Nbf, 3, Some(1e-9));
    check(AppId::Nbf, 8, Some(1e-9));
}

#[test]
fn single_processor_degenerate_case() {
    for app in AppId::ALL {
        let seq = run(app, Version::Seq, 1);
        for v in [Version::Spf, Version::Tmk, Version::Xhpf, Version::Pvme] {
            let r = run(app, v, 1);
            assert!(
                checksums_close(&r.checksum, &seq.checksum, 1e-9),
                "{} {:?} on 1 proc",
                app.name(),
                v
            );
        }
    }
}

#[test]
fn handopt_variants_are_correct() {
    for app in [AppId::Jacobi, AppId::Shallow, AppId::Mgs, AppId::Fft3d] {
        let seq = run(app, Version::Seq, 1);
        let r = run(app, Version::HandOpt, 8);
        assert!(
            checksums_close(&r.checksum, &seq.checksum, 1e-9),
            "{} HandOpt on 8 procs",
            app.name()
        );
    }
}
