//! Every cell the harness runs is held against its `Seq` program.
//!
//! A table or a sweep is only worth printing if its cells computed the
//! right thing, and nothing but a test used to ask. [`run`] is how the
//! harness runs a [`RunSpec`]: it notes the cell's checksum, and
//! [`verdict`] — called once per subcommand, after its output — compares
//! every noted cell with the checksum of the sequential program at the
//! same `(app, scale)`, at the tolerances of `tests/cross_version.rs`.
//! An artifact's cells include that program, the baseline of its
//! speedups, so it runs beside the others; a subcommand that runs none
//! (`sweep`, `analyze`) pays for it once per `(app, scale)`,
//! after its own cells. A divergent cell is named on
//! stderr and fails the subcommand with status 1; agreeing cells print
//! nothing.

use std::collections::HashMap;
use std::sync::Mutex;

use apps::common::checksums_close;
use apps::{AppId, RunResult, RunSpec, Version};

use crate::cli::Exit;

/// The cells run since the last [`verdict`], with their checksums.
static CELLS: Mutex<Vec<(RunSpec, Vec<f64>)>> = Mutex::new(Vec::new());

/// Run `spec` and note its checksum for the subcommand's [`verdict`].
pub fn run(spec: &RunSpec) -> RunResult {
    let r = spec.run();
    let mut cells = CELLS.lock().expect("no cell runs under the lock");
    cells.push((*spec, r.checksum.clone()));
    r
}

/// Relative checksum tolerance of `app` in `version` against `Seq`, as
/// `tests/cross_version.rs` holds them: the three regular stencil and
/// factorization codes agree bitwise in the paper's four versions, the
/// FFT and NBF to 1e-9 and IGrid to 1e-12 (a lock-ordered reduction).
/// The hand-optimized and hinted versions fold their reductions through
/// a tree, which is not the sequential fold: 1e-9, as for `HandOpt`
/// there.
fn tolerance(app: AppId, version: Version) -> f64 {
    let app_tol = match app {
        AppId::Jacobi | AppId::Shallow | AppId::Mgs => 0.0,
        AppId::IGrid => 1e-12,
        AppId::Fft3d | AppId::Nbf => 1e-9,
    };
    match version {
        Version::HandOpt | Version::SpfCri => f64::max(app_tol, 1e-9),
        _ => app_tol,
    }
}

/// Hold every cell noted since the last call against its `Seq` program:
/// `Err` (status 1) if any diverges, each one named on stderr first.
pub fn verdict() -> Result<(), Exit> {
    let cells = std::mem::take(&mut *CELLS.lock().expect("no cell runs under the lock"));
    let key = |spec: &RunSpec| (spec.app.name(), spec.scale.to_bits());
    let mut seq: HashMap<_, Vec<f64>> = HashMap::new();
    for (spec, checksum) in cells.iter().filter(|(s, _)| s.version == Version::Seq) {
        seq.insert(key(spec), checksum.clone());
    }
    let mut diverged = 0;
    for (spec, checksum) in cells.iter().filter(|(s, _)| s.version != Version::Seq) {
        let want = seq.entry(key(spec)).or_insert_with(|| {
            RunSpec::new(spec.app, Version::Seq, 1, spec.scale)
                .run()
                .checksum
        });
        if !checksums_close(checksum, want, tolerance(spec.app, spec.version)) {
            diverged += 1;
            eprintln!(
                "WRONG RESULT: {} {} under {} on {} processors at scale {} ({}-word pages, {} \
                 engine): checksum {checksum:?}, the sequential program's is {want:?}",
                spec.app.name(),
                spec.version.name(),
                spec.cfg.protocol,
                spec.nprocs,
                spec.scale,
                spec.cfg.page_words,
                spec.engine,
            );
        }
    }
    if diverged == 0 {
        return Ok(());
    }
    Err(Exit::failure(format!(
        "{diverged} of {} cells disagree with the sequential program",
        cells.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test: the noted cells are process-wide (other tests of this
    /// binary note agreeing cells of their own meanwhile).
    #[test]
    fn an_agreeing_cell_passes_and_a_wrong_checksum_fails_by_name() {
        let spec = RunSpec::new(AppId::Jacobi, Version::Spf, 2, 0.03);
        let seq = run(&RunSpec::new(AppId::Jacobi, Version::Seq, 1, 0.03));
        assert_eq!(run(&spec).checksum, seq.checksum);
        // A cell whose `Seq` program was not among the noted ones.
        run(&RunSpec::new(AppId::IGrid, Version::Tmk, 2, 0.03));
        assert_eq!(verdict(), Ok(()));
        assert_eq!(verdict(), Ok(()), "nothing noted, nothing to hold");

        let mut wrong = seq.checksum.clone();
        wrong[0] += 1.0;
        CELLS.lock().unwrap().push((spec, wrong));
        let failed = verdict().expect_err("a wrong checksum");
        assert_eq!(failed.code, 1);
        assert!(failed.message.contains("disagree"), "{failed:?}");
        assert_eq!(tolerance(AppId::Jacobi, Version::Spf), 0.0);
        assert_eq!(tolerance(AppId::Jacobi, Version::SpfCri), 1e-9);
        assert_eq!(tolerance(AppId::IGrid, Version::Xhpf), 1e-12);
    }
}
