//! Shape assertions: the qualitative results of the paper must hold in
//! the reproduction at any scale.
//!
//! From the abstract: "On the regular programs, both the compiler-
//! generated and the hand-coded message passing outperform the
//! SPF/TreadMarks combination [...]. On the irregular programs, the
//! SPF/TreadMarks combination outperforms the compiler-generated message
//! passing [...] and only slightly underperforms the hand-coded message
//! passing."

use std::sync::OnceLock;

use apps::{AppId, RunResult, RunSpec, Version};
use harness::Cells;
use Version::{Spf, Tmk, Xhpf};

/// The figure versions of some applications at one scale on 8 nodes, on
/// the FIFO schedule (a seeded one moves DSM virtual times by a few
/// percent, enough to flap thresholds this tight): run by the first test
/// that reads the scale, shared by the others.
struct Scale(f64, &'static [AppId], OnceLock<Cells>);

impl Scale {
    fn cells(&self) -> &Cells {
        let figure = |&app| Version::FIGURE.map(|v| RunSpec::new(app, v, 8, self.0));
        self.2
            .get_or_init(|| Cells::run(&self.1.iter().flat_map(figure).collect::<Vec<_>>()))
    }

    fn get(&self, app: AppId, version: Version) -> &RunResult {
        self.cells().get(&RunSpec::new(app, version, 8, self.0))
    }

    fn speedup(&self, app: AppId, version: Version) -> f64 {
        self.cells().speedup(&RunSpec::new(app, version, 8, self.0))
    }
}

static REGULAR: Scale = Scale(0.06, &AppId::REGULAR, OnceLock::new());
/// The "same league" ratio needs per-iteration compute that dwarfs
/// fixed synchronization latencies, as in the paper's 2048^2 runs.
static JACOBI: Scale = Scale(0.3, &[AppId::Jacobi], OnceLock::new());
/// The irregular-application *time* shape needs enough data volume for
/// XHPF's partition broadcasts to hurt; smaller scales only show the
/// traffic shape.
static IRREGULAR: Scale = Scale(0.35, &AppId::IRREGULAR, OnceLock::new());

#[test]
fn regular_jacobi_message_passing_wins_but_dsm_is_close() {
    let [spf, tmk, xhpf, pvme] = Version::FIGURE.map(|v| JACOBI.speedup(AppId::Jacobi, v));
    assert!(
        xhpf > spf,
        "XHPF {xhpf:.2} must beat SPF {spf:.2} on Jacobi"
    );
    assert!(
        pvme > tmk,
        "PVMe {pvme:.2} must beat Tmk {tmk:.2} on Jacobi"
    );
    assert!(tmk >= spf * 0.98, "hand-coded DSM at least matches SPF");
    // The paper's gap is 5.5%-7.5% for Jacobi: small, not catastrophic.
    assert!(
        pvme / spf < 2.0,
        "DSM stays in the same league on regular code ({:.2}x)",
        pvme / spf
    );
}

#[test]
fn regular_fft_transpose_hurts_dsm_more() {
    let [spf, tmk, xhpf, pvme] = Version::FIGURE.map(|v| REGULAR.speedup(AppId::Fft3d, v));
    assert!(xhpf > spf, "XHPF {xhpf:.2} vs SPF {spf:.2}");
    assert!(pvme > tmk, "PVMe {pvme:.2} vs Tmk {tmk:.2}");
    // FFT shows the largest regular-program gap in the paper (40%/49%).
    assert!(
        pvme > spf * 1.15,
        "FFT gap must be substantial: PVMe {pvme:.2} vs SPF {spf:.2}"
    );
}

#[test]
fn irregular_igrid_dsm_beats_compiled_message_passing() {
    let [spf, _tmk, xhpf, pvme] = Version::FIGURE.map(|v| IRREGULAR.speedup(AppId::IGrid, v));
    // Paper: SPF/Tmk 7.54, XHPF 3.85 (+89% for DSM), PVMe 7.88 (-4.4%).
    assert!(
        spf > xhpf * 1.3,
        "SPF {spf:.2} must clearly beat XHPF {xhpf:.2} on IGrid"
    );
    assert!(
        spf > pvme * 0.80,
        "SPF {spf:.2} must be close to PVMe {pvme:.2} on IGrid"
    );
}

#[test]
fn irregular_nbf_dsm_beats_compiled_message_passing() {
    let [spf, tmk, xhpf, pvme] = Version::FIGURE.map(|v| IRREGULAR.speedup(AppId::Nbf, v));
    // Paper: PVMe 6.18 > Tmk 5.86 > SPF 5.31 > XHPF 3.85.
    assert!(
        spf > xhpf * 1.2,
        "SPF {spf:.2} must clearly beat XHPF {xhpf:.2} on NBF"
    );
    assert!(
        tmk > spf * 0.95,
        "Tmk {tmk:.2} at least matches SPF {spf:.2}"
    );
    assert!(
        spf > pvme * 0.7,
        "SPF {spf:.2} must be close to PVMe {pvme:.2} on NBF"
    );
}

#[test]
fn irregular_xhpf_data_explosion() {
    // Table 3: XHPF moves orders of magnitude more data because it
    // broadcasts whole partitions after unanalyzable loops.
    for app in AppId::IRREGULAR {
        let (spf, xhpf) = (IRREGULAR.get(app, Spf), IRREGULAR.get(app, Xhpf));
        assert!(
            xhpf.kbytes > 3 * spf.kbytes,
            "{}: XHPF {} KB vs SPF {} KB",
            app.name(),
            xhpf.kbytes,
            spf.kbytes
        );
    }
}

#[test]
fn hand_coded_dsm_beats_compiler_generated_dsm() {
    // Paper §7: "On both the regular and the irregular programs, the
    // hand-coded TreadMarks outperforms the SPF/TreadMarks combination.
    // The difference varies from 2% to 20%."
    for app in AppId::REGULAR {
        let (spf, tmk) = (REGULAR.speedup(app, Spf), REGULAR.speedup(app, Tmk));
        assert!(
            tmk >= spf,
            "{}: hand-coded {tmk:.2} must be at least compiler {spf:.2}",
            app.name()
        );
    }
}

#[test]
fn mgs_spf_pays_for_master_normalization() {
    // §5.3: the master-executed normalization costs SPF dearly
    // (3.35 vs 4.19 hand-coded).
    let [spf, tmk] = [Spf, Tmk].map(|v| REGULAR.speedup(AppId::Mgs, v));
    assert!(
        tmk > spf * 1.05,
        "MGS hand-coded {tmk:.2} must clearly beat SPF {spf:.2}"
    );
}
