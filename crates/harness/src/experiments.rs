//! The experiment suite: one function per paper artifact.

use std::collections::HashMap;

use apps::{AppId, RunResult, RunSpec, Version};
use treadmarks::ProtocolMode;

use crate::cli::Cli;
use crate::oracle;
use crate::sweep::sweep_map;

/// A Table 1 row: workload description and sequential execution time.
#[derive(Clone, Debug)]
pub struct SeqRow {
    /// Application.
    pub app: AppId,
    /// Problem-size description.
    pub size: String,
    /// Sequential execution time in seconds (virtual).
    pub secs: f64,
}

/// A speedup row (Figures 1 and 2 plus Tables 2 and 3 combined):
/// per-version speedups, message totals and data totals.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    /// Application.
    pub app: AppId,
    /// Sequential time (µs) used as the speedup baseline.
    pub seq_us: f64,
    /// Results for SPF/Tmk, TreadMarks, XHPF, PVMe (in that order).
    pub results: Vec<RunResult>,
}

impl SpeedupRow {
    /// Speedup of version `i` (indexed like [`Version::FIGURE`]).
    pub fn speedup(&self, i: usize) -> f64 {
        self.results[i].speedup_vs(self.seq_us)
    }

    /// Find a version's result.
    pub fn get(&self, v: Version) -> &RunResult {
        self.results
            .iter()
            .find(|r| r.version == v)
            .expect("version present")
    }
}

/// Workload descriptions, matching the paper's Table 1.
fn size_desc(app: AppId, scale: f64) -> String {
    match app {
        AppId::Jacobi => {
            let p = apps::jacobi::params(scale);
            format!("{0} x {0}, {1} iterations", p.n, p.iters)
        }
        AppId::Shallow => {
            let p = apps::shallow::params(scale);
            format!("{0} x {0}, {1} iterations", p.n, p.iters)
        }
        AppId::Mgs => {
            let p = apps::mgs::params(scale);
            format!("{0} x {0}", p.n)
        }
        AppId::Fft3d => {
            let p = apps::fft3d::params(scale);
            format!("{}x{}x{}, {} iterations", p.n1, p.n2, p.n3, p.iters)
        }
        AppId::IGrid => {
            let p = apps::igrid::params(scale);
            format!("{}, {} iterations", p.n, p.iters)
        }
        AppId::Nbf => {
            let p = apps::nbf::params(scale);
            format!("{} molecules, {} iterations", p.m, p.iters)
        }
    }
}

/// Table 1: data-set sizes and sequential execution times.
pub fn table1(cli: &Cli) -> Vec<SeqRow> {
    let specs = AppId::ALL.map(|app| cli.spec(app, Version::Seq));
    sweep_map(&specs, |spec| SeqRow {
        app: spec.app,
        size: size_desc(spec.app, spec.scale),
        secs: oracle::run(spec).time_us / 1e6,
    })
}

/// Run `versions` of `apps` as `cli` asks.
///
/// The whole (app, version) cross product — sequential baselines
/// included — is one flat job list handed to the parallel sweep runner:
/// on the sequential engine every job is an independent single-threaded
/// simulation, so the sweep saturates the machine's cores.
pub fn speedup_rows(cli: &Cli, app_list: &[AppId], versions: &[Version]) -> Vec<SpeedupRow> {
    let mut jobs = Vec::new();
    for &app in app_list {
        jobs.push(cli.spec(app, Version::Seq));
        jobs.extend(versions.iter().map(|&v| cli.spec(app, v)));
    }
    let mut results = sweep_map(&jobs, oracle::run).into_iter();
    app_list
        .iter()
        .map(|&app| {
            let seq = results.next().expect("sequential baseline present");
            let results = (0..versions.len())
                .map(|_| results.next().expect("swept version present"))
                .collect();
            SpeedupRow {
                app,
                seq_us: seq.time_us,
                results,
            }
        })
        .collect()
}

/// Figure 1 + Table 2: the regular applications. `cli.protocol` selects
/// the coherence protocol of the shared-memory versions (the
/// message-passing columns are unaffected), making the whole sweep a
/// (version × protocol) grid.
pub fn figure1(cli: &Cli) -> Vec<SpeedupRow> {
    speedup_rows(cli, &AppId::REGULAR, &Version::FIGURE)
}

/// Figure 2 + Table 3: the irregular applications, grown with the
/// SPF+CRI (inspector/executor) column — the paper's figure versions
/// plus the one this repository adds to move its worst-case apps.
pub fn figure2_table3(cli: &Cli) -> Vec<SpeedupRow> {
    speedup_rows(cli, &AppId::IRREGULAR, &Version::SWEEP)
}

/// A §5 hand-optimization row.
#[derive(Clone, Debug)]
pub struct HandOptRow {
    /// Application.
    pub app: AppId,
    /// What the optimization is (paper §5 wording).
    pub what: &'static str,
    /// Baseline speedup (the version the paper optimized).
    pub base: f64,
    /// Optimized speedup.
    pub opt: f64,
    /// Reference speedup the paper compares against.
    pub reference: f64,
    /// Name of the reference version.
    pub ref_name: &'static str,
}

/// §5 "Results of Hand Optimizations": per-application hand-optimized
/// shared-memory variants vs their baselines and references.
pub fn handopt(cli: &Cli) -> Vec<HandOptRow> {
    use Version::{HandOpt, Pvme, Spf, SpfCri, Tmk};
    // (application, what the optimization is, the version the paper
    // optimized, the optimized one, the reference and its name).
    let rows = [
        // Jacobi: SPF + data aggregation, compared against PVMe (7.23/7.55).
        (
            AppId::Jacobi,
            "SPF + data aggregation",
            Spf,
            HandOpt,
            Pvme,
            "PVMe",
        ),
        // Shallow: SPF + merged loops + aggregation, vs hand-coded Tmk
        // (5.96/6.21).
        (
            AppId::Shallow,
            "SPF + merged loops + aggregation",
            Spf,
            HandOpt,
            Tmk,
            "Tmk",
        ),
        // MGS: hand-coded Tmk + broadcast / merged sync+data (5.09 from 4.19).
        (
            AppId::Mgs,
            "Tmk + broadcast, merged sync+data",
            Tmk,
            HandOpt,
            Pvme,
            "PVMe",
        ),
        // Compiler-described counterpart of the same §5.3 idea: the CRI
        // triangular sections + the master's sequential-producer
        // declaration push the pivot with the rendezvous. Compared
        // against the hand broadcast it imitates.
        (
            AppId::Mgs,
            "SPF + CRI pivot push (triangular sections)",
            Spf,
            SpfCri,
            HandOpt,
            "Tmk+bcast",
        ),
        // 3-D FFT: SPF + data aggregation, vs PVMe (5.05/5.12).
        (
            AppId::Fft3d,
            "SPF + data aggregation",
            Spf,
            HandOpt,
            Pvme,
            "PVMe",
        ),
    ];
    let mut jobs: Vec<RunSpec> = Vec::new();
    for &(app, _, base, opt, reference, _) in &rows {
        for v in [Version::Seq, base, opt, reference] {
            let spec = cli.spec(app, v);
            if !jobs.contains(&spec) {
                jobs.push(spec);
            }
        }
    }
    let times = sweep_map(&jobs, |spec| oracle::run(spec).time_us);
    let time = |app, v| {
        let ran = jobs.iter().position(|s| s.app == app && s.version == v);
        times[ran.expect("every row's versions are jobs")]
    };
    let filled = rows.map(|(app, what, base, opt, reference, ref_name)| {
        let speedup = |v| time(app, Version::Seq) / time(app, v);
        HandOptRow {
            app,
            what,
            base: speedup(base),
            opt: speedup(opt),
            reference: speedup(reference),
            ref_name,
        }
    });
    filled.to_vec()
}

/// §2.3: the improved vs original compiler/run-time interface, measured
/// on the SPF versions. Returns `(app, improved result, original result)`.
pub fn interface_ablation(cli: &Cli) -> Vec<(AppId, RunResult, RunResult)> {
    let apps = [AppId::Jacobi, AppId::Fft3d];
    let mut jobs = Vec::new();
    for &app in &apps {
        let improved = cli.spec(app, Version::Spf);
        let mut original = improved;
        original.cfg.improved_forkjoin = false;
        jobs.extend([improved, original]);
    }
    let mut results = sweep_map(&jobs, oracle::run).into_iter();
    apps.iter()
        .map(|&app| {
            let improved = results.next().expect("improved run present");
            let original = results.next().expect("original run present");
            (app, improved, original)
        })
        .collect()
}

/// A compiler–runtime-interface row: the gap-closing experiment of the
/// paper's conclusion. For one regular application: SPF baseline,
/// SPF+CRI (regular-section hints driving aggregated validate,
/// barrier-time push and direct reduction), and the hand-coded
/// message-passing reference.
#[derive(Clone, Debug)]
pub struct CompilerOptRow {
    /// Application.
    pub app: AppId,
    /// Sequential time (µs), the speedup baseline.
    pub seq_us: f64,
    /// SPF without hints.
    pub spf: RunResult,
    /// SPF with the CRI hints.
    pub cri: RunResult,
    /// Hand-coded message passing (PVMe).
    pub mpl: RunResult,
}

impl CompilerOptRow {
    /// Fraction of the SPF baseline's messages the hints eliminated.
    pub fn message_reduction(&self) -> f64 {
        if self.spf.messages == 0 {
            return 0.0;
        }
        1.0 - self.cri.messages as f64 / self.spf.messages as f64
    }

    /// Total virtual seconds the hinted run spent in inspector walks
    /// (zero for the statically hinted apps) — the amortized cost the
    /// irregular rows split out.
    pub fn inspect_secs(&self) -> f64 {
        self.cri.dsm.inspect_us as f64 / 1e6
    }
}

/// The CRI gap-closing experiment: SPF vs SPF+CRI vs hand-coded MPL,
/// under either coherence protocol (hinted HLRC additionally re-homes
/// producer pages and trades pushes against home flushes). All six
/// applications are hinted: Jacobi/Shallow/FFT through rectangular
/// sections, MGS through triangular sections plus the master's
/// sequential-producer declaration, and the irregular IGrid/NBF through
/// the inspector/executor subsystem (dynamic sections with a cached
/// communication schedule; the amortized inspector cost is reported per
/// row).
pub fn compiler_opt(cli: &Cli) -> Vec<CompilerOptRow> {
    let versions = [Version::Seq, Version::Spf, Version::SpfCri, Version::Pvme];
    let mut jobs = Vec::new();
    for app in AppId::ALL {
        jobs.extend(versions.map(|v| cli.spec(app, v)));
    }
    let mut results = sweep_map(&jobs, oracle::run).into_iter();
    AppId::ALL
        .iter()
        .map(|&app| {
            let seq = results.next().expect("sequential baseline present");
            let spf = results.next().expect("spf run present");
            let cri = results.next().expect("cri run present");
            let mpl = results.next().expect("mpl run present");
            CompilerOptRow {
                app,
                seq_us: seq.time_us,
                spf,
                cri,
                mpl,
            }
        })
        .collect()
}

/// A protocol-comparison row: the same application and version under
/// LRC and HLRC — the harness's second protocol axis.
#[derive(Clone, Debug)]
pub struct ProtocolCompareRow {
    /// Application.
    pub app: AppId,
    /// Program version both protocols ran (SPF, the compiler target).
    pub version: Version,
    /// Sequential time (µs), the speedup baseline.
    pub seq_us: f64,
    /// The run under the original distributed-diff protocol.
    pub lrc: RunResult,
    /// The run under home-based LRC.
    pub hlrc: RunResult,
}

impl ProtocolCompareRow {
    /// Fraction of LRC's access-miss round trips HLRC eliminated
    /// (negative if HLRC took more).
    pub fn round_trip_reduction(&self) -> f64 {
        let lrc = self.lrc.miss_round_trips();
        if lrc == 0 {
            return 0.0;
        }
        1.0 - self.hlrc.miss_round_trips() as f64 / lrc as f64
    }
}

/// The protocol-comparison experiment: LRC vs HLRC for the regular
/// applications' SPF versions — time, messages, bytes, access-miss
/// round trips and eager-flush traffic. The expected shape: HLRC cuts
/// round trips (one whole-page fetch per miss instead of one diff
/// exchange per writer) and pays for it in update traffic (flush and
/// whole-page bytes).
pub fn protocol_compare(cli: &Cli) -> Vec<ProtocolCompareRow> {
    let version = Version::Spf;
    let mut jobs = Vec::new();
    for &app in &AppId::REGULAR {
        jobs.push(cli.spec(app, Version::Seq));
        jobs.extend(ProtocolMode::ALL.map(|p| cli.spec(app, version).protocol(p)));
    }
    let mut results = sweep_map(&jobs, oracle::run).into_iter();
    AppId::REGULAR
        .iter()
        .map(|&app| {
            let seq = results.next().expect("sequential baseline present");
            let lrc = results.next().expect("lrc run present");
            let hlrc = results.next().expect("hlrc run present");
            ProtocolCompareRow {
                app,
                version,
                seq_us: seq.time_us,
                lrc,
                hlrc,
            }
        })
        .collect()
}

/// A scaling-study row: speedups at each processor count.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Application.
    pub app: AppId,
    /// Version.
    pub version: Version,
    /// `(nprocs, speedup)` pairs.
    pub points: Vec<(usize, f64)>,
}

/// Extension: 1..=`cli.nprocs` scaling for every app and sweep version
/// (the paper's figure versions plus the hinted SPF+CRI column — the
/// sweep-level CRI report), under the selected coherence protocol.
pub fn scaling(cli: &Cli, app_list: &[AppId]) -> Vec<ScaleRow> {
    // Baselines first (one per app), then the full cross product — the
    // largest sweep of the suite, and the reason the sweep runner exists.
    let baselines: Vec<_> = app_list
        .iter()
        .map(|&a| cli.spec(a, Version::Seq))
        .collect();
    let seq_times = sweep_map(&baselines, |spec| oracle::run(spec).time_us);
    let seq_us: HashMap<&'static str, f64> = app_list
        .iter()
        .zip(&seq_times)
        .map(|(app, &t)| (app.name(), t))
        .collect();

    let mut jobs = Vec::new();
    for &app in app_list {
        for &v in &Version::SWEEP {
            let mut nprocs = 1;
            while nprocs <= cli.nprocs {
                jobs.push(RunSpec {
                    nprocs,
                    ..cli.spec(app, v)
                });
                nprocs *= 2;
            }
        }
    }
    let results = sweep_map(&jobs, oracle::run);

    let mut rows: Vec<ScaleRow> = Vec::new();
    for r in results {
        let point = (r.nprocs, r.speedup_vs(seq_us[r.app.name()]));
        match rows.last_mut() {
            Some(row) if row.app == r.app && row.version == r.version => row.points.push(point),
            _ => rows.push(ScaleRow {
                app: r.app,
                version: r.version,
                points: vec![point],
            }),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(nprocs: usize, protocol: ProtocolMode) -> Cli {
        Cli {
            scale: 0.03,
            nprocs,
            engine: sp2sim::EngineKind::Sequential,
            protocol,
        }
    }

    #[test]
    fn table1_covers_all_apps() {
        let rows = table1(&cli(1, ProtocolMode::Lrc));
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.secs > 0.0, "{:?} has positive sequential time", r.app);
            assert!(!r.size.is_empty());
        }
    }

    #[test]
    fn compiler_opt_covers_all_apps_and_reduces_messages() {
        for protocol in ProtocolMode::ALL {
            let rows = compiler_opt(&cli(4, protocol));
            assert_eq!(rows.len(), 6);
            for r in &rows {
                assert!(r.seq_us > 0.0);
                assert!(
                    r.cri.messages < r.spf.messages,
                    "{protocol}/{:?}: cri {} vs spf {}",
                    r.app,
                    r.cri.messages,
                    r.spf.messages
                );
                assert!(r.message_reduction() > 0.0);
            }
            // The irregular rows amortize a real, nonzero inspector cost.
            for r in rows.iter().filter(|r| AppId::IRREGULAR.contains(&r.app)) {
                assert!(r.cri.dsm.inspections > 0, "{:?}", r.app);
                assert!(r.cri.dsm.schedule_reuse > 0, "{:?}", r.app);
                assert!(r.inspect_secs() > 0.0, "{:?}", r.app);
            }
        }
    }

    #[test]
    fn speedup_row_accessors() {
        let rows = figure2_table3(&cli(2, ProtocolMode::Lrc));
        assert_eq!(rows.len(), 2);
        let r = &rows[0];
        assert_eq!(r.get(Version::Spf).version, Version::Spf);
        assert!(r.speedup(0) > 0.0);
    }

    #[test]
    fn protocol_compare_shape() {
        let rows = protocol_compare(&cli(4, ProtocolMode::Lrc));
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(
                r.lrc.checksum, r.hlrc.checksum,
                "{:?}: protocols must agree",
                r.app
            );
            assert!(
                r.hlrc.miss_round_trips() < r.lrc.miss_round_trips(),
                "{:?}: HLRC {} vs LRC {} round trips",
                r.app,
                r.hlrc.miss_round_trips(),
                r.lrc.miss_round_trips()
            );
            assert!(r.hlrc.flush_bytes() > 0, "{:?}: eager flushes", r.app);
            assert_eq!(r.lrc.flush_bytes(), 0);
        }
    }
}
