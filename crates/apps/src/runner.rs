//! Application/version dispatch and result assembly.
//!
//! A run is a [`RunSpec`]: a `Copy` value naming the application, the
//! version, the processor count, the scale, the schedule and the DSM
//! configuration. [`RunSpec::new`] fills in the two policies a caller
//! would otherwise have to know (the default schedule is the FIFO
//! one; `HandOpt` means aggregation), `.on(..)` and
//! `.protocol(..)` adjust it, [`RunSpec::run`] runs it, and
//! [`RunSpec::launch`] is the only place that builds a cluster for an
//! application. [`run_with_cfg_on`] survives as the positional
//! spelling the out-of-workspace `benchmark/` package binds to.

use sp2sim::{Cluster, ClusterConfig, EngineKind, MsgKind, Node, StatsSnapshot, TraceData};
use treadmarks::{
    DsmStats, FalseSharingReport, ProtocolMode, RaceLog, RaceReport, SharingProfile, Tmk, TmkConfig,
};

/// The six applications of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppId {
    /// Iterative 4-point stencil PDE solver (regular).
    Jacobi,
    /// NCAR shallow-water benchmark (regular).
    Shallow,
    /// Modified Gramm-Schmidt orthonormalization (regular).
    Mgs,
    /// NAS 3-D FFT kernel (regular, transpose-heavy).
    Fft3d,
    /// 9-point stencil through a run-time indirection map (irregular).
    IGrid,
    /// Non-bonded force molecular-dynamics kernel (irregular).
    Nbf,
}

impl AppId {
    /// All applications, regular first (the paper's presentation order).
    pub const ALL: [AppId; 6] = [
        AppId::Jacobi,
        AppId::Shallow,
        AppId::Mgs,
        AppId::Fft3d,
        AppId::IGrid,
        AppId::Nbf,
    ];

    /// The regular applications (Figure 1 / Table 2).
    pub const REGULAR: [AppId; 4] = [AppId::Jacobi, AppId::Shallow, AppId::Mgs, AppId::Fft3d];

    /// The irregular applications (Figure 2 / Table 3).
    pub const IRREGULAR: [AppId; 2] = [AppId::IGrid, AppId::Nbf];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Jacobi => "Jacobi",
            AppId::Shallow => "Shallow",
            AppId::Mgs => "MGS",
            AppId::Fft3d => "3-D FFT",
            AppId::IGrid => "IGrid",
            AppId::Nbf => "NBF",
        }
    }
}

/// Program versions compared by the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Version {
    /// Sequential baseline (always runs on one node).
    Seq,
    /// Compiler-generated shared memory (SPF over TreadMarks).
    Spf,
    /// SPF with the compiler–runtime interface: section descriptors
    /// drive aggregated validates, rendezvous-time pushes and direct
    /// reductions. Regular apps use the compiler's rectangular (and,
    /// for MGS, triangular) sections; the irregular apps — whose
    /// subscripts go through run-time indirection maps no compiler can
    /// describe — run the inspector/executor repair of the paper's §6
    /// suggestion: an inspector materializes the map into dynamic
    /// sections once, and the cached communication schedule is reused
    /// every iteration.
    SpfCri,
    /// Hand-coded TreadMarks.
    Tmk,
    /// Compiler-generated message passing (XHPF).
    Xhpf,
    /// Hand-coded message passing (PVMe).
    Pvme,
    /// Hand-optimized shared-memory variant of paper §5.
    HandOpt,
}

impl Version {
    /// The four versions of Figures 1 and 2.
    pub const FIGURE: [Version; 4] = [Version::Spf, Version::Tmk, Version::Xhpf, Version::Pvme];

    /// The figure versions plus the hinted column — the sweep-level CRI
    /// report (`figure2_table3`, `table2 --hinted`, `scaling`), where
    /// the gap-closing claim is visible across the whole grid.
    pub const SWEEP: [Version; 5] = [
        Version::Spf,
        Version::SpfCri,
        Version::Tmk,
        Version::Xhpf,
        Version::Pvme,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Version::Seq => "Sequential",
            Version::Spf => "SPF/Tmk",
            Version::SpfCri => "SPF+CRI",
            Version::Tmk => "TreadMarks",
            Version::Xhpf => "XHPF",
            Version::Pvme => "PVMe",
            Version::HandOpt => "Hand-opt",
        }
    }
}

/// What one node reports back from a run.
#[derive(Clone, Debug, Default)]
pub struct NodeOut {
    /// Virtual elapsed time of the timed region on this node (µs).
    pub elapsed_us: f64,
    /// Message statistics of the timed region (node 0 only).
    pub stats: Option<StatsSnapshot>,
    /// Result checksum (node 0 / master only).
    pub checksum: Option<Vec<f64>>,
    /// DSM protocol statistics (shared-memory versions).
    pub dsm: Option<DsmStats>,
    /// Race-detection provenance log (shared-memory versions with
    /// [`TmkConfig::detect_races`] on; taken via `Tmk::take_race_log`
    /// after `finish`).
    pub races: Option<RaceLog>,
    /// Per-node sharing-pattern profile (page heatmap + lock
    /// contention; shared-memory versions, taken via
    /// `Tmk::take_sharing` after `finish`).
    pub sharing: Option<SharingProfile>,
    /// Views of the timed region that faulted on a hole a meet push
    /// left (`treadmarks::hole`; SPF programs).
    pub timed_hole_faults: u64,
}

impl NodeOut {
    /// What a sequential or message-passing node reports: the timed
    /// region as [`crate::common::meter_stop`] returned it and the
    /// checksum, no DSM instruments.
    pub fn plain(
        (elapsed_us, stats): (f64, Option<StatsSnapshot>),
        checksum: Option<Vec<f64>>,
    ) -> NodeOut {
        NodeOut {
            elapsed_us,
            stats,
            checksum,
            ..NodeOut::default()
        }
    }

    /// What a shared-memory node reports: shuts `tmk` down and collects
    /// every instrument it carries — `finish` first, whose final barrier
    /// flushes the intervals the race log and the profile still miss.
    pub fn shared(
        tmk: &Tmk,
        (elapsed_us, stats): (f64, Option<StatsSnapshot>),
        checksum: Option<Vec<f64>>,
    ) -> NodeOut {
        let dsm = tmk.finish();
        NodeOut {
            elapsed_us,
            stats,
            checksum,
            dsm: Some(dsm),
            races: tmk.take_race_log(),
            sharing: Some(tmk.take_sharing()),
            timed_hole_faults: 0,
        }
    }
}

/// Result of one experiment run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Application.
    pub app: AppId,
    /// Program version.
    pub version: Version,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Problem scale (1.0 = the paper's sizes).
    pub scale: f64,
    /// Timed-region virtual time: max over nodes (µs).
    pub time_us: f64,
    /// Messages during the timed region.
    pub messages: u64,
    /// Payload kilobytes during the timed region.
    pub kbytes: u64,
    /// Full message statistics of the timed region.
    pub stats: StatsSnapshot,
    /// Views of the timed region that faulted on a hole a meet push
    /// left, over every node: a footprint that missed a word its loop
    /// reads (`treadmarks::hole`; SPF programs).
    pub timed_hole_faults: u64,
    /// Result checksum (for cross-version validation).
    pub checksum: Vec<f64>,
    /// Aggregated DSM statistics (zero for message-passing versions).
    pub dsm: DsmStats,
    /// The virtual-time event trace, when the run was configured with
    /// [`treadmarks::TmkConfig::trace`] (covers the whole run, not just
    /// the timed region).
    pub trace: Option<TraceData>,
    /// Data races found by the cluster-wide post-run analysis, when the
    /// run was configured with [`TmkConfig::detect_races`]. Empty means
    /// either detection was off or — the gate the six applications must
    /// pass — no concurrent intervals wrote the same word.
    pub race_report: Vec<RaceReport>,
    /// Cluster-wide sharing-pattern profile: per-page fault/diff/writer
    /// heatmap and per-lock contention, merged over nodes. Empty for
    /// message-passing versions.
    pub sharing: SharingProfile,
    /// False-sharing candidates — page-sharing writer pairs whose
    /// concurrent intervals touched *disjoint* words (so not races,
    /// but page-granularity coherence traffic). Needs
    /// [`TmkConfig::detect_races`], like [`RunResult::race_report`].
    pub false_sharing: Vec<FalseSharingReport>,
}

impl RunResult {
    /// Assemble per-node outputs into a result.
    pub fn assemble(
        app: AppId,
        version: Version,
        nprocs: usize,
        scale: f64,
        outs: Vec<NodeOut>,
    ) -> RunResult {
        let time_us = outs.iter().map(|o| o.elapsed_us).fold(0.0, f64::max);
        let stats = outs.iter().find_map(|o| o.stats).unwrap_or_default();
        let checksum = outs
            .iter()
            .find_map(|o| o.checksum.clone())
            .expect("some node produced a checksum");
        let dsm = DsmStats::total(outs.iter().filter_map(|o| o.dsm.as_ref()));
        let timed_hole_faults = outs.iter().map(|o| o.timed_hole_faults).sum();
        let mut sharing = SharingProfile::default();
        let mut logs: Vec<RaceLog> = Vec::new();
        for o in outs {
            if let Some(s) = o.sharing {
                sharing.merge_from(&s);
            }
            if let Some(l) = o.races {
                logs.push(l);
            }
        }
        let race_report = treadmarks::race::detect(&logs);
        let false_sharing = treadmarks::race::detect_false_sharing(&logs);
        RunResult {
            app,
            version,
            nprocs,
            scale,
            time_us,
            messages: stats.total_messages(),
            kbytes: stats.total_bytes() / 1024,
            stats,
            timed_hole_faults,
            checksum,
            dsm,
            trace: None,
            race_report,
            sharing,
            false_sharing,
        }
    }

    /// Attach the cluster's event trace ([`RunSpec::launch`] calls this
    /// with [`sp2sim::RunOutput::trace`]).
    pub fn with_trace(mut self, trace: Option<TraceData>) -> RunResult {
        self.trace = trace;
        self
    }

    /// Speedup relative to a sequential time in microseconds.
    pub fn speedup_vs(&self, seq_us: f64) -> f64 {
        seq_us / self.time_us
    }

    /// Access-miss round trips of the timed region: demand diff
    /// requests (LRC), aggregated validates (CRI) and whole-page home
    /// fetches (HLRC). The quantity HLRC trades update traffic to
    /// reduce — the `protocol_compare` experiment's headline metric.
    pub fn miss_round_trips(&self) -> u64 {
        self.stats.messages(MsgKind::DiffReq)
            + self.stats.messages(MsgKind::ValidateReq)
            + self.stats.messages(MsgKind::PageReq)
    }

    /// Eager update-traffic bytes (HLRC home flushes); zero under LRC.
    pub fn flush_bytes(&self) -> u64 {
        self.stats.bytes_of(MsgKind::HomeFlush)
    }
}

/// One simulation, as a value: which application in which version, on
/// how many simulated processors at which problem scale, under which
/// schedule and which DSM configuration. Every run in the
/// workspace starts from one of these.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// Application.
    pub app: AppId,
    /// Program version.
    pub version: Version,
    /// Simulated processors ([`Version::Seq`] runs on one regardless).
    pub nprocs: usize,
    /// Problem scale (1.0 = the paper's sizes).
    pub scale: f64,
    /// Schedule the engine runs the cluster under.
    pub engine: EngineKind,
    /// DSM configuration; message-passing versions and the sequential
    /// baseline read only its `trace` flag.
    pub cfg: TmkConfig,
}

impl RunSpec {
    /// The run as the paper describes it: the default (FIFO) schedule,
    /// and the version's own DSM configuration —
    /// [`Version::HandOpt`] is the §5 variant *with* communication
    /// aggregation, every other version runs the defaults.
    pub fn new(app: AppId, version: Version, nprocs: usize, scale: f64) -> RunSpec {
        let cfg = match version {
            Version::HandOpt => TmkConfig::aggregated(),
            _ => TmkConfig::default(),
        };
        RunSpec {
            app,
            version,
            nprocs,
            scale,
            engine: EngineKind::default(),
            cfg,
        }
    }

    /// This run under the schedule `engine`.
    pub fn on(self, engine: EngineKind) -> RunSpec {
        RunSpec { engine, ..self }
    }

    /// This run under `protocol`.
    pub fn protocol(self, protocol: ProtocolMode) -> RunSpec {
        RunSpec {
            cfg: self.cfg.with_protocol(protocol),
            ..self
        }
    }

    /// Run it, at the workload [`RunSpec::scale`] stands for.
    pub fn run(&self) -> RunResult {
        use crate::{fft3d, igrid, jacobi, mgs, nbf, shallow};
        let s = self.scale;
        match self.app {
            AppId::Jacobi => self.launch(&jacobi::params(s), jacobi::node),
            AppId::Shallow => self.launch(&shallow::params(s), shallow::node),
            AppId::Mgs => self.launch(&mgs::params(s), mgs::node),
            AppId::Fft3d => self.launch(&fft3d::params(s), fft3d::node),
            AppId::IGrid => self.launch(&igrid::params(s), igrid::node),
            AppId::Nbf => self.launch(&nbf::params(s), nbf::node),
        }
    }

    /// The one place a spec becomes a cluster: `node` — the app module's
    /// `node` function, which must be [`RunSpec::app`]'s — runs on every
    /// simulated processor with workload `params`. [`RunSpec::run`]
    /// derives `params` from the scale; a test that varies the
    /// iteration count at a fixed grid passes its own (the scale is
    /// then only recorded).
    pub fn launch<P>(
        &self,
        params: &P,
        node: impl Fn(&Node, Version, &P, &TmkConfig) -> NodeOut,
    ) -> RunResult {
        let nprocs = match self.version {
            Version::Seq => 1,
            _ => self.nprocs,
        };
        let c = ClusterConfig::sp2_on(nprocs, self.engine).with_tracing(self.cfg.trace);
        let out = Cluster::run(c, |n| node(n, self.version, params, &self.cfg));
        RunResult::assemble(self.app, self.version, nprocs, self.scale, out.results)
            .with_trace(out.trace)
    }
}

/// [`RunSpec`]'s fields as positional arguments. `benchmark/` — a
/// package of its own that a pull request to the workspace may not
/// edit — binds to this signature; nothing in the workspace calls it.
pub fn run_with_cfg_on(
    engine: EngineKind,
    app: AppId,
    version: Version,
    nprocs: usize,
    scale: f64,
    cfg: TmkConfig,
) -> RunResult {
    let spec = RunSpec {
        app,
        version,
        nprocs,
        scale,
        engine,
        cfg,
    };
    spec.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_takes_max_time_and_master_checksum() {
        let outs = vec![
            NodeOut {
                elapsed_us: 100.0,
                stats: Some(StatsSnapshot::default()),
                checksum: Some(vec![1.0]),
                dsm: Some(DsmStats {
                    faults: 2,
                    ..Default::default()
                }),
                races: None,
                sharing: None,
                ..NodeOut::default()
            },
            NodeOut {
                elapsed_us: 150.0,
                stats: None,
                checksum: None,
                dsm: Some(DsmStats {
                    faults: 3,
                    ..Default::default()
                }),
                races: None,
                sharing: None,
                ..NodeOut::default()
            },
        ];
        let r = RunResult::assemble(AppId::Jacobi, Version::Tmk, 2, 1.0, outs);
        assert_eq!(r.time_us, 150.0);
        assert_eq!(r.checksum, vec![1.0]);
        assert_eq!(r.dsm.faults, 5);
        assert_eq!(r.speedup_vs(300.0), 2.0);
    }

    #[test]
    fn new_fills_in_the_engine_and_the_versions_configuration() {
        for v in [Version::Seq, Version::HandOpt]
            .into_iter()
            .chain(Version::SWEEP)
        {
            let spec = RunSpec::new(AppId::Mgs, v, 4, 0.04);
            assert_eq!(spec.engine, EngineKind::Sequential, "{v:?}");
            let expect = match v {
                Version::HandOpt => TmkConfig::aggregated(),
                _ => TmkConfig::default(),
            };
            assert_eq!(spec.cfg, expect, "{v:?}");
            for p in ProtocolMode::ALL {
                let cfg = TmkConfig {
                    protocol: p,
                    ..expect
                };
                assert_eq!(spec.protocol(p), RunSpec { cfg, ..spec }, "{v:?}/{p}");
            }
        }
    }

    #[test]
    fn seq_runs_on_one_node_whatever_nprocs_says() {
        let r = RunSpec::new(AppId::Jacobi, Version::Seq, 8, 0.03).run();
        assert_eq!((r.nprocs, r.messages), (1, 0));
    }

    #[test]
    fn run_equals_the_positional_form_to_the_bit() {
        for p in ProtocolMode::ALL {
            let spec = RunSpec::new(AppId::Jacobi, Version::Spf, 4, 0.03).protocol(p);
            let (a, b) = (
                spec.run(),
                run_with_cfg_on(spec.engine, spec.app, spec.version, 4, 0.03, spec.cfg),
            );
            assert_eq!(a.time_us.to_bits(), b.time_us.to_bits(), "{p}");
            assert_eq!(a.stats, b.stats, "{p}");
            assert_eq!(a.checksum, b.checksum, "{p}");
            assert_eq!(a.dsm, b.dsm, "{p}");
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(AppId::Fft3d.name(), "3-D FFT");
        assert_eq!(Version::Spf.name(), "SPF/Tmk");
        assert_eq!(AppId::REGULAR.len(), 4);
        assert_eq!(AppId::IRREGULAR.len(), 2);
    }
}
