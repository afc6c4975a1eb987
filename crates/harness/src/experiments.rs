//! The cells the paper's artifacts read.
//!
//! Tables 1–3, Figures 1–2 and the studies beside them all read one
//! grid: applications in versions, on some processors, at one scale.
//! An artifact is two parts in its `cmd` module — the cells it needs,
//! a list of [`RunSpec`]s, and a rendering of [`Cells`] — and `Cells`
//! runs each distinct simulation of a list once, however many
//! artifacts list it.

use apps::{RunResult, RunSpec, Version};

use crate::oracle;
use crate::sweep::sweep_map;

/// The simulation `spec` stands for. A `Seq` program runs on one node
/// and reads no DSM configuration, so every `Seq` spec at one
/// (application, scale, engine) is one cell.
fn cell(spec: &RunSpec) -> RunSpec {
    match spec.version {
        Version::Seq => baseline(spec),
        _ => *spec,
    }
}

/// The `Seq` cell `spec`'s speedup is measured against.
pub(crate) fn baseline(spec: &RunSpec) -> RunSpec {
    RunSpec::new(spec.app, Version::Seq, 1, spec.scale).on(spec.engine)
}

/// Ran cells, each with its result: one per distinct simulation of the
/// specs they were run from.
pub struct Cells {
    ran: Vec<(RunSpec, RunResult)>,
}

impl Cells {
    /// What [`Cells::run`] runs for `specs`, in order: each distinct
    /// cell once, its `Seq` baseline ahead of it.
    pub(crate) fn distinct(specs: &[RunSpec]) -> Vec<RunSpec> {
        let mut cells = Vec::new();
        for spec in specs {
            for c in [baseline(spec), cell(spec)] {
                if !cells.contains(&c) {
                    cells.push(c);
                }
            }
        }
        cells
    }

    /// Run the distinct cells of `specs` across cores, every one through
    /// [`oracle::run`].
    pub fn run(specs: &[RunSpec]) -> Cells {
        let cells = Cells::distinct(specs);
        let results = sweep_map(&cells, oracle::run);
        Cells {
            ran: cells.into_iter().zip(results).collect(),
        }
    }

    /// The result of `spec`'s cell; panics if no spec it ran from asked
    /// for it.
    pub fn get(&self, spec: &RunSpec) -> &RunResult {
        let want = cell(spec);
        match self.ran.iter().find(|(c, _)| *c == want) {
            Some((_, result)) => result,
            None => panic!("{want:?} is not a cell that ran"),
        }
    }

    /// `spec`'s speedup over the `Seq` program at its application and
    /// scale.
    pub fn speedup(&self, spec: &RunSpec) -> f64 {
        self.get(spec).speedup_vs(self.get(&baseline(spec)).time_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::Cli;
    use crate::cmd::{compiler_opt, figure2_table3, protocol_compare, table1};
    use apps::AppId;
    use treadmarks::ProtocolMode;

    fn cli(nprocs: usize, protocol: ProtocolMode) -> Cli {
        Cli {
            scale: 0.03,
            nprocs,
            engine: sp2sim::EngineKind::Sequential,
            protocol,
        }
    }

    /// The apps a list of specs covers.
    fn apps(specs: &[RunSpec]) -> usize {
        AppId::ALL
            .iter()
            .filter(|&&a| specs.iter().any(|s| s.app == a))
            .count()
    }

    #[test]
    fn table1_covers_all_apps() {
        let specs = table1::cells(&cli(1, ProtocolMode::Lrc));
        let cells = Cells::run(&specs);
        assert_eq!(Cells::distinct(&specs).len(), 6);
        for spec in &specs {
            let secs = cells.get(spec).time_us / 1e6;
            assert!(secs > 0.0, "{:?} has positive sequential time", spec.app);
            assert!(!table1::size_desc(spec.app, spec.scale).is_empty());
        }
    }

    #[test]
    fn compiler_opt_covers_all_apps_and_reduces_messages() {
        for protocol in ProtocolMode::ALL {
            let cli = cli(4, protocol);
            let specs = compiler_opt::cells(&cli);
            assert_eq!(apps(&specs), 6);
            let cells = Cells::run(&specs);
            for app in AppId::ALL {
                let seq = cells.get(&cli.spec(app, Version::Seq));
                let spf = cells.get(&cli.spec(app, Version::Spf));
                let cri = cells.get(&cli.spec(app, Version::SpfCri));
                assert!(seq.time_us > 0.0);
                assert!(
                    cri.messages < spf.messages,
                    "{protocol}/{app:?}: cri {} vs spf {}",
                    cri.messages,
                    spf.messages
                );
                assert!(compiler_opt::message_reduction(spf, cri) > 0.0);
            }
            // The irregular rows amortize a real, nonzero inspector cost.
            for app in AppId::IRREGULAR {
                let cri = cells.get(&cli.spec(app, Version::SpfCri));
                assert!(cri.dsm.inspections > 0, "{app:?}");
                assert!(cri.dsm.schedule_reuse > 0, "{app:?}");
                assert!(compiler_opt::inspect_secs(cri) > 0.0, "{app:?}");
            }
        }
    }

    #[test]
    fn cells_answer_get_and_speedup_once_per_distinct_cell() {
        let cli = cli(2, ProtocolMode::Lrc);
        let specs = figure2_table3::cells(&cli);
        assert_eq!(apps(&specs), 2);
        let cells = Cells::run(&specs);
        let spf = cli.spec(AppId::IGrid, Version::Spf);
        assert_eq!(cells.get(&spf).version, Version::Spf);
        assert!(cells.speedup(&spf) > 0.0);
        // Every `Seq` spec of an (app, scale, engine) is the one cell.
        let seq = cli.spec(AppId::IGrid, Version::Seq);
        let other = RunSpec::new(AppId::IGrid, Version::Seq, 1, cli.scale);
        assert!(std::ptr::eq(
            cells.get(&seq.protocol(ProtocolMode::Hlrc)),
            cells.get(&other)
        ));
        let twice: Vec<RunSpec> = specs.iter().chain(&specs).copied().collect();
        assert_eq!(Cells::distinct(&twice), Cells::distinct(&specs));
        assert_eq!(Cells::distinct(&specs).len(), 2 + specs.len());
    }

    #[test]
    fn protocol_compare_shape() {
        let cli = cli(4, ProtocolMode::Lrc);
        let specs = protocol_compare::cells(&cli);
        assert_eq!(apps(&specs), 4);
        let cells = Cells::run(&specs);
        for app in AppId::REGULAR {
            let [lrc, hlrc] =
                ProtocolMode::ALL.map(|p| cells.get(&cli.spec(app, Version::Spf).protocol(p)));
            assert_eq!(lrc.checksum, hlrc.checksum, "{app:?}: protocols must agree");
            assert!(
                hlrc.miss_round_trips() < lrc.miss_round_trips(),
                "{app:?}: HLRC {} vs LRC {} round trips",
                hlrc.miss_round_trips(),
                lrc.miss_round_trips()
            );
            assert!(hlrc.flush_bytes() > 0, "{app:?}: eager flushes");
            assert_eq!(lrc.flush_bytes(), 0);
        }
    }
}
