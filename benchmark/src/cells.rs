//! The five workloads and the `--seed` → cell-list generator.
//!
//! A *cell* is one simulation: `app version protocol @scale` at a page
//! size, always on the sequential engine with 8 simulated nodes. A
//! *pass* runs a workload's whole cell list once. The program under
//! test receives only these generated parameters, never the seed.

use std::fmt;

use apps::{AppId, Version};
use sp2sim::SplitMix64;
use treadmarks::ProtocolMode::{self, Hlrc, Lrc};

/// Simulated nodes of every cell (the paper's SP2).
pub const NPROCS: usize = 8;

/// Relative half-width of the per-cell scale jitter for seeds other
/// than 1. Work grows with the square of the scale (iteration counts
/// are rounded and stay put), so ±0.5 % keeps a workload's pass within
/// a per cent or two of nominal — well inside the regression bounds —
/// while still changing array sizes, page counts and message sizes.
const SCALE_JITTER: f64 = 0.005;

#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Cell {
    pub app: AppId,
    pub version: Version,
    pub protocol: ProtocolMode,
    pub scale: f64,
    pub page_words: usize,
}

impl Cell {
    /// Whether the cell constructs a `Tmk` (protocol and page size
    /// mean nothing to the message-passing versions).
    pub fn is_dsm(&self) -> bool {
        !matches!(self.version, Version::Xhpf | Version::Pvme)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ", self.app.name(), self.version.name())?;
        if self.is_dsm() {
            write!(f, "{} pw{} ", self.protocol, self.page_words)?;
        }
        write!(f, "@{}", self.scale)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    GridSmall,
    DenseLrc,
    DenseHlrc,
    MpBypass,
    CriHinted,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::GridSmall,
        Workload::DenseLrc,
        Workload::DenseHlrc,
        Workload::MpBypass,
        Workload::CriHinted,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GridSmall => "grid-small",
            Workload::DenseLrc => "dense-lrc",
            Workload::DenseHlrc => "dense-hlrc",
            Workload::MpBypass => "mp-bypass",
            Workload::CriHinted => "cri-hinted",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists (one line; BENCHMARK.json carries the
    /// same text and a test keeps the two equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::GridSmall => {
                "48 sub-10ms SPF cells of the committed sweep: set-up, fiber switches, \
                 service dispatch and codec dominate; data movement is negligible"
            }
            Workload::DenseLrc => {
                "Jacobi/Shallow SPF and Jacobi Tmk on multi-MB arrays under LRC: views, \
                 twins, diff create/apply and kernels; Tmk beside SPF separates spf dispatch"
            }
            Workload::DenseHlrc => {
                "Jacobi/Shallow SPF under HLRC: eager home flush and whole-page fetch, \
                 about 10x the faults and bytes of LRC; where peak memory lives"
            }
            Workload::MpBypass => {
                "XHPF and PVMe of all six apps: never builds a Tmk, so the control on which \
                 a DSM-layer change must show no movement; engine and payload-path costs"
            }
            Workload::CriHinted => {
                "SPF+CRI cells: validate/push/reduce services, inspector walks and the \
                 schedule cache; message-lean, so host time lands in cri/inspector"
            }
        }
    }

    /// Host seconds this workload's sequential programs (one
    /// `Version::Seq` run per cell) took in a quiet phase of the box the
    /// benchmark was written on. `setup_s` is reported at this speed:
    /// see `report::setup_adjusted`. Measure again when a cell list
    /// changes.
    pub fn reference_seq_s(self) -> f64 {
        match self {
            Workload::GridSmall => 0.028,
            Workload::DenseLrc => 0.11,
            Workload::DenseHlrc => 0.055,
            Workload::MpBypass => 0.235,
            Workload::CriHinted => 0.15,
        }
    }

    /// The nominal (seed 1) cell list.
    pub fn nominal(self) -> Vec<Cell> {
        use AppId::*;
        use Version::*;
        let dsm = |app, version, protocol, scale| Cell {
            app,
            version,
            protocol,
            scale,
            page_words: 512,
        };
        match self {
            Workload::GridSmall => {
                let mut v = Vec::new();
                for app in AppId::ALL {
                    for protocol in ProtocolMode::ALL {
                        for scale in [0.05, 0.1] {
                            for page_words in [256, 512] {
                                v.push(Cell {
                                    app,
                                    version: Spf,
                                    protocol,
                                    scale,
                                    page_words,
                                });
                            }
                        }
                    }
                }
                v
            }
            Workload::DenseLrc => vec![
                dsm(Jacobi, Spf, Lrc, 0.33),
                dsm(Shallow, Spf, Lrc, 0.3),
                dsm(Jacobi, Tmk, Lrc, 0.33),
            ],
            Workload::DenseHlrc => vec![dsm(Jacobi, Spf, Hlrc, 0.3), dsm(Shallow, Spf, Hlrc, 0.26)],
            Workload::MpBypass => {
                let mut v = Vec::new();
                for app in AppId::ALL {
                    let scale = if AppId::REGULAR.contains(&app) {
                        0.3
                    } else {
                        0.7
                    };
                    for version in [Xhpf, Pvme] {
                        v.push(dsm(app, version, Lrc, scale));
                    }
                }
                v
            }
            // No IGrid SPF+CRI under LRC: at about half of all grid
            // sizes its result differs from the sequential one (see
            // README.md, "What the first runs found"), and a workload
            // may hold no cell that fails.
            Workload::CriHinted => vec![
                dsm(IGrid, SpfCri, Hlrc, 0.48),
                dsm(Nbf, SpfCri, Lrc, 0.5),
                dsm(Shallow, SpfCri, Lrc, 0.2),
                dsm(Mgs, SpfCri, Lrc, 0.25),
                dsm(Fft3d, SpfCri, Lrc, 0.5),
            ],
        }
    }

    /// The cell list for `seed`. Seed 1 is the nominal list; any other
    /// seed jitters every scale by up to ±0.5 % and shuffles the order.
    /// The same seed always gives the same list.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let mut cells = self.nominal();
        if seed != 1 {
            // One stream per (seed, workload), so adding a workload
            // never changes another's cells.
            let mut rng = SplitMix64::new(seed ^ ((self as u64 + 1) << 56));
            for c in &mut cells {
                c.scale *= 1.0 + SCALE_JITTER * (2.0 * rng.next_f64() - 1.0);
            }
            rng.shuffle(&mut cells);
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_cells_other_seed_other_cells() {
        for w in Workload::ALL {
            assert_eq!(w.cells(1), w.nominal(), "{}: seed 1 is nominal", w.name());
            assert_eq!(w.cells(7), w.cells(7), "{}", w.name());
            assert_ne!(w.cells(7), w.cells(8), "{}", w.name());
            assert_eq!(w.cells(7).len(), w.nominal().len());
        }
    }

    #[test]
    fn jitter_stays_within_its_half_width_of_a_nominal_scale() {
        for w in Workload::ALL {
            let nominal = w.nominal();
            for c in w.cells(12345) {
                assert!(nominal.iter().any(|n| n.app == c.app
                    && n.version == c.version
                    && n.protocol == c.protocol
                    && n.page_words == c.page_words
                    && (c.scale / n.scale - 1.0).abs() <= SCALE_JITTER));
            }
        }
    }

    #[test]
    fn workloads_are_shaped_as_documented() {
        assert_eq!(Workload::GridSmall.nominal().len(), 48);
        assert!(Workload::MpBypass.nominal().iter().all(|c| !c.is_dsm()));
        assert!(Workload::DenseHlrc
            .nominal()
            .iter()
            .all(|c| c.protocol == Hlrc));
        assert!(Workload::DenseLrc
            .nominal()
            .iter()
            .all(|c| c.protocol == Lrc));
        assert!(Workload::CriHinted
            .nominal()
            .iter()
            .all(|c| c.version == Version::SpfCri));
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
    }
}
