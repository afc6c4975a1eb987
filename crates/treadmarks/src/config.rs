//! DSM configuration.

use std::fmt;
use std::str::FromStr;

/// Which coherence protocol the DSM runs.
///
/// Both protocols implement lazy release consistency with the
/// multiple-writer (twin/diff) mechanism; they differ in **where diffs
/// live** between the release that creates them and the access miss that
/// needs them:
///
/// * [`ProtocolMode::Lrc`] — the original TreadMarks protocol. Diffs stay
///   with their writers (lazily materialized on first request); an access
///   miss sends one diff request per writer that has modified the page.
/// * [`ProtocolMode::Hlrc`] — home-based LRC (Zhou et al.). Every page
///   has a **home node** that eagerly receives each writer's diffs at the
///   release that publishes them; an access miss fetches the whole page
///   from its home in a single round trip, regardless of how many writers
///   modified it. HLRC trades update traffic (the eager flushes, and
///   whole-page responses) for fault round trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolMode {
    /// Distributed (writer-held) diffs — the original TreadMarks
    /// protocol of Amza et al.
    Lrc,
    /// Home-based LRC: eager per-release diff flushes to a per-page home
    /// node, whole-page fetches on access misses.
    Hlrc,
}

impl ProtocolMode {
    /// Both protocol modes, in comparison order (LRC first).
    pub const ALL: [ProtocolMode; 2] = [ProtocolMode::Lrc, ProtocolMode::Hlrc];

    /// Stable lower-case name (accepted back by [`FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolMode::Lrc => "lrc",
            ProtocolMode::Hlrc => "hlrc",
        }
    }
}

impl fmt::Display for ProtocolMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ProtocolMode {
    type Err = String;

    fn from_str(s: &str) -> Result<ProtocolMode, String> {
        match s {
            "lrc" => Ok(ProtocolMode::Lrc),
            "hlrc" => Ok(ProtocolMode::Hlrc),
            other => Err(format!("unknown protocol {other:?} (use lrc or hlrc)")),
        }
    }
}

/// Configuration of one TreadMarks instance. All nodes of a cluster must
/// construct their instance with identical configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TmkConfig {
    /// Page size in 64-bit words. The default, 512 words = 4 KB, matches
    /// the AIX page size of the paper's platform.
    pub page_words: usize,
    /// When true (default), the improved compiler/run-time interface of
    /// paper §2.3 is used for fork-join: the barrier departure carries the
    /// loop-control variables (`2 (n - 1)` messages per parallel loop).
    /// When false, the original scheme is emulated: control variables are
    /// written to shared pages and faulted in by the workers around a full
    /// barrier (`8 (n - 1)` messages per loop).
    pub improved_forkjoin: bool,
    /// When true, a view fault sends one aggregated diff request per
    /// writer covering every missing page of the view, instead of one
    /// request per page per writer. This is the "communication
    /// aggregation" hand-optimization of paper §5 (Dwarkadas et al.).
    /// Under [`ProtocolMode::Hlrc`] the aggregation unit is the home
    /// node: one page request per home covering every missing page the
    /// home owns, instead of one request per page.
    pub aggregation: bool,
    /// Coherence protocol: distributed diffs (LRC, the default) or
    /// home-based LRC (HLRC). Home assignment is block-cyclic
    /// (`page % nprocs`) unless overridden per page before the page's
    /// first write notice — the CRI hint engine overrides it so a
    /// compiler-declared producer becomes the home (see "Hint plans" in
    /// the `spf` crate).
    pub protocol: ProtocolMode,
    /// When true, the DSM layer asks the cluster to record a virtual-time
    /// event trace and emits protocol spans into it (see the `trace`
    /// crate and `dsm analyze`, the harness's traced-run tool). Off by default;
    /// tracing never changes any simulated observable either way.
    pub trace: bool,
    /// When true, every flush records per-word write provenance for the
    /// interval it closes (the twin-vs-published delta plus a vector
    /// clock snapshot), and the post-run analyzer flags every pair of
    /// intervals that wrote the same word while unordered by the
    /// vector-clock partial order — a data race under the
    /// multiple-writer protocol's "concurrent intervals write disjoint
    /// words" contract. See `crate::race`. Off by default; the recording
    /// is host-side only and changes no simulated observable either way.
    pub detect_races: bool,
}

impl Default for TmkConfig {
    fn default() -> Self {
        TmkConfig {
            page_words: 512,
            improved_forkjoin: true,
            aggregation: false,
            protocol: ProtocolMode::Lrc,
            trace: false,
            detect_races: false,
        }
    }
}

impl TmkConfig {
    /// Default configuration with aggregation enabled (the hand-optimized
    /// variants of Section 5).
    pub fn aggregated() -> TmkConfig {
        TmkConfig {
            aggregation: true,
            ..TmkConfig::default()
        }
    }

    /// Default configuration with the original (pre-§2.3) fork-join
    /// interface, for the interface ablation.
    pub fn legacy_forkjoin() -> TmkConfig {
        TmkConfig {
            improved_forkjoin: false,
            ..TmkConfig::default()
        }
    }

    /// Default configuration under the home-based protocol.
    pub fn hlrc() -> TmkConfig {
        TmkConfig {
            protocol: ProtocolMode::Hlrc,
            ..TmkConfig::default()
        }
    }

    /// This configuration with the given protocol mode.
    pub fn with_protocol(self, protocol: ProtocolMode) -> TmkConfig {
        TmkConfig { protocol, ..self }
    }

    /// This configuration with event tracing on or off.
    pub fn with_trace(self, trace: bool) -> TmkConfig {
        TmkConfig { trace, ..self }
    }

    /// This configuration with data-race detection on or off.
    pub fn with_race_detection(self, detect_races: bool) -> TmkConfig {
        TmkConfig {
            detect_races,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let c = TmkConfig::default();
        assert_eq!(c.page_words * 8, 4096);
        assert!(c.improved_forkjoin);
        assert!(!c.aggregation);
        assert_eq!(c.protocol, ProtocolMode::Lrc);
        assert!(!c.detect_races, "race detection is opt-in");
    }

    #[test]
    fn presets() {
        assert!(TmkConfig::aggregated().aggregation);
        assert!(!TmkConfig::legacy_forkjoin().improved_forkjoin);
        assert_eq!(TmkConfig::hlrc().protocol, ProtocolMode::Hlrc);
        assert_eq!(
            TmkConfig::default()
                .with_protocol(ProtocolMode::Hlrc)
                .protocol,
            ProtocolMode::Hlrc
        );
        assert!(TmkConfig::default().with_race_detection(true).detect_races);
    }

    #[test]
    fn protocol_mode_roundtrips_through_names() {
        for m in ProtocolMode::ALL {
            assert_eq!(m.name().parse::<ProtocolMode>(), Ok(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert!("treadmarks".parse::<ProtocolMode>().is_err());
    }
}
