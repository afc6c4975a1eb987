//! Shared `--check-baseline` machinery for the CI regression-gate
//! subcommands (`compiler_opt`, `protocol_compare`).
//!
//! A baseline file records `scale nprocs max_count` — the configuration
//! a deterministic (sequential-engine) sweep was recorded at and the
//! count it must not exceed there. What the count bounds (messages,
//! access-miss round trips, ...) is the subcommand's business; the
//! parsing and the recorded-config-wins rule are shared so both gates
//! keep one contract. Exit status 2 signals an unreadable or malformed
//! baseline.

use crate::cli::{Cli, Exit, Flags};

/// Parsed `scale nprocs max_count` baseline record.
pub struct Baseline {
    /// Problem scale the baseline was recorded at.
    pub scale: f64,
    /// Processor count the baseline was recorded at.
    pub nprocs: usize,
    /// The gated quantity's recorded maximum.
    pub max_count: u64,
}

/// The baseline `--check-baseline FILE` names, if the flag was given;
/// `what` names the count field in error messages (e.g. `max_msgs`).
pub fn from_flags(flags: &Flags, what: &str) -> Result<Option<Baseline>, Exit> {
    let path = flags.value("--check-baseline");
    path.map(|p| read(&p, what)).transpose()
}

fn read(path: &str, what: &str) -> Result<Baseline, Exit> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Exit::error(format!("cannot read baseline {path}: {e}")))?;
    let fields: Vec<&str> = text.split_whitespace().collect();
    let parsed = (|| -> Option<Baseline> {
        let [scale, nprocs, max_count] = fields.as_slice() else {
            return None;
        };
        Some(Baseline {
            scale: scale.parse().ok()?,
            nprocs: nprocs.parse().ok()?,
            max_count: max_count.parse().ok()?,
        })
    })();
    parsed.ok_or_else(|| {
        Exit::error(format!(
            "baseline {path} must contain `scale nprocs {what}`, got {text:?}"
        ))
    })
}

/// The configuration the gated sweep must run at. Counts are only
/// comparable at the configuration the baseline was recorded at —
/// silently comparing across scales would flag phantom regressions —
/// so the recorded `(scale, nprocs)` win over the command line, and a
/// mismatch is reported.
pub fn gate_config(cli: Cli, baseline: Option<&Baseline>) -> Cli {
    let Some(b) = baseline else { return cli };
    if b.scale != cli.scale || b.nprocs != cli.nprocs {
        eprintln!(
            "note: baseline recorded at scale {} / {} procs; \
             running the gate there (command line said {} / {})",
            b.scale, b.nprocs, cli.scale, cli.nprocs
        );
    }
    Cli {
        scale: b.scale,
        nprocs: b.nprocs,
        ..cli
    }
}
