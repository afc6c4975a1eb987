//! Shared command-line grammar of the `dsm` subcommands.
//!
//! Every subcommand accepts the same shape:
//!
//! ```text
//! dsm <subcommand> [scale] [nprocs] [--engine sequential|seeded:N] [--protocol lrc|hlrc]
//! ```
//!
//! plus the flags its [`Spec`] declares (see [`crate::cmd::COMMANDS`]).
//! A value-taking flag may be spelled `--flag V` or `--flag=V`.
//!
//! The default engine schedule is **sequential** (strict FIFO): it is
//! what every recorded table and baseline uses. `--engine seeded:N`
//! runs the same simulation under the random, preempting schedule seed
//! `N` stands for — how a failure the schedule explorer printed a seed
//! for is replayed, traced and analyzed (`dsm analyze`).
//! Either way the output is identical on every invocation.
//!
//! The default protocol is **lrc** (the original TreadMarks protocol);
//! `--protocol hlrc` runs the shared-memory versions under home-based
//! LRC instead. The `protocol_compare` subcommand sweeps both sides
//! itself and ignores the flag's default.
//!
//! Nothing here touches `std::env` or exits the process: parsing takes
//! the argument iterator and returns `Result`, and only the binary's
//! `main` turns an [`Exit`] into a status.

use sp2sim::EngineKind;
use treadmarks::ProtocolMode;

/// A subcommand's arguments: everything after its name.
pub type Args<'a> = &'a mut dyn Iterator<Item = String>;

/// The common usage line, printed with every grammar error.
pub const USAGE: &str = "usage: dsm <subcommand> [scale] [nprocs] \
     [--engine sequential|seeded:N] [--protocol lrc|hlrc] (see `dsm help`)";

/// Why a subcommand stopped early: the process status and what to print
/// on stderr first. Status 2 is a bad invocation or an unreadable
/// input, status 1 a gate or check that ran and failed.
#[derive(Debug, PartialEq)]
pub struct Exit {
    /// Process exit status.
    pub code: u8,
    /// Text for stderr (printed as is).
    pub message: String,
}

impl Exit {
    /// A command-line grammar error: status 2, the message and the
    /// usage line.
    pub fn usage(msg: impl std::fmt::Display) -> Exit {
        Exit::error(format!("{msg}\n{USAGE}"))
    }

    /// Bad or unreadable input: status 2.
    pub fn error(msg: impl std::fmt::Display) -> Exit {
        Exit {
            code: 2,
            message: format!("error: {msg}"),
        }
    }

    /// A gate or check that ran and failed: status 1, the message
    /// verbatim.
    pub fn failure(msg: impl std::fmt::Display) -> Exit {
        Exit {
            code: 1,
            message: msg.to_string(),
        }
    }
}

/// Parsed common arguments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cli {
    /// Problem scale (1.0 = the paper's sizes).
    pub scale: f64,
    /// Simulated processor count.
    pub nprocs: usize,
    /// Engine schedule for every simulation of the subcommand.
    pub engine: EngineKind,
    /// Coherence protocol for the shared-memory versions.
    pub protocol: ProtocolMode,
}

impl Cli {
    /// The run of `app` in `version` this command line asks for.
    pub fn spec(&self, app: apps::AppId, version: apps::Version) -> apps::RunSpec {
        apps::RunSpec::new(app, version, self.nprocs, self.scale)
            .on(self.engine)
            .protocol(self.protocol)
    }

    /// Every one of `versions` of every one of `apps`, as [`Cli::spec`]
    /// asks for it.
    pub(crate) fn grid(
        &self,
        apps: &[apps::AppId],
        versions: &[apps::Version],
    ) -> Vec<apps::RunSpec> {
        let row = |&app| versions.iter().map(move |&v| self.spec(app, v));
        apps.iter().flat_map(row).collect()
    }
}

/// What one subcommand accepts: its positional defaults and the flags
/// it takes beyond `--engine` / `--protocol`.
pub struct Spec {
    /// Default problem scale and processor count.
    pub defaults: (f64, usize),
    /// Flags that take a value.
    pub values: &'static [&'static str],
    /// Flags that take none.
    pub switches: &'static [&'static str],
}

/// The subcommand's own flags as given on the command line.
#[derive(Debug, PartialEq)]
pub struct Flags {
    declared: Vec<&'static str>,
    given: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    fn find(&self, flag: &str) -> Option<&Option<String>> {
        assert!(self.declared.contains(&flag), "{flag} is not in the Spec");
        let given = self.given.iter().rev().find(|(name, _)| *name == flag);
        given.map(|(_, value)| value)
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// The (last) value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<String> {
        self.find(flag).cloned().flatten()
    }

    /// The value given for `flag` run through `parse`, whose error
    /// becomes the usage error.
    pub fn parsed<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, Exit> {
        let value = self.value(flag);
        value.map(|v| parse(&v).map_err(Exit::usage)).transpose()
    }
}

impl Spec {
    /// Parse `args`. Unknown flags, a value flag without its value, a
    /// switch with one and positionals beyond two are usage errors.
    pub fn parse(&self, args: Args) -> Result<(Cli, Flags), Exit> {
        let mut cli = Cli {
            scale: self.defaults.0,
            nprocs: self.defaults.1,
            engine: EngineKind::Sequential,
            protocol: ProtocolMode::Lrc,
        };
        let mut given = Vec::new();
        let mut positional = 0;
        while let Some(a) = args.next() {
            if a == "--help" || a == "-h" {
                return Err(Exit {
                    code: 0,
                    message: USAGE.to_string(),
                });
            } else if a.starts_with("--") {
                let (name, inline) = match a.split_once('=') {
                    Some((name, v)) => (name, Some(v)),
                    None => (a.as_str(), None),
                };
                let unknown = || Exit::usage(format!("unknown flag {a}"));
                if let Some(switch) = self.switches.iter().find(|s| **s == name) {
                    if inline.is_some() {
                        return Err(unknown());
                    }
                    given.push((*switch, None));
                    continue;
                }
                // Every value-taking flag, common or not, is read here.
                let mut valued = ["--engine", "--protocol"].iter().chain(self.values);
                let flag = *valued.find(|v| **v == name).ok_or_else(unknown)?;
                let value = match inline {
                    Some(v) => v.to_string(),
                    None => args
                        .next()
                        .ok_or_else(|| Exit::usage(format!("missing value after {flag}")))?,
                };
                match flag {
                    "--engine" => cli.engine = value.parse().map_err(Exit::usage)?,
                    "--protocol" => cli.protocol = value.parse().map_err(Exit::usage)?,
                    _ => given.push((flag, Some(value))),
                }
            } else {
                match positional {
                    0 => {
                        cli.scale = a
                            .parse()
                            .map_err(|_| Exit::usage(format!("bad scale {a}")))?
                    }
                    1 => {
                        cli.nprocs = a
                            .parse()
                            .map_err(|_| Exit::usage(format!("bad nprocs {a}")))?
                    }
                    _ => return Err(Exit::usage(format!("unexpected argument {a}"))),
                }
                positional += 1;
            }
        }
        if cli.nprocs == 0 {
            return Err(Exit::usage("nprocs must be at least 1"));
        }
        if cli.scale.is_nan() || cli.scale <= 0.0 {
            return Err(Exit::usage("scale must be a positive number"));
        }
        let declared = self.values.iter().chain(self.switches).copied().collect();
        Ok((cli, Flags { declared, given }))
    }
}

/// Parse an application name as accepted by the `analyze` subcommand's
/// `--app` flag.
pub fn parse_app(s: &str) -> Result<apps::AppId, String> {
    use apps::AppId;
    Ok(match s.to_ascii_lowercase().as_str() {
        "jacobi" => AppId::Jacobi,
        "shallow" => AppId::Shallow,
        "mgs" => AppId::Mgs,
        "fft3d" | "fft" => AppId::Fft3d,
        "igrid" => AppId::IGrid,
        "nbf" => AppId::Nbf,
        _ => return Err(format!("unknown app '{s}'")),
    })
}

/// Parse a program-version name as accepted by `--version`.
pub fn parse_version(s: &str) -> Result<apps::Version, String> {
    use apps::Version;
    Ok(match s.to_ascii_lowercase().as_str() {
        "seq" => Version::Seq,
        "spf" => Version::Spf,
        "spf-cri" | "spfcri" | "cri" => Version::SpfCri,
        "tmk" | "treadmarks" => Version::Tmk,
        "xhpf" => Version::Xhpf,
        "pvme" => Version::Pvme,
        "handopt" | "hand-opt" => Version::HandOpt,
        _ => return Err(format!("unknown version '{s}'")),
    })
}

/// Owned arguments from string literals (tests).
#[cfg(test)]
pub(crate) fn argv(words: &[&str]) -> std::vec::IntoIter<String> {
    let words: Vec<String> = words.iter().map(|w| w.to_string()).collect();
    words.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMON: Spec = Spec {
        defaults: (0.1, 8),
        values: &[],
        switches: &[],
    };
    const TOOL: Spec = Spec {
        defaults: (1.0, 8),
        values: &["--out", "--input"],
        switches: &["--quiet"],
    };

    fn common(words: &[&str]) -> Result<Cli, Exit> {
        let parsed = COMMON.parse(&mut argv(words));
        parsed.map(|(cli, _)| cli)
    }

    /// `words` must be a usage error (status 2) that names `needle`.
    fn rejected(spec: &Spec, words: &[&str], needle: &str) {
        let e = spec.parse(&mut argv(words)).expect_err(needle);
        assert_eq!(e.code, 2, "{words:?}");
        assert!(
            e.message.contains(needle) && e.message.contains(USAGE),
            "{words:?}: {}",
            e.message
        );
    }

    #[test]
    fn defaults_positionals_and_common_flags_in_both_spellings() {
        let cli = common(&[]).unwrap();
        assert_eq!((cli.scale, cli.nprocs), (0.1, 8));
        assert_eq!(cli.engine, EngineKind::Sequential);
        assert_eq!(cli.protocol, ProtocolMode::Lrc);
        let spaced = common(&["--engine", "seeded:7", "0.2", "--protocol", "hlrc", "3"]).unwrap();
        let joined = common(&["--engine=seeded:7", "0.2", "--protocol=hlrc", "3"]).unwrap();
        assert_eq!(spaced, joined);
        assert_eq!((spaced.scale, spaced.nprocs), (0.2, 3));
        assert_eq!(spaced.engine, EngineKind::Seeded(7));
        assert_eq!(spaced.protocol, ProtocolMode::Hlrc);
    }

    #[test]
    fn grammar_errors_name_the_argument() {
        rejected(&COMMON, &["--engine"], "missing value after --engine");
        rejected(&COMMON, &["--engine", "warp"], "warp");
        rejected(&COMMON, &["--engine", "threaded"], "seeded:N");
        rejected(&COMMON, &["--protocol=mesi"], "mesi");
        rejected(&COMMON, &["--nosuch"], "unknown flag --nosuch");
        rejected(&COMMON, &["--out", "f"], "unknown flag --out");
        rejected(&COMMON, &["0.1", "8", "9"], "unexpected argument 9");
        rejected(&COMMON, &["x"], "bad scale x");
        rejected(&COMMON, &["0.1", "many"], "bad nprocs many");
        rejected(&COMMON, &["0.1", "0"], "nprocs must be at least 1");
        rejected(&COMMON, &["0"], "scale must be a positive number");
        rejected(&COMMON, &["-1"], "scale must be a positive number");
        rejected(&COMMON, &["NaN"], "scale must be a positive number");
        rejected(&TOOL, &["--input"], "missing value after --input");
        // A switch does not swallow a value.
        rejected(&TOOL, &["--quiet=1"], "unknown flag --quiet=1");
    }

    #[test]
    fn help_stops_with_status_zero() {
        for h in ["--help", "-h"] {
            let e = common(&["0.1", h]).unwrap_err();
            assert_eq!((e.code, e.message.as_str()), (0, USAGE));
        }
    }

    #[test]
    fn declared_flags_are_collected() {
        let words = ["--out", "a.json", "2.0", "--quiet", "--out=b=c.json"];
        let (cli, flags) = TOOL.parse(&mut argv(&words)).unwrap();
        assert_eq!(cli.scale, 2.0);
        assert!(flags.has("--quiet"));
        assert_eq!(flags.value("--out").as_deref(), Some("b=c.json"));
        assert_eq!(flags.value("--input"), None);
        let as_len = |v: &str| Ok::<usize, String>(v.len());
        assert_eq!(flags.parsed("--out", as_len), Ok(Some(8)));
        let refuse = |v: &str| Err::<usize, String>(format!("bad {v}"));
        let e = flags.parsed("--out", refuse).unwrap_err();
        assert!(e.message.contains("bad b=c.json") && e.code == 2);
    }

    #[test]
    fn app_and_version_names() {
        assert_eq!(parse_app("FFT"), Ok(apps::AppId::Fft3d));
        assert_eq!(parse_version("cri"), Ok(apps::Version::SpfCri));
        assert!(parse_app("linpack").unwrap_err().contains("linpack"));
        assert!(parse_version("mpi").unwrap_err().contains("mpi"));
    }
}
