//! The subcommands of the `dsm` binary: one module per subcommand, each
//! with a `run` taking its parsed arguments, and the one table — name,
//! summary, grammar, entry point — that drives dispatch, `dsm help` and
//! `dsm all`.

use std::process::ExitCode;

use crate::cli::{self, Args, Cli, Exit, Flags, Spec};

pub mod analyze;
pub mod compiler_opt;
pub mod figure1;
pub mod figure2_table3;
pub mod handopt;
pub mod interface_ablation;
pub mod page_size;
pub mod protocol_compare;
pub mod scaling;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod trace;

/// One subcommand: its name, a one-line summary for `dsm help`, the
/// grammar it accepts and its entry point.
pub struct Command {
    /// What follows `dsm` on the command line.
    pub name: &'static str,
    /// One line for `dsm help`.
    pub summary: &'static str,
    /// Positional defaults and the flags beyond the common ones.
    pub spec: Spec,
    /// Runs the subcommand on its parsed arguments.
    pub run: fn(Cli, &Flags) -> Result<(), Exit>,
}

/// The common grammar only, at the usual defaults.
const COMMON: Spec = Spec {
    defaults: (0.1, 8),
    values: &[],
    switches: &[],
};

/// Every subcommand, in `dsm help` order: the ten paper artifacts, in
/// the order `all` runs them, then `all`, then the tools.
pub static COMMANDS: [Command; 14] = [
    Command {
        name: "table1",
        summary: "Table 1: data-set sizes and sequential times",
        spec: Spec {
            defaults: (0.1, 1),
            values: &[],
            switches: &[],
        },
        run: table1::run,
    },
    Command {
        name: "figure1",
        summary: "Figure 1: speedups, regular applications",
        spec: COMMON,
        run: figure1::run,
    },
    Command {
        name: "table2",
        summary: "Table 2: message and data totals, regular applications",
        spec: COMMON,
        run: table2::run,
    },
    Command {
        name: "figure2_table3",
        summary: "Figure 2 + Table 3: irregular applications",
        spec: COMMON,
        run: figure2_table3::run,
    },
    Command {
        name: "handopt",
        summary: "Section 5: results of hand optimizations",
        spec: COMMON,
        run: handopt::run,
    },
    Command {
        name: "interface_ablation",
        summary: "Section 2.3: fork-join interface ablation",
        spec: COMMON,
        run: interface_ablation::run,
    },
    Command {
        name: "compiler_opt",
        summary: "SPF vs SPF+CRI vs PVMe",
        spec: COMMON,
        run: compiler_opt::run,
    },
    Command {
        name: "protocol_compare",
        summary: "LRC vs HLRC",
        spec: COMMON,
        run: protocol_compare::run,
    },
    Command {
        name: "scaling",
        summary: "speedups at 1, 2, 4, ... processors, every application and version",
        spec: COMMON,
        run: scaling::run,
    },
    Command {
        name: "page_size",
        summary: "page-size ablation, hand-coded TreadMarks",
        spec: COMMON,
        run: page_size::run,
    },
    Command {
        name: "all",
        summary: "every subcommand listed above, in that order",
        spec: COMMON,
        run: all,
    },
    Command {
        name: "sweep",
        summary: "re-record BENCH_sweep.json, the golden virtual-clock cells (no scale, nprocs)",
        spec: Spec {
            values: &["--out"],
            ..COMMON
        },
        run: sweep::run,
    },
    Command {
        name: "trace",
        summary: "traced run: Chrome/Perfetto JSON and the virtual-time breakdown",
        spec: Spec {
            defaults: (0.1, 8),
            values: &["--app", "--version", "--out", "--validate"],
            switches: &["--breakdown"],
        },
        run: trace::run,
    },
    Command {
        name: "analyze",
        summary: "critical path and sharing diagnostics (analyze/v1)",
        spec: Spec {
            defaults: (0.1, 8),
            values: &["--app", "--version", "--top", "--json", "--check"],
            switches: &["--gate-identity"],
        },
        run: analyze::run,
    },
];

fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

impl Command {
    fn invoke(&self, args: Args) -> Result<(), Exit> {
        let (cli, flags) = self.spec.parse(args)?;
        (self.run)(cli, &flags)?;
        // Whatever it printed, it printed right: status 1 otherwise.
        crate::oracle::verdict()
    }
}

/// The text of `dsm help`: per subcommand its summary, its defaults
/// where they are not 0.1 and 8, and its flags, straight from the table.
pub fn help() -> String {
    let mut out = format!("{}\n\nsubcommands:\n", cli::USAGE);
    for c in &COMMANDS {
        out.push_str(&format!("  {:<19}{}", c.name, c.summary));
        if c.spec.defaults != (0.1, 8) {
            let (scale, nprocs) = c.spec.defaults;
            out.push_str(&format!(" (defaults {scale} {nprocs})"));
        }
        for v in c.spec.values {
            out.push_str(&format!(" [{v} V]"));
        }
        for s in c.spec.switches {
            out.push_str(&format!(" [{s}]"));
        }
        out.push('\n');
    }
    out.push_str(
        "\ndefaults: scale 0.1 (1.0 = the paper's sizes), 8 processors, the deterministic\n\
         sequential engine, lrc; `--flag V` may be spelled `--flag=V`.",
    );
    out
}

/// Runs the complete experiment suite, printing every table and figure
/// of the paper in order.
///
/// Usage: `all [scale] [nprocs]` (defaults 0.1 and 8; use `1.0` for the
/// paper's problem sizes — a few minutes of wall-clock time).
fn all(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let (scale, nprocs) = (cli.scale, cli.nprocs);
    let engine = format!("--engine={}", cli.engine);
    let protocol = format!("--protocol={}", cli.protocol);
    let argv = [
        scale.to_string(),
        nprocs.to_string(),
        engine.clone(),
        protocol,
    ];
    for command in COMMANDS.iter().take_while(|c| c.name != "all") {
        if command.name == "table1" {
            command.invoke(&mut [scale.to_string(), engine.clone()].into_iter())?;
        } else {
            command.invoke(&mut argv.iter().cloned())?;
        }
    }
    Ok(())
}

/// The `dsm` binary's whole `main`: dispatch `args` (the command line
/// after the program name) and turn the outcome into an exit status.
pub fn main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let outcome = match args.next().as_deref() {
        None => Err(Exit {
            code: 2,
            message: help(),
        }),
        Some("help" | "--help" | "-h") => {
            println!("{}", help());
            Ok(())
        }
        Some(name) => match find(name) {
            Some(c) => c.invoke(&mut args),
            None => Err(Exit::error(format!(
                "unknown subcommand '{name}'\n{}",
                help()
            ))),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{}", e.message);
            ExitCode::from(e.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::argv;

    #[test]
    fn every_name_resolves_to_its_own_entry() {
        for (i, c) in COMMANDS.iter().enumerate() {
            let found = find(c.name).expect(c.name);
            assert!(
                std::ptr::eq(found, &COMMANDS[i]),
                "{} is listed twice",
                c.name
            );
            assert!(!c.summary.is_empty() && help().contains(c.name));
        }
        assert!(find("nosuch").is_none());
    }

    #[test]
    fn all_runs_the_ten_artifacts_and_no_tool() {
        let before_all = COMMANDS.iter().take_while(|c| c.name != "all");
        let names: Vec<&str> = before_all.map(|c| c.name).collect();
        assert_eq!(names.len(), 10, "{names:?}");
        for tool in ["all", "sweep", "trace", "analyze"] {
            assert!(find(tool).is_some() && !names.contains(&tool), "{tool}");
        }
    }

    #[test]
    fn every_value_flag_parses_in_both_spellings() {
        for c in &COMMANDS {
            for &flag in c.spec.values {
                let spaced = c.spec.parse(&mut argv(&[flag, "v"])).expect(flag);
                let joined = c.spec.parse(&mut argv(&[&format!("{flag}=v")]));
                assert_eq!(Ok(&spaced), joined.as_ref(), "{} {flag}", c.name);
                assert_eq!(spaced.1.value(flag).as_deref(), Some("v"));
                let bare = c.spec.parse(&mut argv(&[flag])).expect_err(flag);
                assert!(bare.message.contains(flag) && bare.code == 2);
            }
            for &flag in c.spec.switches {
                let (_, flags) = c.spec.parse(&mut argv(&[flag])).expect(flag);
                assert!(flags.has(flag), "{} {flag}", c.name);
            }
        }
    }
}
