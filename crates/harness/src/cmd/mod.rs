//! The subcommands of the `dsm` binary: one module per subcommand, and
//! the one table — name, summary, grammar, what it runs — that drives
//! dispatch, `dsm help` and `dsm all`. A paper artifact's module
//! declares the cells it needs (`cells`) and renders them (`render`);
//! a tool's module has a `run` taking its parsed arguments.

use std::process::ExitCode;

use apps::RunSpec;

use crate::cli::{self, Args, Cli, Exit, Flags, Spec};
use crate::experiments::Cells;

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

/// One subcommand: its name, a one-line summary for `dsm help`, the
/// grammar it accepts and what it runs.
pub struct Command {
    /// What follows `dsm` on the command line.
    pub name: &'static str,
    /// One line for `dsm help`.
    pub summary: &'static str,
    /// Positional defaults and the flags beyond the common ones.
    pub spec: Spec,
    /// What the subcommand runs.
    pub run: Run,
}

/// What a subcommand runs.
pub enum Run {
    /// A paper artifact: alone it runs its own cells, under `all` the
    /// union of the ten artifacts' cells.
    Artifact(Artifact),
    /// A tool, or `all`: runs on its parsed arguments.
    Tool(fn(Cli, &Flags) -> Result<(), Exit>),
}

/// A paper artifact: the cells it reads and how it prints them.
pub struct Artifact {
    /// The runs the artifact reads (their `Seq` baselines come along).
    pub cells: fn(&Cli) -> Vec<RunSpec>,
    /// Prints the artifact from cells that hold its list.
    pub render: fn(&Cli, &Cells),
}

/// The artifact that reads `cells` and prints them with `render`.
const fn artifact(cells: fn(&Cli) -> Vec<RunSpec>, render: fn(&Cli, &Cells)) -> Run {
    Run::Artifact(Artifact { cells, render })
}

/// The common grammar only, at the usual defaults.
const COMMON: Spec = Spec {
    defaults: (0.1, 8),
    values: &[],
    switches: &[],
};

/// Every subcommand, in `dsm help` order: the ten paper artifacts, in
/// the order `all` runs them, then `all`, then the tools.
pub static COMMANDS: [Command; 13] = [
    Command {
        name: "table1",
        summary: "Table 1: data-set sizes and sequential times",
        spec: Spec {
            defaults: (0.1, 1),
            values: &[],
            switches: &[],
        },
        run: artifact(table1::cells, table1::render),
    },
    Command {
        name: "figure1",
        summary: "Figure 1: speedups, regular applications",
        spec: COMMON,
        run: artifact(figure1::cells, figure1::render),
    },
    Command {
        name: "table2",
        summary: "Table 2: message and data totals, regular applications",
        spec: COMMON,
        run: artifact(table2::cells, table2::render),
    },
    Command {
        name: "figure2_table3",
        summary: "Figure 2 + Table 3: irregular applications",
        spec: COMMON,
        run: artifact(figure2_table3::cells, figure2_table3::render),
    },
    Command {
        name: "handopt",
        summary: "Section 5: results of hand optimizations",
        spec: COMMON,
        run: artifact(handopt::cells, handopt::render),
    },
    Command {
        name: "interface_ablation",
        summary: "Section 2.3: fork-join interface ablation",
        spec: COMMON,
        run: artifact(interface_ablation::cells, interface_ablation::render),
    },
    Command {
        name: "compiler_opt",
        summary: "SPF vs SPF+CRI vs PVMe",
        spec: COMMON,
        run: artifact(compiler_opt::cells, compiler_opt::render),
    },
    Command {
        name: "protocol_compare",
        summary: "LRC vs HLRC",
        spec: COMMON,
        run: artifact(protocol_compare::cells, protocol_compare::render),
    },
    Command {
        name: "scaling",
        summary: "speedups at 1, 2, 4, ... processors, every application and version",
        spec: COMMON,
        run: artifact(scaling::cells, scaling::render),
    },
    Command {
        name: "page_size",
        summary: "page-size ablation, hand-coded TreadMarks",
        spec: COMMON,
        run: artifact(page_size::cells, page_size::render),
    },
    Command {
        name: "all",
        summary: "every subcommand listed above, in that order",
        spec: COMMON,
        run: Run::Tool(all),
    },
    Command {
        name: "sweep",
        summary: "re-record BENCH_sweep.json, the golden virtual-clock cells (no scale, nprocs)",
        spec: Spec {
            values: &["--out"],
            ..COMMON
        },
        run: Run::Tool(sweep::run),
    },
    Command {
        name: "analyze",
        summary: "traced run: time breakdown, critical path, sharing; Perfetto and analyze/v1",
        spec: Spec {
            defaults: (0.1, 8),
            values: &["--app", "--version", "--top", "--out", "--json"],
            switches: &["--gate-identity"],
        },
        run: Run::Tool(analyze::run),
    },
];

fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

impl Command {
    fn invoke(&self, args: Args) -> Result<(), Exit> {
        let (cli, flags) = self.spec.parse(args)?;
        match &self.run {
            Run::Artifact(a) => (a.render)(&cli, &Cells::run(&(a.cells)(&cli))),
            Run::Tool(run) => run(cli, &flags)?,
        }
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

/// The ten paper artifacts, in `dsm help` order.
fn artifacts() -> impl Iterator<Item = &'static Artifact> {
    COMMANDS.iter().filter_map(|c| match &c.run {
        Run::Artifact(a) => Some(a),
        Run::Tool(_) => None,
    })
}

/// The ten artifacts' cells, one list in artifact order.
fn all_cells(cli: &Cli) -> Vec<RunSpec> {
    artifacts().flat_map(|a| (a.cells)(cli)).collect()
}

/// Runs the complete experiment suite, printing every table and figure
/// of the paper in order: the ten artifacts' cells are one list, whose
/// distinct cells run once, and each artifact renders its own from
/// them. `table1` reads `Seq` cells only, which run on one processor
/// whatever `nprocs` says.
///
/// Usage: `all [scale] [nprocs]` (defaults 0.1 and 8; use `1.0` for the
/// paper's problem sizes: `all 1.0 8` takes 148 s of wall-clock time on
/// a two-core x86-64 host, where running each artifact's cells on its
/// own took 263 s).
fn all(cli: Cli, _: &Flags) -> Result<(), Exit> {
    let cells = Cells::run(&all_cells(&cli));
    for a in artifacts() {
        (a.render)(&cli, &cells);
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
    use treadmarks::ProtocolMode;

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
        assert_eq!(artifacts().count(), 10);
        for tool in ["all", "sweep", "analyze"] {
            assert!(find(tool).is_some() && !names.contains(&tool), "{tool}");
            assert!(matches!(find(tool).unwrap().run, Run::Tool(_)), "{tool}");
        }
    }

    /// `all`'s union holds each distinct cell once and every artifact's
    /// cells: 144 at scale 0.1 on 8 processors, where the artifacts run
    /// one by one ran 258 simulations.
    #[test]
    fn all_runs_each_distinct_cell_of_every_artifact_once() {
        for protocol in ProtocolMode::ALL {
            let cli = Cli {
                scale: 0.1,
                nprocs: 8,
                engine: sp2sim::EngineKind::Sequential,
                protocol,
            };
            let union = Cells::distinct(&all_cells(&cli));
            for (i, cell) in union.iter().enumerate() {
                assert!(!union[..i].contains(cell), "{cell:?} twice");
            }
            for a in artifacts() {
                for cell in Cells::distinct(&(a.cells)(&cli)) {
                    assert!(union.contains(&cell), "{cell:?} missing");
                }
            }
            assert_eq!(union.len(), 144, "{protocol}");
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
