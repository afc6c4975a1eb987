//! `dsm` — the one harness binary. `dsm help` lists the subcommands;
//! they live in [`harness::cmd`].

fn main() -> std::process::ExitCode {
    harness::cmd::main(std::env::args().skip(1))
}
