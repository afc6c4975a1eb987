//! The `dsm` binary end to end: `all` prints every artifact of the
//! paper, in order, from one process; the dispatcher names its
//! subcommands; the committed sweep document passes `--check`.

use std::process::{Command, Output};

fn dsm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsm"))
        .args(args)
        .output()
        .expect("spawn dsm")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn all_prints_the_eleven_sections_in_order() {
    let out = dsm(&["all", "0.03", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let mut from = 0;
    for header in [
        "Table 1:",
        "Figure 1:",
        "Table 2:",
        "Figure 2:",
        "Table 3:",
        "Section 5:",
        "Section 2.3:",
        "Compiler-runtime interface",
        "Protocol comparison",
        "Scaling study",
        "Page-size ablation",
    ] {
        let at = text[from..]
            .find(header)
            .unwrap_or_else(|| panic!("{header:?} missing or out of order in:\n{text}"));
        from += at + header.len();
    }
    // `table1` gets the scale only: it stays a one-processor table.
    assert!(text.contains("(scale 0.03)"), "{text}");
}

#[test]
fn dispatcher_names_the_subcommands() {
    let listed = |text: &str| harness::cmd::COMMANDS.iter().all(|c| text.contains(c.name));

    let help = dsm(&["help"]);
    assert!(help.status.success());
    assert!(listed(&stdout(&help)), "{}", stdout(&help));

    let bare = dsm(&[]);
    assert_eq!(bare.status.code(), Some(2));
    assert!(listed(&stderr(&bare)), "{}", stderr(&bare));

    let unknown = dsm(&["nosuch"]);
    assert_eq!(unknown.status.code(), Some(2));
    let text = stderr(&unknown);
    assert!(
        text.contains("unknown subcommand 'nosuch'") && listed(&text),
        "{text}"
    );
    assert!(unknown.stdout.is_empty());
}

/// The experiment subcommands take the common flags only: bounds live in
/// the test suites, traced and analyzed runs in `trace` and `analyze`.
#[test]
fn experiment_subcommands_refuse_gate_trace_and_analyze_flags() {
    let removed: [&[&str]; 7] = [
        &["compiler_opt", "--check-baseline", "f"],
        &["compiler_opt", "--gate", "igrid"],
        &["figure2_table3", "--trace-out", "f"],
        &["figure2_table3", "--analyze"],
        &["protocol_compare", "--check-baseline", "f"],
        &["protocol_compare", "--trace-out", "f"],
        &["protocol_compare", "--analyze"],
    ];
    let help = stdout(&dsm(&["help"]));
    for args in removed {
        let out = dsm(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let text = stderr(&out);
        assert!(
            text.contains(&format!("unknown flag {}", args[1])),
            "{text}"
        );
        // How `dsm help` lists a value flag and a switch.
        let listed = if args.len() == 3 { " V]" } else { "]" };
        let listed = format!("[{}{listed}", args[1]);
        assert!(!help.contains(&listed), "help lists {listed}: {help}");
    }
}

#[test]
fn committed_sweep_document_passes_check_in_both_spellings() {
    let doc = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    let spaced = dsm(&["sweep", "--check", doc]);
    assert!(spaced.status.success(), "{}", stderr(&spaced));
    assert!(
        stdout(&spaced).starts_with("cells 48 "),
        "{}",
        stdout(&spaced)
    );
    let joined = dsm(&["sweep", &format!("--check={doc}")]);
    assert_eq!(joined.stdout, spaced.stdout);
}
