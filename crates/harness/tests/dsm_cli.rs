//! The `dsm` binary end to end: `all` prints every artifact of the
//! paper, in order, from one process, exactly as the artifacts print
//! alone; the dispatcher names its subcommands and refuses the ones and
//! the flags that went.

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

/// `all` reads one union of cells; what it prints is what the ten
/// artifacts print one by one.
#[test]
fn all_is_the_sum_of_its_parts() {
    let all = dsm(&["all", "0.03", "2"]);
    assert!(all.status.success(), "{}", stderr(&all));
    let mut parts = String::new();
    let artifacts = harness::cmd::COMMANDS
        .iter()
        .take_while(|c| c.name != "all");
    for c in artifacts {
        // `table1` takes the scale only, as in the sections test above.
        let nprocs = if c.name == "table1" { None } else { Some("2") };
        let out = dsm(&[c.name, "0.03"]
            .into_iter()
            .chain(nprocs)
            .collect::<Vec<_>>());
        assert!(out.status.success(), "{}: {}", c.name, stderr(&out));
        parts.push_str(&stdout(&out));
    }
    assert_eq!(stdout(&all), parts);
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
/// the test suites, traced runs in `analyze`, which checks the documents
/// it writes itself. `sweep` only re-records the golden cells, which the
/// root golden tests check, and the race gates are
/// `tests/race_detection.rs`.
#[test]
fn removed_flags_and_subcommands_are_refused_and_unlisted() {
    // (subcommand, flag without its dashes, whether it took a value)
    let removed = [
        ("compiler_opt", "check-baseline", true),
        ("compiler_opt", "gate", true),
        ("figure2_table3", "trace-out", true),
        ("figure2_table3", "analyze", false),
        ("protocol_compare", "check-baseline", true),
        ("protocol_compare", "trace-out", true),
        ("protocol_compare", "analyze", false),
        ("sweep", "smoke", false),
        ("sweep", "check", true),
        ("analyze", "check", true),
    ];
    let help = stdout(&dsm(&["help"]));
    for (command, flag, valued) in removed {
        let flag = format!("--{flag}");
        let out = dsm(&[command, &flag, "f"][..if valued { 3 } else { 2 }]);
        assert_eq!(out.status.code(), Some(2), "{command} {flag}");
        let text = stderr(&out);
        assert!(text.contains(&format!("unknown flag {flag}")), "{text}");
        // How `dsm help` lists a value flag and a switch, on the
        // subcommand's own line.
        let listed = format!("[{flag}{}]", if valued { " V" } else { "" });
        let line = help
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{command} ")));
        let line = line.unwrap_or_else(|| panic!("help has no {command} line: {help}"));
        assert!(
            !line.contains(&listed),
            "help lists {command} {listed}: {line}"
        );
    }

    for gone in ["races", "trace"] {
        let out = dsm(&[gone, "0.03", "2"]);
        assert_eq!(out.status.code(), Some(2), "{gone}");
        let text = stderr(&out);
        assert!(
            text.contains(&format!("unknown subcommand '{gone}'")),
            "{text}"
        );
        let line = help
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{gone} ")));
        assert!(line.is_none(), "help lists {gone}: {help}");
    }
    assert!(
        !help.contains("races") && !help.contains("seeded]"),
        "{help}"
    );
}

/// `analyze` is the one traced-run tool: it prints the breakdown tables
/// and writes both documents, each checked first.
#[test]
fn analyze_prints_the_breakdown_and_writes_both_documents() {
    let tmp = |name| std::env::temp_dir().join(format!("dsm-{}-{name}", std::process::id()));
    let (trace, report) = (tmp("trace.json"), tmp("analyze.json"));
    let (t, r) = (trace.to_str().unwrap(), report.to_str().unwrap());
    let out = dsm(&[
        "analyze", "0.03", "2", "--app", "jacobi", "--out", t, "--json", r,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for line in [
        "Per-node breakdown (virtual us; svc_loop overlaps the rest):",
        "Per-epoch breakdown (summed over nodes):",
        "Critical path:",
        &format!("wrote {t}"),
        &format!("wrote {r}"),
    ] {
        assert!(text.contains(line), "{line:?} missing in:\n{text}");
    }
    let read = |path| harness::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    harness::validate_chrome_trace(&read(t)).expect("a valid Perfetto trace");
    let schema = read(r).get("schema").cloned();
    assert_eq!(schema, Some(harness::Json::Str("analyze/v1".into())));
    let _ = (std::fs::remove_file(t), std::fs::remove_file(r));
}

/// `sweep` writes the fixed cells or nothing.
#[test]
fn sweep_refuses_anything_but_its_fixed_cells() {
    for args in [
        &["sweep", "0.5"][..],
        &["sweep", "0.1", "4"],
        &["sweep", "--engine", "seeded:3"],
        &["sweep", "--protocol", "hlrc"],
    ] {
        let out = dsm(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("fixed cells"), "{}", stderr(&out));
    }
}
