//! What the golden tests share: render the cells of
//! `harness::bench_sweep::cells` that a test selects and compare each
//! with its row of the committed `BENCH_sweep.json` exactly, naming
//! every cell and key that moved — and every cell whose timed region
//! faulted on a hole a meet push left (`treadmarks::hole`): a footprint
//! that misses a word its loop reads.
//!
//! To re-record after a change that *means* to move a column (say why):
//! `cargo run --release -p harness -- sweep`, and commit the file.

use apps::RunSpec;
use harness::bench_sweep::{cells, render};
use harness::{sweep_map, Json};

pub const COMMITTED: &str = include_str!("../../BENCH_sweep.json");

/// The committed document, parsed.
pub fn committed() -> Json {
    Json::parse(COMMITTED).expect("BENCH_sweep.json parses")
}

/// A value on one line, as rendered.
fn flat(v: &Json) -> String {
    v.render().split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Where `got` differs from `want`, one line per moved leaf, named by
/// its dotted path below `at`. Leaves are compared as rendered, so
/// numbers must agree to the last digit of their shortest round-trip
/// form: to the bit.
fn moved(at: &str, got: &Json, want: &Json, out: &mut Vec<String>) {
    let path = |k: &str| {
        if at.is_empty() {
            k.to_string()
        } else {
            format!("{at}.{k}")
        }
    };
    match (got, want) {
        (Json::Obj(g), Json::Obj(w)) => {
            for (k, gv) in g {
                match want.get(k) {
                    Some(wv) => moved(&path(k), gv, wv, out),
                    None => out.push(format!("{}: {} (not in the file)", path(k), flat(gv))),
                }
            }
            for (k, _) in w.iter().filter(|(k, _)| got.get(k).is_none()) {
                out.push(format!("{}: gone (the file has it)", path(k)));
            }
        }
        _ if flat(got) != flat(want) => {
            out.push(format!("{at}: {} (the file has {})", flat(got), flat(want)))
        }
        _ => {}
    }
}

/// `app version protocol nprocs scale page_words` of a row.
fn label(row: &Json) -> String {
    let field = |k| row.get(k).map_or("?".into(), |v| flat(v).replace('"', ""));
    [
        "app",
        "version",
        "protocol",
        "nprocs",
        "scale",
        "page_words",
    ]
    .map(field)
    .join(" ")
}

/// Render every cell `keep` selects (across cores) and panic, naming
/// each moved cell and key, unless each equals the file's row at the
/// cell's index and no view of its timed region faulted on a hole.
pub fn assert_cells_match(keep: impl Fn(&RunSpec) -> bool) {
    let (at, specs): (Vec<usize>, Vec<RunSpec>) = cells()
        .into_iter()
        .enumerate()
        .filter(|(_, s)| keep(s))
        .unzip();
    assert!(!specs.is_empty(), "the selection holds no cell");
    let file = committed();
    let want = file.get("grid").and_then(Json::as_arr).unwrap_or(&[]);
    let mut report = Vec::new();
    let run = |s: &RunSpec| {
        let r = harness::oracle::run(s);
        (render(s, &r), r.timed_hole_faults)
    };
    for (i, (got, holes)) in at.into_iter().zip(sweep_map(&specs, run)) {
        let mut keys = Vec::new();
        match want.get(i) {
            Some(w) => moved("", &got, w, &mut keys),
            None => keys.push("not in the file".into()),
        }
        if holes > 0 {
            keys.push(format!("{holes} hole faults in the timed region"));
        }
        if !keys.is_empty() {
            report.push(format!("cell {i} ({}):", label(&got)));
            report.extend(keys.into_iter().map(|k| format!("  {k}")));
        }
    }
    assert!(
        report.is_empty(),
        "simulated columns moved, or a footprint missed a word its loop reads; if the change \
         means to move them, re-record with `cargo run --release -p harness -- sweep`:\n{}",
        report.join("\n")
    );
}
