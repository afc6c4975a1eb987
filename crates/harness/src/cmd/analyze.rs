//! The one traced-run tool: one application run, traced, explained by
//! its virtual-time breakdown, the critical path through the
//! cross-node happens-before DAG, and the sharing-pattern diagnostics
//! (page heatmap, false-sharing candidates, lock contention) that name
//! *which* pages and locks the time goes to.
//!
//! Usage:
//!
//! ```text
//! analyze [scale] [nprocs] [--app jacobi] [--version spf] [--top N]
//!         [--out FILE] [--json FILE] [--gate-identity]
//!         [--engine sequential|seeded:N] [--protocol lrc|hlrc]
//! ```
//!
//! The run is executed with tracing *and* race-detection provenance on
//! (both are pure observers — simulated results are bit-identical
//! either way, pinned by the trace/race overhead gates). The report:
//!
//! * **Breakdown** — per node and per epoch, the virtual time spent
//!   computing, waiting, in protocol service and on the wire
//!   ([`crate::trace_analysis`]); the service loop's time overlaps the
//!   rest and is shown beside it.
//! * **Critical path** — the longest dependence chain ending at the
//!   cluster's final virtual time, attributed by category, span kind,
//!   message kind and (node, epoch), with per-node slack. On the
//!   sequential engine its length equals the max final virtual clock
//!   bitwise ("exact"); `--gate-identity` turns any deviation — or a
//!   lossy trace, or a malformed DAG — into a nonzero exit for CI.
//! * **Page heatmap** — per-page faults, fetches, diff traffic and
//!   writer sets; multi-writer pages with disjoint word ranges are
//!   cross-checked against the race detector's provenance and reported
//!   as false-sharing candidates.
//! * **Lock contention** — per-lock acquires, blocked virtual time and
//!   handoff chains.
//!
//! `--out` writes the trace as Chrome/Perfetto trace-event JSON, the
//! critical path as its own lane (load it in `chrome://tracing` or
//! <https://ui.perfetto.dev>); `--json` writes the whole analysis as a
//! stable JSON document (`schema: "analyze/v1"`) so CI and notebooks
//! can consume the named bottlenecks machine-readably. Each document is
//! checked before either is written — the export's Perfetto invariants,
//! the report's schema shape and internal consistency (category sums vs
//! path length, slack vector length, exactness vs the recorded final
//! clock) — and a failed check writes nothing and exits 1. A trace that
//! dropped events fails the export's check by design: there both
//! documents are written anyway, with a warning.

use crate::cli::{parse_app, parse_version, Cli, Exit, Flags};
use crate::critical_path::{self, CriticalPath, DagCheck};
use crate::json::{num, obj};
use crate::report::{f1 as us, pct, render_table, Table};
use crate::trace_analysis::{analyze, to_chrome_trace, validate_chrome_trace, TraceAnalysis};
use crate::{Json, SegmentKind};
use apps::{AppId, Version};
use sp2sim::stats::msg_label;
use sp2sim::Category;

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    let app = flags.parsed("--app", parse_app)?.unwrap_or(AppId::Jacobi);
    let version = flags
        .parsed("--version", parse_version)?
        .unwrap_or(Version::Spf);
    let out = flags.value("--out");
    let json_out = flags.value("--json");
    let top = |v: &str| v.parse::<usize>().map_err(|_| format!("bad --top {v}"));
    let top = flags.parsed("--top", top)?.unwrap_or(8);
    let gate = flags.has("--gate-identity");

    let mut spec = cli.spec(app, version);
    spec.cfg = spec.cfg.with_trace(true).with_race_detection(true);
    let r = crate::oracle::run(&spec);
    let trace = r
        .trace
        .as_ref()
        .ok_or_else(|| Exit::error("run produced no trace (engine returned none)"))?;
    let dropped: u64 = trace.tracks.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        eprintln!(
            "warning: trace dropped {dropped} events (ring-buffer overflow); \
             the analysis is a lower bound"
        );
    }
    let cp = critical_path::compute(trace).ok_or_else(|| Exit::error("empty trace"))?;
    let dag = critical_path::check_dag(trace);
    let t_max = trace
        .final_us
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);

    println!(
        "{} / {} / {}: {} nodes, scale {}, virtual time {:.3} s",
        app.name(),
        version.name(),
        cli.protocol,
        r.nprocs,
        cli.scale,
        t_max / 1e6,
    );
    print_breakdown(&analyze(trace));

    // ---- critical path -------------------------------------------------
    let len = cp.length_us();
    let exact = cp.exact() && len.to_bits() == t_max.to_bits();
    println!(
        "\nCritical path: {} us, {} of the {} us final clock ({})",
        us(len),
        pct(len, t_max),
        us(t_max),
        if exact {
            "exact identity".to_string()
        } else {
            format!(
                "INEXACT: contiguous={} unresolved={} lossy={} end={}",
                cp.contiguous, cp.unresolved, cp.lossy, cp.end_us
            )
        },
    );
    println!(
        "  ends on node {} after {} segments; wait share {}",
        cp.start_node,
        cp.segments.len(),
        pct(cp.wait_share() * len, len),
    );
    let cats = cp.by_category();
    println!(
        "  by category: {}",
        cats.iter()
            .map(|(c, v)| format!("{} {} ({})", c.label(), us(*v), pct(*v, len)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let labels = cp.by_label();
    let mut t = Table::new(vec!["contributor", "path_us", "share"]);
    for (l, v) in labels.iter().take(top) {
        t.row(vec![l.to_string(), us(*v), pct(*v, len)]);
    }
    println!("\nTop critical-path contributors:\n\n{}", render_table(&t));
    let msgs = cp.by_message();
    if !msgs.is_empty() {
        let mut t = Table::new(vec!["message", "wire_us", "share"]);
        for (code, v) in msgs.iter().take(top) {
            t.row(vec![msg_label(*code).to_string(), us(*v), pct(*v, len)]);
        }
        println!(
            "Wire time on the path, by message kind:\n\n{}",
            render_table(&t)
        );
    }
    let ne = cp.by_node_epoch();
    let mut t = Table::new(vec!["node", "epoch", "path_us", "share"]);
    for ((n, e), v) in ne.iter().take(top) {
        t.row(vec![n.to_string(), e.to_string(), us(*v), pct(*v, len)]);
    }
    println!("Hottest (node, epoch) on the path:\n\n{}", render_table(&t));
    println!(
        "Per-node slack (us): [{}]",
        cp.slack_us
            .iter()
            .map(|s| us(*s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "DAG: {} recvs ({} send-matched, {} edge-matched, {} self), {} edges, {} violations",
        dag.recvs,
        dag.matched_send,
        dag.matched_edge,
        dag.self_delivered,
        dag.edges,
        dag.violations.len(),
    );
    for v in dag.violations.iter().take(5) {
        println!("  violation: {v}");
    }

    // ---- sharing diagnostics ------------------------------------------
    let pages = r.sharing.hottest_pages();
    if !pages.is_empty() {
        let mut t = Table::new(vec![
            "page", "faults", "fetches", "diffs", "dwords", "applied", "writers", "epoch_w",
        ]);
        for (page, p) in pages.iter().take(top) {
            t.row(vec![
                page.to_string(),
                p.faults.to_string(),
                p.page_fetches.to_string(),
                p.diffs_created.to_string(),
                p.diff_words_created.to_string(),
                p.diffs_applied.to_string(),
                p.writers().to_string(),
                p.max_epoch_writers.to_string(),
            ]);
        }
        println!(
            "Page heatmap (top {} of {} by faults; epoch_w = max writers in one epoch):\n\n{}",
            top.min(pages.len()),
            pages.len(),
            render_table(&t)
        );
    }
    if !r.false_sharing.is_empty() {
        let mut t = Table::new(vec!["page", "writers", "pairs", "words_a", "words_b"]);
        for f in r.false_sharing.iter().take(top) {
            t.row(vec![
                f.page.to_string(),
                format!("{}/{}", f.writers.0, f.writers.1),
                f.pairs.to_string(),
                f.words_a.to_string(),
                f.words_b.to_string(),
            ]);
        }
        println!(
            "False-sharing candidates (concurrent writers, disjoint words):\n\n{}",
            render_table(&t)
        );
    } else {
        println!("False sharing: none detected");
    }
    if !r.sharing.locks.is_empty() {
        let mut t = Table::new(vec![
            "lock", "acquires", "local", "wait_us", "handoffs", "chain",
        ]);
        for (lock, l) in r.sharing.locks.iter().take(top) {
            t.row(vec![
                lock.to_string(),
                l.acquires.to_string(),
                l.local_hits.to_string(),
                us(l.wait_us),
                l.handoffs.to_string(),
                l.max_chain.to_string(),
            ]);
        }
        println!("Lock contention:\n\n{}", render_table(&t));
    } else {
        println!("Locks: none used");
    }
    if !r.race_report.is_empty() {
        println!(
            "WARNING: {} racing interval pair(s) detected",
            r.race_report.len()
        );
    }

    // ---- the documents: both checked, then both written --------------
    type Check = fn(&Json) -> Result<(), String>;
    let export = out.map(|path| {
        let json = to_chrome_trace(trace, Some(&cp));
        (path, json, validate_chrome_trace as Check)
    });
    let report = json_out.map(|path| {
        let doc = to_json(app, version, cli, &r, &cp, &dag, t_max, dropped, exact, top);
        (path, doc, check_report as Check)
    });
    let docs: Vec<_> = export.into_iter().chain(report).collect();
    for (path, doc, check) in &docs {
        match check(doc) {
            Ok(()) => {}
            // A lossy trace fails the export's check by design (its
            // dropped-events instant): its partial data is still written.
            Err(e) if dropped > 0 => eprintln!("warning: {path}: {e}"),
            Err(e) => return Err(Exit::failure(format!("{path}: {e}; nothing written"))),
        }
    }
    for (path, doc, _) in &docs {
        std::fs::write(path, doc.render())
            .map_err(|e| Exit::error(format!("cannot write {path}: {e}")))?;
        println!("\nwrote {path}");
    }

    if gate && (!exact || !dag.ok() || dropped > 0) {
        return Err(Exit::failure(format!(
            "analyze --gate-identity: FAILED (exact={exact} dag_ok={} dropped={dropped})",
            dag.ok()
        )));
    }
    if gate {
        println!("analyze --gate-identity: ok (path length == max final clock, bitwise)");
    }
    Ok(())
}

/// The per-node and per-epoch virtual-time breakdown tables.
fn print_breakdown(a: &TraceAnalysis) {
    let mut t = Table::new(vec![
        "node", "total_us", "compute", "covered", "wait", "service", "wire", "svc_loop",
    ]);
    for n in &a.nodes {
        t.row(vec![
            n.node.to_string(),
            us(n.total_us),
            us(n.compute_us()),
            us(n.covered_compute_us),
            us(n.wait_us),
            us(n.service_us),
            us(n.wire_us),
            us(n.svc_track_us),
        ]);
    }
    println!("\nPer-node breakdown (virtual us; svc_loop overlaps the rest):\n");
    println!("{}", render_table(&t));
    if !a.epochs.is_empty() {
        let mut t = Table::new(vec!["epoch", "compute", "wait", "service", "wire", "spans"]);
        for e in &a.epochs {
            t.row(vec![
                e.index.to_string(),
                us(e.compute_us),
                us(e.wait_us),
                us(e.service_us),
                us(e.wire_us),
                e.spans.to_string(),
            ]);
        }
        println!("Per-epoch breakdown (summed over nodes):\n");
        println!("{}", render_table(&t));
    }
}

/// Validate an `analyze/v1` report: every field the schema promises is
/// present and well-typed, and the redundant quantities agree (the four
/// by-category sums telescope to the path length; the slack vector
/// covers every node; an "exact" path length equals the recorded final
/// clock bitwise; the path starts on a node and crosses the wire on at
/// most every segment).
fn check_report(doc: &Json) -> Result<(), String> {
    let get = |path: &str| {
        let field = path.split('.').try_fold(doc, |j, key| j.get(key));
        field.ok_or_else(|| format!("missing {path}"))
    };
    let num = |path: &str| get(path)?.as_f64().ok_or(format!("{path} is not a number"));
    let arr = |path: &str| get(path)?.as_arr().ok_or(format!("{path} is not an array"));
    let schema = get("schema")?.as_str();
    if schema != Some("analyze/v1") {
        return Err(format!("schema {schema:?}, expected \"analyze/v1\""));
    }
    for key in ["app", "version", "protocol", "engine"] {
        get(key)?.as_str().ok_or(format!("{key} is not a string"))?;
    }
    let (nprocs, scale, t_max) = (num("nprocs")?, num("scale")?, num("max_final_us")?);
    if nprocs < 1.0 || scale <= 0.0 || !t_max.is_finite() || t_max <= 0.0 || num("dropped")? < 0.0 {
        return Err("implausible nprocs/scale/max_final_us/dropped".into());
    }
    let len = num("critical_path.length_us")?;
    let wait_share = num("critical_path.wait_share")?;
    let segments = num("critical_path.segments")?;
    let start_node = num("critical_path.start_node")?;
    let wire_hops = num("critical_path.wire_hops")?;
    let &Json::Bool(exact) = get("critical_path.exact")? else {
        return Err("critical_path.exact is not a boolean".into());
    };
    if !len.is_finite() || len <= 0.0 || segments < 1.0 || !(0.0..=1.0).contains(&wait_share) {
        return Err("implausible critical_path length/segments/wait_share".into());
    }
    if start_node >= nprocs || wire_hops > segments {
        return Err(format!(
            "critical_path starts on node {start_node} of {nprocs}, \
             {wire_hops} wire hops in {segments} segments"
        ));
    }
    if exact && len.to_bits() != t_max.to_bits() {
        return Err(format!(
            "claims exact but length_us {len} != max_final_us {t_max}"
        ));
    }
    let mut cat_sum = 0.0;
    for c in Category::ALL {
        cat_sum += num(&format!("critical_path.by_category.{}", c.label()))?;
    }
    if (cat_sum - len).abs() > 1e-6 * len.max(1.0) {
        return Err(format!("by_category sums to {cat_sum}, path length {len}"));
    }
    let slack = arr("critical_path.slack_us")?.len();
    if slack != nprocs as usize {
        return Err(format!("slack_us has {slack} entries for {nprocs} nodes"));
    }
    for key in ["by_label", "by_message", "hot_node_epochs"] {
        arr(&format!("critical_path.{key}"))?;
    }
    for key in [
        "recvs",
        "matched_send",
        "matched_edge",
        "self_delivered",
        "edges",
        "violations",
    ] {
        num(&format!("dag.{key}"))?;
    }
    for key in ["pages", "false_sharing", "locks"] {
        arr(key)?;
    }
    num("races")?;
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    app: AppId,
    version: Version,
    cli: Cli,
    r: &apps::RunResult,
    cp: &CriticalPath,
    dag: &DagCheck,
    t_max: f64,
    dropped: u64,
    exact: bool,
    top: usize,
) -> Json {
    let cats = cp.by_category().map(|(c, v)| (c.label(), num(v)));
    let labels = Json::Arr(
        cp.by_label()
            .iter()
            .map(|(l, v)| obj(vec![("label", Json::Str((*l).into())), ("us", num(*v))]))
            .collect(),
    );
    let msgs = Json::Arr(
        cp.by_message()
            .iter()
            .map(|(c, v)| {
                obj(vec![
                    ("msg", Json::Str(msg_label(*c).into())),
                    ("us", num(*v)),
                ])
            })
            .collect(),
    );
    let hot = Json::Arr(
        cp.by_node_epoch()
            .iter()
            .take(top)
            .map(|((n, e), v)| obj(vec![("node", num(*n)), ("epoch", num(*e)), ("us", num(*v))]))
            .collect(),
    );
    let wire_hops = cp
        .segments
        .iter()
        .filter(|s| matches!(s.kind, SegmentKind::Wire { .. }))
        .count();
    let pages = Json::Arr(
        r.sharing
            .hottest_pages()
            .iter()
            .take(top)
            .map(|(page, p)| {
                obj(vec![
                    ("page", num(*page as u32)),
                    ("faults", num(p.faults as f64)),
                    ("page_fetches", num(p.page_fetches as f64)),
                    ("diffs_created", num(p.diffs_created as f64)),
                    ("diff_words_created", num(p.diff_words_created as f64)),
                    ("diffs_applied", num(p.diffs_applied as f64)),
                    ("writers", num(p.writers())),
                    ("max_epoch_writers", num(p.max_epoch_writers)),
                ])
            })
            .collect(),
    );
    let false_sharing = Json::Arr(
        r.false_sharing
            .iter()
            .take(top)
            .map(|f| {
                obj(vec![
                    ("page", num(f.page as u32)),
                    (
                        "writers",
                        Json::Arr(vec![num(f.writers.0 as u32), num(f.writers.1 as u32)]),
                    ),
                    ("pairs", num(f.pairs as f64)),
                    ("words_a", num(f.words_a as f64)),
                    ("words_b", num(f.words_b as f64)),
                ])
            })
            .collect(),
    );
    let locks = Json::Arr(
        r.sharing
            .locks
            .iter()
            .map(|(lock, l)| {
                obj(vec![
                    ("lock", num(*lock)),
                    ("acquires", num(l.acquires as f64)),
                    ("local_hits", num(l.local_hits as f64)),
                    ("wait_us", num(l.wait_us)),
                    ("handoffs", num(l.handoffs as f64)),
                    ("max_chain", num(l.max_chain)),
                ])
            })
            .collect(),
    );
    obj(vec![
        ("schema", Json::Str("analyze/v1".into())),
        ("app", Json::Str(app.name().into())),
        ("version", Json::Str(version.name().into())),
        ("protocol", Json::Str(cli.protocol.to_string())),
        ("engine", Json::Str(cli.engine.to_string())),
        ("nprocs", num(r.nprocs as u32)),
        ("scale", num(cli.scale)),
        ("max_final_us", num(t_max)),
        ("dropped", num(dropped as f64)),
        (
            "critical_path",
            obj(vec![
                ("length_us", num(cp.length_us())),
                ("exact", Json::Bool(exact)),
                ("wait_share", num(cp.wait_share())),
                ("start_node", num(cp.start_node)),
                ("segments", num(cp.segments.len() as u32)),
                ("wire_hops", num(wire_hops as u32)),
                ("by_category", obj(cats.to_vec())),
                ("by_label", labels),
                ("by_message", msgs),
                ("hot_node_epochs", hot),
                (
                    "slack_us",
                    Json::Arr(cp.slack_us.iter().map(|s| num(*s)).collect()),
                ),
            ]),
        ),
        (
            "dag",
            obj(vec![
                ("recvs", num(dag.recvs as f64)),
                ("matched_send", num(dag.matched_send as f64)),
                ("matched_edge", num(dag.matched_edge as f64)),
                ("self_delivered", num(dag.self_delivered as f64)),
                ("edges", num(dag.edges as f64)),
                ("violations", num(dag.violations.len() as u32)),
            ]),
        ),
        ("pages", pages),
        ("false_sharing", false_sharing),
        ("locks", locks),
        ("races", num(r.race_report.len() as u32)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::argv;

    /// The `analyze/v1` document of Jacobi SPF at scale 0.03 on two
    /// nodes, built as `run` builds it.
    fn report() -> Json {
        let (cli, _) = crate::cmd::COMMON.parse(&mut argv(&["0.03", "2"])).unwrap();
        let mut spec = cli.spec(AppId::Jacobi, Version::Spf);
        spec.cfg = spec.cfg.with_trace(true).with_race_detection(true);
        let r = spec.run();
        let trace = r.trace.as_ref().expect("traced");
        let cp = critical_path::compute(trace).expect("a path");
        let dag = critical_path::check_dag(trace);
        let t_max = trace.final_us.iter().copied().fold(0.0, f64::max);
        let exact = cp.exact() && cp.length_us().to_bits() == t_max.to_bits();
        to_json(
            AppId::Jacobi,
            Version::Spf,
            cli,
            &r,
            &cp,
            &dag,
            t_max,
            0,
            exact,
            8,
        )
    }

    /// The fields of the object at `path` in `j`.
    fn fields<'a>(j: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
        let Json::Obj(fs) = j else {
            panic!("{path:?}: not an object")
        };
        match path.split_first() {
            None => fs,
            Some((key, rest)) => {
                let field = fs.iter_mut().find(|(k, _)| k == key).expect(key);
                fields(&mut field.1, rest)
            }
        }
    }

    /// The report with field `key` of its object at `path` replaced by
    /// what `edit` makes of it, or dropped where that is `None`.
    fn edited(path: &[&str], key: &str, edit: impl Fn(&Json) -> Option<Json>) -> Json {
        let mut doc = report();
        let fs = fields(&mut doc, path);
        let i = fs.iter().position(|(k, _)| k == key).expect(key);
        match edit(&fs[i].1) {
            Some(v) => fs[i].1 = v,
            None => drop(fs.remove(i)),
        }
        doc
    }

    #[test]
    fn a_real_report_passes_its_check() {
        let doc = report();
        assert_eq!(check_report(&doc), Ok(()));
        let cp = doc.get("critical_path").unwrap();
        assert_eq!(cp.get("exact"), Some(&Json::Bool(true)));
        // What the check holds is what the file holds.
        assert_eq!(check_report(&Json::parse(&doc.render()).unwrap()), Ok(()));
    }

    #[test]
    fn each_broken_invariant_is_rejected() {
        let plus_one = |j: &Json| Some(num(j.as_f64().unwrap() + 1.0));
        let shorter = |j: &Json| Some(Json::Arr(j.as_arr().unwrap()[1..].to_vec()));
        let path = ["critical_path"];
        let cases = [
            (
                edited(&[], "schema", |_| Some(Json::Str("analyze/v0".into()))),
                "expected \"analyze/v1\"",
            ),
            (
                edited(&[path[0], "by_category"], "compute", plus_one),
                "by_category sums to",
            ),
            (edited(&[], "max_final_us", plus_one), "claims exact"),
            (
                edited(&path, "slack_us", shorter),
                "slack_us has 1 entries for 2 nodes",
            ),
            (
                edited(&path, "start_node", |_| Some(num(2))),
                "starts on node 2 of 2",
            ),
            (edited(&["dag"], "recvs", |_| None), "missing dag.recvs"),
        ];
        for (doc, needle) in cases {
            let e = check_report(&doc).expect_err(needle);
            assert!(e.contains(needle), "{needle}: {e}");
        }
    }

    /// Every field `to_json` writes at the top level, in
    /// `critical_path`, its `by_category` and `dag` is one the check
    /// requires — `scale`, `start_node`, `wire_hops` and
    /// `self_delivered` among them.
    #[test]
    fn every_written_field_is_required() {
        let mut count = 0;
        for path in [
            &[][..],
            &["critical_path"],
            &["critical_path", "by_category"],
            &["dag"],
        ] {
            for (key, _) in fields(&mut report(), path).clone() {
                let e = check_report(&edited(path, &key, |_| None)).expect_err(&key);
                assert!(e.contains("missing") && e.contains(&key), "{key}: {e}");
                count += 1;
            }
        }
        assert_eq!(count, 15 + 11 + 4 + 6);
    }
}
