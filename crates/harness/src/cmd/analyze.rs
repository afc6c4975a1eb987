//! Causal bottleneck analysis of one application run: the critical
//! path through the cross-node happens-before DAG, plus the
//! sharing-pattern diagnostics (page heatmap, false-sharing candidates,
//! lock contention) that name *which* pages and locks the time goes to.
//!
//! Usage:
//!
//! ```text
//! analyze [scale] [nprocs] [--app jacobi] [--version spf] [--top N]
//!         [--json FILE] [--gate-identity]
//!         [--engine sequential|seeded:N] [--protocol lrc|hlrc]
//! analyze --check report.json
//! ```
//!
//! The run is executed with tracing *and* race-detection provenance on
//! (both are pure observers — simulated results are bit-identical
//! either way, pinned by the trace/race overhead gates). The report:
//!
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
//! `--json` additionally writes the whole analysis as a stable JSON
//! document (`schema: "analyze/v1"`) so CI and notebooks can consume
//! the named bottlenecks machine-readably. `--check FILE` re-parses a
//! previously written report and validates the schema shape and its
//! internal consistency (category sums vs path length, slack vector
//! length, exactness vs the recorded final clock) — the CI validation
//! mode, exit non-zero on any violation.

use crate::cli::{parse_app, parse_version, Cli, Exit, Flags};
use crate::critical_path::{self, CriticalPath, DagCheck};
use crate::json::{num, obj};
use crate::report::{f1 as us, pct, render_table, Table};
use crate::{Json, SegmentKind};
use apps::{AppId, Version};
use sp2sim::stats::msg_label;
use sp2sim::Category;

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    let app = flags.parsed("--app", parse_app)?.unwrap_or(AppId::Jacobi);
    let version = flags
        .parsed("--version", parse_version)?
        .unwrap_or(Version::Spf);
    let json_out = flags.value("--json");
    let top = |v: &str| v.parse::<usize>().map_err(|_| format!("bad --top {v}"));
    let top = flags.parsed("--top", top)?.unwrap_or(8);
    let gate = flags.has("--gate-identity");
    let check = flags.value("--check");

    // Validation mode: re-parse a written report, check the schema
    // shape and internal consistency, exit nonzero on any violation.
    if let Some(path) = check {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| Exit::error(format!("cannot read {path}: {e}")))?;
        let doc = Json::parse(&text).map_err(|e| Exit::error(format!("{path}: {e}")))?;
        let summary = check_report(&doc).map_err(|e| Exit::error(format!("{path}: {e}")))?;
        println!("{path}: valid analyze/v1 report ({summary})");
        return Ok(());
    }

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
    let mut pages: Vec<_> = r.sharing.pages.iter().collect();
    pages.sort_by(|a, b| b.1.faults.cmp(&a.1.faults).then(a.0.cmp(&b.0)));
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

    // ---- machine-readable output --------------------------------------
    if let Some(path) = json_out {
        let doc = to_json(app, version, cli, &r, &cp, &dag, t_max, dropped, exact, top);
        std::fs::write(&path, doc.render())
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

/// Validate a written `analyze/v1` report: every field the schema
/// promises is present and well-typed, and the redundant quantities
/// agree (the four by-category sums telescope to the path length; the
/// slack vector covers every node; an "exact" path length equals the
/// recorded final clock bitwise). Returns a one-line summary.
fn check_report(doc: &Json) -> Result<String, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema")?;
    if schema != "analyze/v1" {
        return Err(format!("schema {schema:?}, expected \"analyze/v1\""));
    }
    for key in ["app", "version", "protocol", "engine"] {
        doc.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing {key}"))?;
    }
    let field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing {k}"))
    };
    let nprocs = field("nprocs")?;
    let t_max = field("max_final_us")?;
    let dropped = field("dropped")?;
    if nprocs < 1.0 || !t_max.is_finite() || t_max <= 0.0 || dropped < 0.0 {
        return Err("implausible nprocs/max_final_us/dropped".into());
    }
    let cp = doc.get("critical_path").ok_or("missing critical_path")?;
    let cp_field = |k: &str| {
        cp.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing critical_path.{k}"))
    };
    let len = cp_field("length_us")?;
    let wait_share = cp_field("wait_share")?;
    let segments = cp_field("segments")?;
    let exact = match cp.get("exact") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("missing critical_path.exact".into()),
    };
    if !len.is_finite() || len <= 0.0 || segments < 1.0 || !(0.0..=1.0).contains(&wait_share) {
        return Err("implausible critical_path length/segments/wait_share".into());
    }
    if exact && len.to_bits() != t_max.to_bits() {
        return Err(format!(
            "claims exact but length_us {len} != max_final_us {t_max}"
        ));
    }
    let cats = cp.get("by_category").ok_or("missing by_category")?;
    let mut cat_sum = 0.0;
    for c in Category::ALL {
        cat_sum += cats
            .get(c.label())
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing by_category.{}", c.label()))?;
    }
    if (cat_sum - len).abs() > 1e-6 * len.max(1.0) {
        return Err(format!("by_category sums to {cat_sum}, path length {len}"));
    }
    let slack = cp
        .get("slack_us")
        .and_then(Json::as_arr)
        .ok_or("missing slack_us")?;
    if slack.len() != nprocs as usize {
        return Err(format!(
            "slack_us has {} entries for {nprocs} nodes",
            slack.len()
        ));
    }
    for key in ["by_label", "by_message", "hot_node_epochs"] {
        if cp.get(key).and_then(Json::as_arr).is_none() {
            return Err(format!("missing critical_path.{key}"));
        }
    }
    let dag = doc.get("dag").ok_or("missing dag")?;
    for key in [
        "recvs",
        "matched_send",
        "matched_edge",
        "edges",
        "violations",
    ] {
        dag.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing dag.{key}"))?;
    }
    let n_pages = doc
        .get("pages")
        .and_then(Json::as_arr)
        .ok_or("missing pages")?
        .len();
    let n_fs = doc
        .get("false_sharing")
        .and_then(Json::as_arr)
        .ok_or("missing false_sharing")?
        .len();
    doc.get("locks")
        .and_then(Json::as_arr)
        .ok_or("missing locks")?;
    field("races")?;
    Ok(format!(
        "path {len:.1} us, exact={exact}, {n_pages} pages, {n_fs} false-sharing candidates"
    ))
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
    let cats = cp.by_category();
    let cat_obj = obj(Category::ALL
        .iter()
        .map(|c| {
            (
                c.label(),
                num(cats.iter().find(|(k, _)| k == c).map(|(_, v)| *v).unwrap()),
            )
        })
        .collect());
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
    let mut pages: Vec<_> = r.sharing.pages.iter().collect();
    pages.sort_by(|a, b| b.1.faults.cmp(&a.1.faults).then(a.0.cmp(&b.0)));
    let pages = Json::Arr(
        pages
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
                ("by_category", cat_obj),
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
