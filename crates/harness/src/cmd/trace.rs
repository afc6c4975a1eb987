//! Record a virtual-time event trace of one application run and export
//! it as Chrome/Perfetto trace-event JSON, optionally with the
//! per-node / per-epoch time breakdown.
//!
//! Usage:
//!
//! ```text
//! trace [scale] [nprocs] [--app jacobi] [--version spf] [--out trace.json]
//!       [--breakdown] [--engine sequential|seeded:N] [--protocol lrc|hlrc]
//! trace --validate trace.json
//! ```
//!
//! Load the exported file in `chrome://tracing` or
//! <https://ui.perfetto.dev>. `--validate` re-parses a previously
//! exported file and checks the Perfetto invariants (used by CI).

use crate::cli::{parse_app, parse_version, Cli, Exit, Flags};
use crate::report::{f1 as us, render_table, Table};
use crate::trace_analysis::{analyze, to_chrome_trace_with_path, validate_chrome_trace};
use crate::Json;
use apps::{AppId, Version};

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    let app = flags.parsed("--app", parse_app)?.unwrap_or(AppId::Jacobi);
    let version = flags
        .parsed("--version", parse_version)?
        .unwrap_or(Version::Spf);
    let out = flags.value("--out");
    let breakdown = flags.has("--breakdown");
    let validate = flags.value("--validate");

    // Validation mode: re-parse an exported file, check the Perfetto
    // invariants, exit nonzero on any violation.
    if let Some(path) = validate {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| Exit::error(format!("cannot read {path}: {e}")))?;
        let json = Json::parse(&text).map_err(|e| Exit::error(format!("{path}: {e}")))?;
        validate_chrome_trace(&json).map_err(|e| Exit::error(format!("{path}: {e}")))?;
        let n = json
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        println!("{path}: ok ({n} events)");
        return Ok(());
    }

    let mut spec = cli.spec(app, version);
    spec.cfg.trace = true;
    let r = crate::oracle::run(&spec);
    let trace = r
        .trace
        .as_ref()
        .ok_or_else(|| Exit::error("run produced no trace (engine returned none)"))?;
    let a = analyze(trace);
    println!(
        "{} / {} / {:?}: {} nodes, {} events, virtual time {:.1} us{}",
        app.name(),
        version.name(),
        cli.protocol,
        r.nprocs,
        trace.event_count(),
        r.time_us,
        if a.lossy() {
            " (LOSSY: ring overflow)"
        } else {
            ""
        },
    );
    if a.lossy() {
        let dropped: u64 = trace.tracks.iter().map(|t| t.dropped).sum();
        eprintln!(
            "warning: trace dropped {dropped} events (ring-buffer overflow); \
             the breakdown is a lower bound"
        );
    }

    if breakdown {
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

    if let Some(path) = out {
        let cp = crate::critical_path::compute(trace);
        let json = to_chrome_trace_with_path(trace, cp.as_ref());
        match validate_chrome_trace(&json) {
            Ok(()) => {}
            // A lossy trace fails validation by design (the
            // dropped-events instant); warn but still write the
            // partial data. `--validate` on the file will fail.
            Err(e) if a.lossy() && e.contains("dropped") => {
                eprintln!("warning: {e}");
            }
            Err(e) => {
                return Err(Exit::error(format!(
                    "exported trace failed validation: {e}"
                )))
            }
        }
        std::fs::write(&path, json.render())
            .map_err(|e| Exit::error(format!("cannot write {path}: {e}")))?;
        println!("wrote {path} (load in chrome://tracing or https://ui.perfetto.dev)");
    }
    Ok(())
}
