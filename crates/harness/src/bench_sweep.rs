//! The `sweep` product: a machine-readable perf trajectory.
//!
//! The `sweep` subcommand runs the full benchmark grid — every application ×
//! both coherence protocols × several problem scales × several page
//! sizes, under the FIFO schedule — and emits `BENCH_sweep.json`. Each
//! cell records the *simulated* quantities (virtual time, messages,
//! bytes), which are deterministic, alongside the *host* quantities
//! (wall-clock microseconds, scratch-arena counters), which track
//! simulator throughput. Committing the file after a perf change
//! turns "the simulator got faster" into a reviewable diff: simulated
//! columns must not move, wall-clock columns should.
//!
//! This module holds everything the subcommand, the tests and CI share: the
//! grid definition, the per-cell runner, and the document's JSON schema
//! (versioned as `bench_sweep/v4`, parsed back by [`SweepDoc::parse`]).
//!
//! Since v2, every cell runs with event tracing on and carries two
//! breakdown columns derived from the trace — `wait_us`
//! (synchronization-wait virtual time summed over nodes) and
//! `service_us` (protocol-service time, app-side plus the request
//! loops). They are simulated, deterministic quantities like `time_us`;
//! the cost is that `wall_us` includes the recorder's (small, bounded)
//! host overhead, uniformly across all cells of a trajectory.
//!
//! v3 adds the causal columns: `critical_path_us` (the longest
//! dependence chain through the correlation-id DAG — equals `time_us`'s
//! whole-run counterpart bitwise) and `cp_wait_share` (the fraction of
//! that path *not* spent computing),
//! plus the hottest sharing sites — `hot_page` (most-faulted page) and
//! `hot_lock` (most-waited lock), `-1` when none. A perf change that
//! shifts the bottleneck now shows up as a reviewable diff in *which
//! page* and *what share* moved, not just aggregate microseconds.
//!
//! v4 drops the `engine` column with the thread-per-node engine whose
//! cells it told apart: every cell is the FIFO schedule's.

use std::time::Instant;

use apps::{AppId, RunSpec, Version};
use treadmarks::{ProtocolMode, TmkConfig};

use crate::json::Json;
use crate::sweep::sweep_map;

/// Schema tag of the emitted document.
pub const SCHEMA: &str = "bench_sweep/v4";

/// Relative expected cost of a grid point, the longest-job-first sort
/// key. Only the ordering matters: scheduling expensive cells first
/// keeps workers busy at the tail of the sweep. Weights are rough
/// per-app virtual work at scale 1.0; simulation cost grows
/// superlinearly with scale, and smaller pages mean more faults to
/// simulate.
pub fn expected_cost(spec: &RunSpec) -> u64 {
    let app = match spec.app {
        AppId::Jacobi => 4,
        AppId::Shallow => 6,
        AppId::Mgs => 5,
        AppId::Fft3d => 8,
        AppId::IGrid => 3,
        AppId::Nbf => 3,
    };
    let pages = (2048 / spec.cfg.page_words.max(1)).max(1) as u64;
    (spec.scale * spec.scale * 1e9) as u64 * app * pages
}

/// Canonical grid order — paper app order, then protocol name (`hlrc`
/// before `lrc`), scale, page size: the order of `BENCH_sweep.json`,
/// which [`run_grid`] returns independent of the longest-job-first
/// execution order.
pub fn canon_key(spec: &RunSpec) -> (usize, &'static str, u64, usize) {
    let app = AppId::ALL.iter().position(|&a| a == spec.app).unwrap_or(0);
    (
        app,
        spec.cfg.protocol.name(),
        spec.scale.to_bits(),
        spec.cfg.page_words,
    )
}

/// Run one grid point and measure it. The grid's specs have tracing on
/// so the breakdown columns can be derived; `wall_us` therefore
/// includes the recorder's host overhead, uniformly across the grid.
pub fn measure(spec: &RunSpec) -> SweepCell {
    let started = Instant::now();
    let r = crate::oracle::run(spec);
    let wall_us = started.elapsed().as_micros() as u64;
    let (wait_us, service_us, critical_path_us, cp_wait_share) = match r.trace.as_ref() {
        Some(t) => {
            let a = crate::trace_analysis::analyze(t);
            let (cp_us, cp_share) = crate::critical_path::compute(t)
                .map(|cp| (cp.length_us(), cp.wait_share()))
                .unwrap_or((0.0, 0.0));
            (a.wait_us(), a.service_us(), cp_us, cp_share)
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    let hot_page = r
        .sharing
        .hottest_pages()
        .first()
        .map_or(-1, |(p, _)| *p as i64);
    let hot_lock = r.sharing.hottest_lock().map_or(-1, i64::from);
    SweepCell {
        app: spec.app.name().to_string(),
        version: spec.version.name().to_string(),
        protocol: spec.cfg.protocol,
        nprocs: spec.nprocs,
        scale: spec.scale,
        page_words: spec.cfg.page_words,
        time_us: r.time_us,
        messages: r.messages,
        bytes: r.stats.total_bytes(),
        wait_us,
        service_us,
        critical_path_us,
        cp_wait_share,
        hot_page,
        hot_lock,
        wall_us,
        arena_hits: r.dsm.arena_hits,
        arena_misses: r.dsm.arena_misses,
        arena_peak_bytes: r.dsm.arena_peak_bytes,
    }
}

/// Run `specs` and return their cells in canonical order. The schedule
/// is greedy longest-expected-first, the classic makespan heuristic for
/// [`sweep_map`]'s shared queue: the expensive cells go first, so no
/// worker is left grinding a giant cell after the others drained the
/// queue. The sort is stable, so the schedule is deterministic.
pub fn run_grid(specs: &[RunSpec]) -> Vec<SweepCell> {
    let mut scheduled = specs.to_vec();
    scheduled.sort_by_key(|spec| std::cmp::Reverse(expected_cost(spec)));
    let cells = sweep_map(&scheduled, measure);
    let mut ran: Vec<_> = scheduled.iter().zip(cells).collect();
    ran.sort_by_key(|(spec, _)| canon_key(spec));
    ran.into_iter().map(|(_, cell)| cell).collect()
}

/// One measured grid point of the trajectory file.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    pub app: String,
    pub version: String,
    pub protocol: ProtocolMode,
    pub nprocs: usize,
    pub scale: f64,
    pub page_words: usize,
    /// Simulated virtual time of the timed region (µs) — deterministic.
    pub time_us: f64,
    /// Simulated messages of the timed region — deterministic.
    pub messages: u64,
    /// Simulated payload bytes of the timed region — deterministic.
    pub bytes: u64,
    /// Synchronization-wait virtual time summed over nodes (µs), from
    /// the event trace; covers the whole run — deterministic.
    pub wait_us: f64,
    /// Protocol-service virtual time summed over nodes (µs): app-side
    /// fault/diff/validate/push spans plus the request loops'
    /// service time — deterministic.
    pub service_us: f64,
    /// Length of the causal critical path through the whole run's
    /// correlation-id DAG (µs) — equals the max final virtual clock
    /// bitwise — deterministic.
    pub critical_path_us: f64,
    /// Fraction of the critical path not spent in Compute (wire +
    /// service + residual waits) — deterministic.
    pub cp_wait_share: f64,
    /// Most-faulted page of the run (`-1` when no page faulted) —
    /// deterministic.
    pub hot_page: i64,
    /// Lock with the most blocked virtual time (`-1` when no locks
    /// were used) — deterministic.
    pub hot_lock: i64,
    /// Host wall-clock for the whole run (µs) — the throughput column.
    pub wall_us: u64,
    /// Scratch-arena twin-buffer recycles (host-side observability, not
    /// a simulated quantity).
    pub arena_hits: u64,
    pub arena_misses: u64,
    pub arena_peak_bytes: u64,
}

impl SweepCell {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("app".into(), Json::Str(self.app.clone())),
            ("version".into(), Json::Str(self.version.clone())),
            ("protocol".into(), Json::Str(self.protocol.name().into())),
            ("nprocs".into(), Json::Num(self.nprocs as f64)),
            ("scale".into(), Json::Num(self.scale)),
            ("page_words".into(), Json::Num(self.page_words as f64)),
            ("time_us".into(), Json::Num(self.time_us)),
            ("messages".into(), Json::Num(self.messages as f64)),
            ("bytes".into(), Json::Num(self.bytes as f64)),
            ("wait_us".into(), Json::Num(self.wait_us)),
            ("service_us".into(), Json::Num(self.service_us)),
            ("critical_path_us".into(), Json::Num(self.critical_path_us)),
            ("cp_wait_share".into(), Json::Num(self.cp_wait_share)),
            ("hot_page".into(), Json::Num(self.hot_page as f64)),
            ("hot_lock".into(), Json::Num(self.hot_lock as f64)),
            ("wall_us".into(), Json::Num(self.wall_us as f64)),
            ("arena_hits".into(), Json::Num(self.arena_hits as f64)),
            ("arena_misses".into(), Json::Num(self.arena_misses as f64)),
            (
                "arena_peak_bytes".into(),
                Json::Num(self.arena_peak_bytes as f64),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<SweepCell, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("cell missing string field '{k}'"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("cell missing integer field '{k}'"))
        };
        let f64_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("cell missing number field '{k}'"))
        };
        Ok(SweepCell {
            app: str_field("app")?,
            version: str_field("version")?,
            protocol: str_field("protocol")?.parse()?,
            nprocs: u64_field("nprocs")? as usize,
            scale: f64_field("scale")?,
            page_words: u64_field("page_words")? as usize,
            time_us: f64_field("time_us")?,
            messages: u64_field("messages")?,
            bytes: u64_field("bytes")?,
            wait_us: f64_field("wait_us")?,
            service_us: f64_field("service_us")?,
            critical_path_us: f64_field("critical_path_us")?,
            cp_wait_share: f64_field("cp_wait_share")?,
            hot_page: f64_field("hot_page")? as i64,
            hot_lock: f64_field("hot_lock")? as i64,
            wall_us: u64_field("wall_us")?,
            arena_hits: u64_field("arena_hits")?,
            arena_misses: u64_field("arena_misses")?,
            arena_peak_bytes: u64_field("arena_peak_bytes")?,
        })
    }
}

/// Cross-cell aggregates, built by destructuring every [`SweepCell`]
/// field — the same drift-proofing as `DsmStats::merge`: adding a
/// column without deciding how (or that) it aggregates is a compile
/// error here, not a silently-constant summary line.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct CellTotals {
    time_us: f64,
    wait_us: f64,
    service_us: f64,
    critical_path_us: f64,
    wall_us: u64,
    arena_hits: u64,
    arena_misses: u64,
    arena_peak_bytes: u64,
}

impl CellTotals {
    fn add(&mut self, c: &SweepCell) {
        // Exhaustive: a new SweepCell field fails to compile until its
        // aggregation (or deliberate exclusion) is written down here.
        let SweepCell {
            app: _,
            version: _,
            protocol: _,
            nprocs: _,
            scale: _,
            page_words: _,
            time_us,
            messages: _,
            bytes: _,
            wait_us,
            service_us,
            critical_path_us,
            // Per-cell ratios and argmax sites don't aggregate; the
            // per-cell columns are the reviewable quantity.
            cp_wait_share: _,
            hot_page: _,
            hot_lock: _,
            wall_us,
            arena_hits,
            arena_misses,
            arena_peak_bytes,
        } = c;
        self.time_us += time_us;
        self.wait_us += wait_us;
        self.service_us += service_us;
        self.critical_path_us += critical_path_us;
        self.wall_us += wall_us;
        self.arena_hits += arena_hits;
        self.arena_misses += arena_misses;
        self.arena_peak_bytes = self.arena_peak_bytes.max(*arena_peak_bytes);
    }
}

/// The whole trajectory document.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepDoc {
    pub cells: Vec<SweepCell>,
}

impl SweepDoc {
    fn totals(&self) -> CellTotals {
        let mut t = CellTotals::default();
        for c in &self.cells {
            t.add(c);
        }
        t
    }

    /// Total host wall-clock across cells (µs). The sweep runs cells
    /// concurrently, so this exceeds the sweep's own elapsed time — it
    /// is the single-core cost.
    pub fn total_wall_us(&self) -> u64 {
        self.totals().wall_us
    }

    /// Total simulated virtual time across cells (µs).
    pub fn total_time_us(&self) -> f64 {
        self.totals().time_us
    }

    /// Total synchronization-wait virtual time across cells (µs).
    pub fn total_wait_us(&self) -> f64 {
        self.totals().wait_us
    }

    /// Total protocol-service virtual time across cells (µs).
    pub fn total_service_us(&self) -> f64 {
        self.totals().service_us
    }

    /// Total critical-path length across cells (µs).
    pub fn total_critical_path_us(&self) -> f64 {
        self.totals().critical_path_us
    }

    /// Aggregate throughput: simulated seconds per host second — the
    /// headline "how fast is the simulator" number the trajectory
    /// tracks across commits.
    pub fn sims_per_sec(&self) -> f64 {
        self.total_time_us() / self.total_wall_us().max(1) as f64
    }

    /// Arena hit rate across cells (1.0 = every twin reused a buffer).
    pub fn arena_hit_rate(&self) -> f64 {
        let t = self.totals();
        t.arena_hits as f64 / (t.arena_hits + t.arena_misses).max(1) as f64
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("cells".into(), Json::Num(self.cells.len() as f64)),
            (
                "total_wall_us".into(),
                Json::Num(self.total_wall_us() as f64),
            ),
            ("total_time_us".into(), Json::Num(self.total_time_us())),
            ("total_wait_us".into(), Json::Num(self.total_wait_us())),
            (
                "total_service_us".into(),
                Json::Num(self.total_service_us()),
            ),
            (
                "total_critical_path_us".into(),
                Json::Num(self.total_critical_path_us()),
            ),
            ("sims_per_sec".into(), Json::Num(self.sims_per_sec())),
            ("arena_hit_rate".into(), Json::Num(self.arena_hit_rate())),
            (
                "grid".into(),
                Json::Arr(self.cells.iter().map(SweepCell::to_json).collect()),
            ),
        ])
    }

    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parse and schema-check a document. Everything `to_json` derives
    /// (totals, rates) is re-derived and cross-checked, so a hand-edited
    /// file with inconsistent aggregates fails validation.
    pub fn parse(text: &str) -> Result<SweepDoc, String> {
        let v = Json::parse(text)?;
        match v.get("schema").and_then(Json::as_str) {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("unsupported schema '{s}', expected '{SCHEMA}'")),
            None => return Err("missing 'schema' field".into()),
        }
        let grid = v
            .get("grid")
            .and_then(Json::as_arr)
            .ok_or("missing 'grid'")?;
        let cells = grid
            .iter()
            .map(SweepCell::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let doc = SweepDoc { cells };
        let claimed = v.get("cells").and_then(Json::as_usize);
        if claimed != Some(doc.cells.len()) {
            return Err(format!(
                "cell count {:?} does not match grid length {}",
                claimed,
                doc.cells.len()
            ));
        }
        let wall = v.get("total_wall_us").and_then(Json::as_u64);
        if wall != Some(doc.total_wall_us()) {
            return Err("total_wall_us does not match the grid".into());
        }
        let time = v.get("total_time_us").and_then(Json::as_f64);
        if time != Some(doc.total_time_us()) {
            return Err("total_time_us does not match the grid".into());
        }
        let wait = v.get("total_wait_us").and_then(Json::as_f64);
        if wait != Some(doc.total_wait_us()) {
            return Err("total_wait_us does not match the grid".into());
        }
        let service = v.get("total_service_us").and_then(Json::as_f64);
        if service != Some(doc.total_service_us()) {
            return Err("total_service_us does not match the grid".into());
        }
        let cp = v.get("total_critical_path_us").and_then(Json::as_f64);
        if cp != Some(doc.total_critical_path_us()) {
            return Err("total_critical_path_us does not match the grid".into());
        }
        Ok(doc)
    }
}

/// The grid: six applications × both protocols × `scales` ×
/// `page_words`, the compiler-parallelized shared-memory version
/// ([`Version::Spf`]) throughout, tracing on (see [`measure`]).
/// [`run_grid`] reorders the cells for scheduling and returns them in
/// [`canon_key`] order.
pub fn grid(nprocs: usize, scales: &[f64], page_words: &[usize]) -> Vec<RunSpec> {
    let mut cells = Vec::new();
    for &app in &AppId::ALL {
        for &protocol in &ProtocolMode::ALL {
            for &scale in scales {
                for &page_words in page_words {
                    let cfg = TmkConfig {
                        page_words,
                        protocol,
                        trace: true,
                        ..TmkConfig::default()
                    };
                    let spec = RunSpec::new(app, Version::Spf, nprocs, scale);
                    cells.push(RunSpec { cfg, ..spec });
                }
            }
        }
    }
    cells
}

/// Default full-sweep shape: two scales, two page sizes.
pub fn full_grid(nprocs: usize, scale_mult: f64) -> Vec<RunSpec> {
    grid(nprocs, &[0.05 * scale_mult, 0.1 * scale_mult], &[256, 512])
}

/// CI smoke shape: one small scale, one page size — still every app ×
/// protocol.
pub fn smoke_grid(nprocs: usize, scale_mult: f64) -> Vec<RunSpec> {
    grid(nprocs, &[0.04 * scale_mult], &[512])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(app: &str, wall_us: u64, time_us: f64) -> SweepCell {
        SweepCell {
            app: app.into(),
            version: "SPF/Tmk".into(),
            protocol: ProtocolMode::Lrc,
            nprocs: 8,
            scale: 0.05,
            page_words: 512,
            time_us,
            messages: 1414,
            bytes: 123456,
            wait_us: time_us * 0.25,
            service_us: time_us * 0.5,
            critical_path_us: time_us * 1.5,
            cp_wait_share: 0.75,
            hot_page: 12,
            hot_lock: -1,
            wall_us,
            arena_hits: 100,
            arena_misses: 7,
            arena_peak_bytes: 28672,
        }
    }

    #[test]
    fn doc_round_trips_through_json() {
        let doc = SweepDoc {
            cells: vec![cell("Jacobi", 64000, 161321.0), cell("MGS", 9000, 42.5)],
        };
        let text = doc.render();
        let back = SweepDoc::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.total_wall_us(), 73000);
        assert!(back.sims_per_sec() > 0.0);
        // The v2 breakdown columns aggregate like the other totals.
        assert_eq!(back.total_wait_us(), back.total_time_us() * 0.25);
        assert_eq!(back.total_service_us(), back.total_time_us() * 0.5);
        // The v3 causal columns: the path total aggregates, the
        // per-cell ratio and argmax sites round-trip verbatim.
        assert_eq!(back.total_critical_path_us(), back.total_time_us() * 1.5);
        assert!(back.cells.iter().all(|c| c.cp_wait_share == 0.75));
        assert!(back
            .cells
            .iter()
            .all(|c| c.hot_page == 12 && c.hot_lock == -1));
    }

    #[test]
    fn parse_rejects_wrong_schema_and_inconsistent_aggregates() {
        let doc = SweepDoc {
            cells: vec![cell("Jacobi", 64000, 161321.0), cell("MGS", 9000, 42.5)],
        };
        let good = doc.render();
        assert!(SweepDoc::parse(&good.replace(SCHEMA, "bench_sweep/v0")).is_err());
        assert!(SweepDoc::parse(&good.replace("\"cells\": 2", "\"cells\": 3")).is_err());
        // 73000 is the aggregate only (64000 + 9000): corrupting it
        // leaves the grid intact but breaks the cross-check.
        assert!(SweepDoc::parse(&good.replace("73000", "73001")).is_err());
        // The v2 breakdown aggregates are cross-checked too.
        let wait = format!("\"total_wait_us\": {}", doc.total_wait_us());
        assert!(good.contains(&wait), "summary line present: {wait}");
        assert!(SweepDoc::parse(&good.replace(&wait, "\"total_wait_us\": 1.5")).is_err());
        // The v3 critical-path aggregate is cross-checked too.
        let cp = format!(
            "\"total_critical_path_us\": {}",
            doc.total_critical_path_us()
        );
        assert!(good.contains(&cp), "summary line present: {cp}");
        assert!(SweepDoc::parse(&good.replace(&cp, "\"total_critical_path_us\": 2.5")).is_err());
        assert!(SweepDoc::parse("{}").is_err());
    }

    #[test]
    fn full_grid_covers_the_matrix() {
        assert_eq!(full_grid(8, 1.0).len(), 6 * 2 * 2 * 2);
    }

    /// The committed trajectory lists the full grid's cells in
    /// canonical order.
    #[test]
    fn canonical_order_is_the_committed_files() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
        let doc = SweepDoc::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut grid = full_grid(8, 1.0);
        grid.sort_by_key(canon_key);
        let want: Vec<_> = grid
            .iter()
            .map(|s| (s.app.name(), s.cfg.protocol, s.scale, s.cfg.page_words))
            .collect();
        let got: Vec<_> = doc
            .cells
            .iter()
            .map(|c| (c.app.as_str(), c.protocol, c.scale, c.page_words))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn smoke_grid_is_every_app_under_both_protocols() {
        assert_eq!(smoke_grid(8, 1.0).len(), 6 * 2);
    }

    #[test]
    fn expected_cost_orders_scales_and_pages() {
        let mut a = smoke_grid(8, 1.0)[0];
        let mut b = a;
        b.scale *= 2.0;
        assert!(expected_cost(&b) > expected_cost(&a));
        a.cfg.page_words = 256;
        b.cfg.page_words = 512;
        b.scale = a.scale;
        assert!(expected_cost(&a) > expected_cost(&b));
    }
}
