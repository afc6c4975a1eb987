//! Turning sessions into named metrics: the end-to-end and per-layer
//! tables, the one-line result the driver reads and the full report
//! `compare` reads. Every metric is defined here and nowhere else;
//! `BENCHMARK.json` and `README.md` describe them and a test keeps
//! `BENCHMARK.json` in step.

use crate::fold::Bucket;
use crate::json::{nums, obj, Value};
use crate::session::{Round, Session, SimCols};
use crate::stats::median;

#[derive(Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// An end-to-end metric's definition. All are lower-is-better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the baseline's median by which the metric may worsen
    /// across runs of *different* seeds (what `BENCHMARK.json` states).
    pub bound: f64,
    /// Deterministic for a fixed seed on the sequential engine:
    /// `compare` reports any movement at all.
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        exact,
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    def("slowdown_x", "x", 0.25, false),
    def("alloc_mb", "MB", 0.1, false),
    def("peak_live_mb", "MB", 0.1, false),
    def("setup_s", "s", 0.25, false),
    def("sim_time_s", "s", 0.15, true),
    def("sim_messages", "count", 0.15, true),
    def("sim_mbytes", "MB", 0.15, true),
];

const MB: f64 = 1e6;

fn per_round(s: &Session, f: impl Fn(&Round) -> f64) -> Vec<f64> {
    s.rounds.iter().map(f).collect()
}

/// The per-round samples behind the timed metrics.
fn samples(s: &Session) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("slowdown_x", per_round(s, |r| r.cost.wall_s / r.seq_s)),
        ("alloc_mb", per_round(s, |r| r.cost.alloc_bytes as f64 / MB)),
        (
            "peak_live_mb",
            per_round(s, |r| r.cost.peak_live_bytes as f64 / MB),
        ),
        ("setup_s", setup_adjusted(s)),
        ("setup_wall_s", s.setups.iter().map(|u| u.wall_s).collect()),
        ("wall_s", per_round(s, |r| r.cost.wall_s)),
        ("seq_kernel_s", per_round(s, |r| r.seq_s)),
        (
            "traced_wall_s",
            s.traced.iter().map(|t| t.cost.wall_s).collect(),
        ),
    ]
}

/// Each set-up's seconds at the reference speed of the box. A set-up
/// starts with the workload's sequential programs; the time they took
/// against [`Workload::reference_seq_s`] says how fast the box was just
/// then, and the set-up's wall time is scaled by it. Raw seconds move
/// by 20-40 % between runs minutes apart on the build box; these do
/// not, so work moved into set-up still shows.
///
/// [`Workload::reference_seq_s`]: crate::cells::Workload::reference_seq_s
fn setup_adjusted(s: &Session) -> Vec<f64> {
    let reference = s.workload.reference_seq_s();
    s.setups
        .iter()
        .map(|u| u.wall_s * reference / u.seq_s)
        .collect()
}

/// Sum of a simulated column over the cells that produced one.
fn sim_sum(s: &Session, f: impl Fn(&SimCols) -> f64) -> f64 {
    s.sims.iter().flatten().map(f).sum()
}

/// Median host seconds of an untraced pass. Not an end-to-end metric:
/// on the build box it moves by 10-25 % between runs of the same code.
fn wall_s(s: &Session) -> f64 {
    median(&per_round(s, |r| r.cost.wall_s))
}

/// Simulated seconds per host second: ROADMAP's historical headline,
/// printed but not gated (it is raw host time upside down).
pub fn sim_s_per_host_s(s: &Session) -> f64 {
    sim_sum(s, |c| c.time_us) / 1e6 / wall_s(s)
}

/// Values in [`END_TO_END`] order.
pub fn end_to_end(s: &Session) -> Vec<Metric> {
    let samples = samples(s);
    let med = |name: &str| {
        let (_, values) = samples.iter().find(|(n, _)| *n == name).expect("a sample");
        median(values)
    };
    let values = [
        med("slowdown_x"),
        med("alloc_mb"),
        med("peak_live_mb"),
        med("setup_s"),
        sim_sum(s, |c| c.time_us) / 1e6,
        sim_sum(s, |c| c.messages as f64),
        sim_sum(s, |c| c.bytes as f64) / MB,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| Metric::new(d.name, v, d.unit))
        .collect()
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// The per-layer metrics of a traced session; `probes` are appended
/// as they are (they do not depend on the workload).
pub fn per_layer(s: &Session, probes: &[Metric]) -> Vec<Metric> {
    let wall_s = wall_s(s);
    let mut out = Vec::new();

    // 1. The host-time fold, read off the traced pass of median wall so
    //    the buckets add up to one real pass.
    let mut by_wall: Vec<_> = s.traced.iter().collect();
    by_wall.sort_by(|a, b| a.cost.wall_s.total_cmp(&b.cost.wall_s));
    if let Some(t) = by_wall.get(by_wall.len().saturating_sub(1) / 2) {
        for b in Bucket::ALL {
            out.push(Metric::new(b.metric(), t.fold.get(b) as f64 / 1e9, "s"));
        }
        out.push(Metric::new(
            "sp2sim.outside_s",
            t.cost.wall_s - t.fold.total_ns() as f64 / 1e9,
            "s",
        ));
        // Each traced pass against the untraced pass just before it.
        let overhead: Vec<f64> = s
            .traced
            .iter()
            .zip(&s.rounds)
            .map(|(t, r)| t.cost.wall_s / r.cost.wall_s)
            .collect();
        out.push(Metric::new(
            "trace.overhead_ratio",
            median(&overhead),
            "ratio",
        ));
        out.push(Metric::new("trace.events", t.fold.events as f64, "count"));
        out.push(Metric::new(
            "trace.dropped_events",
            t.fold.dropped as f64,
            "count",
        ));
    }

    // 2. Exact counts of the untraced pass.
    let c = &s.counts;
    for (name, v) in [
        ("treadmarks.faults", c.faults),
        ("treadmarks.twins", c.twins),
        ("treadmarks.diffs_created", c.diffs_created),
        ("treadmarks.diff_words_created", c.diff_words_created),
        ("treadmarks.diffs_applied", c.diffs_applied),
        ("treadmarks.intervals_created", c.intervals_created),
        ("treadmarks.barriers", c.barriers),
        ("treadmarks.forks", c.forks),
        ("treadmarks.lock_acquires", c.lock_acquires),
        ("treadmarks.home_flush_pages", c.home_flush_pages),
        ("treadmarks.page_fetches", c.page_fetches),
        ("treadmarks.pages_pushed", c.pages_pushed),
        ("cri.validates", c.validates),
        ("cri.validate_pages", c.validate_pages),
        ("cri.direct_reduces", c.direct_reduces),
        ("inspector.inspections", c.inspections),
    ] {
        out.push(Metric::new(name, v as f64, "count"));
    }
    out.push(Metric::new(
        "treadmarks.arena_hit_ratio",
        ratio(c.arena_hits, c.arena_misses),
        "ratio",
    ));
    out.push(Metric::new(
        "inspector.schedule_reuse_ratio",
        ratio(c.schedule_reuse, c.inspections),
        "ratio",
    ));
    out.push(Metric::new(
        "sp2sim.host_us_per_msg",
        wall_s * 1e6 / sim_sum(s, |c| c.messages as f64),
        "us",
    ));
    out.push(Metric::new("host.wall_s", wall_s, "s"));
    let setup_walls: Vec<f64> = s.setups.iter().map(|u| u.wall_s).collect();
    out.push(Metric::new("host.setup_s", median(&setup_walls), "s"));
    out.push(Metric::new(
        "host.allocs",
        median(&per_round(s, |r| r.cost.allocs as f64)),
        "count",
    ));
    out.push(Metric::new(
        "apps.seq_kernel_s",
        median(&per_round(s, |r| r.seq_s)),
        "s",
    ));

    // 3. Unit-cost probes.
    out.extend_from_slice(probes);
    out
}

fn metrics_value(metrics: &[Metric]) -> Value {
    obj(metrics.iter().map(|x| {
        (
            x.name,
            obj([
                ("value", Value::from(x.value)),
                ("unit", Value::from(x.unit)),
            ]),
        )
    }))
}

/// The one-line result of a single-workload run: end-to-end metrics
/// without tracing, per-layer metrics with it.
pub fn result_line(s: &Session, per_layer_metrics: Option<&[Metric]>) -> String {
    let metrics = match per_layer_metrics {
        Some(pl) => metrics_value(pl),
        None => metrics_value(&end_to_end(s)),
    };
    obj([
        ("correct", Value::from(s.failed == 0)),
        ("attempted", Value::from(s.attempted)),
        ("failed", Value::from(s.failed)),
        ("metrics", metrics),
    ])
    .render()
}

/// One workload's entry in the full report.
pub fn workload_value(s: &Session, per_layer_metrics: Option<&[Metric]>) -> Value {
    let mut pairs = vec![
        ("name", Value::from(s.workload.name())),
        (
            "cells",
            Value::Arr(s.cells.iter().map(|c| Value::Str(c.to_string())).collect()),
        ),
        ("attempted", Value::from(s.attempted)),
        ("failed", Value::from(s.failed)),
        (
            "failures",
            Value::Arr(s.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        ("rounds", Value::from(s.rounds.len() as u64)),
        ("end_to_end", metrics_value(&end_to_end(s))),
    ];
    if let Some(pl) = per_layer_metrics {
        pairs.push(("per_layer", metrics_value(pl)));
    }
    pairs.push((
        "samples",
        obj(samples(s).into_iter().map(|(n, v)| (n, nums(&v)))),
    ));
    obj(pairs)
}

/// A metrics table, one row per metric and one column per workload.
pub fn table(names: &[&str], columns: &[Vec<Metric>]) -> String {
    let mut out = format!("{:<36}{:>9}", "metric", "unit");
    for n in names {
        out.push_str(&format!("{n:>14}"));
    }
    out.push('\n');
    for row in 0..columns.first().map_or(0, Vec::len) {
        let first = &columns[0][row];
        out.push_str(&format!("{:<36}{:>9}", first.name, first.unit));
        for col in columns {
            out.push_str(&format!("{:>14}", human(col[row].value)));
        }
        out.push('\n');
    }
    out
}

/// Four significant digits, for reading; the JSON carries every digit.
fn human(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e4 || x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        let digits = (3 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{x:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Workload;
    use crate::fold::Fold;
    use crate::json::parse;
    use crate::session::{PassCost, SetUp, TracedPass};

    /// A session filled in by hand, as if three rounds and one traced
    /// pass had run.
    pub fn fake_session() -> Session {
        let mut s = Session::new(Workload::DenseLrc, 1);
        for (i, sim) in s.sims.iter_mut().enumerate() {
            *sim = Some(SimCols {
                time_us: 1e6 * (i + 1) as f64,
                messages: 100,
                bytes: 2_000_000,
            });
        }
        s.attempted = 9;
        // The box ran at half, full and double its reference speed.
        let reference = s.workload.reference_seq_s();
        for (wall_s, speed) in [(1.0, 0.5), (1.2, 1.0), (1.1, 2.0)] {
            s.setups.push(SetUp {
                wall_s,
                seq_s: reference / speed,
            });
        }
        for (wall_s, seq_s) in [(2.0, 0.5), (2.2, 0.4), (2.1, 0.7)] {
            s.rounds.push(Round {
                cost: PassCost {
                    wall_s,
                    alloc_bytes: 3_000_000,
                    allocs: 10,
                    peak_live_bytes: 1_000_000,
                },
                seq_s,
            });
        }
        let mut fold = Fold::default();
        fold.ns[Bucket::TmkFault as usize] = 1_500_000_000;
        fold.ns[Bucket::AppsCompute as usize] = 1_000_000_000;
        fold.events = 42;
        s.traced.push(TracedPass {
            cost: PassCost {
                wall_s: 3.0,
                ..PassCost::default()
            },
            fold,
        });
        s.counts.arena_hits = 9;
        s.counts.arena_misses = 1;
        s
    }

    fn value_of(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|x| x.name == name).unwrap().value
    }

    #[test]
    fn end_to_end_takes_medians_and_sums_the_simulated_columns() {
        let e = end_to_end(&fake_session());
        // Ratios by round: 4.0, 5.5, 3.0.
        assert_eq!(value_of(&e, "slowdown_x"), 4.0);
        assert_eq!(value_of(&e, "alloc_mb"), 3.0);
        // Adjusted: 0.5, 1.2, 2.2.
        assert_eq!(value_of(&e, "setup_s"), 1.2);
        assert_eq!(value_of(&e, "sim_time_s"), 6.0);
        assert_eq!(value_of(&e, "sim_messages"), 300.0);
        assert_eq!(value_of(&e, "sim_mbytes"), 6.0);
        let names: Vec<_> = e.iter().map(|x| x.name).collect();
        let defined: Vec<_> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, defined);
    }

    #[test]
    fn fold_buckets_and_outside_add_up_to_the_traced_wall() {
        let p = per_layer(&fake_session(), &[]);
        let folded: f64 = Bucket::ALL.iter().map(|b| value_of(&p, b.metric())).sum();
        assert_eq!(folded + value_of(&p, "sp2sim.outside_s"), 3.0);
        assert_eq!(value_of(&p, "treadmarks.fault_s"), 1.5);
        assert_eq!(value_of(&p, "trace.overhead_ratio"), 3.0 / 2.0);
        assert_eq!(value_of(&p, "treadmarks.arena_hit_ratio"), 0.9);
        assert_eq!(value_of(&p, "inspector.schedule_reuse_ratio"), 0.0);
        assert_eq!(value_of(&p, "host.wall_s"), 2.1);
        assert_eq!(value_of(&p, "host.setup_s"), 1.1);
        assert_eq!(value_of(&p, "apps.seq_kernel_s"), 0.5);
        assert_eq!(value_of(&p, "sp2sim.host_us_per_msg"), 2.1e6 / 300.0);
    }

    #[test]
    fn the_result_line_parses_back_with_exactly_the_contract_keys() {
        let s = fake_session();
        for per_layer_metrics in [
            None,
            Some(per_layer(&s, &[Metric::new("trace.push_ns", 2.5, "ns")])),
        ] {
            let line = result_line(&s, per_layer_metrics.as_deref());
            assert!(!line.contains('\n'));
            let v = parse(&line).unwrap();
            let Value::Obj(pairs) = &v else {
                panic!("the result is an object");
            };
            let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(v.get("attempted").unwrap().as_f64(), Some(9.0));
            let Some(Value::Obj(metrics)) = v.get("metrics") else {
                panic!("metrics is an object");
            };
            match &per_layer_metrics {
                None => {
                    assert_eq!(metrics.len(), END_TO_END.len());
                    let slowdown = v.get("metrics").unwrap().get("slowdown_x").unwrap();
                    assert_eq!(slowdown.get("value").unwrap().as_f64(), Some(4.0));
                    assert_eq!(slowdown.get("unit").unwrap().as_str(), Some("x"));
                }
                Some(pl) => {
                    assert_eq!(metrics.len(), pl.len());
                    assert!(v.get("metrics").unwrap().get("trace.push_ns").is_some());
                    assert!(v.get("metrics").unwrap().get("slowdown_x").is_none());
                }
            }
        }
    }

    #[test]
    fn the_full_report_entry_parses_back() {
        let s = fake_session();
        let pl = per_layer(&s, &[]);
        let v = workload_value(&s, Some(&pl));
        let back = parse(&v.render_pretty()).unwrap();
        assert_eq!(back, v);
        let walls = back.get("samples").unwrap().get("wall_s").unwrap();
        assert_eq!(walls.as_arr().unwrap().len(), 3);
    }

    #[test]
    fn human_numbers_keep_four_significant_digits() {
        assert_eq!(human(0.0), "0");
        assert_eq!(human(1234567.0), "1234567");
        assert_eq!(human(12.3456), "12.35");
        assert_eq!(human(0.00123456), "0.001235");
        assert_eq!(human(48.0), "48");
    }
}
