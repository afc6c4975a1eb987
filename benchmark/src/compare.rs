//! `benchmark compare A.json B.json`: apply each end-to-end metric's
//! bound, per workload, to two full reports (A the baseline, B the
//! candidate) and say same / better / worse / unresolved.
//!
//! * A timed metric is **unresolved** when either report's own
//!   round-to-round spread (quartile distance over median) is wider than
//!   the bound: the runs cannot tell a change of that size from noise.
//! * A metric that is deterministic for a fixed seed (the `sim_*`
//!   columns) is held to exactness when both reports ran the same
//!   cells: any movement is reported, upwards as worse.
//! * A workload whose failed count rose is worse whatever else moved.

use std::fmt;

use crate::json::Value;
use crate::report::{EndToEnd, END_TO_END};
use crate::stats::iqr_share;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The verdict on one lower-is-better metric: `a` and `b` are the two
/// values, `spread` the wider of the two reports' own spreads.
pub fn verdict(a: f64, b: f64, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if b > a * (1.0 + bound) {
        Verdict::Worse
    } else if b < a * (1.0 - bound) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Row {
    pub workload: String,
    /// `(metric, relative change, verdict)` in [`END_TO_END`] order,
    /// then the failed-share row.
    pub cells: Vec<(&'static str, f64, Verdict)>,
}

fn workloads(report: &Value) -> Result<&[Value], String> {
    report
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or_else(|| "not a benchmark report: no \"workloads\" array".to_string())
}

fn number(v: &Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("report lacks {}", path.join(".")))
}

fn samples(w: &Value, name: &str) -> Vec<f64> {
    w.get("samples")
        .and_then(|s| s.get(name))
        .and_then(Value::as_arr)
        .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn compare_metric(
    d: &EndToEnd,
    a: &Value,
    b: &Value,
    same_cells: bool,
) -> Result<(f64, Verdict), String> {
    let va = number(a, &["end_to_end", d.name, "value"])?;
    let vb = number(b, &["end_to_end", d.name, "value"])?;
    let v = if d.exact && same_cells {
        verdict(va, vb, 0.0, 0.0)
    } else {
        let spread = iqr_share(&samples(a, d.name)).max(iqr_share(&samples(b, d.name)));
        verdict(va, vb, d.bound, spread)
    };
    Ok((vb / va - 1.0, v))
}

/// Compare every workload of `a` that `b` also has.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for wa in workloads(a)? {
        let name = wa.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            continue;
        };
        let same_cells = wa.get("cells").is_some() && wa.get("cells") == wb.get("cells");
        let mut cells = Vec::new();
        for d in &END_TO_END {
            let (rel, v) = compare_metric(d, wa, wb, same_cells)?;
            cells.push((d.name, rel, v));
        }
        let share =
            |w: &Value| Ok::<f64, String>(number(w, &["failed"])? / number(w, &["attempted"])?);
        let (fa, fb) = (share(wa)?, share(wb)?);
        cells.push(("failed_share", fb - fa, verdict(fa, fb, 0.0, 0.0)));
        rows.push(Row {
            workload: name.to_string(),
            cells,
        });
    }
    if rows.is_empty() {
        return Err("the two reports share no workload".to_string());
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!("{:<12}", "workload");
    for (metric, _, _) in &rows[0].cells {
        out.push_str(&format!("{metric:>20}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<12}", row.workload));
        for (_, rel, v) in &row.cells {
            out.push_str(&format!("{:>20}", format!("{v} {:+.2}%", rel * 100.0)));
        }
        out.push('\n');
    }
    out
}

pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter()
        .any(|r| r.cells.iter().any(|c| c.2 == Verdict::Worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{nums, obj};

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        assert_eq!(verdict(1.0, 1.04, 0.1, 0.02), Verdict::Same);
        assert_eq!(verdict(1.0, 1.2, 0.1, 0.02), Verdict::Worse);
        assert_eq!(verdict(1.0, 0.8, 0.1, 0.02), Verdict::Better);
        assert_eq!(verdict(1.0, 1.2, 0.1, 0.3), Verdict::Unresolved);
        // Exact metrics: bound 0, spread 0.
        assert_eq!(verdict(5.0, 5.0, 0.0, 0.0), Verdict::Same);
        assert_eq!(verdict(5.0, 5.000001, 0.0, 0.0), Verdict::Worse);
        assert_eq!(verdict(5.0, 4.999999, 0.0, 0.0), Verdict::Better);
    }

    /// What a hand-made one-workload report says.
    struct Fake {
        slowdown: Vec<f64>,
        sim_messages: f64,
        failed: f64,
        cell: &'static str,
    }

    fn steady() -> Fake {
        Fake {
            slowdown: vec![1.0, 1.01, 0.99, 1.0, 1.02],
            sim_messages: 500.0,
            failed: 0.0,
            cell: "c",
        }
    }

    fn report(f: &Fake) -> Value {
        let metric = |v: f64| obj([("value", Value::from(v)), ("unit", Value::from("-"))]);
        obj([(
            "workloads",
            Value::Arr(vec![obj([
                ("name", Value::from("dense-lrc")),
                ("cells", Value::Arr(vec![Value::from(f.cell)])),
                ("attempted", Value::from(10.0)),
                ("failed", Value::from(f.failed)),
                (
                    "end_to_end",
                    obj(END_TO_END.iter().map(|d| {
                        let v = match d.name {
                            "slowdown_x" => crate::stats::median(&f.slowdown),
                            "sim_messages" => f.sim_messages,
                            _ => 3.0,
                        };
                        (d.name, metric(v))
                    })),
                ),
                ("samples", obj([("slowdown_x", nums(&f.slowdown))])),
            ])]),
        )])
    }

    /// The verdict on `metric` when `b` is compared against [`steady`].
    fn against_steady(b: &Fake, metric: &str) -> Verdict {
        let rows = compare(&report(&steady()), &report(b)).unwrap();
        rows[0].cells.iter().find(|c| c.0 == metric).unwrap().2
    }

    #[test]
    fn hand_made_pairs_get_the_expected_rows() {
        let aa = compare(&report(&steady()), &report(&steady())).unwrap();
        assert!(aa[0].cells.iter().all(|c| c.2 == Verdict::Same));
        assert!(!any_worse(&aa));

        let scaled = |k: f64| Fake {
            slowdown: steady().slowdown.iter().map(|x| x * k).collect(),
            ..steady()
        };
        assert_eq!(against_steady(&scaled(1.5), "slowdown_x"), Verdict::Worse);
        assert_eq!(against_steady(&scaled(0.5), "slowdown_x"), Verdict::Better);
        let rows = compare(&report(&steady()), &report(&scaled(1.5))).unwrap();
        assert!(any_worse(&rows));
        assert!(render(&rows).contains("WORSE +50.00%"));

        let noisy = Fake {
            slowdown: vec![1.0, 1.6, 0.7, 1.3, 1.0],
            ..steady()
        };
        assert_eq!(against_steady(&noisy, "slowdown_x"), Verdict::Unresolved);
    }

    #[test]
    fn simulated_columns_are_exact_on_the_same_cells_only() {
        let one_more = Fake {
            sim_messages: 501.0,
            ..steady()
        };
        assert_eq!(against_steady(&one_more, "sim_messages"), Verdict::Worse);
        let other_seed = Fake {
            cell: "d",
            ..one_more
        };
        assert_eq!(against_steady(&other_seed, "sim_messages"), Verdict::Same);
    }

    #[test]
    fn a_new_failure_is_worse_and_a_foreign_file_is_an_error() {
        let failing = Fake {
            failed: 1.0,
            ..steady()
        };
        assert_eq!(against_steady(&failing, "failed_share"), Verdict::Worse);
        assert!(compare(&Value::Null, &Value::Null).is_err());
    }
}
