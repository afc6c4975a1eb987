//! The repo benchmark. See README.md for every metric and workload.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark compare A.json B.json
//! ```
//!
//! One process, one OS thread, sequential engine, 8 simulated nodes.
//! Per workload: set-up (five times: `Seq` reference runs + a warm-up
//! pass) → timed rounds for `--seconds`, each an untraced pass followed
//! by the `Seq` programs on the same inputs and, with `--trace 1`, by a
//! traced pass. Then, with `--trace 1`, the unit-cost probes.

mod alloc;
mod cells;
mod compare;
mod fold;
mod json;
mod probes;
mod report;
mod session;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cells::Workload;
use json::{obj, Value};
use report::Metric;
use session::Session;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed rounds per workload, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]\n       benchmark compare A.json B.json";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: true,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => o.workloads = Workload::ALL.to_vec(),
            "--workload" => o.workloads = vec![Workload::from_name(value).ok_or_else(bad)?],
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// What the box was doing, for judging a run's timings afterwards.
/// Read from `/proc`; absent fields are simply left out.
fn host_state() -> Vec<(&'static str, Value)> {
    let mut out = Vec::new();
    if let Ok(s) = std::fs::read_to_string("/proc/loadavg") {
        if let Some(one_minute) = s.split(' ').next().and_then(|x| x.parse::<f64>().ok()) {
            out.push(("loadavg", Value::from(one_minute)));
        }
    }
    if let Ok(s) = std::fs::read_to_string("/proc/self/schedstat") {
        if let Some(ns) = s.split(' ').next().and_then(|x| x.parse::<f64>().ok()) {
            out.push(("cpu_s", Value::from(ns / 1e9)));
        }
    }
    if let Ok(s) = std::fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name; minflt is the
        // 10th field of the line, the 8th after the name.
        let after_name = s.rsplit(')').next().unwrap_or("");
        if let Some(minflt) = after_name
            .split_ascii_whitespace()
            .nth(7)
            .and_then(|x| x.parse::<f64>().ok())
        {
            out.push(("minor_faults", Value::from(minflt)));
        }
    }
    out
}

/// Call `step` until `budget` is spent, and at least `min` times.
fn repeat(budget: Duration, min: usize, mut step: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed() < budget {
        step();
        done += 1;
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args)?;
    let started = Instant::now();
    let host_before = host_state();
    let mut sessions: Vec<Session> = o
        .workloads
        .iter()
        .map(|&w| Session::new(w, o.seed))
        .collect();
    for s in &sessions {
        println!(
            "workload {} (seed {}): {}",
            s.workload.name(),
            o.seed,
            s.workload.why()
        );
        for c in &s.cells {
            println!("  cell {c}");
        }
    }

    // One workload after the other, each exactly as a run of that
    // workload alone (what the driver does) would go.
    let budget = Duration::from_secs_f64(o.seconds);
    for s in &mut sessions {
        for _ in 0..SETUPS {
            s.set_up();
        }
        // With tracing, a traced pass follows every timed round, so
        // that `trace.overhead_ratio` divides neighbours in time.
        repeat(budget, MIN_ROUNDS, || {
            s.timed_round();
            if o.trace {
                s.traced_pass();
            }
        });
    }
    let probes = if o.trace {
        probes::run_all()
    } else {
        Vec::new()
    };

    let names: Vec<&str> = sessions.iter().map(|s| s.workload.name()).collect();
    let e2e: Vec<Vec<Metric>> = sessions.iter().map(report::end_to_end).collect();
    let layers: Option<Vec<Vec<Metric>>> = o.trace.then(|| {
        sessions
            .iter()
            .map(|s| report::per_layer(s, &probes))
            .collect()
    });

    println!("\nend to end (medians; lower is better)");
    print!("{}", report::table(&names, &e2e));
    print!("{:<45}", "rounds (n)");
    for s in &sessions {
        print!("{:>14}", s.rounds.len());
    }
    print!("\n{:<45}", "sim_s_per_host_s (derived, not gated)");
    for s in &sessions {
        print!("{:>14.3}", report::sim_s_per_host_s(s));
    }
    println!();
    if let Some(layers) = &layers {
        println!("\nper layer (fold of the traced pass, exact counts, unit-cost probes)");
        print!("{}", report::table(&names, layers));
    }
    for s in &sessions {
        for f in &s.failures {
            println!("FAILED {f}");
        }
    }

    let mut host = vec![
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("wall_s", Value::from(started.elapsed().as_secs_f64())),
    ];
    host.extend(host_state());
    println!("\nhost: {}", obj(host.clone()).render());
    if let Some(path) = &o.out {
        let doc = obj([
            ("schema", Value::from("benchmark/v1")),
            ("seed", Value::from(o.seed)),
            ("seconds", Value::from(o.seconds)),
            ("host_before", obj(host_before)),
            ("host_after", obj(host)),
            (
                "workloads",
                Value::Arr(
                    sessions
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            report::workload_value(s, layers.as_ref().map(|l| l[i].as_slice()))
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }

    // The driver's contract: one workload, one JSON object, last line.
    if let [s] = sessions.as_slice() {
        let per_layer = layers.as_ref().map(|l| l[0].as_slice());
        println!("{}", report::result_line(s, per_layer));
    }
    let failed = sessions.iter().any(|s| s.failed > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(if compare::any_worse(&rows) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => run(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;
    use crate::session::TracedPass;

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    fn strings(v: &Value, key: &str) -> Vec<String> {
        let items = v.get(key).and_then(Value::as_arr).expect(key);
        items
            .iter()
            .map(|x| x.as_str().expect(key).to_string())
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to what
    /// the binary measures. Running the probes here also shows that
    /// each of them terminates and measures something.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_measures() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(strings(&doc, "command"), ["bash", "benchmark/run.sh"]);
        assert_eq!(strings(&doc, "paths"), ["benchmark"]);

        let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (w, v) in Workload::ALL.iter().zip(workloads) {
            assert_eq!(field(v, "name"), w.name());
            assert_eq!(field(v, "why"), w.why());
        }

        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (d, v) in END_TO_END.iter().zip(e2e) {
            assert_eq!(field(v, "name"), d.name);
            assert_eq!(field(v, "unit"), d.unit, "{}", d.name);
            assert_eq!(field(v, "better"), "lower", "{}", d.name);
            assert_eq!(
                v.get("bound").and_then(Value::as_f64),
                Some(d.bound),
                "{}",
                d.name
            );
        }

        let probes = probes::run_all();
        for p in &probes {
            assert!(
                p.value.is_finite() && p.value > 0.0,
                "{} = {}",
                p.name,
                p.value
            );
        }
        let mut session = Session::new(Workload::GridSmall, 1);
        session.traced.push(TracedPass {
            cost: Default::default(),
            fold: Default::default(),
        });
        let measured = report::per_layer(&session, &probes);
        let listed = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(listed.len(), measured.len());
        for (m, v) in measured.iter().zip(listed) {
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit, "{}", m.name);
            assert!(
                matches!(field(v, "better"), "lower" | "higher"),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn options_parse_the_drivers_arguments_and_reject_nonsense() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o =
            parse_options(&args("--workload mp-bypass --seed 9 --seconds 3 --trace 0")).unwrap();
        assert_eq!(o.workloads, [Workload::MpBypass]);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 3.0, false));
        assert_eq!(parse_options(&[]).unwrap().workloads.len(), 5);
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }
}
