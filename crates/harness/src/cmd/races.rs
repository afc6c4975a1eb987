//! Race-detection gate over the applications, plus a seeded
//! self-check of the detector.
//!
//! Usage: `races [scale] [nprocs] [--engine sequential|seeded:N] [--seeded]`
//! (defaults 0.035 and 4; like `protocol_compare`, both protocols are
//! always swept, so `--protocol` only changes the flag's default).
//!
//! Default mode runs all six applications with detection on and exits
//! nonzero if any run reports a race — the multiple-writer contract
//! ("concurrent intervals write disjoint words") checked end to end.
//! `--seeded` instead runs a deliberately racy two-node program and
//! exits nonzero if the detector does NOT flag it with the exact
//! writer pair, guarding against a detector that rots into a silent
//! yes-man.

use crate::cli::{Cli, Exit, Flags};
use apps::{AppId, Version};
use sp2sim::{Cluster, ClusterConfig, EngineKind};
use treadmarks::{race, ProtocolMode, RaceLog, Tmk, TmkConfig};

pub fn run(cli: Cli, flags: &Flags) -> Result<(), Exit> {
    if flags.has("--seeded") {
        return run_seeded(cli.engine);
    }
    let mut races = 0usize;
    for app in AppId::ALL {
        for protocol in ProtocolMode::ALL {
            let mut spec = cli.spec(app, Version::Spf).protocol(protocol);
            spec.cfg.detect_races = true;
            let r = crate::oracle::run(&spec);
            let verdict = if r.race_report.is_empty() {
                "race-free"
            } else {
                "RACES"
            };
            println!(
                "{:<10} {:<5} {} ({} interval pair{})",
                app.name(),
                protocol.to_string(),
                verdict,
                r.race_report.len(),
                if r.race_report.len() == 1 { "" } else { "s" },
            );
            for report in &r.race_report {
                println!("  {report}");
            }
            races += r.race_report.len();
        }
    }
    if races > 0 {
        return Err(Exit::failure(format!(
            "races: {races} racing interval pair(s) found"
        )));
    }
    println!("races: all applications race-free under both protocols");
    Ok(())
}

/// Two nodes write word 0 of the same page inside the same barrier
/// epoch — a race by construction. The detector must name page 0,
/// word 0, writers (0, 1).
fn run_seeded(engine: EngineKind) -> Result<(), Exit> {
    let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
        let tmk = Tmk::new(node, TmkConfig::default().with_race_detection(true));
        let a = tmk.malloc_f64(8);
        tmk.write_one(a, 0, (tmk.proc_id() + 1) as f64);
        tmk.barrier(0);
        tmk.finish();
        tmk.take_race_log().expect("detection was on")
    });
    let logs: Vec<RaceLog> = out.results.to_vec();
    let report = race::detect(&logs);
    for r in &report {
        println!("{r}");
    }
    let hit = report
        .iter()
        .any(|r| r.page == 0 && r.word == 0 && r.writers == (0, 1));
    if hit {
        println!("races --seeded: detector flagged the seeded race");
        Ok(())
    } else {
        Err(Exit::failure(format!(
            "races --seeded: seeded race NOT detected ({report:?})"
        )))
    }
}
