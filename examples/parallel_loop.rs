//! A "compiled" parallel program: what the Forge SPF compiler emits.
//!
//! Run with: `cargo run --release --example parallel_loop`
//!
//! The program computes a dot product with the exact code shape SPF
//! generates from `!$PAR DO` + `REDUCTION(+)` directives: the loop body
//! is an encapsulated subroutine dispatched to a fork-join run-time over
//! the DSM, the arrays live in shared memory, and the reduction folds
//! private partials into a lock-protected shared variable. It then runs
//! the same loop under both fork-join transports to show the §2.3
//! improved-interface effect.

use sp2sim::{Cluster, ClusterConfig};
use spf::{LoopCtl, Schedule, Spf, SpfReduction};
use treadmarks::{Tmk, TmkConfig};

const N: usize = 8192;

fn dot_product(cfg: TmkConfig) -> (f64, u64, f64) {
    let out = Cluster::run(ClusterConfig::sp2(8), move |node| {
        let tmk = Tmk::new(node, cfg);
        let spf = Spf::new(&tmk);
        let a = tmk.malloc_f64(N);
        let b = tmk.malloc_f64(N);
        let red = SpfReduction::new(&tmk, 1);
        let me = tmk.proc_id();
        let np = tmk.nprocs();

        let init = spf.register({
            let tmk = &tmk;
            move |ctl: &LoopCtl| {
                let r = ctl.my_block(me, np);
                if r.is_empty() {
                    return;
                }
                let mut wa = tmk.write(a, r.clone());
                let mut wb = tmk.write(b, r.clone());
                for i in r {
                    wa[i] = i as f64;
                    wb[i] = 2.0;
                }
            }
        });
        let dot = spf.register({
            let tmk = &tmk;
            move |ctl: &LoopCtl| {
                let r = ctl.my_block(me, np);
                let mut partial = 0.0;
                if !r.is_empty() {
                    let va = tmk.read(a, r.clone());
                    let vb = tmk.read(b, r.clone());
                    for i in r {
                        partial += va[i] * vb[i];
                    }
                }
                red.fold(tmk, partial, |x, y| x + y);
            }
        });

        let result = spf.run(|m| {
            m.par_loop(init, 0..N, Schedule::Block, &[]);
            red.reset(m.tmk(), 0.0);
            m.par_loop(dot, 0..N, Schedule::Block, &[]);
            red.value(m.tmk())
        });
        tmk.finish();
        result
    });
    let dot = out.results[0].expect("master result");
    (dot, out.stats.total_messages(), out.elapsed.us())
}

fn main() {
    let expect: f64 = (0..N).map(|i| 2.0 * i as f64).sum();

    let (dot, msgs, us) = dot_product(TmkConfig::default());
    println!("improved interface (§2.3): dot = {dot} (expected {expect})");
    println!("  {msgs} messages, {us:.0} simulated us");
    assert_eq!(dot, expect);

    let (dot, msgs, us) = dot_product(TmkConfig::legacy_forkjoin());
    println!("original interface:        dot = {dot}");
    println!("  {msgs} messages, {us:.0} simulated us (8(n-1) vs 2(n-1) per loop)");
    assert_eq!(dot, expect);
}
