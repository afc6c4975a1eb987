//! # cri — the compiler–runtime interface for the DSM
//!
//! The paper's conclusion attributes most of the SPF-on-TreadMarks gap
//! to information the compiler had and the runtime did not: which pages
//! a parallel loop will fault, who consumes the data it produces, and
//! which shared updates are really reductions. This crate is that
//! interface, following the integrated compile-time/run-time approach of
//! Dwarkadas, Cox & Zwaenepoel:
//!
//! * [`Section`] — **section access descriptors**: the words a
//!   parallelized loop touches, held as sorted word runs. The compiler
//!   builds them from its subscript analysis (a contiguous range, a
//!   chunk of every plane, a cyclic column set), an inspector from its
//!   indirection-map walk (registered through
//!   [`HintEngine::register_dynamic`] and memoized in a per-`(loop,
//!   range, node)` schedule cache — see the `inspector` crate);
//! * [`Access`] / [`AccessFn`] — a loop's touched sections, evaluated
//!   per node from the dispatched iteration range, with read/write mode
//!   and (for writes) the known [`Consumer`]s;
//! * [`HintEngine`] — turns descriptors into actions around every loop
//!   body: an **aggregated validate** (one round trip per writer for all
//!   pages the phase will fault — [`treadmarks::Tmk::validate_pages`]) before
//!   the body, and **barrier-time push** registrations (producer pushes
//!   the page overlap to each consumer with the next rendezvous —
//!   [`treadmarks::Tmk::push_page_at_next_sync`]) after it. Each loop is
//!   compiled once per iteration range into a plan of flat page lists
//!   that later dispatches replay (see [`hints`]).
//!
//! The third mechanism, **direct reductions**, lives on the DSM handle
//! itself ([`treadmarks::Tmk::reduce`]): partials combine up a binomial
//! tree in `2 (n - 1)` messages instead of folding into a lock-guarded
//! shared page.
//!
//! Under the home-based protocol (HLRC, [`treadmarks::hlrc`])
//! the descriptors additionally drive **home placement**: every page
//! exactly one node's write section covers is re-homed at that node, so
//! the declared producer's eager flushes become local no-ops. The
//! candidates come from [`HintEngine::planned_homes`]; the fork-join
//! runtime decides once, on the master at fork time, through
//! [`treadmarks::Tmk::adopt_page_homes`], and ships the accepted list
//! with the dispatch for every worker to install. A push to a consumer
//! that *is* the page's home is skipped — the regular home flush already
//! carries the same diff there. This is the per-page push-vs-home-flush
//! choice of a hinted body.
//!
//! Validates and pushes are *performance-only*: every validate fetches
//! exactly the diffs a fault would have fetched, and a push delivers
//! the diffs the consumer would have requested (gapped pushes are
//! dropped, not misapplied) — or, when sequential code republishes a
//! section it rewrote ([`HintEngine::republish`]), the section's words,
//! which stand for every diff of their pages the consumer has not
//! applied, and which it installs only where the pusher's watermarks
//! dominate its own. Two hints rest on the program's word, and debug
//! builds check both: a **write-all** access ([`Access::write_all`])
//! skips a fetch — the pages the body overwrites whole are neither
//! validated nor pushed, and their release publishes them whole (an
//! unstored word or a read before the write panics, naming the loop);
//! a republished section must hold every word of its pages written
//! since what the consumer holds (a word outside it that differs from
//! the pusher's panics at the install).
//! Hinted and unhinted executions produce byte-identical shared memory;
//! `tests/cri_equivalence.rs` pins that property.
//!
//! ## Example
//!
//! ```
//! use sp2sim::{Cluster, ClusterConfig};
//! use treadmarks::{Tmk, TmkConfig};
//! use cri::{Access, HintEngine, Section};
//!
//! let out = Cluster::run(ClusterConfig::sp2(2), |node| {
//!     let tmk = Tmk::new(node, TmkConfig::default());
//!     let hints = HintEngine::new(&tmk);
//!     let a = tmk.malloc_f64(1024);
//!     // "Loop 0 writes the block `iters` of `a`, read next by loop 1."
//!     hints.set(0, move |iters, me, np| {
//!         let r = spf_like_block(me, np, iters.clone());
//!         vec![Access::write(a, Section::range(r)).consumed_by_loop(1, 0..1024)]
//!     });
//!     hints.set(1, move |_iters, _me, _np| {
//!         vec![Access::read(a, Section::range(0..1024))]
//!     });
//!     // ... the fork-join runtime invokes before_loop/after_loop around
//!     // each dispatched body (see the `spf` crate).
//!     tmk.finish();
//! });
//!
//! fn spf_like_block(me: usize, np: usize, r: std::ops::Range<usize>) -> std::ops::Range<usize> {
//!     let len = (r.end - r.start) / np;
//!     r.start + me * len..r.start + (me + 1) * len
//! }
//! ```

#![forbid(unsafe_code)]

pub mod hints;
pub mod section;

pub use hints::{Access, AccessFn, AccessMode, Consumer, HintEngine};
pub use section::Section;

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{Cluster, ClusterConfig, MsgKind};
    use treadmarks::{Tmk, TmkConfig};

    /// before_loop validates everything a phase will read: the body's
    /// views then fault nothing, and the whole exchange is one
    /// ValidateReq/Resp pair per (reader, writer) pair.
    #[test]
    fn before_loop_prevalidates_reads() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 4);
            hints.set(0, move |_iters, me, _np| {
                if me == 1 {
                    vec![Access::read(a, Section::range(0..512 * 4))]
                } else {
                    vec![]
                }
            });
            if tmk.proc_id() == 0 {
                let mut w = tmk.write(a, 0..512 * 4);
                for (i, x) in w.slice_mut().iter_mut().enumerate() {
                    *x = i as f64;
                }
            }
            tmk.barrier(0);
            let mut ok = true;
            if tmk.proc_id() == 1 {
                let validated = hints.before_loop(0, &(0..4));
                assert_eq!(validated, 4);
                let before = tmk.stats_snapshot().faults;
                let r = tmk.read(a, 0..512 * 4);
                ok = (0..512 * 4).all(|i| r[i] == i as f64);
                assert_eq!(tmk.stats_snapshot().faults, before, "reads must not fault");
            }
            tmk.barrier(1);
            tmk.finish();
            ok
        });
        assert!(out.results.iter().all(|&ok| ok));
        assert_eq!(out.stats.messages(MsgKind::ValidateReq), 1);
        assert_eq!(out.stats.messages(MsgKind::DiffReq), 0);
    }

    /// after_loop registers pushes for exactly the page overlap between
    /// the producer's writes and each consumer's declared reads.
    #[test]
    fn after_loop_pushes_producer_consumer_overlap() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 4);
            // Loop 0: node 0 writes the first two pages; loop 1: node 1
            // reads pages 1..3 — the overlap is exactly page 1.
            hints.set(0, move |_iters, me, _np| {
                if me == 0 {
                    vec![Access::write(a, Section::range(0..512 * 2)).consumed_by_loop(1, 0..1)]
                } else {
                    vec![]
                }
            });
            hints.set(1, move |_iters, me, _np| {
                if me == 1 {
                    vec![Access::read(a, Section::range(512..512 * 3))]
                } else {
                    vec![]
                }
            });
            let mut probe = 0.0;
            if tmk.proc_id() == 0 {
                let mut w = tmk.write(a, 0..512 * 2);
                for (i, x) in w.slice_mut().iter_mut().enumerate() {
                    *x = 1.0 + i as f64;
                }
                drop(w);
                let registered = hints.after_loop(0, &(0..1));
                assert_eq!(registered, 1, "only the overlapping page");
            }
            tmk.barrier(0);
            if tmk.proc_id() == 1 {
                let before = tmk.stats_snapshot().faults;
                let r = tmk.read(a, 512..1024); // the pushed page
                probe = r[512];
                assert_eq!(tmk.stats_snapshot().faults, before, "pushed page");
            }
            tmk.barrier(1);
            tmk.finish();
            probe
        });
        assert_eq!(out.results[1], 513.0);
        assert_eq!(out.stats.messages(MsgKind::Push), 1);
    }

    /// Consumer::Node pushes the whole written section to one node's
    /// sequential code.
    #[test]
    fn node_consumer_receives_everything() {
        let out = Cluster::run(ClusterConfig::sp2(3), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 3);
            hints.set(0, move |_iters, me, np| {
                // Each node writes its own page, destined for node 0.
                let r = me * 512..(me + 1) * 512;
                let _ = np;
                vec![Access::write(a, Section::range(r)).consumed_by_node(0)]
            });
            {
                let me = tmk.proc_id();
                let mut w = tmk.write(a, me * 512..(me + 1) * 512);
                for i in me * 512..(me + 1) * 512 {
                    w[i] = me as f64;
                }
            }
            hints.after_loop(0, &(0..3));
            tmk.barrier(0);
            let mut sum = 0.0;
            if tmk.proc_id() == 0 {
                let before = tmk.stats_snapshot().faults;
                let r = tmk.read(a, 0..512 * 3);
                sum = (0..3).map(|q| r[q * 512 + 7]).sum();
                assert_eq!(tmk.stats_snapshot().faults, before);
            }
            tmk.barrier(1);
            tmk.finish();
            sum
        });
        assert_eq!(out.results[0], 3.0);
        // Node 1 and node 2 each push their page; node 0's self-push is
        // dropped at registration.
        assert_eq!(out.stats.messages(MsgKind::Push), 2);
        assert_eq!(out.stats.messages(MsgKind::DiffReq), 0);
    }

    /// HLRC: the declared producer of a single-writer page becomes its
    /// home, so the producer's eager flushes are local no-ops; the push
    /// to the (non-home) consumer still rides the barrier. Every node
    /// adopts the planned homes itself, which is safe here — nothing has
    /// been written yet — and agrees with the master's fork-time decision.
    #[test]
    fn planned_homes_make_the_producer_the_home() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::hlrc());
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 2);
            hints.set(0, move |_iters, me, _np| {
                if me == 0 {
                    vec![Access::write(a, Section::range(0..512 * 2)).consumed_by_loop(1, 0..1)]
                } else {
                    vec![]
                }
            });
            hints.set(1, move |_iters, me, _np| {
                if me == 1 {
                    vec![Access::read(a, Section::range(0..512 * 2))]
                } else {
                    vec![]
                }
            });
            let accepted = tmk
                .adopt_page_homes(|| hints.planned_homes([(0, &(0..1))]))
                .len();
            // Page 1 would be homed at node 1 block-cyclically; the
            // descriptor re-homes both pages at the producer, node 0.
            assert_eq!(tmk.page_home(a.first_page()), 0);
            assert_eq!(tmk.page_home(a.first_page() + 1), 0);
            let mut probe = 0.0;
            if tmk.proc_id() == 0 {
                let mut w = tmk.write(a, 0..512 * 2);
                for (i, x) in w.slice_mut().iter_mut().enumerate() {
                    *x = 1.0 + i as f64;
                }
                drop(w);
                hints.after_loop(0, &(0..1));
            }
            tmk.barrier(0);
            if tmk.proc_id() == 1 {
                let before = tmk.stats_snapshot().faults;
                let r = tmk.read(a, 0..512 * 2);
                probe = r[700];
                assert_eq!(tmk.stats_snapshot().faults, before, "pushed pages");
            }
            tmk.barrier(1);
            tmk.finish();
            (accepted, probe)
        });
        assert_eq!(out.results[0].0, 2, "both pages re-homed (evaluated on 0)");
        assert_eq!(out.results[1].1, 701.0);
        // Producer is the home: no flush traffic; both pages pushed.
        assert_eq!(out.stats.messages(MsgKind::HomeFlush), 0);
        assert_eq!(out.stats.messages(MsgKind::Push), 1);
        assert_eq!(out.stats.messages(MsgKind::PageReq), 0);
    }

    /// HLRC: when a consumer *is* the page's home (re-homing was refused
    /// because the page already had notices), the push is skipped — the
    /// producer's home flush already carries the same diff there.
    #[test]
    fn push_to_home_consumer_is_replaced_by_the_flush() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::hlrc());
            let hints = HintEngine::new(&tmk);
            // Page 1 is homed at node 1. Pre-existing notices on both
            // pages: node 1 wrote them before the descriptors were ever
            // evaluated.
            let a = tmk.malloc_f64(512 * 2);
            if tmk.proc_id() == 1 {
                let mut w = tmk.write(a, 0..512 * 2);
                for x in w.slice_mut().iter_mut() {
                    *x = 1.0;
                }
            }
            tmk.barrier(0);
            hints.set(0, move |_iters, me, _np| {
                if me == 0 {
                    vec![Access::write(a, Section::range(512..512 * 2)).consumed_by_node(1)]
                } else {
                    vec![]
                }
            });
            let accepted = tmk
                .adopt_page_homes(|| hints.planned_homes([(0, &(0..1))]))
                .len();
            assert_eq!(tmk.page_home(a.first_page() + 1), 1, "re-home refused");
            let mut registered = 0;
            if tmk.proc_id() == 0 {
                let _ = tmk.read(a, 512..512 * 2);
                let mut w = tmk.write(a, 512..512 * 2);
                for x in w.slice_mut().iter_mut() {
                    *x = 9.0;
                }
                drop(w);
                registered = hints.after_loop(0, &(0..1));
            }
            tmk.barrier(1);
            let mut probe = 0.0;
            if tmk.proc_id() == 1 {
                probe = tmk.read_one(a, 600); // folds the flush at the home
            }
            tmk.barrier(2);
            tmk.finish();
            (accepted, registered, probe)
        });
        assert_eq!(out.results[0].0, 0, "no override accepted");
        assert_eq!(out.results[0].1, 0, "push to the home is skipped");
        assert_eq!(out.results[1].2, 9.0, "the flush delivered the data");
        assert_eq!(out.stats.messages(MsgKind::Push), 0);
        assert!(out.stats.messages(MsgKind::HomeFlush) >= 1);
    }

    #[test]
    fn loops_without_descriptors_are_untouched() {
        let out = Cluster::run(ClusterConfig::sp2(1), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk);
            assert!(!hints.has(3));
            assert_eq!(hints.before_loop(3, &(0..10)), 0);
            assert_eq!(hints.after_loop(3, &(0..10)), 0);
            tmk.finish();
        });
        assert_eq!(out.stats.total_messages(), 0);
    }
}
