//! # spf — the Forge SPF compiler model
//!
//! APR's Forge SPF is a parallelizing Fortran compiler for shared-memory
//! machines: it takes a Fortran 77 program annotated with loop
//! parallelization directives and emits code in which each parallel DO
//! loop is encapsulated in a subroutine and dispatched to a fork-join
//! run-time system. This crate reimplements that run-time system on top of
//! the [`treadmarks`] DSM and fixes the *code shape* the compiler
//! produces, so that the applications' "SPF versions" in the `apps` crate
//! are mechanical transliterations of compiler output:
//!
//! * a single **master** executes all sequential code; **workers** wait in
//!   a dispatch loop for parallel work;
//! * every parallel loop is bracketed by synchronization (the fork
//!   departure and the join arrival) whether it needs it or not;
//! * every scalar or array referenced inside a parallel loop is allocated
//!   in **shared memory**, padded to page boundaries — including scratch
//!   arrays a hand coder would keep private;
//! * loop iterations are distributed with a simple **block** or **cyclic**
//!   schedule;
//! * scalar reductions allocate the reduction variable in shared memory:
//!   each processor accumulates into a private copy, then acquires a lock
//!   and folds its copy into the shared variable.
//!
//! Two fork-join transports are provided, selected by
//! [`treadmarks::TmkConfig::improved_forkjoin`]:
//!
//! * **improved interface** (paper §2.3): the barrier departure carries
//!   the loop-control variables — `2 (n - 1)` messages per loop;
//! * **original interface**: the master writes the control variables into
//!   two shared pages and releases the workers through a full barrier;
//!   workers fault the control pages in — `8 (n - 1)` messages per loop.
//!
//! When a loop has a section descriptor (see the [`cri`] crate; derived
//! from the loop's [`footprint`] by [`Spf::describe`]), it is evaluated
//! around every execution of the body: the run-time pre-validates all
//! pages the body will fault in one aggregated exchange, and registers
//! producer→consumer pushes that ride the next rendezvous. This is the
//! compiler–DSM interface the paper's conclusion calls for. The same
//! bracketing carries the protocol axis: under the home-based protocol
//! (HLRC, [`treadmarks::hlrc`]) a hinted body re-homes its
//! single-writer pages at the declared producer and chooses, per
//! `(consumer, page)`, between a direct push and the home flush that is
//! already travelling — so hinted HLRC runs avoid both the consumer's
//! fetch round trip and most of the eager update traffic.
//!
//! ## Example
//!
//! ```
//! use sp2sim::{Cluster, ClusterConfig};
//! use treadmarks::{Tmk, TmkConfig};
//! use spf::{LoopCtl, Schedule, Spf};
//!
//! let out = Cluster::run(ClusterConfig::sp2(4), |node| {
//!     let tmk = Tmk::new(node, TmkConfig::default());
//!     let spf = Spf::new(&tmk);
//!     let a = tmk.malloc_f64(1000);
//!     // "Compiled" loop body: a(i) = i, distributed in blocks.
//!     let body = spf.register({
//!         let tmk = &tmk;
//!         move |ctl: &LoopCtl| {
//!             let r = ctl.my_block(tmk.proc_id(), tmk.nprocs());
//!             if !r.is_empty() {
//!                 let mut w = tmk.write(a, r.clone());
//!                 for i in r {
//!                     w[i] = i as f64;
//!                 }
//!             }
//!         }
//!     });
//!     let sum = spf.run(|m| {
//!         m.par_loop(body, 0..1000, Schedule::Block, &[]);
//!         // Sequential code on the master.
//!         let r = m.tmk().read(a, 0..1000);
//!         r.slice().iter().sum::<f64>()
//!     });
//!     tmk.finish();
//!     sum
//! });
//! assert_eq!(out.results[0], Some((0..1000).sum::<usize>() as f64));
//! ```

#![forbid(unsafe_code)]

pub mod footprint;

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use cri::{Access, Consumer, HintEngine};
use treadmarks::{SharedArray, Tmk};

pub use footprint::{Cols, Mode, Next, Touch};
pub use sp2sim::block_range;

/// Loop iteration scheduling, as selected by the SPF directives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Schedule {
    /// Contiguous blocks of iterations per processor.
    Block,
    /// Iteration `i` goes to processor `i mod n`.
    Cyclic,
}

/// The control variables of one dispatched parallel loop: which
/// encapsulated subroutine to run, over which iteration space, with which
/// schedule and arguments. Under the improved interface these words travel
/// inside the fork departure; under the original interface they are read
/// from shared memory.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopCtl<'a> {
    /// Registered loop (subroutine) id.
    pub id: usize,
    /// Global iteration space.
    pub range: Range<usize>,
    /// Iteration schedule.
    pub sched: Schedule,
    /// Extra arguments to the loop subroutine (the caller's slice on the
    /// master, the dispatch's words on a worker).
    pub args: &'a [u64],
}

impl LoopCtl<'_> {
    /// This processor's contiguous block of the iteration space
    /// (empty for processors beyond the remainder).
    pub fn my_block(&self, me: usize, n: usize) -> Range<usize> {
        block_range(me, n, self.range.clone())
    }

    /// Iterator over this processor's iterations under the schedule.
    ///
    /// Cyclic assignment is by iteration *value* (`i mod n == me`), not by
    /// position within the range: when the same loop is dispatched with a
    /// shrinking lower bound (MGS's `DO J = I+1, N`), each iteration stays
    /// on the same processor across dispatches, preserving locality — the
    /// behaviour of the original compiler's run-time.
    pub fn my_iters(&self, me: usize, n: usize) -> std::iter::StepBy<Range<usize>> {
        match self.sched {
            Schedule::Block => self.my_block(me, n).step_by(1),
            Schedule::Cyclic => {
                // The first iteration at or after the lower bound that is
                // congruent to `me`, then every `n`-th.
                let first = self.range.start + (me + n - self.range.start % n) % n;
                (first..self.range.end).step_by(n)
            }
        }
    }
}

/// Append the loop-control words (`4 + args`) to `v`.
fn encode_ctl(ctl: &LoopCtl, v: &mut Vec<u64>) {
    v.push(ctl.id as u64);
    v.push(ctl.range.start as u64);
    v.push(ctl.range.end as u64);
    v.push(match ctl.sched {
        Schedule::Block => 0,
        Schedule::Cyclic => 1,
    });
    v.extend_from_slice(ctl.args);
}

/// Dispatch flag: the master declared an epoch-invalidating event (an
/// indirection map was rebuilt), so every node must drop its cached
/// inspector schedules before this dispatch's body runs.
const DISPATCH_INVALIDATE: u64 = 1;

/// Frame a dispatch for the improved interface: a flags word (schedule
/// invalidation), then the master's fork-time home-placement decision
/// (HLRC; empty otherwise), then the loop-control words — so every
/// worker installs the same overrides and drops the same caches before
/// its body runs.
fn encode_dispatch(flags: u64, homes: &[(usize, usize)], ctl: &LoopCtl) -> Vec<u64> {
    let mut v = Vec::with_capacity(2 + homes.len() * 2 + 4 + ctl.args.len());
    v.push(flags);
    v.push(homes.len() as u64);
    for &(page, home) in homes {
        v.push(page as u64);
        v.push(home as u64);
    }
    encode_ctl(ctl, &mut v);
    v
}

/// Split a dispatch back into flags, home overrides and loop-control
/// words.
fn decode_dispatch(words: &[u64]) -> (u64, Vec<(usize, usize)>, &[u64]) {
    let flags = words[0];
    let n = words[1] as usize;
    let homes = (0..n)
        .map(|k| (words[2 + 2 * k] as usize, words[3 + 2 * k] as usize))
        .collect();
    (flags, homes, &words[2 + 2 * n..])
}

fn decode_ctl(words: &[u64]) -> LoopCtl<'_> {
    LoopCtl {
        id: words[0] as usize,
        range: words[1] as usize..words[2] as usize,
        sched: if words[3] == 0 {
            Schedule::Block
        } else {
            Schedule::Cyclic
        },
        args: &words[4..],
    }
}

type LoopBody<'t> = Box<dyn Fn(&LoopCtl) + 't>;

/// What the master's sequential code touches right before a dispatch of
/// a loop, as a function of the dispatch's iteration range.
type Sequential<'t> = Rc<dyn Fn(&Range<usize>) -> Vec<Touch> + 't>;

/// The registered [`Sequential`] footprints, by the loop they precede.
type SequentialFns<'t> = Rc<RefCell<Vec<Option<Sequential<'t>>>>>;

/// The SPF run-time system bound to one node's DSM instance.
pub struct Spf<'t, 'n> {
    tmk: &'t Tmk<'n>,
    loops: RefCell<Vec<LoopBody<'t>>>,
    hints: HintEngine<'t, 'n>,
    /// The master's sequential footprints ([`Spf::describe_sequential`]),
    /// which the descriptors [`Spf::describe`] derives read too.
    sequential: SequentialFns<'t>,
    /// Master-side: an epoch-invalidating event is pending; the next
    /// dispatch carries [`DISPATCH_INVALIDATE`] so every node drops its
    /// inspector schedules at the same loop boundary.
    pending_invalidate: std::cell::Cell<bool>,
    // Original-interface control locations: the loop-index word and the
    // argument words live on separate shared pages, as the paper
    // describes — two faults per worker per loop.
    ctl_idx: SharedArray,
    ctl_args: SharedArray,
}

impl<'t, 'n> Spf<'t, 'n> {
    /// Build the run-time. All nodes must construct it identically
    /// (registration order defines subroutine ids).
    pub fn new(tmk: &'t Tmk<'n>) -> Spf<'t, 'n> {
        let ctl_idx = tmk.malloc_f64(4);
        let ctl_args = tmk.malloc_f64(64);
        Spf {
            tmk,
            loops: RefCell::new(Vec::new()),
            hints: HintEngine::new(tmk),
            sequential: Rc::default(),
            pending_invalidate: std::cell::Cell::new(false),
            ctl_idx,
            ctl_args,
        }
    }

    /// The DSM instance.
    pub fn tmk(&self) -> &'t Tmk<'n> {
        self.tmk
    }

    /// The CRI hint engine. Static descriptors are attached through
    /// [`Spf::describe`]; an inspector's through
    /// [`HintEngine::register_dynamic`] (its evaluations are memoized
    /// until [`Spf::invalidate_schedules`]).
    pub fn hints(&self) -> &HintEngine<'t, 'n> {
        &self.hints
    }

    /// Attach loop `id`'s section descriptor, derived from `footprint` —
    /// the function of `(iters, q, np)` its body opens its views from,
    /// `None` when node `q` has no share. Every touch is declared in its
    /// mode — a write as write-all ([`Access::write_all`]), an update as
    /// a plain write, whose view fetches the current content first — in
    /// footprint order; each written one goes to the loops
    /// `next(iters, touch)` names, and the columns a [`Next::Node`] reads
    /// follow it as a plain write of their own, when the touch has any.
    ///
    /// The master's sequential code between this loop and a next one is
    /// a consumer too, when it is described ([`Spf::describe_sequential`]):
    /// the columns it reads go to node 0 as a [`Next::Node`]'s do, and
    /// the columns it rewrites whole do not go to the next loop at all —
    /// the master republishes them itself before that loop runs.
    pub fn describe<T: IntoIterator<Item = Touch>>(
        &self,
        id: usize,
        footprint: impl Fn(&Range<usize>, usize, usize) -> Option<T> + 't,
        next: impl Fn(&Range<usize>, &Touch) -> Vec<Next> + 't,
    ) {
        let sequential = Rc::clone(&self.sequential);
        self.hints.set(id, move |iters, q, np| {
            let mut acc = Vec::new();
            let declare = |t: &Touch, section| match t.mode {
                Mode::Read => Access::read(t.at.arr, section),
                Mode::Write => Access::write_all(t.at.arr, section),
                Mode::Update => Access::write(t.at.arr, section),
            };
            // `t` within the columns `cols`, when it touches a word there.
            let within = |t: &Touch, cols: &Range<usize>| {
                let cols = cols.start.max(t.cols.start)..cols.end.min(t.cols.end);
                let t = Touch { cols, ..t.clone() };
                (!t.rows.is_empty() && t.columns().next().is_some()).then_some(t)
            };
            for t in footprint(iters, q, np).into_iter().flatten() {
                let write = acc.len();
                acc.push(declare(&t, t.section()));
                if t.mode == Mode::Read {
                    continue;
                }
                for n in next(iters, &t) {
                    let (id, iters) = match n {
                        Next::Node(node, cols) => {
                            let to_node = |p: Touch| {
                                Access::write(t.at.arr, p.section()).consumed_by_node(node)
                            };
                            acc.extend(within(&t, &cols).map(to_node));
                            continue;
                        }
                        Next::Loop(id, iters) => (id, iters),
                    };
                    let between = sequential.borrow().get(id).cloned().flatten();
                    let between = between.map_or_else(Vec::new, |f| f(&iters));
                    let mut rewritten = Vec::new();
                    for s in between.iter().filter(|s| s.at == t.at) {
                        let Some(part) = within(&t, &s.cols) else {
                            continue;
                        };
                        if s.mode != Mode::Read
                            && s.rows.start <= t.rows.start
                            && t.rows.end <= s.rows.end
                        {
                            rewritten.push(part.cols.clone());
                        }
                        if s.mode != Mode::Write {
                            acc.push(declare(&t, part.section()).consumed_by_node(0));
                        }
                    }
                    if rewritten.is_empty() {
                        acc[write].consumers.push(Consumer::Loop { id, iters });
                        continue;
                    }
                    for cols in minus(t.cols.clone(), &mut rewritten) {
                        let to_loop =
                            |p: Touch| declare(&t, p.section()).consumed_by_loop(id, iters.clone());
                        acc.extend(within(&t, &cols).map(to_loop));
                    }
                }
            }
            acc
        });
    }

    /// Describe the master's sequential code that runs right before each
    /// dispatch of loop `id`: `footprint(iters)` is what it touches
    /// before `id` runs over `iters` (MGS's normalization of the pivot
    /// before each orthogonalization). It is the compiler's descriptor
    /// for straight-line code, registered once, like a loop's: the
    /// master republishes what it rewrites to the loop's readers with
    /// the dispatch ([`HintEngine::republish`]), and a loop whose writes
    /// it reads or rewrites sends them to the master alone
    /// ([`Spf::describe`]). Register it before the first dispatch.
    pub fn describe_sequential(
        &self,
        id: usize,
        footprint: impl Fn(&Range<usize>) -> Vec<Touch> + 't,
    ) {
        let mut sequential = self.sequential.borrow_mut();
        if sequential.len() <= id {
            sequential.resize_with(id + 1, || None);
        }
        sequential[id] = Some(Rc::new(footprint));
    }

    /// Register the subroutine a parallel loop was encapsulated into.
    /// Must be called in the same order on every node.
    pub fn register(&self, body: impl Fn(&LoopCtl) + 't) -> usize {
        let mut loops = self.loops.borrow_mut();
        loops.push(Box::new(body));
        loops.len() - 1
    }

    /// Master-side (sequential code): declare an epoch-invalidating
    /// event — an indirection map changed, so every cached inspector
    /// schedule is stale. The invalidation ships inside the next
    /// dispatch (improved interface), so master and workers drop their
    /// caches at the same loop boundary; under the original interface
    /// the dispatch cannot carry it and the call is a local no-op
    /// recorded for the next improved dispatch.
    pub fn invalidate_schedules(&self) {
        self.pending_invalidate.set(true);
    }

    /// Enter the fork-join execution model: the master (processor 0) runs
    /// `master_fn` and returns `Some` of its result; workers dispatch
    /// loops until shutdown and return `None`.
    pub fn run<R>(&self, master_fn: impl FnOnce(&Master<'_, 't, 'n>) -> R) -> Option<R> {
        if self.tmk.proc_id() == 0 {
            let m = Master { spf: self };
            let r = master_fn(&m);
            self.shutdown();
            Some(r)
        } else {
            self.worker_loop();
            None
        }
    }

    fn improved(&self) -> bool {
        self.tmk.config().improved_forkjoin
    }

    fn execute(&self, ctl: &LoopCtl) {
        // One Compute span per dispatched body; hint work (validate,
        // inspection) nests inside and is debited by the analyzer, so
        // the span's self-time is pure loop arithmetic.
        let _s = self
            .tmk
            .node()
            .trace_span(sp2sim::SpanKind::Compute, ctl.id as u32);
        let hinted = self.hints.has(ctl.id);
        if hinted {
            self.hints.before_loop(ctl.id, &ctl.range);
        }
        {
            let loops = self.loops.borrow();
            (loops[ctl.id])(ctl);
        }
        if hinted {
            self.hints.after_loop(ctl.id, &ctl.range);
        }
    }

    fn worker_loop(&self) {
        if self.improved() {
            while let Some(words) = self.tmk.worker_wait() {
                let (flags, homes, ctl_words) = decode_dispatch(&words);
                if flags & DISPATCH_INVALIDATE != 0 {
                    self.hints.invalidate_schedules();
                }
                self.tmk.install_page_homes(&homes);
                self.execute(&decode_ctl(ctl_words));
            }
        } else {
            loop {
                // Original interface: wake at a barrier, then fault the
                // two control pages in (2 page faults, 4 messages).
                self.tmk.barrier(0);
                let idx = self.tmk.read_one(self.ctl_idx, 0);
                if idx < 0.0 {
                    break;
                }
                let words = {
                    // The view must be gone before the body's barriers.
                    let args = self.tmk.read(self.ctl_args, 0..64);
                    let nargs = args.slice()[0] as usize;
                    let mut words = Vec::with_capacity(4 + nargs);
                    words.push(idx as u64);
                    words.extend(args.slice()[1..4 + nargs].iter().map(|&x| x as u64));
                    words
                };
                self.execute(&decode_ctl(&words));
                self.tmk.barrier(1);
            }
        }
    }

    fn shutdown(&self) {
        if self.improved() {
            self.tmk.shutdown_workers();
        } else {
            self.tmk.write_one(self.ctl_idx, 0, -1.0);
            self.tmk.barrier(0);
        }
    }
}

/// Master-side handle: dispatches parallel loops and runs sequential code.
pub struct Master<'s, 't, 'n> {
    spf: &'s Spf<'t, 'n>,
}

impl<'s, 't, 'n> Master<'s, 't, 'n> {
    /// The DSM instance (for sequential code on the master).
    pub fn tmk(&self) -> &'t Tmk<'n> {
        self.spf.tmk
    }

    /// The run-time.
    pub fn spf(&self) -> &'s Spf<'t, 'n> {
        self.spf
    }

    /// Declare sections the master's **sequential** code just wrote,
    /// with their consumers — the compiler's descriptor for
    /// straight-line code between two dispatches (IGrid's set-up of its
    /// grids and maps). The resulting pushes ride the next fork. Code
    /// that runs before every dispatch of one loop is described once
    /// instead ([`Spf::describe_sequential`]). Returns the number of
    /// `(target, page)` push registrations.
    pub fn produce(&self, accesses: &[Access]) -> u64 {
        self.spf.hints.declare_produce(accesses)
    }

    /// Dispatch one parallel loop, participate in its execution, then
    /// wait for all workers (fork ... join). This is what SPF emits for
    /// every parallelized DO loop.
    ///
    /// Under HLRC with a hinted loop, this is also where home placement
    /// is decided: at fork time every worker is parked in its dispatch
    /// wait, so the master's interval view is cluster-complete — it
    /// filters the descriptor's producer-home candidates through the
    /// runtime's guard once, installs them, and ships the accepted list
    /// inside the dispatch for the workers to install verbatim. (The
    /// original interface ships control through shared pages and skips
    /// the decision — every node skips, so the maps still agree.)
    pub fn par_loop(&self, id: usize, range: Range<usize>, sched: Schedule, args: &[u64]) {
        let ctl = LoopCtl {
            id,
            range,
            sched,
            args,
        };
        let between = self.spf.sequential.borrow().get(id).cloned().flatten();
        if let Some(f) = between {
            // The sequential code that just ran rewrote these: they ride
            // the dispatch to the loop's readers.
            let rewritten = f(&ctl.range).into_iter().filter(|s| s.mode != Mode::Read);
            let consumed = |s: Touch| {
                Access::write(s.at.arr, s.section()).consumed_by_loop(id, ctl.range.clone())
            };
            self.spf
                .hints
                .republish(&rewritten.map(consumed).collect::<Vec<_>>());
        }
        if self.spf.improved() {
            let mut flags = 0;
            if self.spf.pending_invalidate.take() {
                // Drop the master's own schedules before planning homes,
                // and tell the workers to do the same at this boundary.
                self.spf.hints.invalidate_schedules();
                flags |= DISPATCH_INVALIDATE;
            }
            let planned = || self.spf.hints.planned_homes(id, &ctl.range);
            let homes = self.spf.tmk.adopt_page_homes(planned);
            self.spf.tmk.fork(&encode_dispatch(flags, &homes, &ctl));
            self.spf.execute(&ctl);
            self.spf.tmk.join();
        } else {
            // Original interface: write the control variables to the two
            // shared control pages, then a full barrier releases the
            // workers; a second barrier joins them.
            let mut words = Vec::with_capacity(4 + args.len());
            encode_ctl(&ctl, &mut words);
            self.spf.tmk.write_one(self.spf.ctl_idx, 0, words[0] as f64);
            {
                let mut w = self.spf.tmk.write(self.spf.ctl_args, 0..64);
                w[0] = (words.len() - 4) as f64;
                for (k, &x) in words[1..].iter().enumerate() {
                    w[1 + k] = x as f64;
                }
            }
            self.spf.tmk.barrier(0);
            self.spf.execute(&ctl);
            self.spf.tmk.barrier(1);
        }
    }
}

/// The parts of `cols` outside every range of `cuts` (sorted here, each
/// within `cols`), ascending; some may be empty.
fn minus(cols: Range<usize>, cuts: &mut [Range<usize>]) -> Vec<Range<usize>> {
    cuts.sort_unstable_by_key(|c| c.start);
    let (mut out, mut start) = (Vec::new(), cols.start);
    for cut in cuts.iter() {
        out.push(start..cut.start);
        start = start.max(cut.end);
    }
    out.push(start..cols.end);
    out
}

/// An SPF scalar reduction: the reduction variable lives in shared
/// memory; each processor folds its private partial under a lock. This is
/// the code SPF emits for reduction directives.
#[derive(Clone, Copy)]
pub struct SpfReduction {
    var: SharedArray,
    lock: u32,
}

impl SpfReduction {
    /// Allocate the shared reduction variable (call on every node, same
    /// order; `lock` must be unique per reduction variable).
    pub fn new(tmk: &Tmk, lock: u32) -> SpfReduction {
        SpfReduction {
            var: tmk.malloc_f64(1),
            lock,
        }
    }

    /// Master: reset before the parallel loop.
    pub fn reset(&self, tmk: &Tmk, init: f64) {
        tmk.write_one(self.var, 0, init);
    }

    /// Fold a private partial into the shared variable (at the end of the
    /// parallel loop, on every participant).
    pub fn fold(&self, tmk: &Tmk, partial: f64, op: impl Fn(f64, f64) -> f64) {
        tmk.acquire(self.lock);
        let cur = tmk.read_one(self.var, 0);
        tmk.write_one(self.var, 0, op(cur, partial));
        tmk.release(self.lock);
    }

    /// Read the reduced value (master, after the join).
    pub fn value(&self, tmk: &Tmk) -> f64 {
        tmk.read_one(self.var, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{Cluster, ClusterConfig, MsgKind};
    use treadmarks::TmkConfig;

    #[test]
    fn cyclic_iters_partition_exactly() {
        let ctl = LoopCtl {
            id: 0,
            range: 3..40,
            sched: Schedule::Cyclic,
            args: &[],
        };
        let n = 5;
        let mut seen = [0u32; 40];
        for me in 0..n {
            for i in ctl.my_iters(me, n) {
                assert!((3..40).contains(&i));
                assert_eq!(i % n, me, "assignment is by iteration value");
                seen[i] += 1;
            }
        }
        assert!(seen[3..].iter().all(|&c| c == 1));
    }

    #[test]
    fn ctl_roundtrip() {
        let ctl = LoopCtl {
            id: 3,
            range: 5..77,
            sched: Schedule::Cyclic,
            args: &[9, 1],
        };
        let mut words = Vec::new();
        encode_ctl(&ctl, &mut words);
        assert_eq!(decode_ctl(&words), ctl);
    }

    fn run_sum(cfg: TmkConfig) -> (f64, sp2sim::StatsSnapshot) {
        let out = Cluster::run(ClusterConfig::sp2(4), move |node| {
            let tmk = Tmk::new(node, cfg);
            let spf = Spf::new(&tmk);
            let a = tmk.malloc_f64(256);
            let body = spf.register({
                let tmk = &tmk;
                move |ctl: &LoopCtl| {
                    let r = ctl.my_block(tmk.proc_id(), tmk.nprocs());
                    if !r.is_empty() {
                        let mut w = tmk.write(a, r.clone());
                        for i in r {
                            w[i] = (i + ctl.args[0] as usize) as f64;
                        }
                    }
                }
            });
            let r = spf.run(|m| {
                m.par_loop(body, 0..256, Schedule::Block, &[10]);
                let r = m.tmk().read(a, 0..256);
                r.slice().iter().sum::<f64>()
            });
            tmk.finish();
            r
        });
        (out.results[0].unwrap(), out.stats)
    }

    #[test]
    fn improved_and_original_interfaces_agree() {
        let expect: f64 = (0..256).map(|i| (i + 10) as f64).sum();
        let (sum_new, stats_new) = run_sum(TmkConfig::default());
        let (sum_old, stats_old) = run_sum(TmkConfig::legacy_forkjoin());
        assert_eq!(sum_new, expect);
        assert_eq!(sum_old, expect);
        // The original interface needs strictly more messages (8(n-1) vs
        // 2(n-1) per loop, before data traffic).
        assert!(stats_old.total_messages() > stats_new.total_messages());
        // Control-page faults show up as diff traffic in the original
        // interface only.
        assert!(stats_old.messages(MsgKind::DiffReq) > stats_new.messages(MsgKind::DiffReq));
    }

    /// A two-loop producer/consumer pipeline, registered plain vs with
    /// access descriptors: identical results, strictly fewer messages
    /// (validates collapse the faults; pushes replace the demand
    /// fetches).
    #[test]
    fn hinted_registration_agrees_and_saves_messages() {
        use cri::{Access, Section};

        let run_with = |hinted: bool| {
            Cluster::run(ClusterConfig::sp2(4), move |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let spf = Spf::new(&tmk);
                let len = 512 * 8; // eight pages
                let a = tmk.malloc_f64(len);
                let body_prod = {
                    let tmk = &tmk;
                    move |ctl: &LoopCtl| {
                        let r = ctl.my_block(tmk.proc_id(), tmk.nprocs());
                        if !r.is_empty() {
                            let mut w = tmk.write(a, r.clone());
                            for i in r {
                                w[i] = i as f64;
                            }
                        }
                    }
                };
                let body_sum = {
                    let tmk = &tmk;
                    move |ctl: &LoopCtl| {
                        let _ = ctl;
                        let r = tmk.read(a, 0..len);
                        assert!((0..len).all(|i| r[i] == i as f64));
                    }
                };
                let (prod, sum) = (spf.register(body_prod), spf.register(body_sum));
                if hinted {
                    spf.hints().set(prod, move |iters, me, np| {
                        vec![
                            Access::write(a, Section::range(block_range(me, np, iters.clone())))
                                .consumed_by_loop(1, 0..len),
                        ]
                    });
                    spf.hints().set(sum, move |_iters, _me, _np| {
                        vec![Access::read(a, Section::range(0..len))]
                    });
                }
                let r = spf.run(|m| {
                    m.par_loop(prod, 0..len, Schedule::Block, &[]);
                    m.par_loop(sum, 0..len, Schedule::Block, &[]);
                    1
                });
                tmk.finish();
                r
            })
        };
        let plain = run_with(false);
        let hinted = run_with(true);
        assert_eq!(plain.results[0], Some(1));
        assert_eq!(hinted.results[0], Some(1));
        assert!(
            hinted.stats.total_messages() < plain.stats.total_messages(),
            "hinted {} vs plain {}",
            hinted.stats.total_messages(),
            plain.stats.total_messages()
        );
        // The demand diff traffic is gone entirely: consumers never ask.
        assert_eq!(hinted.stats.messages(MsgKind::DiffReq), 0);
        assert!(plain.stats.messages(MsgKind::DiffReq) > 0);
    }

    /// The protocol axis is orthogonal to the fork-join transport: the
    /// same hinted program produces the same result under LRC and HLRC,
    /// and the hinted HLRC run re-homes the producer blocks so its eager
    /// flushes stay local.
    #[test]
    fn hinted_pipeline_agrees_across_protocols() {
        use cri::{Access, Section};
        use treadmarks::ProtocolMode;

        let run_with = |protocol: ProtocolMode| {
            Cluster::run(ClusterConfig::sp2(4), move |node| {
                let tmk = Tmk::new(node, TmkConfig::default().with_protocol(protocol));
                let spf = Spf::new(&tmk);
                let len = 512 * 8;
                let a = tmk.malloc_f64(len);
                let body_prod = {
                    let tmk = &tmk;
                    move |ctl: &LoopCtl| {
                        let r = ctl.my_block(tmk.proc_id(), tmk.nprocs());
                        if !r.is_empty() {
                            let mut w = tmk.write(a, r.clone());
                            for i in r {
                                w[i] = (7 * i) as f64;
                            }
                        }
                    }
                };
                let body_sum = {
                    let tmk = &tmk;
                    move |ctl: &LoopCtl| {
                        let _ = ctl;
                        let r = tmk.read(a, 0..len);
                        assert!((0..len).all(|i| r[i] == (7 * i) as f64));
                    }
                };
                let (prod, sum) = (spf.register(body_prod), spf.register(body_sum));
                spf.hints().set(prod, move |iters, me, np| {
                    vec![
                        Access::write(a, Section::range(block_range(me, np, iters.clone())))
                            .consumed_by_loop(1, 0..len),
                    ]
                });
                spf.hints().set(sum, move |_iters, _me, _np| {
                    vec![Access::read(a, Section::range(0..len))]
                });
                let r = spf.run(|m| {
                    m.par_loop(prod, 0..len, Schedule::Block, &[]);
                    m.par_loop(sum, 0..len, Schedule::Block, &[]);
                    m.tmk().read(a, 0..len).slice().to_vec()
                });
                tmk.finish();
                r
            })
        };
        let lrc = run_with(ProtocolMode::Lrc);
        let hlrc = run_with(ProtocolMode::Hlrc);
        assert_eq!(lrc.results[0], hlrc.results[0], "protocols agree bitwise");
        // Producers were re-homed at themselves: no eager flush traffic
        // for the interior blocks (boundary pages stay multi-writer).
        assert!(
            hlrc.stats.messages(MsgKind::HomeFlush) <= hlrc.stats.messages(MsgKind::Push) + 4,
            "home flushes are confined to shared boundary pages"
        );
        assert_eq!(hlrc.stats.messages(MsgKind::DiffReq), 0);
    }

    /// The master's sequential code between a producer loop and its
    /// consumer loop reads column 1, or reads and rewrites it. Node 1
    /// writes the column; every node's consumer body reads it. When the
    /// sequential code only reads it, node 1 pushes it to every reader;
    /// when it rewrites it, to the master alone, whose rewrite then
    /// reaches every reader — under LRC as the column's words, which
    /// nodes 2 and 3 install over the diff of node 1's they never got.
    /// `(pages pushed by node 1, by node 0)`, and no demand fetch.
    fn sequential_rewrite(mode: Mode) -> ((u64, u64), u64) {
        let out = Cluster::run(ClusterConfig::sp2(4), move |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let spf = Spf::new(&tmk);
            let at = Cols::new(tmk.malloc_f64(4 * 512), 512);
            let want = |col: &[f64], scale: f64| {
                col.iter().enumerate().all(|(i, &x)| x == scale * i as f64)
            };
            let produce = spf.register({
                let tmk = &tmk;
                move |_: &LoopCtl| {
                    if tmk.proc_id() == 1 {
                        let mut w = at.touch(1..2, Mode::Write).write(tmk);
                        w.slice_mut()
                            .iter_mut()
                            .enumerate()
                            .for_each(|(i, x)| *x = i as f64);
                    }
                }
            });
            let scale = if mode == Mode::Read { 1.0 } else { 2.0 };
            let consume = spf.register({
                let tmk = &tmk;
                move |_: &LoopCtl| {
                    assert!(want(at.touch(1..2, Mode::Read).read(tmk).slice(), scale))
                }
            });
            let writes =
                move |_: &Range<usize>, q, _| (q == 1).then(|| [at.touch(1..2, Mode::Write)]);
            spf.describe(produce, writes, move |_, _| vec![Next::Loop(consume, 0..1)]);
            let reads = move |_: &Range<usize>, _, _| Some([at.touch(1..2, Mode::Read)]);
            spf.describe(consume, reads, |_, _| vec![]);
            spf.describe_sequential(consume, move |_| vec![at.touch(1..2, mode)]);
            spf.run(|m| {
                m.par_loop(produce, 0..1, Schedule::Block, &[]);
                match mode {
                    Mode::Read => assert!(want(at.touch(1..2, mode).read(m.tmk()).slice(), 1.0)),
                    _ => at
                        .touch(1..2, mode)
                        .write(m.tmk())
                        .slice_mut()
                        .iter_mut()
                        .for_each(|x| *x *= 2.0),
                }
                m.par_loop(consume, 0..1, Schedule::Block, &[]);
            });
            tmk.finish().pages_pushed
        });
        let pushed = (out.results[1], out.results[0]);
        (pushed, out.stats.messages(MsgKind::DiffReq))
    }

    #[test]
    fn a_sequential_rewrite_supersedes_the_producers_push_to_the_loop() {
        assert_eq!(
            sequential_rewrite(Mode::Read),
            ((3, 0), 0),
            "node 1 to 0, 2 and 3"
        );
        assert_eq!(
            sequential_rewrite(Mode::Update),
            ((1, 3), 0),
            "1 to 0, then 0 to all"
        );
    }

    #[test]
    fn reduction_under_lock() {
        let out = Cluster::run(ClusterConfig::sp2(4), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let spf = Spf::new(&tmk);
            let red = SpfReduction::new(&tmk, 1);
            let body = spf.register({
                let tmk = &tmk;
                move |ctl: &LoopCtl| {
                    let mut partial = 0.0;
                    for i in ctl.my_iters(tmk.proc_id(), tmk.nprocs()) {
                        partial += i as f64;
                    }
                    red.fold(tmk, partial, |a, b| a + b);
                }
            });
            let r = spf.run(|m| {
                red.reset(m.tmk(), 0.0);
                m.par_loop(body, 0..100, Schedule::Cyclic, &[]);
                red.value(m.tmk())
            });
            tmk.finish();
            r
        });
        assert_eq!(out.results[0].unwrap(), 4950.0);
    }

    #[test]
    fn empty_iteration_space() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let spf = Spf::new(&tmk);
            let body = spf.register(move |_ctl: &LoopCtl| {});
            let r = spf.run(|m| {
                m.par_loop(body, 0..0, Schedule::Block, &[]);
                1
            });
            tmk.finish();
            r
        });
        assert_eq!(out.results[0], Some(1));
    }
}
