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
//! * in the SPF versions, every parallel loop is bracketed by
//!   synchronization (the fork departure and the join arrival) whether
//!   it needs it or not (with descriptors, adjacent loops that no other
//!   node depends on share one: see "Dispatch fusion" below);
//! * every scalar or array referenced inside a parallel loop is allocated
//!   in **shared memory**, padded to page boundaries — in the SPF
//!   versions including scratch arrays a hand coder would keep private
//!   (with descriptors, pages only their writer touches leave the
//!   coherence protocol: see "Derived privatization" below);
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
//! ## The loop table
//!
//! Each loop is described once, before [`Spf::run`] (a later description
//! panics): by its footprint with its `next` ([`Spf::describe`]), plus
//! the master's prelude before each of its dispatches
//! ([`Spf::describe_sequential`]), or by an inspector
//! ([`Spf::describe_inspector`]). A loop described by a footprint alone
//! is *transparent*; an inspector's sections exist only once it ran, and
//! a prelude moves with every dispatch, so those two are *opaque*, to
//! both derivations below. For a transparent loop over a range, every
//! node's footprint is walked once, the first time a derivation asks,
//! and kept as its facts: each node's touches, the words each
//! [`Next::Node`] reads, and the loops its writes go to next. Dispatch
//! fusion and derived privatization read them, and nothing else.
//!
//! ## Dispatch fusion
//!
//! [`Master::par_loops`] takes a run of adjacent loops — no sequential
//! code between them — and ships each maximal run of transparent loops
//! that no other node depends on in one fork: for every pair of nodes
//! `q ≠ q'`, no earlier loop's writes on `q'` meet a later loop's reads
//! or writes on `q`, and no earlier loop's reads on `q'` meet a later
//! loop's writes on `q`, word for word. The last term counts because a
//! write-all body overwrites its pages in place: a request served while
//! it runs would be served its newer words. Every node runs the bodies
//! in order, each inside its own validate and push registration; the
//! pushes and home placements of all of them go with the one join. No
//! loop is fused under the original interface. With debug assertions,
//! each body of a fused dispatch may open views only inside what it
//! declared for its node.
//!
//! ## Derived privatization
//!
//! A page is private to a worker when every counted use falls on it:
//! each transparent loop's, over each range dispatched or named next by
//! a counted one ([`treadmarks::Tmk::privatize`]). The first opaque loop
//! met shares every page for the rest of the run. DESIGN.md has the
//! rule, its exceptions and the owner fetch.
//!
//! ## The master's rendezvous
//!
//! A dispatch returns without its join ([`treadmarks::Tmk::defer_join`]):
//! the master's next action completes it. When that is a dispatch — the
//! one [`Spf::run`]'s shutdown makes included — nothing ran on the
//! master since its bodies, so the join sends their pushes before it
//! waits, beside the workers' own, and the next fork announces them;
//! the pushes addressed to the master are taken once that fork is out,
//! before its own body. Anything else — [`Master::tmk`],
//! [`Master::spf`], [`Master::produce`] — joins first as before, and the
//! pushes ride the next fork. With debug assertions the master's view
//! outside a body while the join is deferred panics: sequential code
//! must reach the DSM through [`Master::tmk`].
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

use std::cell::{Cell, RefCell, RefMut};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use cri::section::merge_ranges;
use cri::{Access, Consumer, HintEngine};
use treadmarks::{SharedArray, Tmk, ViewFence};

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

impl<'a> LoopCtl<'a> {
    /// Loop `id` over `range`, scheduled `sched`, with `args`.
    pub fn new(id: usize, range: Range<usize>, sched: Schedule, args: &'a [u64]) -> LoopCtl<'a> {
        LoopCtl {
            id,
            range,
            sched,
            args,
        }
    }

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

/// Dispatch flag: the dispatch carries a fused run of loops — their
/// count, then each one's argument count and control words.
const DISPATCH_FUSED: u64 = 2;

/// Frame a dispatch for the improved interface: a flags word (schedule
/// invalidation, fusion), then the master's fork-time home-placement
/// decision (HLRC; empty otherwise), then the loop-control words of each
/// loop — so every worker installs the same overrides and drops the same
/// caches before the first body runs. A lone loop carries no fusion
/// framing: its words are flags, homes and its control words.
fn encode_dispatch(flags: u64, homes: &[(usize, usize)], group: &[LoopCtl]) -> Vec<u64> {
    let fused = group.len() > 1;
    // A fused run adds its count and an argument count per loop.
    let framing = if fused { 1 + group.len() } else { 0 };
    let ctls: usize = group.iter().map(|ctl| 4 + ctl.args.len()).sum();
    let mut v = Vec::with_capacity(2 + homes.len() * 2 + framing + ctls);
    v.push(if fused { flags | DISPATCH_FUSED } else { flags });
    v.push(homes.len() as u64);
    for &(page, home) in homes {
        v.push(page as u64);
        v.push(home as u64);
    }
    if let [ctl] = group {
        encode_ctl(ctl, &mut v);
        return v;
    }
    v.push(group.len() as u64);
    for ctl in group {
        v.push(ctl.args.len() as u64);
        encode_ctl(ctl, &mut v);
    }
    v
}

/// Split a dispatch back into flags, home overrides and its loops.
fn decode_dispatch(words: &[u64]) -> (u64, Vec<(usize, usize)>, impl Iterator<Item = LoopCtl<'_>>) {
    let flags = words[0];
    let n = words[1] as usize;
    let homes = (0..n)
        .map(|k| (words[2 + 2 * k] as usize, words[3 + 2 * k] as usize))
        .collect();
    let rest = &words[2 + 2 * n..];
    let fused = flags & DISPATCH_FUSED != 0;
    let (count, mut rest) = match fused {
        true => (rest[0] as usize, &rest[1..]),
        false => (1, rest),
    };
    let loops = (0..count).map(move |_| {
        let (ctl, tail) = match fused {
            true => rest[1..].split_at(4 + rest[0] as usize),
            false => (rest, &rest[rest.len()..]),
        };
        rest = tail;
        decode_ctl(ctl)
    });
    (flags, homes, loops)
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

/// What the master's prelude to a loop touches, as a function of the
/// dispatch's range ([`Spf::describe_sequential`]).
type Prelude<'t> = Box<dyn Fn(&Range<usize>) -> Vec<Touch> + 't>;

/// A loop's footprint with its `next` ([`Spf::describe`]): each touch of
/// node `q`'s share over `iters`, visited with who reads it next.
type Footprint<'t> =
    Box<dyn Fn(&Range<usize>, usize, usize, &mut dyn FnMut(Touch, Vec<Next>)) + 't>;

/// A loop's one description (see "The loop table" in the crate doc).
enum Description<'t> {
    /// Its footprint, and its prelude if any.
    Footprint(Footprint<'t>, Option<Prelude<'t>>),
    /// An inspector ([`Spf::describe_inspector`]).
    Inspector,
}

/// What loop `id`'s prelude touches before it runs over `iters`: nothing
/// when it has none.
fn prelude(described: &[Option<Description>], id: usize, iters: &Range<usize>) -> Vec<Touch> {
    match described.get(id) {
        Some(Some(Description::Footprint(_, Some(prelude)))) => prelude(iters),
        _ => Vec::new(),
    }
}

/// A loop over a range: `(id, start, end)`.
type LoopKey = (usize, usize, usize);

fn loop_key(ctl: &LoopCtl) -> LoopKey {
    (ctl.id, ctl.range.start, ctl.range.end)
}

/// Words a node uses: `(node, mode, words)`, the mode `None` when its
/// sequential code reads them after the loop (a [`Next::Node`]).
type Words = (usize, Option<Mode>, Touch);

/// What one walk of every node's footprint over one range comes to.
#[derive(Default)]
struct Facts {
    /// Every touch, and the words each [`Next::Node`] reads.
    words: Vec<Words>,
    /// The loops, over their ranges, that read its writes next.
    next: Vec<LoopKey>,
    /// Whether privatization counted it.
    counted: bool,
}

/// The loop table (see the crate doc).
#[derive(Default)]
struct LoopTable<'t> {
    /// Every loop's description, by id; the hint descriptors read preludes here.
    described: Rc<RefCell<Vec<Option<Description<'t>>>>>,
    /// [`Spf::run`] began: the descriptions are fixed.
    fixed: Cell<bool>,
    /// Each transparent loop's facts, by the ranges it was used with.
    facts: RefCell<HashMap<LoopKey, Facts>>,
    /// Privatization: each counted page's owner, `None` when shared.
    touched: RefCell<HashMap<usize, Option<usize>>>,
    /// Privatization met an opaque loop: every page stays shared.
    stopped: Cell<bool>,
}

impl<'t> LoopTable<'t> {
    /// Loop `id`'s description, to set before the run.
    fn slot(&self, id: usize) -> RefMut<'_, Option<Description<'t>>> {
        assert!(!self.fixed.get(), "loop {id} described after Spf::run");
        let mut described = self.described.borrow_mut();
        if described.len() <= id {
            described.resize_with(id + 1, || None);
        }
        RefMut::map(described, |described| &mut described[id])
    }

    /// Whether loop `id` is opaque to fusion and privatization (an
    /// inspector, or a footprint with a prelude: see "The loop table"
    /// above); `None` when it is not described.
    fn opaque(&self, id: usize) -> Option<bool> {
        let described = self.described.borrow();
        let description = described.get(id)?.as_ref()?;
        Some(!matches!(description, Description::Footprint(_, None)))
    }

    /// The facts of every key of `keys`, none opaque: each from one walk
    /// of every node's footprint, the first time it is asked for.
    fn facts(&self, keys: &[LoopKey], np: usize) -> RefMut<'_, HashMap<LoopKey, Facts>> {
        let mut facts = self.facts.borrow_mut();
        for &(id, start, end) in keys {
            if facts.contains_key(&(id, start, end)) {
                continue;
            }
            let described = self.described.borrow();
            let Some(Some(Description::Footprint(footprint, _))) = described.get(id) else {
                unreachable!("loop {id} is opaque");
            };
            let mut f = Facts::default();
            for q in 0..np {
                footprint(&(start..end), q, np, &mut |t, nexts| {
                    for n in nexts {
                        match n {
                            Next::Node(node, cols) => {
                                f.words.push((node, None, Touch { cols, ..t.clone() }))
                            }
                            Next::Loop(id, iters) => f.next.push((id, iters.start, iters.end)),
                        }
                    }
                    f.words.push((q, Some(t.mode), t));
                });
            }
            facts.insert((id, start, end), f);
        }
        facts
    }
}

/// Whether a loop whose words are `earlier` may share a dispatch with a
/// later one whose words are `later` (see "Dispatch fusion" in the crate
/// doc).
fn independent(earlier: &[Words], later: &[Words]) -> bool {
    let hazard = |(p, x, s): &Words, (q, y, t): &Words| {
        let written = |m: &Option<Mode>| m.is_some_and(|m| m != Mode::Read);
        // Read-after-write and write-after-write: the earlier loop wrote.
        let after_write = written(x) && y.is_some();
        // Write-after-read: the later loop overwrites what it read.
        let after_read = *x == Some(Mode::Read) && written(y);
        p != q && s.at.arr == t.at.arr && (after_write || after_read) && s.meets(t)
    };
    !earlier.iter().any(|x| later.iter().any(|y| hazard(x, y)))
}

/// The SPF run-time system bound to one node's DSM instance.
pub struct Spf<'t, 'n> {
    tmk: &'t Tmk<'n>,
    loops: RefCell<Vec<LoopBody<'t>>>,
    hints: HintEngine<'t, 'n>,
    /// Every loop's description and what it comes to.
    table: LoopTable<'t>,
    /// Master-side: an epoch-invalidating event is pending; the next
    /// dispatch carries [`DISPATCH_INVALIDATE`] so every node drops its
    /// inspector schedules at the same loop boundary.
    pending_invalidate: Cell<bool>,
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
            table: LoopTable::default(),
            pending_invalidate: Cell::new(false),
            ctl_idx,
            ctl_args,
        }
    }

    /// The DSM instance.
    pub fn tmk(&self) -> &'t Tmk<'n> {
        self.tmk
    }

    /// Describe loop `id` by its footprint, before [`Spf::run`]: its
    /// section descriptor is derived from `footprint` — the function of
    /// `(iters, q, np)` its body opens its views from, `None` when node
    /// `q` has no share. Every touch is declared in its
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
        let (footprint, next) = (Rc::new(footprint), Rc::new(next));
        let (f, n) = (Rc::clone(&footprint), Rc::clone(&next));
        let walk: Footprint<'t> = Box::new(move |iters, q, np, visit| {
            for t in f(iters, q, np).into_iter().flatten() {
                let nexts = (t.mode != Mode::Read).then(|| n(iters, &t));
                visit(t, nexts.unwrap_or_default());
            }
        });
        *self.table.slot(id) = Some(Description::Footprint(walk, None));
        // The descriptor calls the footprint itself, not the table's walk:
        // inlined, its `next` lists are never allocated, while each one
        // handed through the walk is (20 000 allocations more in MGS
        // SPF+CRI at 0.25 × 8). It reads the preludes of the loops it
        // feeds from the table, which holds the walk.
        let table = Rc::downgrade(&self.table.described);
        self.hints.set(id, move |iters, q, np| {
            let mut acc = Vec::with_capacity(8); // a loop's touches, without regrowth
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
                    let table = table.upgrade().expect("the run-time's table");
                    let between = prelude(&table.borrow(), id, &iters);
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
    /// ([`Spf::describe`]). Register this prelude after the loop's
    /// footprint, before [`Spf::run`].
    pub fn describe_sequential(
        &self,
        id: usize,
        footprint: impl Fn(&Range<usize>) -> Vec<Touch> + 't,
    ) {
        match &mut *self.table.slot(id) {
            Some(Description::Footprint(_, prelude)) => *prelude = Some(Box::new(footprint)),
            _ => panic!("loop {id} has a prelude but no footprint"),
        }
    }

    /// Describe loop `id` by an inspector, which walks a run-time map for
    /// the sections node `q` of `np` touches over `iters`, memoized until
    /// [`Spf::invalidate_schedules`] ([`HintEngine::register_dynamic`]).
    pub fn describe_inspector(
        &self,
        id: usize,
        inspect: impl Fn(&Range<usize>, usize, usize) -> Vec<Access> + 't,
    ) {
        *self.table.slot(id) = Some(Description::Inspector);
        self.hints.register_dynamic(id, inspect);
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
        self.table.fixed.set(true);
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

    /// Run one dispatched body — fenced in, when it is one of a fused
    /// dispatch's and debug assertions are on.
    fn execute(&self, ctl: &LoopCtl, fused: bool) {
        // One Compute span per dispatched body; hint work (validate,
        // inspection) nests inside and is debited by the analyzer, so
        // the span's self-time is pure loop arithmetic.
        let _s = self
            .tmk
            .node()
            .trace_span(sp2sim::SpanKind::Compute, ctl.id as u32);
        self.hints.before_loop(ctl.id, &ctl.range);
        let fence = (fused && cfg!(debug_assertions)).then(|| self.fence(ctl));
        self.tmk.fence_views(Some(ctl.id), fence);
        {
            let loops = self.loops.borrow();
            (loops[ctl.id])(ctl);
        }
        self.tmk.fence_views(None, None);
        self.hints.after_loop(ctl.id, &ctl.range);
    }

    /// Count the uncounted words of `group`, about to run, and of what
    /// it names, and install the change (see the crate doc).
    fn privatize<'a>(&self, group: impl Iterator<Item = LoopCtl<'a>>) {
        let (table, tmk) = (&self.table, self.tmk);
        if table.stopped.get() {
            return;
        }
        // Only what is left to count: most dispatches allocate nothing.
        let new = |k: &LoopKey| {
            let counted = table.facts.borrow().get(k).is_some_and(|f| f.counted);
            table.opaque(k.0).is_some() && !counted
        };
        let mut todo: Vec<LoopKey> = group.map(|ctl| loop_key(&ctl)).filter(new).collect();
        let (mut touched, mut changed) = (table.touched.borrow_mut(), Vec::new());
        while let Some(key) = todo.pop() {
            // An undescribed loop declares nothing; an opaque one stops
            // the count.
            let Some(opaque) = table.opaque(key.0) else {
                continue;
            };
            if opaque {
                table.stopped.set(true);
                break;
            }
            let mut facts = table.facts(&[key], tmk.nprocs());
            let facts = facts.get_mut(&key).expect("evaluated");
            if std::mem::replace(&mut facts.counted, true) {
                continue;
            }
            for &(node, _, ref t) in &facts.words {
                for p in t.columns().flat_map(|j| tmk.page_span(t.at.arr, &t.run(j))) {
                    let was = touched.get(&p).copied();
                    let own = (node != 0 && was.is_none_or(|t| t == Some(node))).then_some(node);
                    if was != Some(own) {
                        touched.insert(p, own);
                        changed.push(p);
                    }
                }
            }
            todo.extend_from_slice(&facts.next);
        }
        for (&p, t) in touched.iter_mut().filter(|_| table.stopped.get()) {
            changed.extend(t.take().map(|_| p));
        }
        let changes: Vec<_> = changed.iter().map(|&p| (p, touched[&p])).collect();
        tmk.privatize(&changes);
    }

    /// What the body of `ctl` declared it opens on this node, by array.
    fn fence(&self, ctl: &LoopCtl) -> ViewFence {
        let (key, me) = (loop_key(ctl), self.tmk.proc_id());
        let facts = self.table.facts(&[key], self.tmk.nprocs());
        let mut arrays: Vec<(SharedArray, Vec<Range<usize>>)> = Vec::new();
        let mine = |w: &&Words| w.0 == me && w.1.is_some();
        for (_, _, t) in facts[&key].words.iter().filter(mine) {
            let runs = t.columns().map(|j| t.run(j));
            match arrays.iter_mut().find(|(arr, _)| *arr == t.at.arr) {
                Some((_, all)) => all.extend(runs),
                None => arrays.push((t.at.arr, runs.collect())),
            }
        }
        for (_, runs) in &mut arrays {
            *runs = merge_ranges(std::mem::take(runs));
        }
        let loop_id = ctl.id;
        ViewFence { loop_id, arrays }
    }

    /// May `later` run in the same dispatch as `earlier`, before it? Only
    /// when both are transparent and [`independent`].
    fn fusable(&self, earlier: &LoopCtl, later: &LoopCtl) -> bool {
        let (a, b) = (loop_key(earlier), loop_key(later));
        if [a, b].iter().any(|k| self.table.opaque(k.0) != Some(false)) {
            return false;
        }
        let facts = self.table.facts(&[a, b], self.tmk.nprocs());
        independent(&facts[&a].words, &facts[&b].words)
    }

    /// How many of `loops`, from the first, go out in one dispatch: the
    /// longest run of which every loop may share a dispatch with each
    /// one before it — one under the original interface.
    fn fused_run(&self, loops: &[LoopCtl]) -> usize {
        if !self.improved() {
            return 1;
        }
        let mut k = 1;
        while k < loops.len() && loops[..k].iter().all(|a| self.fusable(a, &loops[k])) {
            k += 1;
        }
        k
    }

    fn worker_loop(&self) {
        if self.improved() {
            while let Some(words) = self.tmk.worker_wait() {
                let (flags, homes, loops) = decode_dispatch(&words);
                if flags & DISPATCH_INVALIDATE != 0 {
                    self.hints.invalidate_schedules();
                }
                self.tmk.install_page_homes(&homes);
                self.privatize(decode_dispatch(&words).2);
                for ctl in loops {
                    self.execute(&ctl, flags & DISPATCH_FUSED != 0);
                }
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
                self.privatize(std::iter::once(decode_ctl(&words)));
                self.execute(&decode_ctl(&words), false);
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
    /// The DSM instance (for sequential code on the master). The last
    /// dispatch's join completes first, if it is still deferred (see
    /// "The master's rendezvous" in the crate doc).
    pub fn tmk(&self) -> &'t Tmk<'n> {
        self.spf.tmk.settle_join(false);
        self.spf.tmk
    }

    /// The run-time; joins first, as [`Master::tmk`] does.
    pub fn spf(&self) -> &'s Spf<'t, 'n> {
        self.spf.tmk.settle_join(false);
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
        self.spf.tmk.settle_join(false);
        self.spf.hints.declare_produce(accesses)
    }

    /// Dispatch one parallel loop and participate in its execution; the
    /// wait for all workers (fork ... join) completes at the master's
    /// next action (see "The master's rendezvous" in the crate doc).
    /// This is what SPF emits for every parallelized DO loop:
    /// [`Master::par_loops`] of one loop.
    pub fn par_loop(&self, id: usize, range: Range<usize>, sched: Schedule, args: &[u64]) {
        self.par_loops(&[LoopCtl::new(id, range, sched, args)]);
    }

    /// Dispatch adjacent parallel loops — no sequential code runs between
    /// them — in order, each maximal run of them that no other node
    /// depends on in one fork-join (see "Dispatch fusion" in the crate
    /// doc), the rest one by one.
    ///
    /// Under HLRC with a hinted loop, this is also where home placement
    /// is decided: at fork time every worker is parked in its dispatch
    /// wait, so the master's interval view is cluster-complete — it
    /// filters the descriptors' producer-home candidates through the
    /// runtime's guard once, installs them, and ships the accepted list
    /// inside the dispatch for the workers to install verbatim. (The
    /// original interface ships control through shared pages and skips
    /// the decision — every node skips, so the maps still agree.)
    pub fn par_loops(&self, loops: &[LoopCtl]) {
        let mut rest = loops;
        while !rest.is_empty() {
            let (group, tail) = rest.split_at(self.spf.fused_run(rest));
            self.dispatch(group);
            rest = tail;
        }
    }

    /// One fork-join running the loops of `group` (one, unless fused).
    /// Its join waits for the master's next action.
    fn dispatch(&self, group: &[LoopCtl]) {
        // Nothing ran here since the last dispatch's bodies: its join
        // pushes first.
        self.spf.tmk.settle_join(true);
        self.spf.privatize(group.iter().cloned());
        for ctl in group {
            let between = prelude(&self.spf.table.described.borrow(), ctl.id, &ctl.range);
            // The sequential code that just ran rewrote these: they ride
            // the dispatch to the loop's readers. (A loop with a
            // sequential footprint is never fused: it is alone here.)
            let rewritten = between.into_iter().filter(|s| s.mode != Mode::Read);
            let consumed = |s: Touch| {
                Access::write(s.at.arr, s.section()).consumed_by_loop(ctl.id, ctl.range.clone())
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
            let loops = || group.iter().map(|ctl| (ctl.id, &ctl.range));
            let planned = || self.spf.hints.planned_homes(loops());
            let homes = self.spf.tmk.adopt_page_homes(planned);
            self.spf.tmk.fork(&encode_dispatch(flags, &homes, group));
            for ctl in group {
                self.spf.execute(ctl, group.len() > 1);
            }
            self.spf.tmk.defer_join();
        } else {
            // Original interface: write the control variables to the two
            // shared control pages, then a full barrier releases the
            // workers; a second barrier joins them.
            let [ctl] = group else {
                unreachable!("the original interface dispatches loop by loop")
            };
            let mut words = Vec::with_capacity(4 + ctl.args.len());
            encode_ctl(ctl, &mut words);
            self.spf.tmk.write_one(self.spf.ctl_idx, 0, words[0] as f64);
            {
                let mut w = self.spf.tmk.write(self.spf.ctl_args, 0..64);
                w[0] = (words.len() - 4) as f64;
                for (k, &x) in words[1..].iter().enumerate() {
                    w[1 + k] = x as f64;
                }
            }
            self.spf.tmk.barrier(0);
            self.spf.execute(ctl, false);
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
    use sp2sim::{Cluster, ClusterConfig, EngineKind, EventKind, MsgKind, SpanKind};
    use treadmarks::{ProtocolMode, TmkConfig};

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

    /// A one-loop dispatch is framed as before dispatches could carry
    /// more — flags, homes, control words — and a fused one decodes back
    /// to its loops.
    #[test]
    fn dispatch_words_of_one_loop_and_of_a_fused_run() {
        let one = LoopCtl::new(3, 5..77, Schedule::Cyclic, &[9, 1]);
        let words = encode_dispatch(DISPATCH_INVALIDATE, &[(4, 2)], std::slice::from_ref(&one));
        assert_eq!(words, [1, 1, 4, 2, 3, 5, 77, 1, 9, 1]);
        let two = LoopCtl::new(4, 0..8, Schedule::Block, &[]);
        let group = [one, two];
        let words = encode_dispatch(0, &[], &group);
        assert_eq!(words[..3], [DISPATCH_FUSED, 0, 2]);
        let (flags, homes, loops) = decode_dispatch(&words);
        assert_eq!((flags, homes), (DISPATCH_FUSED, vec![]));
        assert_eq!(loops.collect::<Vec<_>>(), group);
    }

    /// Which column of a three-page array a node's share touches.
    #[derive(Clone, Copy)]
    enum Col {
        Own,
        Left,
    }

    /// How the second loop of a pair is registered.
    #[derive(Clone, Copy, PartialEq)]
    enum Second {
        Described,
        Plain,
        Dynamic,
        AfterSequential,
    }

    /// Two adjacent loops on three nodes, each node's share touching one
    /// page-long column in one mode, dispatched by one `par_loops`: the
    /// forks it took and the array's sum after it. A write stores 1, an
    /// update adds 1.
    fn pair(first: (Col, Mode), second: (Col, Mode), reg: Second) -> (u64, f64) {
        let (forks, sum, _) = pair_owners(first, second, reg);
        (forks, sum)
    }

    /// [`pair`], and the owner privatization found for each page, if any.
    fn pair_owners(
        first: (Col, Mode),
        second: (Col, Mode),
        reg: Second,
    ) -> (u64, f64, Vec<Option<usize>>) {
        let out = Cluster::run(ClusterConfig::sp2(3), move |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let spf = Spf::new(&tmk);
            let at = Cols::new(tmk.malloc_f64(3 * 512), 512);
            let touch = move |(col, mode): (Col, Mode), q: usize, np: usize| {
                let j = match col {
                    Col::Own => q,
                    Col::Left => (q + np - 1) % np,
                };
                at.touch(j..j + 1, mode)
            };
            let body = |shape| {
                let tmk = &tmk;
                move |_: &LoopCtl| {
                    let t = touch(shape, tmk.proc_id(), tmk.nprocs());
                    match t.mode {
                        Mode::Read => drop(t.read(tmk)),
                        Mode::Write => t.write(tmk).slice_mut().fill(1.0),
                        Mode::Update => t.write(tmk).slice_mut().iter_mut().for_each(|x| *x += 1.0),
                    }
                }
            };
            let (a, b) = (spf.register(body(first)), spf.register(body(second)));
            let declared = |shape| move |_: &Range<usize>, q, np| Some([touch(shape, q, np)]);
            spf.describe(a, declared(first), |_, _| vec![]);
            match reg {
                Second::Described => spf.describe(b, declared(second), |_, _| vec![]),
                Second::Plain => {}
                Second::Dynamic => spf.describe_inspector(b, move |_, q, np| {
                    let t = touch(second, q, np);
                    vec![match t.mode {
                        Mode::Read => Access::read(at.arr, t.section()),
                        _ => Access::write(at.arr, t.section()),
                    }]
                }),
                Second::AfterSequential => {
                    spf.describe(b, declared(second), |_, _| vec![]);
                    spf.describe_sequential(b, |_| vec![]);
                }
            }
            let r = spf.run(|m| {
                let forks = || m.tmk().stats_snapshot().forks;
                let before = forks();
                let over = |id| LoopCtl::new(id, 0..3, Schedule::Block, &[]);
                m.par_loops(&[over(a), over(b)]);
                let sum = m.tmk().read(at.arr, 0..3 * 512).slice().iter().sum::<f64>();
                let touched = m.spf().table.touched.borrow();
                let owner = |j| touched.get(&(at.arr.first_page() + j)).copied().flatten();
                (forks() - before, sum, (0..3).map(owner).collect())
            });
            tmk.finish();
            r
        });
        out.results[0].clone().expect("the master's")
    }

    #[test]
    fn loops_with_disjoint_footprints_go_out_in_one_fork() {
        let own = |mode| (Col::Own, mode);
        assert_eq!(
            pair(own(Mode::Write), own(Mode::Update), Second::Described),
            (1, 3.0 * 1024.0)
        );
        assert_eq!(
            pair(own(Mode::Read), own(Mode::Write), Second::Described),
            (1, 3.0 * 512.0)
        );
        // Both only read each other's columns.
        let left = (Col::Left, Mode::Read);
        assert_eq!(pair(own(Mode::Read), left, Second::Described).0, 1);
    }

    #[test]
    fn a_cross_node_hazard_splits_the_run() {
        let (own, left) = (|mode| (Col::Own, mode), |mode| (Col::Left, mode));
        let cases = [
            ("read after write", own(Mode::Write), left(Mode::Read)),
            ("write after read", left(Mode::Read), own(Mode::Write)),
            ("write after write", own(Mode::Write), left(Mode::Write)),
        ];
        for (hazard, first, second) in cases {
            assert_eq!(pair(first, second, Second::Described).0, 2, "{hazard}");
        }
    }

    /// Fusion and privatization read loops through one predicate: a
    /// footprint loop fuses with a disjoint neighbour and the columns of
    /// nodes 1 and 2 go private; a loop with no description, an inspector
    /// or a prelude does neither (an undescribed one declares nothing;
    /// the other two share every page).
    #[test]
    fn undescribed_dynamic_and_sequential_loops_are_never_fused() {
        let own = |mode| (Col::Own, mode);
        let private = vec![None, Some(1), Some(2)];
        let described = pair_owners(own(Mode::Write), own(Mode::Update), Second::Described);
        assert_eq!(described, (1, 3.0 * 1024.0, private.clone()));
        for reg in [Second::Plain, Second::Dynamic, Second::AfterSequential] {
            let (forks, sum, owners) = pair_owners(own(Mode::Write), own(Mode::Update), reg);
            assert_eq!((forks, sum), (2, 3.0 * 1024.0));
            let counted = if reg == Second::Plain {
                private.clone()
            } else {
                vec![None; 3]
            };
            assert_eq!(owners, counted);
        }
    }

    /// With debug assertions, a body of a fused dispatch that opens a view
    /// its descriptor did not declare panics, naming the loop and the
    /// array.
    #[test]
    #[cfg(debug_assertions)]
    fn a_fused_body_opening_an_undeclared_view_panics() {
        let payload = std::panic::catch_unwind(|| {
            Cluster::run(ClusterConfig::sp2(2), |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let spf = Spf::new(&tmk);
                let at = Cols::new(tmk.malloc_f64(2 * 512), 512);
                let quiet = spf.register(|_: &LoopCtl| {});
                let strays = spf.register({
                    let tmk = &tmk;
                    move |_: &LoopCtl| drop(at.touch(0..2, Mode::Read).read(tmk))
                });
                let own = move |_: &Range<usize>, q, _| Some([at.touch(q..q + 1, Mode::Read)]);
                spf.describe(quiet, own, |_, _| vec![]);
                spf.describe(strays, own, |_, _| vec![]);
                spf.run(|m| {
                    let over = |id| LoopCtl::new(id, 0..2, Schedule::Block, &[]);
                    m.par_loops(&[over(quiet), over(strays)]);
                });
                tmk.finish();
            });
        })
        .expect_err("the view is outside the descriptor");
        let said = panic_message(payload);
        // The run-time's two control arrays come first: pages 0 and 1.
        assert!(
            said.contains("loop 1 opens words 0..1024 of the array at page 2"),
            "{said}"
        );
    }

    /// Describing a loop once the run began panics, naming the loop:
    /// nothing fusion or privatization derived can go stale.
    #[test]
    fn a_description_after_the_run_began_panics() {
        let payload = std::panic::catch_unwind(|| {
            Cluster::run(ClusterConfig::sp2(2), |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let spf = Spf::new(&tmk);
                let late = spf.register(|_: &LoopCtl| {});
                spf.run(|m| m.spf().describe_inspector(late, |_, _, _| vec![]));
                tmk.finish();
            });
        })
        .expect_err("the description comes after the run began");
        let said = panic_message(payload);
        assert!(said.contains("loop 0 described after Spf::run"), "{said}");
    }

    /// What a panic said.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(said) => *said,
            Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    /// Three rounds on four nodes: every node writes its own column of a
    /// four-page array in one loop, then every node reads all four in the
    /// next, which each column reaches as a push. In rounds 0 and 2 the
    /// master reads all four between the two dispatches; in round 1 they
    /// follow each other, so the first one's join pushes first. The
    /// master's value: whether each of its reads saw every write.
    fn columns_round_trip(
        protocol: ProtocolMode,
        engine: EngineKind,
        trace: bool,
    ) -> sp2sim::RunOutput<Option<bool>> {
        let cfg = ClusterConfig {
            trace,
            ..ClusterConfig::sp2_on(4, engine)
        };
        Cluster::run(cfg, move |node| {
            let tmk = Tmk::new(node, TmkConfig::default().with_protocol(protocol));
            let spf = Spf::new(&tmk);
            let at = Cols::new(tmk.malloc_f64(4 * 512), 512);
            let value = |round: u64, j: usize| (10 * round as usize + j) as f64;
            let sees_all = move |tmk: &Tmk, round: u64| {
                let all = at.touch(0..4, Mode::Read).read(tmk);
                let col = |j: usize| &all.slice()[j * 512..(j + 1) * 512];
                (0..4).all(|j| col(j).iter().all(|&x| x == value(round, j)))
            };
            let write = spf.register({
                let tmk = &tmk;
                move |ctl: &LoopCtl| {
                    let q = tmk.proc_id();
                    let mut w = at.touch(q..q + 1, Mode::Write).write(tmk);
                    w.slice_mut().fill(value(ctl.args[0], q));
                }
            });
            let read = spf.register({
                let tmk = &tmk;
                move |ctl: &LoopCtl| assert!(sees_all(tmk, ctl.args[0]), "node {}", tmk.proc_id())
            });
            let own = move |_: &Range<usize>, q: usize, _| Some([at.touch(q..q + 1, Mode::Write)]);
            spf.describe(write, own, move |_, _| vec![Next::Loop(read, 0..4)]);
            let all = move |_: &Range<usize>, _, _| Some([at.touch(0..4, Mode::Read)]);
            spf.describe(read, all, |_, _| vec![]);
            let r = spf.run(|m| {
                let mut seen = true;
                for round in 0..3 {
                    m.par_loop(write, 0..4, Schedule::Block, &[round]);
                    if round != 1 {
                        seen &= sees_all(m.tmk(), round);
                    }
                    m.par_loop(read, 0..4, Schedule::Block, &[round]);
                }
                seen
            });
            tmk.finish();
            r
        })
    }

    #[test]
    fn a_master_view_right_after_a_dispatch_sees_every_workers_writes() {
        for protocol in [ProtocolMode::Lrc, ProtocolMode::Hlrc] {
            for engine in EngineKind::explore(4) {
                let out = columns_round_trip(protocol, engine, false);
                assert_eq!(out.results[0], Some(true), "{protocol}, {engine}");
            }
        }
    }

    /// Round 1's join sends the master's column before it waits, inside
    /// the join's wait; rounds 0 and 2 send it with the fork, after. The
    /// messages are the ones the join sent when it never pushed.
    #[test]
    fn between_back_to_back_dispatches_the_masters_push_leaves_before_its_join() {
        let out = columns_round_trip(ProtocolMode::Lrc, EngineKind::default(), true);
        assert_eq!(out.results[0], Some(true));
        let trace = out.trace.expect("a traced run");
        let track = trace
            .track(0, sp2sim::TracePort::App)
            .expect("node 0's track");
        let (mut joining, mut inside, mut outside) = (false, 0, 0);
        for e in &track.events {
            match e.kind {
                EventKind::Begin {
                    kind: SpanKind::JoinWait,
                    ..
                } => joining = true,
                EventKind::End {
                    kind: SpanKind::JoinWait,
                } => joining = false,
                EventKind::Send { code, .. } if code == MsgKind::Push as u8 => match joining {
                    true => inside += 1,
                    false => outside += 1,
                },
                _ => {}
            }
        }
        assert!(
            inside > 0 && outside == 2 * inside,
            "{inside} in a join, {outside} not"
        );
        let traffic = (out.stats.total_messages(), out.stats.total_bytes());
        assert_eq!(traffic, BEFORE_EARLY_PUSHES);
    }

    /// [`columns_round_trip`]'s messages and bytes under LRC on the FIFO
    /// schedule when every join waited first and pushed at the next fork.
    const BEFORE_EARLY_PUSHES: (u64, u64) = (84, 155_664);

    /// With debug assertions, sequential code that reaches the DSM around
    /// [`Master::tmk`] before the last dispatch's join panics.
    #[test]
    #[cfg(debug_assertions)]
    fn a_master_view_around_the_handle_before_the_join_panics() {
        let payload = std::panic::catch_unwind(|| {
            Cluster::run(ClusterConfig::sp2(2), |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let spf = Spf::new(&tmk);
                let a = tmk.malloc_f64(512);
                let body = spf.register(|_: &LoopCtl| {});
                spf.run(|m| {
                    m.par_loop(body, 0..2, Schedule::Block, &[]);
                    drop(tmk.read(a, 0..1));
                });
                tmk.finish();
            });
        })
        .expect_err("the view comes before the join");
        let said = panic_message(payload);
        assert!(said.contains("while its last fork is un-joined"), "{said}");
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
                    let at = Cols::new(a, 1);
                    let block = move |i: &Range<usize>, me, np| block_range(me, np, i.clone());
                    let own = move |i: &Range<usize>, me, np| {
                        Some([at.touch(block(i, me, np), Mode::Update)])
                    };
                    spf.describe(prod, own, move |_, _| vec![Next::Loop(sum, 0..len)]);
                    let all = move |_: &Range<usize>, _, _| Some([at.touch(0..len, Mode::Read)]);
                    spf.describe(sum, all, |_, _| vec![]);
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
                let at = Cols::new(a, 1);
                let block = move |i: &Range<usize>, me, np| block_range(me, np, i.clone());
                let own = move |i: &Range<usize>, me, np| {
                    Some([at.touch(block(i, me, np), Mode::Update)])
                };
                spf.describe(prod, own, move |_, _| vec![Next::Loop(sum, 0..len)]);
                let all = move |_: &Range<usize>, _, _| Some([at.touch(0..len, Mode::Read)]);
                spf.describe(sum, all, |_, _| vec![]);
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

    /// What runs after the loop of [`derived_owners`].
    #[derive(Clone, Copy, PartialEq)]
    enum Then {
        Nothing,
        Inspector,
        Sequential,
    }

    /// The owner derived privatization found for each page of three
    /// four-page arrays, one page a column, on four nodes — `None` for a
    /// shared page. One loop: every node updates its own column of `own`
    /// and `to_node` and reads its neighbours' of `ghost`, and node 0's
    /// sequential code reads column 3 of `to_node` after it. Then another
    /// loop runs, which may have a dynamic descriptor or a sequential
    /// footprint.
    fn derived_owners(then: Then) -> Vec<Vec<Option<usize>>> {
        let out = Cluster::run(ClusterConfig::sp2(4), move |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let spf = Spf::new(&tmk);
            let arrays = [(); 3].map(|_| Cols::new(tmk.malloc_f64(4 * 512), 512));
            let [own, ghost, to_node] = arrays;
            let (body, next) = (
                spf.register(|_: &LoopCtl| {}),
                spf.register(|_: &LoopCtl| {}),
            );
            let footprint = move |_: &Range<usize>, q: usize, np: usize| {
                let mine = [own, to_node].map(|a| a.touch(q..q + 1, Mode::Update));
                let around = ghost.touch(q.saturating_sub(1)..(q + 2).min(np), Mode::Read);
                Some(mine.into_iter().chain([around]))
            };
            let to = move |_: &Range<usize>, t: &Touch| match t.at == to_node {
                true => vec![Next::Node(0, 3..4)],
                false => vec![],
            };
            spf.describe(body, footprint, to);
            match then {
                Then::Inspector => spf.describe_inspector(next, |_, _, _| vec![]),
                _ => spf.describe(next, |_: &Range<usize>, _, _| Some([]), |_, _| vec![]),
            }
            if then == Then::Sequential {
                spf.describe_sequential(next, |_| vec![]);
            }
            let r = spf.run(|m| {
                m.par_loop(body, 0..4, Schedule::Block, &[]);
                m.par_loop(next, 0..4, Schedule::Block, &[]);
                let touched = m.spf().table.touched.borrow();
                let owner = |page| touched.get(&page).copied().flatten();
                arrays
                    .map(|a| (0..4).map(|j| owner(a.arr.first_page() + j)).collect())
                    .to_vec()
            });
            tmk.finish();
            r
        });
        out.results[0].clone().expect("the master's")
    }

    #[test]
    fn pages_only_their_writer_touches_are_derived_private() {
        let none = vec![None; 4];
        // The master's own pages stay shared; so do the neighbours' columns
        // a stencil reads and the column node 0 reads after the loop.
        let want = [
            vec![None, Some(1), Some(2), Some(3)],
            none.clone(),
            vec![None, Some(1), Some(2), None],
        ];
        assert_eq!(derived_owners(Then::Nothing), want);
        // An inspector's sections are known only once it ran, and a
        // sequential footprint moves with every dispatch: both share all.
        assert_eq!(derived_owners(Then::Inspector), vec![none.clone(); 3]);
        assert_eq!(derived_owners(Then::Sequential), vec![none; 3]);
    }
}
