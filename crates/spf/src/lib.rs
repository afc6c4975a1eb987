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
//!   a dispatch loop for parallel work (with descriptors, the code before
//!   a loop's dispatch may run on the one node whose writes it reads: see
//!   "Chained dispatches" below);
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
//! When a loop is described (see the [`cri`] crate: by the loop's
//! [`footprint`], [`Spf::describe`], or by an inspector), its accesses
//! are evaluated around every execution of the body: the run-time
//! pre-validates all pages the body will fault in one aggregated
//! exchange, and registers producer→consumer pushes that ride the next
//! rendezvous. This is the compiler–DSM interface the paper's
//! conclusion calls for. The same
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
//! the prelude — the sequential code before each of its dispatches
//! ([`Spf::describe_sequential`]) — or by an inspector
//! ([`Spf::describe_inspector`]). A loop described by a footprint alone
//! is *transparent*; an inspector's sections exist only once it ran, and
//! a prelude moves with every dispatch, so those two are *opaque*, to
//! both derivations below. The table keeps one entry per loop id — its
//! body, its registered sequential code and its description, from which
//! every use reads it — and privatization's conclusions, never a loop's
//! touches: fusion, chained links, privatization and the hint engine's
//! plans walk every node's footprint again each time, the debug view
//! fence this node's alone, through one walk: the fence, privatization
//! and the plans use the touches as they come, fusion and links keep
//! them in buffers the walker reuses. One contract covers every
//! description — a footprint, its `next`, a prelude and an inspector:
//! each is a pure function of `(iters, q, np)` for the whole run, so
//! every walk of a loop over a range, on any node, finds the same words,
//! and nothing a plan or a schedule embeds ever changes under it. A
//! prelude is transparent to fusion where its code is registered
//! ([`Spf::register_sequential`]) and its footprint lies inside the
//! words exactly one node wrote in the dispatch before: then its loop
//! may join a run as a chained link, below.
//!
//! ## Hint plans
//!
//! A loop dispatched again over the same range asks for the same
//! validate, pushes and home candidates, so the hint engine compiles each
//! described loop **once** per range into a plan of three flat lists and
//! replays them: the word-run count and merged page runs its validate
//! takes ([`treadmarks::Tmk::validate_pages`]); every `(target, page)`
//! push its body registers, before the HLRC "the consumer is the page's
//! home" filter, which stays a check at replay because homes move; and
//! the `(page, writer)` pairs the master picks home candidates from.
//! One builder fills all three from a stream of declared accesses, each
//! an array, a [`Mode`], word runs and consumers. A
//! footprint loop's stream is its walk: each touch is declared as the
//! walk visits it, its page runs come from its own column runs, and its
//! consumers are derived from its `next` and the preludes of the loops
//! that names, as [`Spf::describe`] defines them — building evaluates no
//! descriptor and builds no section or access list. A push list counts
//! only the consumer's accesses that can meet a page of the write, which
//! two touches settle by arithmetic (below). An inspector's
//! stream is its cached access list, as is what [`Master::produce`]
//! declares; what a prelude rewrote, republished before its loop's
//! dispatch, is read off the prelude. Each third is built the first time
//! its own call site runs, not ahead of it: building reads the loops'
//! accesses, and an inspection charges virtual time where it runs.
//! There is one plan per loop id, refilled in place when the loop comes
//! with another range: MGS dispatches `i+1..n`, never replays, and
//! refills the same three lists at every pivot, allocating nothing once
//! they have grown. Descriptions are fixed for the run (the contract
//! above), so a plan goes stale only when its loop's range changes, and
//! a replay stands for evaluations that would all have hit the schedule
//! cache: it adds their number to `schedule_reuse`. Page sets are
//! sorted, disjoint page runs throughout (`cri::section`).
//!
//! ## Dynamic descriptors
//!
//! When a loop's subscripts go through a run-time indirection map, no
//! static section exists: its inspector ([`Spf::describe_inspector`])
//! walks the map for the words it touches. The map is published once
//! and fixed for the run (a second `inspector::SharedMap::publish`
//! panics), so every evaluation is memoized in a **schedule cache**
//! keyed by `(loop, iteration range, node)`, and each key is inspected
//! once **per cluster** on the host: a node that needs a peer's share
//! (its push list reads every consumer's) takes it from the cluster's
//! table of schedules (a host slot all nodes of the run share,
//! `sp2sim::Node::cluster_slot`) once a node walked it, and walks it
//! only when none has. The table holds pure derivations alone, so a node
//! learns nothing from it that its own walk would not produce. Every
//! node is still **charged** for every key, once, as if it had walked
//! it: the walk counts the indices it visits (`inspector::Inspector`),
//! and the run-time advances the node's clock by the same
//! `INSPECT_ENTRY_US` each on the node that walked and on every node the
//! table serves. A node walks its **own** share itself: that walk is
//! where it faults in the maps it reads, and a share served from the
//! table would move the fault into the loop body, after the validate,
//! and change what the run simulates. A walk of a share the table
//! already holds must come to the same schedule; one that does not
//! panics, naming the loop — an inspector that depends on the node
//! evaluating it. Every later evaluation — the executor path — is served
//! from the cache at zero inspection cost. `DsmStats::inspections`
//! counts the charged keys (their walks' virtual time in `inspect_us`),
//! `DsmStats::schedule_reuse` the hits, one by one or by the plan replay
//! that stands for them.
//!
//! ## Dispatch fusion
//!
//! [`Master::par_loops`] takes a run of adjacent loops — no sequential
//! code between them but what is registered before each — and ships
//! each maximal run of transparent loops (or chained links, below) that
//! no other node depends on in one fork: for every pair of nodes
//! `q ≠ q'`, no earlier loop's writes on `q'` meet a later loop's reads
//! or writes on `q`, and no earlier loop's reads on `q'` meet a later
//! loop's writes on `q`, word for word — tested against the touches every
//! node used in the run so far, those alike but for their columns joined,
//! so that a long run is no quadratic walk. Two touches meet or not by
//! arithmetic where it can tell — a touch that is one run against a
//! column range, or two of one stride, whose cyclic column sets share a
//! column by the Chinese remainder theorem — and by their word runs
//! (`cri::section`) where it cannot; with debug assertions every
//! arithmetic answer is checked against the runs. The last term counts
//! because a
//! write-all body overwrites its pages in place: a request served while
//! it runs would be served its newer words. Every node runs the bodies
//! in order, each inside its own validate and push registration; the
//! pushes and home placements of all of them go with the one join. No
//! loop is fused under the original interface. With debug assertions,
//! every body a footprint describes — fused, chained or alone — may open
//! views only inside what it declared for its node.
//!
//! ## Chained dispatches
//!
//! A loop after the first of a run may have a prelude (MGS's pivot loop,
//! each dispatch after its normalization: [`Master::par_loops`] of every
//! pivot's link). It shares the run's fork as a *chained link* when the
//! prelude's footprint lies inside the words exactly one node — its
//! *writer* — wrote in the loop before, and the loop passes the fusion
//! test above against every earlier loop of the run, but for the words
//! the prelude rewrites, which its writer pushes. The writer runs the
//! prelude at the end of its body of the loop before, publishes, and
//! pushes the rewritten words to every node whose body of the link reads
//! them ([`treadmarks::Tmk::push_link`]: a superseding push, down the
//! tree rooted at the writer when every other node reads them); each of
//! them starts that body once the push is in
//! ([`treadmarks::Tmk::take_link_push`]). Every node derives the writer
//! and the readers from its walks, the touches meeting by arithmetic as
//! fusion's do, so nothing announces the push,
//! and the run's one join closes the chain. No other node may have
//! written a page the push carries since the run began. The write
//! notices the readers skip arrive at that join, and find the pushed
//! words already in place. Anywhere else — the first loop of a run, the
//! original interface, a prelude no one node's writes hold, or code not
//! registered — the master runs the sequential code, joined first. With
//! debug assertions every body of a chain is fenced, as every body a
//! footprint describes is: its views inside the words it declared, its
//! write views inside those it declared written. An inspector's body is
//! fenced by mode alone: its write views inside what its schedule
//! declares written.
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
//! [`Master::spf`], [`Master::produce`], a first loop's registered
//! sequential code — joins first as before, and the pushes ride the next
//! fork, which pushes every range its node wrote since its last pushes
//! — the bodies' included, not only the sequential code's. A chain has
//! one join, after its last link. With debug assertions the master's
//! view outside a body while the join is deferred panics: sequential
//! code must reach the DSM through [`Master::tmk`].
//!
//! A fork carries the master's clock as it forks, and its departures
//! announce the intervals before that clock and before the workers'
//! arrivals — never the one the master's own body makes, which its
//! service may already hold when it sends them. That interval reaches
//! the workers with the next fork, as every worker's does, so no node
//! fetches the master's body while the body is still running.
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
mod hints;

use std::cell::{Cell, RefCell, RefMut};
use std::collections::HashSet;
use std::ops::Range;

use cri::section::{contains, for_each_difference, for_each_overlap, insert};
use cri::Access;
use hints::HintEngine;
use treadmarks::{SharedArray, Tmk, ViewFence};

use footprint::{meet, Units};
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

/// Dispatch flag: the dispatch carries a fused run of loops — their
/// count, then each one's argument count and control words.
const DISPATCH_FUSED: u64 = 2;

/// Frame a dispatch for the improved interface: a flags word (fusion),
/// then the master's fork-time home-placement decision (HLRC; empty
/// otherwise), then the loop-control words of each loop — so every
/// worker installs the same overrides before the first body runs. A
/// lone loop carries no fusion framing: its words are flags, homes and
/// its control words.
fn encode_dispatch(homes: &[(usize, usize)], group: &[LoopCtl]) -> Vec<u64> {
    let fused = group.len() > 1;
    // A fused run adds its count and an argument count per loop.
    let framing = if fused { 1 + group.len() } else { 0 };
    let ctls: usize = group.iter().map(|ctl| 4 + ctl.args.len()).sum();
    let mut v = Vec::with_capacity(2 + homes.len() * 2 + framing + ctls);
    v.push(if fused { DISPATCH_FUSED } else { 0 });
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

/// What the master's prelude to a loop touches, visited, as a function of
/// the dispatch's range ([`Spf::describe_sequential`]).
type Prelude<'t> = Box<dyn Fn(&Range<usize>, &mut dyn FnMut(&Touch)) + 't>;

/// A prelude's touches: visits each afresh at every call.
type Touches<'a> = &'a dyn Fn(&mut dyn FnMut(&Touch));

/// Who reads a written touch next: visits each [`Next`] afresh at every
/// call, none for a read.
type Nexts<'a> = &'a dyn Fn(&mut dyn FnMut(Next));

/// A loop's footprint with its `next` ([`Spf::describe`]): each touch of
/// node `q`'s share over `iters`, visited with who reads it next.
type Footprint<'t> = Box<dyn Fn(&Range<usize>, usize, usize, &mut dyn FnMut(&Touch, Nexts)) + 't>;

/// An inspector ([`Spf::describe_inspector`]).
type Inspect<'t> = Box<dyn Fn(&Range<usize>, usize, usize) -> Vec<Access> + 't>;

/// A loop's one description (see "The loop table" in the crate doc).
enum Description<'t> {
    /// Its footprint's walk and its prelude, if any.
    Footprint(Footprint<'t>, Option<Prelude<'t>>),
    /// An inspector.
    Inspector(Inspect<'t>),
}

impl<'t> Description<'t> {
    /// A footprint with its `next`, and no prelude ([`Spf::describe`]).
    fn footprint<T, N>(
        footprint: impl Fn(&Range<usize>, usize, usize) -> Option<T> + 't,
        next: impl Fn(&Range<usize>, &Touch) -> N + 't,
    ) -> Description<'t>
    where
        T: IntoIterator<Item = Touch>,
        N: IntoIterator<Item = Next>,
    {
        let walk: Footprint<'t> = Box::new(move |iters, q, np, visit| {
            for t in footprint(iters, q, np).into_iter().flatten() {
                let nexts = |to: &mut dyn FnMut(Next)| {
                    if t.mode != Mode::Read {
                        next(iters, &t).into_iter().for_each(to);
                    }
                };
                visit(&t, &nexts);
            }
        });
        Description::Footprint(walk, None)
    }
}

/// One loop's entry in the table, by id.
struct Entry<'t> {
    /// The subroutine the loop was encapsulated into ([`Spf::register`]).
    body: LoopBody<'t>,
    /// The sequential code before each of its dispatches
    /// ([`Spf::register_sequential`]).
    sequential: Option<LoopBody<'t>>,
    /// How it is described, if it is.
    description: Option<Description<'t>>,
}

/// Loop `id`'s description, when it is registered and described.
fn described<'a, 't>(loops: &'a [Entry<'t>], id: usize) -> Option<&'a Description<'t>> {
    loops.get(id)?.description.as_ref()
}

/// Visit node `q`'s touches of footprint loop `id` over `iters`, each
/// with who reads it next: the loop table's walk.
fn walk(
    loops: &[Entry],
    id: usize,
    iters: &Range<usize>,
    q: usize,
    np: usize,
    visit: &mut dyn FnMut(&Touch, Nexts),
) {
    let Some(Description::Footprint(walk, _)) = described(loops, id) else {
        unreachable!("loop {id} has no footprint");
    };
    walk(iters, q, np, visit);
}

/// Visit what loop `id`'s prelude touches before it runs over `iters`:
/// nothing when it has none.
fn prelude(loops: &[Entry], id: usize, iters: &Range<usize>, visit: &mut dyn FnMut(&Touch)) {
    if let Some(Description::Footprint(_, Some(prelude))) = described(loops, id) {
        prelude(iters, visit);
    }
}

/// A loop over a range: `(id, start, end)`.
type LoopKey = (usize, usize, usize);

fn loop_key(ctl: &LoopCtl) -> LoopKey {
    (ctl.id, ctl.range.start, ctl.range.end)
}

/// Words a node uses: `(node, mode, words, their units in closed form)`.
type Words = (usize, Mode, Touch, Units);

/// `t`'s words as node `node` uses them, in `mode`.
fn used(node: usize, mode: Mode, t: Touch) -> Words {
    let units = t.units(1);
    (node, mode, t, units)
}

/// The loop table (see the crate doc): one entry per loop, and
/// privatization's conclusions.
#[derive(Default)]
struct LoopTable<'t> {
    /// Every loop's entry, by id.
    loops: RefCell<Vec<Entry<'t>>>,
    /// [`Spf::run`] began: the descriptions are fixed.
    fixed: Cell<bool>,
    /// Privatization, by page: a counted page's owner, `Some(None)` when
    /// shared; `None` for a page not counted.
    touched: RefCell<Vec<Option<Option<usize>>>>,
    /// Privatization: the loops, over their ranges, it counted.
    counted: RefCell<HashSet<LoopKey>>,
    /// Privatization met an opaque loop: every page stays shared.
    stopped: Cell<bool>,
}

impl<'t> LoopTable<'t> {
    /// Registered loop `id`'s entry.
    fn entry(&self, id: usize) -> RefMut<'_, Entry<'t>> {
        RefMut::map(self.loops.borrow_mut(), |loops| match loops.get_mut(id) {
            Some(entry) => entry,
            None => panic!("loop {id} is not registered"),
        })
    }

    /// Loop `id`'s description, to set before the run.
    fn slot(&self, id: usize) -> RefMut<'_, Option<Description<'t>>> {
        assert!(!self.fixed.get(), "loop {id} described after Spf::run");
        RefMut::map(self.entry(id), |entry| &mut entry.description)
    }

    /// Whether loop `id` is opaque to fusion and privatization (an
    /// inspector, or a footprint with a prelude: see "The loop table"
    /// above); `None` when it is not described.
    fn opaque(&self, id: usize) -> Option<bool> {
        let loops = self.loops.borrow();
        let description = described(&loops, id)?;
        Some(!matches!(description, Description::Footprint(_, None)))
    }

    /// Whether loop `id` is described by its footprint and a prelude.
    fn has_prelude(&self, id: usize) -> bool {
        let loops = self.loops.borrow();
        matches!(
            described(&loops, id),
            Some(Description::Footprint(_, Some(_)))
        )
    }

    /// Whether sequential code is registered before loop `id`.
    fn has_sequential(&self, id: usize) -> bool {
        let loops = self.loops.borrow();
        loops
            .get(id)
            .is_some_and(|entry| entry.sequential.is_some())
    }
}

/// The walker (see "The loop table" in the crate doc), with the words
/// of the last two loops it walked and the last link it derived, kept
/// between uses and emptied, so that it allocates only while it grows.
#[derive(Default)]
struct Walks {
    /// The node count: a walk visits every node's footprint.
    np: usize,
    /// The loop whose words `last` holds.
    key: Option<LoopKey>,
    /// The loop before the last one's words.
    before: Vec<Words>,
    /// The last loop's words.
    last: Vec<Words>,
    /// The last chained link derived ([`Walks::chain`]).
    link: Link,
}

impl Walks {
    /// Visit every node's touches of `key`'s loop over its range in
    /// `words`; with `next`, also the words each [`Next::Node`]'s
    /// sequential code reads after the loop, as that node's reads, and
    /// each loop a write goes to next, in `to`.
    fn visit(
        &self,
        table: &LoopTable,
        key: LoopKey,
        next: bool,
        words: &mut dyn FnMut(Words),
        to: &mut dyn FnMut(LoopKey),
    ) {
        let (id, iters, np) = (key.0, key.1..key.2, self.np);
        let loops = table.loops.borrow();
        for q in 0..np {
            walk(&loops, id, &iters, q, np, &mut |t, nexts| {
                if next {
                    nexts(&mut |n| match n {
                        Next::Node(node, cols) => {
                            words(used(node, Mode::Read, Touch { cols, ..t.clone() }))
                        }
                        Next::Loop(id, iters) => to((id, iters.start, iters.end)),
                    });
                }
                words(used(q, t.mode, t.clone()));
            });
        }
    }

    /// Every node's touches of `key`'s loop, which `last` holds from now on.
    fn walk(&mut self, table: &LoopTable, key: LoopKey) -> &[Words] {
        let mut last = std::mem::take(&mut self.last);
        last.clear();
        self.visit(table, key, false, &mut |w| last.push(w), &mut |_| {});
        (self.last, self.key) = (last, Some(key));
        &self.last
    }

    /// Whether `ctl` makes a chained link after `prev`: its prelude lies
    /// in what one node wrote there ([`Link::derive`]). `last` holds
    /// `ctl`'s words from now on, and `link` the link when it makes one,
    /// but for its readers.
    fn chain(&mut self, table: &LoopTable, prev: &LoopCtl, ctl: &LoopCtl) -> bool {
        if self.key != Some(loop_key(prev)) {
            self.walk(table, loop_key(prev));
        }
        std::mem::swap(&mut self.before, &mut self.last);
        self.walk(table, loop_key(ctl));
        let loops = table.loops.borrow();
        let touches = |visit: &mut dyn FnMut(&Touch)| prelude(&loops, ctl.id, &ctl.range, visit);
        self.link.derive(&self.before, &touches)
    }
}

/// What `sets` keeps for `key`: none yet when it is new.
fn set_of<K: PartialEq, T>(sets: &mut Vec<(K, Vec<T>)>, key: K) -> &mut Vec<T> {
    let at = match sets.iter().position(|(k, _)| *k == key) {
        Some(at) => at,
        None => {
            sets.push((key, Vec::new()));
            sets.len() - 1
        }
    };
    &mut sets[at].1
}

/// The words each node used in the loops of a run so far, by array and
/// by whether it wrote them, as touches: what a next loop is tested
/// against (see "Dispatch fusion" in the crate doc), without walking the
/// earlier loops again. Touches that differ only in their columns are
/// joined, so that along a chain of links over shrinking ranges a set
/// stays the size of one link's. Kept between runs, emptied, so that it
/// allocates only while it grows.
#[derive(Default)]
struct Used {
    /// Each set's key and its touches, with their units.
    sets: Vec<(SetKey, Vec<(Touch, Units)>)>,
}

/// Whose words a set of [`Used`] holds: `(node, the array's first page,
/// written)`.
type SetKey = (usize, usize, bool);

impl Used {
    /// Forget every loop.
    fn clear(&mut self) {
        self.sets
            .iter_mut()
            .for_each(|(_, touches)| touches.clear());
    }

    /// Add a loop whose words are `words`.
    fn add(&mut self, words: &[Words]) {
        for (q, mode, t, units) in words {
            let key = (*q, t.at.arr.first_page(), *mode != Mode::Read);
            let touches = set_of(&mut self.sets, key);
            // The columns of two touches alike but for them, when they
            // overlap or abut, are one range.
            let joins = |(u, _): &&mut (Touch, Units)| {
                (u.at, u.cyclic, &u.rows) == (t.at, t.cyclic, &t.rows)
                    && u.cols.start <= t.cols.end
                    && t.cols.start <= u.cols.end
            };
            match touches.iter_mut().find(joins) {
                Some((u, units)) => {
                    u.cols = u.cols.start.min(t.cols.start)..u.cols.end.max(t.cols.end);
                    *units = u.units(1);
                }
                None => touches.push((t.clone(), units.clone())),
            }
        }
    }

    /// Whether a loop whose words are `later` may run after the loops
    /// added, in the same dispatch: for every pair of nodes `q ≠ p`, no
    /// word `q` uses is one `p` wrote, and no word `q` writes is one `p`
    /// read — but for the words `link` pushes to `q` from its writer,
    /// which `q` reads once they arrived.
    fn admits(&self, later: &[Words], link: Option<&Link>) -> bool {
        later.iter().all(|&(q, mode, ref t, ref tu)| {
            let pushed = |p: usize| match link {
                Some(link) if link.writer == p && mode == Mode::Read => link.runs(t.at.arr),
                _ => &[],
            };
            let arr = t.at.arr.first_page();
            !self.sets.iter().any(|&((p, a, written), ref touches)| {
                // Read-after-write and write-after-write: `p` wrote.
                let after_write = written;
                // Write-after-read: `q` overwrites what `p` read.
                let after_read = !written && mode != Mode::Read;
                let meet = || touches.iter().any(|u| meets_beyond((t, tu), u, pushed(p)));
                p != q && a == arr && (after_write || after_read) && meet()
            })
        })
    }

    /// Whether no node but `link`'s writer wrote a word of a page its
    /// push carries: each reader installs the pages over its own frame,
    /// which must hold no write of its own yet to be published.
    fn clear_of(&self, link: &Link, page_words: usize) -> bool {
        link.touches.iter().all(|(s, _)| {
            let pages = s.units(page_words);
            self.sets.iter().all(|&((p, a, written), ref touches)| {
                let others = written && p != link.writer && a == s.at.arr.first_page();
                let meets = |u: &Touch| meet(s, &pages, u, &u.units(page_words));
                !others || !touches.iter().any(|(u, _)| meets(u))
            })
        })
    }
}

/// Whether `t`, less the words `pushed`, meets `u` (each with its
/// units): by arithmetic when nothing is pushed or `t` is pushed whole,
/// else by their runs.
fn meets_beyond(
    (t, tu): (&Touch, &Units),
    (u, uu): &(Touch, Units),
    pushed: &[Range<usize>],
) -> bool {
    let met = meet(t, tu, u, uu);
    if !met || pushed.is_empty() {
        return met;
    }
    if t.runs().all(|r| contains(pushed, &r)) {
        return false;
    }
    let mut met = false;
    for_each_overlap(t.runs(), u.runs(), |run| {
        for_each_difference(std::slice::from_ref(&run), pushed, |_| met = true)
    });
    met
}

/// A chained link's prelude, as every node derives it from its walks
/// (see "Chained dispatches" in the crate doc). Its buffers are kept from
/// link to link and emptied, as the walker's are.
#[derive(Default)]
struct Link {
    /// The one node that wrote the prelude's words in the link before,
    /// which runs it.
    writer: usize,
    /// What the prelude rewrites: its touches that write, with their
    /// units.
    touches: Vec<(Touch, Units)>,
    /// The same words, by array, as sorted word runs: what the link push
    /// carries.
    words: Vec<(SharedArray, Vec<Range<usize>>)>,
    /// The other nodes whose body of the link reads a word of them, when
    /// [`Link::find_readers`] found them.
    readers: Vec<usize>,
    /// The writer's words in one array of the prelude.
    own: Vec<Range<usize>>,
}

impl Link {
    /// The words pushed in `arr`.
    fn runs(&self, arr: SharedArray) -> &[Range<usize>] {
        let runs = self.words.iter().find(|(a, _)| *a == arr);
        runs.map_or(&[], |(_, runs)| &runs[..])
    }

    /// Derive the link whose prelude visits its touches through `prelude`,
    /// after a loop whose words are `before`: `false` unless exactly one
    /// node's writes in `before` meet the prelude, and they hold every
    /// word of it. Touches meet by arithmetic (`footprint::meet`); a
    /// prelude touch lies inside one of the writer's when
    /// [`Touch::covers`] says so, else it is held against the runs of all
    /// of them. Who reads the push is left to [`Link::reads`].
    fn derive(&mut self, before: &[Words], prelude: Touches) -> bool {
        let writes = |w: &&Words| w.1 != Mode::Read;
        let (mut writer, mut two) = (None, false);
        prelude(&mut |s| {
            let units = s.units(1);
            for (q, _, t, tu) in before
                .iter()
                .filter(writes)
                .filter(|w| w.2.at.arr == s.at.arr)
            {
                two |= meet(t, tu, s, &units) && *writer.get_or_insert(*q) != *q;
            }
        });
        let Some(writer) = writer.filter(|_| !two) else {
            return false;
        };
        let (own, mut inside) = (&mut self.own, true);
        prelude(&mut |s| {
            let mine = |w: &&Words| w.0 == writer && w.2.at.arr == s.at.arr;
            let theirs = || before.iter().filter(writes).filter(mine);
            if !inside || theirs().any(|(_, _, t, _)| t.covers(s)) {
                return;
            }
            own.clear();
            for (_, _, t, _) in theirs() {
                t.runs().for_each(|r| insert(own, r));
            }
            inside &= s.runs().all(|r| contains(own, &r));
        });
        if !inside {
            return false;
        }
        self.writer = writer;
        self.touches.clear();
        self.words.iter_mut().for_each(|(_, runs)| runs.clear());
        let (touches, words) = (&mut self.touches, &mut self.words);
        prelude(&mut |s| {
            if s.mode != Mode::Read {
                touches.push((s.clone(), s.units(1)));
                let runs = set_of(words, s.at.arr);
                s.runs().for_each(|r| insert(runs, r));
            }
        });
        self.words.retain(|(_, runs)| !runs.is_empty());
        true
    }

    /// Whether node `q`'s body of the link, whose words are `after`,
    /// reads a word the push carries.
    fn reads(&self, after: &[Words], q: usize) -> bool {
        let pushed =
            |(t, tu): (&Touch, &Units)| self.touches.iter().any(|(s, su)| meet(s, su, t, tu));
        after.iter().any(|(p, _, t, tu)| *p == q && pushed((t, tu)))
    }

    /// Find [`Link::readers`]: every other node whose body of the link,
    /// over `after`, reads a word the push carries.
    fn find_readers(&mut self, after: &[Words], np: usize) {
        let mut readers = std::mem::take(&mut self.readers);
        readers.clear();
        readers.extend((0..np).filter(|&q| q != self.writer && self.reads(after, q)));
        self.readers = readers;
    }
}

/// The SPF run-time system bound to one node's DSM instance.
pub struct Spf<'t, 'n> {
    tmk: &'t Tmk<'n>,
    /// What the table's loops came to: plans and schedules.
    hints: HintEngine<'t, 'n>,
    /// Every loop's entry and what privatization concluded.
    table: LoopTable<'t>,
    /// What the loops of the run being formed used ([`Spf::fused_run`]).
    used: RefCell<Used>,
    /// The walker's buffers.
    walks: RefCell<Walks>,
    /// The debug view fence's buffers, between bodies.
    fence: Cell<Option<ViewFence>>,
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
            // A run-time's first allocation names it across the cluster.
            hints: HintEngine::new(tmk, ctl_idx.first_page()),
            table: LoopTable::default(),
            used: RefCell::default(),
            walks: RefCell::new(Walks {
                np: tmk.nprocs(),
                ..Walks::default()
            }),
            fence: Cell::default(),
            ctl_idx,
            ctl_args,
        }
    }

    /// The DSM instance.
    pub fn tmk(&self) -> &'t Tmk<'n> {
        self.tmk
    }

    /// Describe loop `id` by its footprint, before [`Spf::run`]:
    /// `footprint` is the function of `(iters, q, np)` its body opens its
    /// views from, `None` when node `q` has no share, and the hint engine
    /// reads the loop's accesses off the same walk. Every touch is
    /// declared in its mode — a write as write-all
    /// ([`Access::write_all`]), an update as
    /// a plain write, whose view fetches the current content first — in
    /// footprint order; each written one goes to the loops
    /// `next(iters, touch)` names, and the columns a [`Next::Node`] reads
    /// follow it as a plain write of their own, when the touch has any.
    ///
    /// The sequential code between this loop and a next one is a
    /// consumer too, when it is described ([`Spf::describe_sequential`]):
    /// the columns it reads go to node 0 as a [`Next::Node`]'s do, and
    /// the columns it rewrites whole do not go to the next loop at all —
    /// whoever runs it republishes them before that loop runs. (When
    /// the writer runs it, in a chain, its push to node 0 gives way to
    /// the link push.)
    pub fn describe<T, N>(
        &self,
        id: usize,
        footprint: impl Fn(&Range<usize>, usize, usize) -> Option<T> + 't,
        next: impl Fn(&Range<usize>, &Touch) -> N + 't,
    ) where
        T: IntoIterator<Item = Touch>,
        N: IntoIterator<Item = Next>,
    {
        *self.table.slot(id) = Some(Description::footprint(footprint, next));
    }

    /// Describe the sequential code that runs right before each dispatch
    /// of loop `id`: `footprint(iters)` is what it touches before `id`
    /// runs over `iters` (MGS's normalization of the pivot before each
    /// orthogonalization). It is the compiler's descriptor for
    /// straight-line code, registered once, like a loop's. Run on the
    /// master, the code's rewrites go to the loop's readers with the
    /// dispatch (a superseding push), and a loop whose writes it
    /// reads or rewrites sends them to the master alone
    /// ([`Spf::describe`]); run by the one node that wrote its words, in
    /// a chain, they go in a link push (see "Chained dispatches" in the
    /// crate doc). Register this prelude after the loop's footprint,
    /// before [`Spf::run`].
    pub fn describe_sequential<T: IntoIterator<Item = Touch>>(
        &self,
        id: usize,
        footprint: impl Fn(&Range<usize>) -> T + 't,
    ) {
        let visit: Prelude<'t> = Box::new(move |iters, visit| {
            footprint(iters).into_iter().for_each(|t| visit(&t));
        });
        match &mut *self.table.slot(id) {
            Some(Description::Footprint(_, prelude)) => *prelude = Some(visit),
            _ => panic!("loop {id} has a prelude but no footprint"),
        }
    }

    /// Describe loop `id` by an inspector, before [`Spf::run`]: it walks
    /// a run-time map, fixed for the run, for the sections node `q` of
    /// `np` touches over `iters`, and each evaluation is memoized (see
    /// "Dynamic descriptors" in the crate doc).
    pub fn describe_inspector(
        &self,
        id: usize,
        inspect: impl Fn(&Range<usize>, usize, usize) -> Vec<Access> + 't,
    ) {
        *self.table.slot(id) = Some(Description::Inspector(Box::new(inspect)));
    }

    /// Register the subroutine a parallel loop was encapsulated into.
    /// Must be called in the same order on every node.
    pub fn register(&self, body: impl Fn(&LoopCtl) + 't) -> usize {
        let mut loops = self.table.loops.borrow_mut();
        loops.push(Entry {
            body: Box::new(body),
            sequential: None,
            description: None,
        });
        loops.len() - 1
    }

    /// Register the sequential code SPF emits before each dispatch of
    /// loop `id` (MGS's normalization of the pivot before each
    /// orthogonalization): `body` runs with the control words of the
    /// dispatch it precedes. The master runs it, joined first, before
    /// the dispatch — unless the loop is a chained link (see "Chained
    /// dispatches" in the crate doc), whose writer runs it at the end of
    /// its body of the link before. Must be called in the same order on
    /// every node.
    pub fn register_sequential(&self, id: usize, body: impl Fn(&LoopCtl) + 't) {
        self.table.entry(id).sequential = Some(Box::new(body));
    }

    /// Run the sequential code registered before `ctl`'s dispatch, if
    /// any.
    fn run_sequential(&self, ctl: &LoopCtl) {
        let loops = self.table.loops.borrow();
        if let Some(body) = loops
            .get(ctl.id)
            .and_then(|entry| entry.sequential.as_ref())
        {
            body(ctl);
        }
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

    /// Run one dispatched body — fenced in, when a descriptor describes it
    /// and debug assertions are on.
    fn execute(&self, ctl: &LoopCtl) {
        // One Compute span per dispatched body; hint work (validate,
        // inspection) nests inside and is debited by the analyzer, so
        // the span's self-time is pure loop arithmetic.
        let _s = self
            .tmk
            .node()
            .trace_span(sp2sim::SpanKind::Compute, ctl.id as u32);
        let loops = self.table.loops.borrow();
        self.hints.before_loop(&loops, ctl.id, &ctl.range);
        let fence = cfg!(debug_assertions)
            .then(|| described(&loops, ctl.id).map(|d| self.fence(&loops, d, ctl)))
            .flatten();
        self.tmk.fence_views(Some(ctl.id), fence);
        (loops[ctl.id].body)(ctl);
        self.fence.set(self.tmk.fence_views(None, None));
        self.hints.after_loop(&loops, ctl.id, &ctl.range);
    }

    /// Count the uncounted words of `group`, about to run, and of what
    /// it names, and install the change (see the crate doc).
    fn privatize<'a>(&self, group: impl Iterator<Item = LoopCtl<'a>>) {
        let (table, tmk) = (&self.table, self.tmk);
        if table.stopped.get() {
            return;
        }
        // Only what is left to count: most dispatches allocate nothing.
        let new = |k: &LoopKey| table.opaque(k.0).is_some() && !table.counted.borrow().contains(k);
        let mut todo: Vec<LoopKey> = group.map(|ctl| loop_key(&ctl)).filter(new).collect();
        let (mut touched, mut changed) = (table.touched.borrow_mut(), Vec::new());
        let walks = self.walks.borrow();
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
            if !table.counted.borrow_mut().insert(key) {
                continue;
            }
            let mut count = |(node, _, t, _): Words| {
                for p in t.runs().flat_map(|r| tmk.page_span(t.at.arr, &r)) {
                    if touched.len() <= p {
                        touched.resize(p + 1, None);
                    }
                    let was = touched[p];
                    let own = (node != 0 && was.is_none_or(|t| t == Some(node))).then_some(node);
                    if was != Some(own) {
                        touched[p] = Some(own);
                        changed.push(p);
                    }
                }
            };
            walks.visit(table, key, true, &mut count, &mut |next| todo.push(next));
        }
        // Only when this call met the first opaque loop: every page goes
        // shared, once.
        if table.stopped.get() {
            for (p, t) in touched.iter_mut().enumerate() {
                changed.extend(t.as_mut().and_then(Option::take).map(|_| p));
            }
        }
        let changes: Vec<_> = changed.iter().map(|&p| (p, touched[p].flatten())).collect();
        tmk.privatize(&changes);
    }

    /// What the body of `ctl`, described by `d`, declared it opens on
    /// this node, by array, in the buffers of the fence before: a
    /// footprint's touches, and what an inspector's schedule for this
    /// node's share declares written — its reads are not fenced, since
    /// it names the words its body touches, not the views that read
    /// them.
    fn fence(&self, loops: &[Entry], d: &Description, ctl: &LoopCtl) -> ViewFence {
        let (me, np) = (self.tmk.proc_id(), self.tmk.nprocs());
        let mut fence = self.fence.take().unwrap_or(ViewFence {
            loop_id: ctl.id,
            reads: true,
            arrays: Vec::new(),
            writes: Vec::new(),
        });
        fence.loop_id = ctl.id;
        fence.arrays.iter_mut().for_each(|(_, runs)| runs.clear());
        fence.writes.iter_mut().for_each(|(_, runs)| runs.clear());
        match d {
            Description::Footprint(..) => {
                fence.reads = true;
                walk(loops, ctl.id, &ctl.range, me, np, &mut |t, _| {
                    let runs = set_of(&mut fence.arrays, t.at.arr);
                    t.runs().for_each(|r| insert(runs, r));
                    if t.mode != Mode::Read {
                        let runs = set_of(&mut fence.writes, t.at.arr);
                        t.runs().for_each(|r| insert(runs, r));
                    }
                });
            }
            Description::Inspector(_) => {
                fence.reads = false;
                self.hints.inspected(ctl.id, &ctl.range, &mut |a| {
                    if a.mode != Mode::Read {
                        let runs = set_of(&mut fence.writes, a.arr);
                        a.section
                            .runs()
                            .iter()
                            .for_each(|r| insert(runs, r.clone()));
                    }
                });
            }
        }
        fence
    }

    /// How many of `loops`, from the first, go out in one dispatch: the
    /// longest run of which every loop may share a dispatch with all the
    /// ones before it — one under the original interface. The first may
    /// have a prelude, which the master runs before the dispatch; a later
    /// one only as a chained link (see the crate doc).
    fn fused_run(&self, loops: &[LoopCtl]) -> usize {
        let table = &self.table;
        let starts = table.opaque(loops[0].id) == Some(false) || table.has_prelude(loops[0].id);
        if !self.improved() || loops.len() == 1 || !starts {
            return 1;
        }
        let pw = self.tmk.config().page_words;
        let (mut used, mut walks) = (self.used.borrow_mut(), self.walks.borrow_mut());
        used.clear();
        used.add(walks.walk(table, loop_key(&loops[0])));
        let mut k = 1;
        while k < loops.len() {
            let ctl = &loops[k];
            // `last` holds this loop's words either way.
            let link = if table.opaque(ctl.id) == Some(false) {
                walks.walk(table, loop_key(ctl));
                None
            } else if table.has_prelude(ctl.id) && table.has_sequential(ctl.id) {
                if !walks.chain(table, &loops[k - 1], ctl) || !used.clear_of(&walks.link, pw) {
                    break;
                }
                Some(&walks.link)
            } else {
                break;
            };
            if !used.admits(&walks.last, link) {
                break;
            }
            used.add(&walks.last);
            k += 1;
        }
        k
    }

    /// Run the bodies of one dispatch in order. Before each chained link
    /// — a loop after the first with a prelude — its writer runs the
    /// prelude and pushes what it rewrote, and every reader takes that
    /// push (see "Chained dispatches" in the crate doc).
    fn run_group<'a>(&self, group: impl IntoIterator<Item = LoopCtl<'a>>) {
        let (me, mut prev) = (self.tmk.proc_id(), None);
        // No walk outlives its dispatch.
        self.walks.borrow_mut().key = None;
        for ctl in group {
            if let Some(prev) = prev.as_ref().filter(|_| self.table.has_prelude(ctl.id)) {
                let mut walks = self.walks.borrow_mut();
                let chained = walks.chain(&self.table, prev, &ctl);
                assert!(chained, "the master chained this link");
                let Walks { link, last, np, .. } = &mut *walks;
                if me == link.writer {
                    self.run_sequential(&ctl);
                    link.find_readers(last, *np);
                    if !link.readers.is_empty() {
                        self.tmk.push_link(&link.words, &link.readers);
                    }
                } else if link.reads(last, me) {
                    self.tmk.take_link_push(link.writer);
                }
            }
            self.execute(&ctl);
            prev = Some(ctl);
        }
    }

    fn worker_loop(&self) {
        if self.improved() {
            while let Some(words) = self.tmk.worker_wait() {
                let (_, homes, loops) = decode_dispatch(&words);
                self.tmk.install_page_homes(&homes);
                self.privatize(decode_dispatch(&words).2);
                self.run_group(loops);
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
        let loops = self.spf.table.loops.borrow();
        self.spf.hints.declare_produce(&loops, accesses)
    }

    /// Dispatch one parallel loop and participate in its execution; the
    /// wait for all workers (fork ... join) completes at the master's
    /// next action (see "The master's rendezvous" in the crate doc).
    /// This is what SPF emits for every parallelized DO loop:
    /// [`Master::par_loops`] of one loop.
    pub fn par_loop(&self, id: usize, range: Range<usize>, sched: Schedule, args: &[u64]) {
        self.par_loops(&[LoopCtl::new(id, range, sched, args)]);
    }

    /// Dispatch adjacent parallel loops in order, each after the
    /// sequential code registered before it ([`Spf::register_sequential`];
    /// no other code runs between them): each maximal run of them that
    /// no other node depends on, chained links included, in one
    /// fork-join (see "Dispatch fusion" and "Chained dispatches" in the
    /// crate doc), the rest one by one.
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
            // The first loop's sequential code runs here, joined first.
            if self.spf.table.has_sequential(group[0].id) {
                self.spf.tmk.settle_join(false);
                self.spf.run_sequential(&group[0]);
            }
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
        // The sequential code that just ran here rewrote these: they ride
        // the dispatch to the first loop's readers. (A chained link's
        // runs on its writer, which pushes what it rewrote itself.)
        let ctl = &group[0];
        let loops = self.spf.table.loops.borrow();
        self.spf.hints.republish(&loops, ctl.id, &ctl.range);
        if self.spf.improved() {
            let group_loops = group.iter().map(|ctl| (ctl.id, &ctl.range));
            let planned = || self.spf.hints.planned_homes(&loops, group_loops);
            let homes = self.spf.tmk.adopt_page_homes(planned);
            self.spf.tmk.fork(&encode_dispatch(&homes, group));
            self.spf.run_group(group.iter().cloned());
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
            self.spf.execute(ctl);
            self.spf.tmk.barrier(1);
        }
    }
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
        let words = encode_dispatch(&[(4, 2)], std::slice::from_ref(&one));
        assert_eq!(words, [0, 1, 4, 2, 3, 5, 77, 1, 9, 1]);
        let two = LoopCtl::new(4, 0..8, Schedule::Block, &[]);
        let group = [one, two];
        let words = encode_dispatch(&[], &group);
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
                let owner = |j| {
                    touched
                        .get(at.arr.first_page() + j)
                        .copied()
                        .flatten()
                        .flatten()
                };
                (forks() - before, sum, (0..3).map(owner).collect())
            });
            tmk.finish();
            r
        });
        out.results[0].clone().expect("the master's")
    }

    /// An IGrid-shaped pair of inspector loops on 8 nodes — each walks
    /// a map for its block's reads of one array and writes its block of
    /// the other, which the other loop reads next — walks each `(loop,
    /// range)` at most `2·np` times on the host, not `np²`: a share once
    /// for the cluster's table, and once more by its own node. Every node
    /// is still charged for every share it reads: the same inspections
    /// and walk time on each, as if it had walked them all.
    #[test]
    fn each_share_is_walked_once_per_cluster_and_charged_on_every_node() {
        const NP: usize = 8;
        let len = 512 * NP;
        let walks = Cell::new([0usize; 2]);
        let out = Cluster::run(ClusterConfig::sp2(NP), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let insp = inspector::Inspector::new(node);
            let map: Vec<usize> = (0..len).map(|i| i * 7 % len).collect();
            let spf = Spf::new(&tmk);
            let arrs = [tmk.malloc_f64(len), tmk.malloc_f64(len)];
            let (me, tmk) = (tmk.proc_id(), &tmk);
            let body = |k: usize| {
                move |ctl: &LoopCtl| {
                    let block = ctl.my_block(me, NP);
                    tmk.write(arrs[1 - k], block).slice_mut().fill(k as f64);
                }
            };
            let l = [spf.register(body(0)), spf.register(body(1))];
            for k in 0..2 {
                let (walks, insp, map) = (&walks, &insp, &map);
                spf.describe_inspector(l[k], move |iters, q, np| {
                    let mut walked = walks.get();
                    walked[k] += 1;
                    walks.set(walked);
                    let block = block_range(q, np, iters.clone());
                    let reads = insp.gather(block.clone().map(|i| map[i]));
                    let next = l[1 - k];
                    vec![
                        Access::read(arrs[k], reads),
                        Access::write(arrs[1 - k], cri::Section::range(block))
                            .consumed_by_loop(next, 0..len),
                    ]
                });
            }
            spf.run(|m| {
                for _ in 0..2 {
                    m.par_loop(l[0], 0..len, Schedule::Block, &[]);
                    m.par_loop(l[1], 0..len, Schedule::Block, &[]);
                }
            });
            let s = tmk.finish();
            (s.inspections, s.inspect_us, s.schedule_reuse)
        });
        for (k, walked) in walks.get().into_iter().enumerate() {
            assert!((NP..=2 * NP).contains(&walked), "loop {k}: {walked} walks");
        }
        // Every node reads every share of both loops, 512 indices each.
        let share_us = (512.0 * inspector::INSPECT_ENTRY_US).ceil() as u64;
        for (q, &(inspections, inspect_us, reuse)) in out.results.iter().enumerate() {
            assert_eq!(inspections, 2 * NP as u64, "node {q}");
            assert_eq!(inspect_us, 2 * NP as u64 * share_us, "node {q}");
            assert_eq!(reuse, out.results[0].2, "node {q}");
            assert!(reuse > 0, "node {q}");
        }
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

    /// What the sequential code of [`pivot_chain`] declares it touches.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Declared {
        /// Nothing: the loops are not described either.
        Nothing,
        /// The pivot, column `k`, which it rewrites.
        Pivot,
        /// The pivot and, read, column `k + 1 mod 8`, which another node
        /// wrote.
        Wide,
    }

    /// What [`pivot_chain`] came to: the master's sum of the matrix, the
    /// forks its pivot loop took, the cluster's messages and demand
    /// fetches, and which node ran each pivot's sequential code.
    #[derive(Debug, PartialEq)]
    struct Chain {
        sum: f64,
        forks: u64,
        messages: u64,
        fetches: u64,
        ran_on: Vec<usize>,
    }

    /// A miniature MGS on four nodes: eight page-long columns, cyclic.
    /// Before each dispatch `k` of the pivot loop, over `k + 1..8`,
    /// sequential code rewrites column `k` (`x ← 2x + 1`); each node's
    /// share then adds the pivot to its columns of the range. With
    /// `neighbour` node `q` also writes its column of one half of a
    /// second array, the halves taking turns, and reads the column node
    /// `q + 1 mod 4` wrote in the other half in the dispatch before. The
    /// code is `registered`, or inline in the master's closure as SPF
    /// emitted it before it was a body.
    fn pivot_chain(cfg: TmkConfig, registered: bool, declared: Declared, neighbour: bool) -> Chain {
        let out = Cluster::run(ClusterConfig::sp2(4), move |node| {
            let ran = Cell::new(Vec::new());
            let tmk = Tmk::new(node, cfg);
            let spf = Spf::new(&tmk);
            let at = Cols::new(tmk.malloc_f64(8 * 512), 512);
            let trail = Cols::new(tmk.malloc_f64(8 * 512), 512);
            let own = move |iters: &Range<usize>, q, np| {
                at.touch(iters.clone(), Mode::Update).cyclic(q, np)
            };
            // The column of `trail` node `q` writes in dispatch `k`, and
            // the one it reads: node `q + 1`'s of dispatch `k - 1`.
            let trails = move |k: usize, q: usize| {
                let (mine, theirs) = (4 * (k % 2) + q, 4 * ((k + 1) % 2) + (q + 1) % 4);
                let read = (k > 0).then(|| trail.touch(theirs..theirs + 1, Mode::Read));
                [Some(trail.touch(mine..mine + 1, Mode::Write)), read]
                    .into_iter()
                    .flatten()
            };
            let init = spf.register({
                let tmk = &tmk;
                move |ctl: &LoopCtl| {
                    for j in own(&ctl.range, tmk.proc_id(), tmk.nprocs()).columns() {
                        let mut w = at.touch(j..j + 1, Mode::Write).write(tmk);
                        let col = w.slice_mut().iter_mut().enumerate();
                        col.for_each(|(i, x)| *x = (j * 512 + i) as f64);
                    }
                }
            });
            let upd = spf.register({
                let tmk = &tmk;
                move |ctl: &LoopCtl| {
                    let k = ctl.args[0] as usize;
                    let pivot = at.touch(k..k + 1, Mode::Read).read(tmk).slice().to_vec();
                    for t in trails(k, tmk.proc_id()).filter(|_| neighbour) {
                        match t.mode {
                            Mode::Read => drop(t.read(tmk)),
                            _ => t.write(tmk).slice_mut().fill(k as f64),
                        }
                    }
                    for j in own(&ctl.range, tmk.proc_id(), tmk.nprocs()).columns() {
                        let mut w = at.touch(j..j + 1, Mode::Update).write(tmk);
                        w.slice_mut()
                            .iter_mut()
                            .zip(&pivot)
                            .for_each(|(x, p)| *x += p);
                    }
                }
            });
            let normalize = {
                let (tmk, ran) = (&tmk, &ran);
                move |k: usize| {
                    let mut w = at.touch(k..k + 1, Mode::Update).write(tmk);
                    w.slice_mut().iter_mut().for_each(|x| *x = 2.0 * *x + 1.0);
                    let mut seen = ran.take();
                    seen.push(k);
                    ran.set(seen);
                }
            };
            if registered {
                spf.register_sequential(upd, move |ctl: &LoopCtl| normalize(ctl.args[0] as usize));
            }
            if declared != Declared::Nothing {
                let init_fp = move |i: &Range<usize>, q, np| {
                    Some([at.touch(i.clone(), Mode::Write).cyclic(q, np)])
                };
                spf.describe(init, init_fp, move |_, _| vec![Next::Loop(upd, 1..8)]);
                let upd_fp = move |i: &Range<usize>, q, np| {
                    let k = i.start - 1;
                    let trails = trails(k, q).filter(move |_| neighbour);
                    Some(
                        [at.touch(k..k + 1, Mode::Read), own(i, q, np)]
                            .into_iter()
                            .chain(trails),
                    )
                };
                let next = move |i: &Range<usize>, _: &Touch| {
                    vec![Next::Loop(upd, (i.start + 1).min(8)..8)]
                };
                spf.describe(upd, upd_fp, next);
                spf.describe_sequential(upd, move |i| {
                    let k = i.start - 1;
                    let mut touches = vec![at.touch(k..k + 1, Mode::Update)];
                    if declared == Declared::Wide {
                        let next = (k + 1) % 8;
                        touches.push(at.touch(next..next + 1, Mode::Read));
                    }
                    touches
                });
            }
            let master = spf.run(|m| {
                m.par_loop(init, 0..8, Schedule::Cyclic, &[]);
                let forks = || m.tmk().stats_snapshot().forks;
                let before = forks();
                let pivots: Vec<[u64; 1]> = (0..8).map(|k| [k]).collect();
                let link = |k: usize| LoopCtl::new(upd, k + 1..8, Schedule::Cyclic, &pivots[k]);
                if registered {
                    m.par_loops(&(0..8).map(link).collect::<Vec<_>>());
                } else {
                    for k in 0..8 {
                        m.tmk();
                        normalize(k);
                        m.par_loops(&[link(k)]);
                    }
                }
                let forks = forks() - before;
                let sum = at
                    .touch(0..8, Mode::Read)
                    .read(m.tmk())
                    .slice()
                    .iter()
                    .sum::<f64>();
                (sum, forks)
            });
            tmk.finish();
            (master, ran.take())
        });
        let (sum, forks) = out.results[0].0.expect("the master's");
        let mut ran_on = vec![usize::MAX; 8];
        for (q, (_, ran)) in out.results.iter().enumerate() {
            ran.iter().for_each(|&k| ran_on[k] = q);
        }
        Chain {
            sum,
            forks,
            messages: out.stats.total_messages(),
            fetches: out.stats.messages(MsgKind::DiffReq),
            ran_on,
        }
    }

    /// The sum every version of [`pivot_chain`] must reach.
    fn pivot_chain_sum() -> f64 {
        let mut cols: Vec<Vec<f64>> = (0..8)
            .map(|j| (0..512).map(|i| (j * 512 + i) as f64).collect())
            .collect();
        for k in 0..8 {
            cols[k].iter_mut().for_each(|x| *x = 2.0 * *x + 1.0);
            let pivot = cols[k].clone();
            for col in &mut cols[k + 1..] {
                col.iter_mut().zip(&pivot).for_each(|(x, p)| *x += p);
            }
        }
        cols.iter().flatten().sum()
    }

    /// Each pivot after the first lies in the words its owner wrote in the
    /// dispatch before: the owner rewrites it at the end of its body and
    /// pushes it, and every node reads it from the push — nothing is
    /// fetched — in one fork for the whole loop.
    #[test]
    fn a_prelude_inside_one_nodes_writes_runs_there_and_reaches_every_reader() {
        let chain = pivot_chain(TmkConfig::default(), true, Declared::Pivot, false);
        let owners = [0, 1, 2, 3, 0, 1, 2, 3];
        assert_eq!(chain.sum, pivot_chain_sum());
        assert_eq!(
            chain.ran_on, owners,
            "the first on the master, the rest where they lie"
        );
        assert_eq!(chain.fetches, 0);
        let hlrc = pivot_chain(TmkConfig::hlrc(), true, Declared::Pivot, false);
        assert_eq!((hlrc.sum, hlrc.ran_on), (chain.sum, owners.to_vec()));
    }

    #[test]
    fn a_run_of_chained_links_goes_out_in_one_fork() {
        let chain = pivot_chain(TmkConfig::default(), true, Declared::Pivot, false);
        assert_eq!(chain.forks, 1);
        let hlrc = pivot_chain(TmkConfig::hlrc(), true, Declared::Pivot, false);
        assert_eq!(hlrc.forks, 1);
    }

    /// A prelude that reads a column another node wrote besides its pivot
    /// is not inside one node's writes: the master runs every one.
    #[test]
    fn a_prelude_reading_what_two_nodes_wrote_stays_on_the_master() {
        let wide = pivot_chain(TmkConfig::default(), true, Declared::Wide, false);
        assert_eq!((wide.sum, wide.forks), (pivot_chain_sum(), 8));
        assert_eq!(wide.ran_on, [0; 8]);
    }

    /// A body that reads the column another node wrote in the dispatch
    /// before, and no prelude rewrote, needs that node's notice: every
    /// link goes out in a fork of its own, after the master's prelude.
    #[test]
    fn a_link_reading_another_nodes_write_breaks_the_chain() {
        let chain = pivot_chain(TmkConfig::default(), true, Declared::Pivot, true);
        assert_eq!((chain.sum, chain.forks), (pivot_chain_sum(), 8));
        assert_eq!(chain.ran_on, [0; 8]);
    }

    /// Under the original interface, or undescribed, registered sequential
    /// code runs on the master before each dispatch, joined first, as the
    /// inline code did: the same forks, the same messages — the ones the
    /// inline program sent when sequential code could not be registered.
    #[test]
    fn the_original_interface_and_undescribed_preludes_never_chain() {
        let cases = [
            (TmkConfig::default(), Declared::Nothing, INLINE_MESSAGES[0]),
            (
                TmkConfig::legacy_forkjoin(),
                Declared::Pivot,
                INLINE_MESSAGES[1],
            ),
        ];
        for (cfg, declared, messages) in cases {
            let inline = pivot_chain(cfg, false, declared, false);
            let registered = pivot_chain(cfg, true, declared, false);
            assert_eq!(registered.ran_on, [0; 8], "{declared:?}");
            assert_eq!(registered, inline, "{declared:?}");
            assert_eq!((inline.sum, inline.messages), (pivot_chain_sum(), messages));
        }
    }

    /// [`pivot_chain`]'s messages with inline sequential code, undescribed
    /// under the improved interface and described under the original one,
    /// when sequential code was always inline.
    const INLINE_MESSAGES: [u64; 2] = [150, 264];

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

    /// Fusion by runs alone, as [`Spf::fused_run`] decided before touches
    /// met by arithmetic: every node's words of the run so far as sorted
    /// runs, and a link's writer, containment and readers by run overlap.
    /// The reference the closed form must agree with.
    mod by_runs {
        use super::super::*;

        /// Whether run `r`, less the words of `minus`, meets a run of
        /// `runs` (both sorted and disjoint).
        fn meets(runs: &[Range<usize>], r: &Range<usize>, minus: &[Range<usize>]) -> bool {
            let mut met = false;
            for_each_difference(std::slice::from_ref(r), minus, |part| {
                let k = runs.partition_point(|x| x.end <= part.start);
                met |= runs.get(k).is_some_and(|x| x.start < part.end);
            });
            met
        }

        type Sets = Vec<(SetKey, Vec<Range<usize>>)>;

        /// A link: its writer, the runs it pushes by array, its readers.
        pub(super) type Link = (usize, Vec<(SharedArray, Vec<Range<usize>>)>, Vec<usize>);

        /// Every node's touches of `ctl`'s loop.
        fn words(spf: &Spf, ctl: &LoopCtl) -> Vec<Words> {
            let mut words = Vec::new();
            let walks = spf.walks.borrow();
            walks.visit(
                &spf.table,
                loop_key(ctl),
                false,
                &mut |w| words.push(w),
                &mut |_| {},
            );
            words
        }

        fn add(sets: &mut Sets, words: &[Words]) {
            for (q, mode, t, _) in words {
                let runs = set_of(sets, (*q, t.at.arr.first_page(), *mode != Mode::Read));
                t.runs().for_each(|r| insert(runs, r));
            }
        }

        fn pushed(link: &Link, arr: SharedArray) -> &[Range<usize>] {
            let runs = link.1.iter().find(|(a, _)| *a == arr);
            runs.map_or(&[], |(_, runs)| &runs[..])
        }

        /// The link `ctl` makes after `prev`, if it makes one.
        pub(super) fn link(spf: &Spf, prev: &LoopCtl, ctl: &LoopCtl) -> Option<Link> {
            let (before, after) = (words(spf, prev), words(spf, ctl));
            let mut touches = Vec::new();
            let loops = spf.table.loops.borrow();
            prelude(&loops, ctl.id, &ctl.range, &mut |t| touches.push(t.clone()));
            let writes = || before.iter().filter(|w| w.1 != Mode::Read);
            let mut writer = None;
            for s in &touches {
                for (q, _, t, _) in writes().filter(|w| w.2.at.arr == s.at.arr) {
                    let mut met = false;
                    for_each_overlap(t.runs(), s.runs(), |_| met = true);
                    if met && *writer.get_or_insert(*q) != *q {
                        return None;
                    }
                }
            }
            let writer = writer?;
            for s in &touches {
                let mut own = Vec::new();
                for (_, _, t, _) in writes().filter(|w| w.0 == writer && w.2.at.arr == s.at.arr) {
                    t.runs().for_each(|r| insert(&mut own, r));
                }
                if !s.runs().all(|r| contains(&own, &r)) {
                    return None;
                }
            }
            let mut words = Vec::new();
            for s in touches.iter().filter(|s| s.mode != Mode::Read) {
                let runs = set_of(&mut words, s.at.arr);
                s.runs().for_each(|r| insert(runs, r));
            }
            words.retain(|(_, runs): &(_, Vec<_>)| !runs.is_empty());
            let mut link = (writer, words, Vec::new());
            let reads = |q: usize| {
                let read = |(p, _, t, _): &Words| {
                    *p == q && t.runs().any(|r| meets(pushed(&link, t.at.arr), &r, &[]))
                };
                after.iter().any(read)
            };
            let readers = (0..spf.tmk.nprocs())
                .filter(|&q| q != writer && reads(q))
                .collect();
            link.2 = readers;
            Some(link)
        }

        fn admits(used: &Sets, later: &[Words], link: Option<&Link>) -> bool {
            later.iter().all(|&(q, mode, ref t, _)| {
                let pushed = |p: usize| match link {
                    Some(link) if link.0 == p && mode == Mode::Read => pushed(link, t.at.arr),
                    _ => &[],
                };
                let arr = t.at.arr.first_page();
                !used.iter().any(|&((p, a, written), ref runs)| {
                    let hazard = written || mode != Mode::Read;
                    p != q && a == arr && hazard && t.runs().any(|r| meets(runs, &r, pushed(p)))
                })
            })
        }

        fn clear_of(used: &Sets, link: &Link, pw: usize) -> bool {
            link.1.iter().all(|(arr, runs)| {
                let pages = runs
                    .iter()
                    .map(|r| r.start / pw * pw..r.end.div_ceil(pw) * pw);
                used.iter().all(|&((p, a, written), ref set)| {
                    let others = written && p != link.0 && a == arr.first_page();
                    !others || pages.clone().all(|r| !meets(set, &r, &[]))
                })
            })
        }

        /// How many of `loops`, from the first, go out in one dispatch.
        pub(super) fn fused_run(spf: &Spf, loops: &[LoopCtl]) -> usize {
            let table = &spf.table;
            let starts = table.opaque(loops[0].id) == Some(false) || table.has_prelude(loops[0].id);
            if !spf.improved() || loops.len() == 1 || !starts {
                return 1;
            }
            let pw = spf.tmk.config().page_words;
            let mut used = Sets::new();
            add(&mut used, &words(spf, &loops[0]));
            let mut k = 1;
            while k < loops.len() {
                let ctl = &loops[k];
                let link = if table.opaque(ctl.id) == Some(false) {
                    None
                } else if table.has_prelude(ctl.id) && table.has_sequential(ctl.id) {
                    match link(spf, &loops[k - 1], ctl) {
                        Some(link) if clear_of(&used, &link, pw) => Some(link),
                        _ => break,
                    }
                } else {
                    break;
                };
                let later = words(spf, ctl);
                if !admits(&used, &later, link.as_ref()) {
                    break;
                }
                add(&mut used, &later);
                k += 1;
            }
            k
        }
    }

    /// Hold `spf`'s fusion and chain decisions over `loops` against
    /// [`by_runs`]: the run that goes out from every loop on, and the link
    /// every loop after the first with a prelude makes.
    fn decides_as_by_runs(spf: &Spf, loops: &[LoopCtl]) {
        for k in 0..loops.len() {
            let rest = &loops[k..];
            let want = by_runs::fused_run(spf, rest);
            assert_eq!(spf.fused_run(rest), want, "the run from loop {k}");
            if k == 0 || !spf.table.has_prelude(loops[k].id) {
                continue;
            }
            let want = by_runs::link(spf, &loops[k - 1], &loops[k]);
            let mut walks = spf.walks.borrow_mut();
            walks.key = None;
            let chained = walks.chain(&spf.table, &loops[k - 1], &loops[k]);
            let Walks { link, last, np, .. } = &mut *walks;
            link.find_readers(last, *np);
            let got = chained.then(|| (link.writer, link.words.clone(), link.readers.clone()));
            assert_eq!(got, want, "link {k}");
        }
    }

    /// MGS's shape on four nodes: twelve columns of 16 words, 10 of them
    /// used, written cyclically, then a link per pivot that reads the
    /// pivot and updates its share of the columns after it, each after a
    /// normalization of the pivot — or of the pivot and the column after
    /// it (`wide`), which another node wrote; with `trails`, each link
    /// also writes a column of a second array and reads the one its
    /// neighbour wrote in the link before. Pages of 16 and of 512 words.
    #[test]
    fn fusion_decides_as_by_runs_on_mgs_shaped_tables() {
        for (page_words, wide, trails) in [
            (16, false, false),
            (16, true, false),
            (16, false, true),
            (512, false, false),
            (64, false, true),
        ] {
            let cfg = TmkConfig {
                page_words,
                ..TmkConfig::default()
            };
            Cluster::run(ClusterConfig::sp2(4), move |node| {
                let tmk = Tmk::new(node, cfg);
                let spf = Spf::new(&tmk);
                let (n, at) = (12, Cols::new(tmk.malloc_f64(12 * 16), 16));
                let trail = Cols::new(tmk.malloc_f64(12 * 16), 16);
                let col = move |j: usize, mode| at.touch(j..j + 1, mode).rows(0..10);
                let (init, upd) = (
                    spf.register(|_: &LoopCtl| {}),
                    spf.register(|_: &LoopCtl| {}),
                );
                spf.register_sequential(upd, |_: &LoopCtl| {});
                let written = move |i: &Range<usize>, q, np| {
                    Some([at.touch(i.clone(), Mode::Write).rows(0..10).cyclic(q, np)])
                };
                spf.describe(init, written, move |_, _| vec![Next::Loop(upd, 1..n)]);
                let orthogonalization = move |i: &Range<usize>, q: usize, np| {
                    let k = i.start - 1;
                    let own = at.touch(i.clone(), Mode::Update).rows(0..10).cyclic(q, np);
                    let (mine, theirs) = (4 * (k % 2) + q, 4 * ((k + 1) % 2) + (q + 1) % 4);
                    let trailing = [
                        trail.touch(mine..mine + 1, Mode::Write),
                        trail.touch(theirs..theirs + 1, Mode::Read),
                    ];
                    let trailing = trailing.into_iter().filter(move |_| trails && k > 0);
                    Some([col(k, Mode::Read), own].into_iter().chain(trailing))
                };
                spf.describe(upd, orthogonalization, move |i, _| {
                    vec![Next::Loop(upd, (i.start + 1).min(n)..n)]
                });
                spf.describe_sequential(upd, move |i| {
                    let k = i.start - 1;
                    let next = wide.then(|| col((k + 1) % n, Mode::Read));
                    [col(k, Mode::Update)].into_iter().chain(next)
                });
                let pivots: Vec<[u64; 1]> = (0..n as u64).map(|k| [k]).collect();
                let mut loops = vec![LoopCtl::new(init, 0..n, Schedule::Cyclic, &[])];
                loops.extend(
                    (0..n - 1).map(|k| LoopCtl::new(upd, k + 1..n, Schedule::Cyclic, &pivots[k])),
                );
                decides_as_by_runs(&spf, &loops);
                tmk.finish();
            });
        }
    }

    /// Shallow's shape on four nodes: arrays of nine columns of nine
    /// words, each node's block of columns 1–8 read with the column
    /// before it and written or updated whole, in loops that fuse and
    /// loops that must not; pages of 16 words, which columns straddle.
    #[test]
    fn fusion_decides_as_by_runs_on_shallow_shaped_tables() {
        let cfg = TmkConfig {
            page_words: 16,
            ..TmkConfig::default()
        };
        Cluster::run(ClusterConfig::sp2(4), move |node| {
            let tmk = Tmk::new(node, cfg);
            let spf = Spf::new(&tmk);
            let arrays: [Cols; 5] = std::array::from_fn(|_| Cols::new(tmk.malloc_f64(81), 9));
            let [p, u, cu, unew, uold] = arrays;
            let block = |i: &Range<usize>, q, np| {
                Some(block_range(q, np, i.clone())).filter(|b| !b.is_empty())
            };
            let ghosted = |jr: &Range<usize>| jr.start - 1..jr.end;
            let ids: [usize; 5] = std::array::from_fn(|_| spf.register(|_: &LoopCtl| {}));
            let [s1, s2, s3, own, wrap] = ids;
            let to = move |id| move |_: &Range<usize>, _: &Touch| vec![Next::Loop(id, 1..9)];
            spf.describe(
                s1,
                move |i: &Range<usize>, q, np| {
                    let jr = block(i, q, np)?;
                    Some([
                        p.touch(ghosted(&jr), Mode::Read),
                        u.touch(ghosted(&jr), Mode::Read),
                        cu.touch(jr, Mode::Write),
                    ])
                },
                to(s2),
            );
            spf.describe(
                s2,
                move |i: &Range<usize>, q, np| {
                    let jr = block(i, q, np)?;
                    Some([
                        cu.touch(ghosted(&jr), Mode::Read),
                        uold.touch(jr.clone(), Mode::Read),
                        unew.touch(jr, Mode::Write),
                    ])
                },
                to(s3),
            );
            spf.describe(
                s3,
                move |i: &Range<usize>, q, np| {
                    let jr = block(i, q, np)?;
                    Some([
                        unew.touch(jr.clone(), Mode::Read),
                        u.touch(jr.clone(), Mode::Update),
                        uold.touch(jr, Mode::Update),
                    ])
                },
                move |_, _| vec![Next::Loop(s1, 1..9), Next::Node(0, 8..9)],
            );
            spf.describe(
                own,
                move |i: &Range<usize>, q, np| {
                    let jr = block(i, q, np)?;
                    Some([p.touch(jr, Mode::Update)])
                },
                to(s1),
            );
            spf.describe(
                wrap,
                move |_: &Range<usize>, q, _| {
                    (q == 0).then(|| [u.touch(8..9, Mode::Read), u.touch(0..1, Mode::Write)])
                },
                to(s1),
            );
            let over = |id| LoopCtl::new(id, 1..9, Schedule::Block, &[]);
            let loops = [s1, s2, s3, wrap, s1, own, s3, own, wrap, s2].map(over);
            decides_as_by_runs(&spf, &loops);
            tmk.finish();
        });
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
                let owner = |page| touched.get(page).copied().flatten().flatten();
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
