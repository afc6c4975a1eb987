//! The hint engine: turning the loop table's descriptors into runtime
//! actions.
//!
//! A compiler that knows the regular sections a parallel loop touches
//! can tell the DSM three things the paper's measurements show it pays
//! dearly for discovering at fault time:
//!
//! * **what a phase will read** — so the runtime issues one *aggregated
//!   validate* round trip per writer before the loop body runs, instead
//!   of taking a page fault (and a request/response pair) per page;
//! * **who consumes what a phase wrote** — so producers *push* the
//!   overlapping pages with the next synchronization rendezvous and the
//!   consumers never request them;
//! * **that a reduction is a reduction** — handled by
//!   [`treadmarks::Tmk::reduce`] (direct tree combining) rather than the
//!   lock-and-shared-page folding SPF emits by default.
//!
//! The engine is deliberately mechanical: descriptors are evaluated per
//! node from `(iteration range, proc id, nprocs)`, mirroring how the
//! compiler's runtime would evaluate its symbolic sections with the
//! loop bounds of the current dispatch.
//!
//! Under HLRC ([`treadmarks::hlrc`]) they also drive **home placement**
//! ([`HintEngine::planned_homes`], decided once on the master at fork
//! time through [`Tmk::adopt_page_homes`]), and a push to a consumer that
//! *is* the page's home is skipped: the home flush already carries the
//! same diff there.
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
//! the pusher's panics at the install). A third rests on it for time
//! alone: the other pages a body declares written are write-enabled by
//! its validate, so the body's first store there twins without a fault
//! ([`Tmk::arm`]); debug builds fence each body's write views to the
//! words it declared written.
//! Hinted and unhinted executions produce byte-identical shared memory;
//! `tests/cri_equivalence.rs` pins that property.
//!
//! The engine keeps no descriptor. It reads each loop's accesses off the
//! loop table it is handed — a footprint's as its walk visits the
//! touches, an inspector's from the schedule cache — as one stream that
//! one builder turns into plans, in one [`Mode`] vocabulary, and keeps
//! only what they came to: the plans it replays and which inspectors'
//! schedules this node was charged for. The schedules themselves live
//! once per cluster, in a table every node's engine shares: each share
//! of an inspector loop is walked once on the host for all nodes, but a
//! node's own share always by that node — the walk faults in the maps
//! it reads, which a share served from the table would leave to the loop
//! body — and every node is charged each share's walk as if it had
//! walked it. Every description is fixed for the run, so a schedule is
//! never dropped and a plan is built again only when its loop comes with
//! another range (see "Hint plans" and "Dynamic descriptors" in the
//! crate doc).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use cri::section::{for_each_overlap, merge_ranges, subtract};
use cri::{Access, Consumer, Section};
use inspector::Inspector;
use treadmarks::{SharedArray, Tmk};

use crate::footprint::meet;
use crate::{described, prelude, walk, Description, Entry, Inspect, Mode, Next, Touch};

/// Sorted, disjoint page runs.
type Runs = Vec<Range<usize>>;

/// Schedule-cache key: `(loop id, iters.start, iters.end, node)`.
type ScheduleKey = (usize, usize, usize, usize);

/// What one inspection came to: node `q`'s accesses, and how many
/// indices the walk visited — what each node is charged for it.
#[derive(PartialEq)]
struct Schedule {
    accesses: Vec<Access>,
    visited: usize,
}

/// The cluster's schedules, a host slot every node of the run shares
/// ([`sp2sim::Node::cluster_slot`]): each share an inspector describes,
/// by run-time and [`ScheduleKey`], inspected once on the host. It holds
/// pure derivations only: a schedule is a function of `(iters, q, np)`
/// over maps published once, so a node served from it learns nothing
/// its own walk would not produce.
#[derive(Default)]
struct Schedules(RefCell<HashMap<(usize, ScheduleKey), Rc<Schedule>>>);

/// The words of a declared access.
#[derive(Clone, Copy)]
enum Shape<'a> {
    /// A footprint's touch, or a part of one.
    Touch(&'a Touch),
    /// An inspector's or sequential code's section.
    Section(&'a Section),
}

impl Shape<'_> {
    /// Call `f` with each maximal word run, ascending: a section's as it
    /// holds them, a touch's as [`Touch::runs`] yields them.
    fn for_each_run(self, f: impl FnMut(Range<usize>)) {
        match self {
            Shape::Section(s) => s.runs().iter().cloned().for_each(f),
            Shape::Touch(t) => t.runs().for_each(f),
        }
    }
}

/// One access of a stream, as the plan builder reads it.
struct Declared<'a> {
    /// The shared array.
    arr: SharedArray,
    /// How the loop uses the words.
    mode: Mode,
    /// The words.
    shape: Shape<'a>,
    /// Who reads a write next.
    consumers: Consumers<'a>,
}

/// Visits who reads a write next, afresh at every call.
type Consumers<'a> = &'a dyn Fn(&mut dyn FnMut(Consumer));

/// A stream of declared accesses: visits each, in declaration order,
/// afresh at every call.
type Stream<'a> = &'a dyn Fn(&mut dyn FnMut(&Declared));

/// Visit `accesses` (an inspector's, or what sequential code declares).
fn listed(accesses: &[Access], visit: &mut dyn FnMut(&Declared)) {
    for a in accesses {
        let consumers = |to: &mut dyn FnMut(Consumer)| a.consumers.iter().cloned().for_each(to);
        visit(&Declared {
            arr: a.arr,
            mode: a.mode,
            shape: Shape::Section(&a.section),
            consumers: &consumers,
        });
    }
}

/// Visit `part`, declared in `mode`, read next by `consumer` alone.
fn visit_part(visit: &mut dyn FnMut(&Declared), part: &Touch, mode: Mode, consumer: Consumer) {
    let consumers = |to: &mut dyn FnMut(Consumer)| to(consumer.clone());
    visit(&Declared {
        arr: part.at.arr,
        mode,
        shape: Shape::Touch(part),
        consumers: &consumers,
    });
}

/// Visit node `q`'s accesses of footprint loop `id` over `iters` as
/// [`crate::Spf::describe`] declares them, as the loop's walk visits its
/// touches: each touch, a written one with the loops that read all of it
/// next; then, per `next`, the columns a [`Next::Node`] reads, as a plain
/// write of their own, and for a [`Next::Loop`] with a prelude, the
/// columns the prelude reads, to node 0, and — when it rewrites some
/// whole — those it leaves, to the loop.
fn footprint_accesses(
    loops: &[Entry],
    id: usize,
    iters: &Range<usize>,
    q: usize,
    np: usize,
    visit: &mut dyn FnMut(&Declared),
) {
    walk(loops, id, iters, q, np, &mut |t, nexts| {
        let whole = |to: &mut dyn FnMut(Consumer)| {
            nexts(&mut |n| match n {
                Next::Loop(id, iters) if !rewrites(loops, id, &iters, t) => {
                    to(Consumer::Loop { id, iters })
                }
                _ => {}
            })
        };
        visit(&Declared {
            arr: t.at.arr,
            mode: t.mode,
            shape: Shape::Touch(t),
            consumers: &whole,
        });
        nexts(&mut |n| match n {
            Next::Node(node, cols) => {
                if let Some(part) = t.within(&cols) {
                    visit_part(visit, &part, Mode::Update, Consumer::Node(node));
                }
            }
            Next::Loop(id, iters) => {
                // What the prelude before the loop reads goes to the
                // master, which runs it; when it rewrites columns whole,
                // the loop is sent only the rest.
                prelude(loops, id, &iters, &mut |s| {
                    let read = |_: &Touch| s.at == t.at && s.mode != Mode::Write;
                    if let Some(part) = t.within(&s.cols).filter(read) {
                        visit_part(visit, &part, t.mode, Consumer::Node(0));
                    }
                });
                if rewrites(loops, id, &iters, t) {
                    kept(loops, id, &iters, t, &mut |cols| {
                        if let Some(part) = t.within(&cols) {
                            let to = Consumer::Loop {
                                id,
                                iters: iters.clone(),
                            };
                            visit_part(visit, &part, t.mode, to);
                        }
                    });
                }
            }
        });
    });
}

/// Visit the columns of `t` that loop `id`'s prelude over `iters`
/// rewrites, every row of `t` in each.
fn rewritten(
    loops: &[Entry],
    id: usize,
    iters: &Range<usize>,
    t: &Touch,
    visit: &mut dyn FnMut(Range<usize>),
) {
    prelude(loops, id, iters, &mut |s| {
        let rows = s.rows.start <= t.rows.start && t.rows.end <= s.rows.end;
        if s.at == t.at && s.mode != Mode::Read && rows {
            if let Some(part) = t.within(&s.cols) {
                visit(part.cols);
            }
        }
    });
}

/// Whether loop `id`'s prelude over `iters` rewrites a column of `t`.
fn rewrites(loops: &[Entry], id: usize, iters: &Range<usize>, t: &Touch) -> bool {
    let mut any = false;
    rewritten(loops, id, iters, t, &mut |_| any = true);
    any
}

/// Visit the columns of `t` that loop `id`'s prelude over `iters` does
/// not rewrite, as maximal ranges, ascending: a sweep that asks the
/// prelude again at each step rather than sort what it rewrites.
fn kept(
    loops: &[Entry],
    id: usize,
    iters: &Range<usize>,
    t: &Touch,
    visit: &mut dyn FnMut(Range<usize>),
) {
    let mut at = t.cols.start;
    loop {
        // Past every rewritten run that holds column `at`.
        let mut stepped = true;
        while stepped {
            stepped = false;
            rewritten(loops, id, iters, t, &mut |cols| {
                if cols.contains(&at) {
                    (at, stepped) = (cols.end, true);
                }
            });
        }
        if at >= t.cols.end {
            return;
        }
        let mut end = t.cols.end;
        rewritten(loops, id, iters, t, &mut |cols| {
            if cols.start > at {
                end = end.min(cols.start);
            }
        });
        visit(at..end);
        at = end;
    }
}

/// Append the pages of `a` to `runs` and return how many word runs it
/// has. Its runs ascend, so its pages come out as sorted, merged runs;
/// what `runs` held before is left alone (the caller merges across
/// accesses).
fn add_pages(tmk: &Tmk, a: &Declared, runs: &mut Runs) -> usize {
    let (first, mut words) = (runs.len(), 0);
    a.shape.for_each_run(|r| {
        words += 1;
        let span = tmk.page_span(a.arr, &r);
        match runs[first..].last_mut() {
            Some(last) if span.start <= last.end => last.end = last.end.max(span.end),
            _ => runs.push(span),
        }
    });
    words
}

/// What a node's accesses come to in pages.
#[derive(Default)]
struct Pages {
    /// How many word runs the accesses have.
    sections: usize,
    /// The pages the accesses touch, less those armed.
    pages: Runs,
    /// The pages the body overwrites whole: each page a write-all access
    /// covers entirely, less every page an access that is not write-all
    /// touches — a read, or a write with fetch semantics.
    armed: Runs,
    /// The validated-write pages: the other pages a write touches, which
    /// the validate write-enables.
    written: Runs,
}

impl Pages {
    /// Fill in the pages of `stream`. Its accesses are walked a second
    /// time only when some page is covered whole.
    fn build(&mut self, tmk: &Tmk, stream: Stream) {
        let pw = tmk.config().page_words;
        self.sections = 0;
        self.pages.clear();
        self.armed.clear();
        self.written.clear();
        stream(&mut |a| {
            let at = self.pages.len();
            self.sections += add_pages(tmk, a, &mut self.pages);
            if a.mode != Mode::Read {
                self.written.extend_from_slice(&self.pages[at..]);
            }
            if a.mode == Mode::Write {
                let base = a.arr.first_page() * pw;
                a.shape.for_each_run(|r| {
                    let run = (base + r.start).div_ceil(pw)..(base + r.end) / pw;
                    if !run.is_empty() {
                        self.armed.push(run);
                    }
                });
            }
        });
        self.pages = merge_ranges(std::mem::take(&mut self.pages));
        self.written = merge_ranges(std::mem::take(&mut self.written));
        if self.armed.is_empty() {
            return;
        }
        let mut other = Vec::new();
        stream(&mut |a| {
            if a.mode != Mode::Write {
                add_pages(tmk, a, &mut other);
            }
        });
        let other = merge_ranges(other);
        self.armed = subtract(merge_ranges(std::mem::take(&mut self.armed)), &other);
        self.pages = subtract(std::mem::take(&mut self.pages), &self.armed);
        self.written = subtract(std::mem::take(&mut self.written), &self.armed);
    }
}

/// One third of a [`Plan`]: the list its call site replays, whether it
/// is built for the plan's range, and how many dynamic-descriptor
/// evaluations building it took — schedule-cache hits, every one, by
/// the time it is replayed.
#[derive(Default)]
struct Third<L> {
    list: L,
    built: bool,
    dyn_evals: u64,
}

/// What a described loop's hints come to over one iteration range.
#[derive(Default)]
struct Plan {
    iters: Range<usize>,
    /// `before_loop`: the body's accesses in pages — how many word runs
    /// they have, the pages to validate and the pages it overwrites
    /// whole.
    validate: Third<Pages>,
    /// `after_loop`: the pushes in registration order, HLRC home filter
    /// not yet applied.
    pushes: Third<Pushes>,
    /// `planned_homes`: every `(page, writer)` of the writes.
    homes: Third<Vec<(usize, usize)>>,
}

/// A push list: `(target, page, words)` in registration order, `words`
/// indexing the page-relative word runs of `runs` the target reads on
/// the page — the meet its push carries — or empty for the whole page.
#[derive(Clone, Debug, Default, PartialEq)]
struct Pushes {
    list: Vec<(usize, usize, Range<usize>)>,
    runs: Runs,
}

impl Pushes {
    fn clear(&mut self) {
        self.list.clear();
        self.runs.clear();
    }

    /// Push page `p` to `q` whole.
    fn whole(&mut self, q: usize, p: usize) {
        self.list.push((q, p, 0..0));
    }

    /// Push page `p` to `q`, which reads the words of `words` — sorted,
    /// disjoint global word runs — there, on pages of `pw` words.
    fn meet(&mut self, q: usize, p: usize, words: &[Range<usize>], pw: usize) {
        let (lo, hi, at) = (p * pw, (p + 1) * pw, self.runs.len());
        let first = words.partition_point(|w| w.end <= lo);
        let on_page = words[first..].iter().take_while(|w| w.start < hi);
        self.runs
            .extend(on_page.map(|w| w.start.max(lo) - lo..w.end.min(hi) - lo));
        debug_assert!(
            self.runs.len() > at,
            "a consumer reads the page it is pushed"
        );
        self.list.push((q, p, at..self.runs.len()));
    }
}

/// The builder's buffers, kept between builds.
#[derive(Default)]
struct Scratch {
    /// The pages a written access covers.
    mine: Runs,
    /// A consumer's pages of the written array, less those it overwrites
    /// whole.
    theirs: Pages,
    /// A node's written pages, or a republished access's word runs.
    runs: Runs,
    /// The global words a consumer's accesses touch.
    words: Runs,
}

/// The per-node hint engine, layered on one [`Tmk`] instance. Every
/// call that reads a loop's accesses is handed the loop table's entries,
/// `loops`, in which it looks the loop up.
pub(crate) struct HintEngine<'t, 'n> {
    tmk: &'t Tmk<'n>,
    /// Which run-time of the cluster's this engine serves: its loop ids
    /// name loops of that run-time alone.
    run_time: usize,
    /// The shares this node has been charged for, each with its
    /// schedule in the cluster's table.
    charged: RefCell<HashMap<ScheduleKey, Rc<Schedule>>>,
    /// The cluster's schedules.
    schedules: Rc<Schedules>,
    /// What counts the inspectors' walks on this node and charges them.
    inspector: Inspector<'t>,
    /// The compiled plan of each loop id, for the range it last ran over.
    plans: RefCell<Vec<Plan>>,
    /// Inspector evaluations so far (hits and misses): a plan under
    /// construction reads its own share off this counter.
    dyn_evals: Cell<u64>,
    /// The builder's buffers.
    scratch: RefCell<Scratch>,
}

impl<'t, 'n> HintEngine<'t, 'n> {
    /// An engine with nothing cached, for run-time `run_time` of the
    /// cluster: the same number on every node, and another for each
    /// other run-time in the cluster.
    pub(crate) fn new(tmk: &'t Tmk<'n>, run_time: usize) -> HintEngine<'t, 'n> {
        HintEngine {
            tmk,
            run_time,
            charged: RefCell::default(),
            schedules: tmk.node().cluster_slot(Schedules::default),
            inspector: Inspector::new(tmk.node()),
            plans: RefCell::new(Vec::new()),
            dyn_evals: Cell::new(0),
            scratch: RefCell::default(),
        }
    }

    /// Hand `with` the stream of node `q`'s accesses of loop `id` over
    /// `iters`: a footprint's off its walk ([`footprint_accesses`]), an
    /// inspector's through the schedule cache, charged to this node once
    /// however often `with` reads the stream; none when the loop has no
    /// description.
    fn with_accesses<R>(
        &self,
        loops: &[Entry<'t>],
        id: usize,
        iters: &Range<usize>,
        (q, np): (usize, usize),
        with: impl FnOnce(Stream) -> R,
    ) -> R {
        let inspect = match described(loops, id) {
            None => return with(&|_| {}),
            Some(Description::Footprint(..)) => {
                return with(&|visit| footprint_accesses(loops, id, iters, q, np, visit))
            }
            Some(Description::Inspector(inspect)) => inspect,
        };
        self.dyn_evals.set(self.dyn_evals.get() + 1);
        let key = (id, iters.start, iters.end, q);
        let charged = self.charged.borrow().get(&key).cloned();
        let schedule = match charged {
            Some(schedule) => {
                self.tmk.note_schedule_reuse(1);
                schedule
            }
            None => {
                // Inspection: the walk's indices charged as inspector
                // cost, whether this node walked them or the cluster's
                // table served them (with whatever a walk here faulted
                // in, the delta is the cost).
                let node = self.tmk.node();
                let _s = node.trace_span(sp2sim::SpanKind::Inspect, id as u32);
                let t0 = node.now().us();
                let schedule = self.inspection(inspect, key, np);
                self.inspector.charge(schedule.visited);
                self.tmk.note_inspection(node.now().us() - t0);
                self.charged.borrow_mut().insert(key, Rc::clone(&schedule));
                schedule
            }
        };
        with(&|visit| listed(&schedule.accesses, visit))
    }

    /// Visit the accesses of this node's share of inspector loop `id`
    /// over `iters`, as the schedule its `before_loop` was charged for
    /// lists them, charging and counting nothing.
    pub(crate) fn inspected(
        &self,
        id: usize,
        iters: &Range<usize>,
        visit: &mut dyn FnMut(&Access),
    ) {
        let key = (id, iters.start, iters.end, self.tmk.proc_id());
        let charged = self.charged.borrow();
        let schedule = charged
            .get(&key)
            .expect("the body's validate inspected its share");
        schedule.accesses.iter().for_each(visit);
    }

    /// Node `q`'s schedule of loop `id` over `iters` (`key`): a peer's
    /// from the cluster's table once some node inspected it, walked here
    /// otherwise. This node walks its own share itself — its walk is
    /// where it faults in the maps it reads, and a share served from the
    /// table would move that fault into the body. A walk of a share the table holds must come to the table's
    /// schedule, or the inspector depends on the node that evaluates it.
    fn inspection(&self, inspect: &Inspect<'t>, key: ScheduleKey, np: usize) -> Rc<Schedule> {
        let (id, start, end, q) = key;
        let (me, at) = (self.tmk.proc_id(), (self.run_time, key));
        if q != me {
            if let Some(held) = self.schedules.0.borrow().get(&at) {
                return Rc::clone(held);
            }
        }
        // The walk may fault a map in and switch fibers: the table is
        // not borrowed across it.
        let before = self.inspector.visited();
        let accesses = inspect(&(start..end), q, np);
        let visited = self.inspector.visited() - before;
        let walked = Schedule { accesses, visited };
        let mut schedules = self.schedules.0.borrow_mut();
        if let Some(held) = schedules.get(&at) {
            assert!(
                **held == walked,
                "loop {id}: its inspector gave node {q}'s share of {start}..{end} \
                 on node {me} other than on the node that inspected it first: \
                 an inspector is a pure function of (iters, q, np)"
            );
            return Rc::clone(held);
        }
        let walked = Rc::new(walked);
        schedules.insert(at, Rc::clone(&walked));
        walked
    }

    /// Replay one third of loop `id`'s plan over `iters` — `build`ing it
    /// first, into the list it holds, if this is the call site's first
    /// run since the range changed. A replay counts the schedule-cache
    /// hits it stands for.
    fn third<L, R>(
        &self,
        id: usize,
        iters: &Range<usize>,
        slot: fn(&mut Plan) -> &mut Third<L>,
        build: impl FnOnce(&mut L),
        replay: impl FnOnce(&L) -> R,
    ) -> R {
        let mut plans = self.plans.borrow_mut();
        if plans.len() <= id {
            plans.resize_with(id + 1, Plan::default);
        }
        let plan = &mut plans[id];
        if plan.iters != *iters {
            // Every third is built again, into the list it holds.
            plan.iters = iters.clone();
            plan.validate.built = false;
            plan.pushes.built = false;
            plan.homes.built = false;
        }
        let third = slot(plan);
        if third.built {
            if third.dyn_evals > 0 {
                self.tmk.note_schedule_reuse(third.dyn_evals);
            }
        } else {
            let before = self.dyn_evals.get();
            build(&mut third.list);
            third.dyn_evals = self.dyn_evals.get() - before;
            third.built = true;
        }
        replay(&third.list)
    }

    /// Loop `id`'s accesses on this node over `iters` in pages: the
    /// validate third.
    fn build_validate(
        &self,
        loops: &[Entry<'t>],
        id: usize,
        iters: &Range<usize>,
        pages: &mut Pages,
    ) {
        let node = (self.tmk.proc_id(), self.tmk.nprocs());
        self.with_accesses(loops, id, iters, node, |stream| {
            pages.build(self.tmk, stream)
        });
    }

    /// Every push loop `id`'s writes on this node over `iters` owe their
    /// consumers: the push third.
    fn build_pushes(
        &self,
        loops: &[Entry<'t>],
        id: usize,
        iters: &Range<usize>,
        pushes: &mut Pushes,
    ) {
        let node = (self.tmk.proc_id(), self.tmk.nprocs());
        pushes.clear();
        self.with_accesses(loops, id, iters, node, |stream| {
            self.push_list(loops, stream, pushes)
        });
    }

    /// Every `(page, writer)` of loop `id`'s writes over `iters`, one per
    /// page a node's writes cover: the home third.
    fn build_homes(
        &self,
        loops: &[Entry<'t>],
        id: usize,
        iters: &Range<usize>,
        writes: &mut Vec<(usize, usize)>,
    ) {
        let np = self.tmk.nprocs();
        writes.clear();
        let mut scratch = self.scratch.borrow_mut();
        let written = &mut scratch.runs;
        for q in 0..np {
            written.clear();
            self.with_accesses(loops, id, iters, (q, np), |stream| {
                stream(&mut |a| {
                    if a.mode != Mode::Read {
                        add_pages(self.tmk, a, written);
                    }
                })
            });
            *written = merge_ranges(std::mem::take(written));
            writes.extend(written.iter().cloned().flatten().map(|p| (p, q)));
        }
    }

    /// Pre-loop hint: an aggregated validate of every section the body
    /// will touch, but for the pages it overwrites whole, and the arming
    /// of the pages it writes ([`Tmk::arm`]): those it overwrites whole,
    /// which the validate leaves out, and the others it writes, which the
    /// validate write-enables. Returns the number of pages that needed
    /// fetching.
    ///
    /// Home placement is **not** done here: the guard a placement passes
    /// (no notice names the page) reads the node's interval view, and
    /// when a node reaches `before_loop` is the schedule's — the master's
    /// service may or may not have integrated a first dispatch's
    /// arrivals by then — so a per-node decision could diverge. The
    /// fork-join runtime instead decides once on the master at fork
    /// time — see [`HintEngine::planned_homes`] and the `spf` crate —
    /// and ships the accepted overrides with the dispatch.
    pub(crate) fn before_loop(&self, loops: &[Entry<'t>], id: usize, iters: &Range<usize>) -> u64 {
        if described(loops, id).is_none() {
            return 0;
        }
        let build = |pages: &mut Pages| self.build_validate(loops, id, iters, pages);
        let validate = |pages: &Pages| {
            let fetched = match pages.sections {
                0 => 0,
                sections => self.tmk.validate_pages(sections, &pages.pages),
            };
            self.tmk.arm(id, &pages.armed, &pages.written);
            fetched
        };
        self.third(id, iters, |plan| &mut plan.validate, build, validate)
    }

    /// HLRC home-placement candidates from the accesses of `group`,
    /// dispatched together: every page exactly one node's writes cover,
    /// in all of them, paired with that node — the declared producer.
    /// Pure (nothing installed): the
    /// fork-join runtime filters the candidates through the runtime's
    /// no-notice guard on the master at fork time, when every worker is
    /// parked in its dispatch wait and no interval is in flight — the
    /// notices the guard reads are those the fork's departures announce,
    /// but for the interval the fork's release seals from the master's
    /// dirty pages, which the guard refuses — and ships the accepted list
    /// with the dispatch for the workers to install verbatim. It asks
    /// for them through [`Tmk::adopt_page_homes`], which evaluates
    /// nothing under a protocol without homes: building the list
    /// evaluates descriptors, and an inspection charges virtual time.
    pub(crate) fn planned_homes<'r>(
        &self,
        loops: &[Entry<'t>],
        group: impl IntoIterator<Item = (usize, &'r Range<usize>)>,
    ) -> Vec<(usize, usize)> {
        // Every `(page, writer)` of every loop: each loop's plan holds
        // its own, one per page a node's writes cover.
        let mut writes = Vec::new();
        let described = |&(id, _): &(usize, _)| described(loops, id).is_some();
        for (id, iters) in group.into_iter().filter(described) {
            let build = |own: &mut Vec<_>| self.build_homes(loops, id, iters, own);
            let add = |own: &Vec<(usize, usize)>| writes.extend_from_slice(own);
            self.third(id, iters, |plan| &mut plan.homes, build, add);
        }
        writes.sort_unstable();
        writes.dedup();
        let by_page = writes.chunk_by(|a, b| a.0 == b.0);
        by_page.filter(|w| w.len() == 1).map(|w| w[0]).collect()
    }

    /// Post-loop hint: register pushes for every written section with
    /// known consumers. A consumer's pages are computed from *its*
    /// accesses: the pages the producer's writes share with them, less
    /// the pages the consumer overwrites whole, each with the words the
    /// consumer's accesses touch there — the meet its push carries of the
    /// producer's newest range (`Tmk::push_words_at_next_sync`). Under
    /// HLRC a consumer that
    /// is the page's home is skipped: the producer's eager home flush
    /// already carries the same diff there, so a push would only arrive
    /// as a duplicate for the stale-flush guard to drop — this is where
    /// a hinted body chooses push vs home-flush per `(consumer, page)`.
    /// Returns the number of `(target, page)` registrations.
    pub(crate) fn after_loop(&self, loops: &[Entry<'t>], id: usize, iters: &Range<usize>) -> u64 {
        if described(loops, id).is_none() {
            return 0;
        }
        let build = |pushes: &mut Pushes| self.build_pushes(loops, id, iters, pushes);
        let register = |pushes: &Pushes| self.register_pushes(pushes);
        self.third(id, iters, |plan| &mut plan.pushes, build, register)
    }

    /// Declare sections *sequential* code on this node just wrote,
    /// together with their consumers — the compiler's descriptor for
    /// straight-line code between two dispatches (IGrid's set-up of its
    /// grids and maps on the master). Pushes ride
    /// this node's next rendezvous exactly like a loop's `after_loop`
    /// registrations; [`Consumer::Loop`] overlaps are evaluated through
    /// the consumer's accesses. Returns the number of `(target, page)`
    /// registrations.
    pub(crate) fn declare_produce(&self, loops: &[Entry<'t>], accesses: &[Access]) -> u64 {
        self.register_stream(loops, &|visit: &mut dyn FnMut(&Declared)| {
            listed(accesses, visit)
        })
    }

    /// What the sequential code before loop `id`'s dispatch over `iters`
    /// — its prelude ([`crate::Spf::describe_sequential`]) — just
    /// **rewrote** on this node, every word of each current here, goes
    /// to that loop as [`HintEngine::declare_produce`] declares it, in
    /// pushes that supersede: each carries the words rewritten, which
    /// the consumer installs outright instead of applying the newest
    /// diff, so it needs none of the pages' older diffs, of any writer
    /// ([`Tmk::supersede_at_next_sync`]). The compiler's promise is
    /// that nothing else of those pages changed since what a consumer
    /// holds; debug builds check it. Returns the number of `(target,
    /// page)` registrations.
    pub(crate) fn republish(&self, loops: &[Entry<'t>], id: usize, iters: &Range<usize>) -> u64 {
        let rewritten = |visit: &mut dyn FnMut(&Declared)| {
            let to = |to: &mut dyn FnMut(Consumer)| {
                to(Consumer::Loop {
                    id,
                    iters: iters.clone(),
                })
            };
            prelude(loops, id, iters, &mut |s| {
                if s.mode != Mode::Read {
                    visit(&Declared {
                        arr: s.at.arr,
                        mode: Mode::Update,
                        shape: Shape::Touch(s),
                        consumers: &to,
                    });
                }
            });
        };
        rewritten(&mut |a| {
            let mut scratch = self.scratch.borrow_mut();
            scratch.runs.clear();
            a.shape.for_each_run(|r| scratch.runs.push(r));
            self.tmk.supersede_at_next_sync(a.arr, &scratch.runs);
        });
        self.register_stream(loops, &rewritten)
    }

    /// Register the pushes the written accesses of `stream` owe their
    /// consumers. Returns the number of `(target, page)` registrations.
    fn register_stream(&self, loops: &[Entry<'t>], stream: Stream) -> u64 {
        let mut pushes = Pushes::default();
        self.push_list(loops, stream, &mut pushes);
        self.register_pushes(&pushes)
    }

    /// Append every push the written accesses of `stream` owe their
    /// consumers to `pushes`, in registration order: per access, per
    /// consumer, targets then pages ascending. A consumer loop's push of a
    /// page names the words its accesses touch there; a consumer node's
    /// takes the page whole.
    fn push_list(&self, loops: &[Entry<'t>], stream: Stream, pushes: &mut Pushes) {
        let (me, np) = (self.tmk.proc_id(), self.tmk.nprocs());
        let pw = self.tmk.config().page_words;
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            mine,
            theirs,
            words,
            ..
        } = &mut *scratch;
        stream(&mut |a| {
            if a.mode == Mode::Read {
                return;
            }
            mine.clear();
            add_pages(self.tmk, a, mine);
            if mine.is_empty() {
                return;
            }
            // Whether an access may touch a page of `mine`: one of another
            // array touches none, and of two touches, arithmetic can tell.
            let units = match a.shape {
                Shape::Touch(s) => Some((s, s.units(pw))),
                Shape::Section(_) => None,
            };
            let may_meet = |ca: &Declared| match (&units, ca.shape) {
                _ if ca.arr != a.arr => false,
                (Some((s, su)), Shape::Touch(t)) => meet(s, su, t, &t.units(pw)),
                _ => true,
            };
            (a.consumers)(&mut |c| match c {
                Consumer::Loop { id, iters } => {
                    for q in (0..np).filter(|&q| q != me) {
                        // Union of q's accesses on this array — reads and
                        // writes alike, since a write view fetches the
                        // current content too — less the pages q
                        // overwrites whole, whose write fetches nothing.
                        // An access that cannot meet a page of `mine` adds
                        // no page to the overlap and arms none of `mine`:
                        // it is left out before its pages are counted.
                        // The words of those accesses are gathered as
                        // their pages are: every word run once or twice.
                        // They bound q's views only if all are touches,
                        // which debug builds fence the body's views to;
                        // an inspector's sections name the words read,
                        // not the views that read them, so its pages go
                        // whole.
                        words.clear();
                        let touched = RefCell::new(std::mem::take(words));
                        let fenced = Cell::new(true);
                        self.with_accesses(loops, id, &iters, (q, np), |stream| {
                            let near = |visit: &mut dyn FnMut(&Declared)| {
                                stream(&mut |ca| {
                                    if !may_meet(ca) {
                                        return;
                                    }
                                    if let Shape::Section(_) = ca.shape {
                                        fenced.set(false);
                                    }
                                    let base = ca.arr.first_page() * pw;
                                    let global = |r: Range<usize>| base + r.start..base + r.end;
                                    let mut touched = touched.borrow_mut();
                                    ca.shape.for_each_run(|r| touched.push(global(r)));
                                    drop(touched);
                                    visit(ca)
                                })
                            };
                            theirs.build(self.tmk, &near)
                        });
                        *words = merge_ranges(touched.into_inner());
                        for_each_overlap(
                            mine.iter().cloned(),
                            theirs.pages.iter().cloned(),
                            |run| match fenced.get() {
                                true => run.for_each(|p| pushes.meet(q, p, words, pw)),
                                false => run.for_each(|p| pushes.whole(q, p)),
                            },
                        );
                    }
                }
                Consumer::Node(q) if q != me => {
                    mine.iter()
                        .cloned()
                        .flatten()
                        .for_each(|p| pushes.whole(q, p));
                }
                Consumer::Node(_) => {}
            });
        });
    }

    /// Register `pushes` for the next rendezvous, minus those the
    /// release already delivers to their target *now* (HLRC: the page's
    /// home) — homes move between two replays of one list. Returns the
    /// number registered.
    fn register_pushes(&self, pushes: &Pushes) -> u64 {
        let mut registered = 0;
        for (q, p, words) in pushes.list.iter().cloned() {
            if self.tmk.release_delivers(p, q) {
                continue;
            }
            match words.is_empty() {
                true => self.tmk.push_page_at_next_sync(q, p),
                false => self.tmk.push_words_at_next_sync(q, p, &pushes.runs[words]),
            }
            registered += 1;
        }
        registered
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use cri::section::{contains, for_each_difference, insert, subtract};
    use proptest::prelude::*;
    use sp2sim::{Cluster, ClusterConfig, MsgKind};
    use treadmarks::TmkConfig;

    use super::*;
    use crate::{Cols, Prelude};

    impl Pushes {
        /// `(target, page, words)`, a whole page's words empty.
        fn entries(&self) -> Vec<(usize, usize, Runs)> {
            let words = |w: &Range<usize>| self.runs[w.clone()].to_vec();
            self.list
                .iter()
                .map(|(q, p, w)| (*q, *p, words(w)))
                .collect()
        }
    }

    /// An entry with `description` and a body that does nothing.
    fn entry(description: Description) -> Entry {
        Entry {
            body: Box::new(|_| {}),
            sequential: None,
            description: Some(description),
        }
    }

    /// A loop described by an inspector that returns `accesses`.
    fn inspected<'t>(
        accesses: impl Fn(&Range<usize>, usize, usize) -> Vec<Access> + 't,
    ) -> Entry<'t> {
        entry(Description::Inspector(Box::new(accesses)))
    }

    /// A loop described by its footprint and `next`, as
    /// [`crate::Spf::describe`] describes it.
    fn walked<'t, T, N>(
        footprint: impl Fn(&Range<usize>, usize, usize) -> Option<T> + 't,
        next: impl Fn(&Range<usize>, &Touch) -> N + 't,
    ) -> Entry<'t>
    where
        T: IntoIterator<Item = Touch>,
        N: IntoIterator<Item = Next>,
    {
        entry(Description::footprint(footprint, next))
    }

    /// The accesses `Spf::describe`'s descriptor derived for node `q`'s
    /// share of footprint loop `id` over `iters` before the plan builder
    /// read them off the walk, reading the preludes of the loops its
    /// writes go to: the derivation kept as the reference the stream is
    /// tested against. It walks the same footprint, collecting each
    /// written touch's `next` and each prelude into lists.
    fn derived_reference(
        loops: &[Entry],
        id: usize,
        iters: &Range<usize>,
        q: usize,
        np: usize,
    ) -> Vec<Access> {
        let mut acc: Vec<Access> = Vec::new();
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
        walk(loops, id, iters, q, np, &mut |t, nexts| {
            let write = acc.len();
            acc.push(declare(t, t.section()));
            if t.mode == Mode::Read {
                return;
            }
            let mut next = Vec::new();
            nexts(&mut |n| next.push(n));
            for n in next {
                let (id, iters) = match n {
                    Next::Node(node, cols) => {
                        let to_node =
                            |p: Touch| Access::write(t.at.arr, p.section()).consumed_by_node(node);
                        acc.extend(within(t, &cols).map(to_node));
                        continue;
                    }
                    Next::Loop(id, iters) => (id, iters),
                };
                let mut between = Vec::new();
                prelude(loops, id, &iters, &mut |s| between.push(s.clone()));
                let mut rewritten = Vec::new();
                for s in between.iter().filter(|s| s.at == t.at) {
                    let Some(part) = within(t, &s.cols) else {
                        continue;
                    };
                    if s.mode != Mode::Read
                        && s.rows.start <= t.rows.start
                        && t.rows.end <= s.rows.end
                    {
                        rewritten.push(part.cols.clone());
                    }
                    if s.mode != Mode::Write {
                        acc.push(declare(t, part.section()).consumed_by_node(0));
                    }
                }
                if rewritten.is_empty() {
                    acc[write].consumers.push(Consumer::Loop { id, iters });
                    continue;
                }
                let kept = std::slice::from_ref(&t.cols);
                for_each_difference(kept, &merge_ranges(rewritten), |cols| {
                    let to_loop =
                        |p: Touch| declare(t, p.section()).consumed_by_loop(id, iters.clone());
                    acc.extend(within(t, &cols).map(to_loop));
                });
            }
        });
        acc
    }

    /// Node `q`'s accesses of loop `id` over `iters`: an inspector's, or
    /// those [`derived_reference`] derives from a footprint.
    fn accesses_reference(
        loops: &[Entry],
        id: usize,
        iters: &Range<usize>,
        q: usize,
        np: usize,
    ) -> Vec<Access> {
        match described(loops, id) {
            None => Vec::new(),
            Some(Description::Inspector(inspect)) => inspect(iters, q, np),
            Some(Description::Footprint(..)) => derived_reference(loops, id, iters, q, np),
        }
    }

    // The per-page `BTreeSet` formulation the page runs replaced, kept as
    // the reference they are tested against.

    fn pages_reference(tmk: &Tmk, arr: SharedArray, section: &Section) -> BTreeSet<usize> {
        let mut pages = BTreeSet::new();
        for r in section.runs() {
            pages.extend(tmk.page_span(arr, r));
        }
        pages
    }

    /// The pages a body overwrites whole, from word sets: those a
    /// write-all section holds every word of, less the pages of every
    /// other access.
    fn armed_reference(tmk: &Tmk, accesses: &[Access]) -> BTreeSet<usize> {
        let pw = tmk.config().page_words;
        let (mut whole, mut other) = (BTreeSet::new(), BTreeSet::new());
        for a in accesses {
            if a.mode != Mode::Write {
                other.extend(pages_reference(tmk, a.arr, &a.section));
                continue;
            }
            let base = a.arr.first_page() * pw;
            let words: BTreeSet<usize> = a.section.runs().iter().cloned().flatten().collect();
            let covered = |p: &usize| (p * pw..(p + 1) * pw).all(|w| words.contains(&(w - base)));
            whole.extend(
                pages_reference(tmk, a.arr, &a.section)
                    .into_iter()
                    .filter(covered),
            );
        }
        whole.difference(&other).copied().collect()
    }

    fn push_list_reference<'t>(
        hints: &HintEngine<'t, '_>,
        loops: &[Entry<'t>],
        accesses: &[Access],
    ) -> Vec<(usize, usize, Runs)> {
        let (me, np) = (hints.tmk.proc_id(), hints.tmk.nprocs());
        let pw = hints.tmk.config().page_words;
        let mut pushes = Vec::new();
        for a in accesses {
            if a.mode == Mode::Read || a.consumers.is_empty() {
                continue;
            }
            let mine = pages_reference(hints.tmk, a.arr, &a.section);
            for c in &a.consumers {
                match c {
                    Consumer::Loop { id, iters } => {
                        for q in (0..np).filter(|&q| q != me) {
                            let theirs = accesses_reference(loops, *id, iters, q, np);
                            let (mut pages, mut words) = (BTreeSet::new(), BTreeSet::new());
                            for ca in theirs.iter().filter(|ca| ca.arr == a.arr) {
                                pages.extend(pages_reference(hints.tmk, ca.arr, &ca.section));
                                let base = ca.arr.first_page() * pw;
                                let runs = ca.section.runs().iter().cloned();
                                words.extend(runs.flatten().map(|w| base + w));
                            }
                            let armed = armed_reference(hints.tmk, &theirs);
                            let pushed = mine.intersection(&pages).filter(|p| !armed.contains(p));
                            // The words q touches on the page, page-relative,
                            // when a footprint describes q's loop; else none:
                            // the page goes whole.
                            let fenced =
                                matches!(described(loops, *id), Some(Description::Footprint(..)));
                            let on = |p: usize| {
                                let mut runs = Vec::new();
                                let words = words.range(p * pw..(p + 1) * pw).filter(|_| fenced);
                                for w in words.map(|w| w - p * pw) {
                                    insert(&mut runs, w..w + 1);
                                }
                                runs
                            };
                            pushes.extend(pushed.map(|&p| (q, p, on(p))));
                        }
                    }
                    Consumer::Node(q) if *q != me => {
                        pushes.extend(mine.iter().map(|&p| (*q, p, Vec::new())))
                    }
                    Consumer::Node(_) => {}
                }
            }
        }
        pushes
    }

    fn homes_reference<'t>(
        hints: &HintEngine<'t, '_>,
        loops: &[Entry<'t>],
        id: usize,
        iters: &Range<usize>,
    ) -> Vec<(usize, usize)> {
        let np = hints.tmk.nprocs();
        let mut writers: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for q in 0..np {
            let accesses = accesses_reference(loops, id, iters, q, np);
            for a in accesses.iter().filter(|a| a.mode != Mode::Read) {
                for p in pages_reference(hints.tmk, a.arr, &a.section) {
                    writers.entry(p).or_default().insert(q);
                }
            }
        }
        writers
            .into_iter()
            .filter(|(_, ws)| ws.len() == 1)
            .map(|(p, ws)| (p, *ws.iter().next().expect("single writer")))
            .collect()
    }

    /// The page runs of `section` of `arr`, as the builder adds them.
    fn runs_of(tmk: &Tmk, arr: SharedArray, section: &Section) -> Runs {
        let mut runs = Vec::new();
        listed(&[Access::read(arr, section.clone())], &mut |a| {
            add_pages(tmk, a, &mut runs);
        });
        runs
    }

    /// The pages a body with `accesses` overwrites whole, and the other
    /// pages it writes, as the builder arms them.
    fn armed_of(tmk: &Tmk, accesses: &[Access]) -> (Runs, Runs) {
        let mut pages = Pages::default();
        pages.build(tmk, &|visit| listed(accesses, visit));
        (pages.armed, pages.written)
    }

    /// Whether [`armed_of`] arms what the per-page references say: the
    /// write-all pages, and every other page a write touches.
    fn arms_the_references(tmk: &Tmk, accesses: &[Access]) -> bool {
        let pages = |runs: &Runs| runs.iter().cloned().flatten().collect::<Vec<_>>();
        let (armed, written) = armed_of(tmk, accesses);
        let whole = armed_reference(tmk, accesses);
        let mut writes = BTreeSet::new();
        for a in accesses.iter().filter(|a| a.mode != Mode::Read) {
            writes.extend(pages_reference(tmk, a.arr, &a.section));
        }
        pages(&armed) == whole.iter().copied().collect::<Vec<_>>()
            && pages(&written) == writes.difference(&whole).copied().collect::<Vec<_>>()
    }

    /// Words every generated section stays below.
    const WORDS: usize = 1024;

    /// A section from one of six shapes — the four constructors, the
    /// cyclic one on every column and on a cyclic set, spans painted in
    /// either order — and eight small numbers.
    fn section_from(shape: usize, p: &[usize]) -> Section {
        let spans = || p.chunks(2).map(|s| s[0] * 25..s[0] * 25 + s[1]);
        match shape {
            0 => Section::range(p[0] * 13..p[0] * 13 + p[1] * 12),
            1 => Section::cyclic_cols(
                p[0] % 4..p[0] % 4 + p[1] % 8,
                0,
                1,
                p[2],
                p[3] % 20..p[3] % 20 + p[4] % 25,
            ),
            2 => {
                let np = 1 + p[3] % 4;
                Section::cyclic_cols(
                    p[0] % 10..p[0] % 10 + p[1],
                    p[2] % np,
                    np,
                    p[4] % 20,
                    p[5] % 20..p[5] % 20 + p[6] % 21,
                )
            }
            3 => Section::from_indices(p.iter().map(|&x| x * 13 % WORDS)),
            4 => Section::from_spans(spans()),
            _ => Section::from_spans(spans().rev()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(150))]

        /// Page runs against per-page sets, over random sections from
        /// every constructor and several page sizes: a section's runs are
        /// its pages, a merge is the union, the sweep is the intersection,
        /// a subtraction the difference, an insertion the union with its
        /// run, containment the set test it names, and the pages a body
        /// overwrites
        /// whole, the push list and the home candidates built from runs
        /// are the ones built from sets.
        #[test]
        fn page_runs_equal_the_per_page_sets(
            specs in prop::collection::vec((0usize..6, prop::collection::vec(0usize..40, 8..9)), 6..7),
            page_words in 0usize..4,
        ) {
            let sections: Vec<Section> =
                specs.iter().map(|(shape, p)| section_from(*shape, p)).collect();
            for s in &sections {
                prop_assert!(s.runs().last().is_none_or(|r| r.end <= WORDS));
            }
            let sections = &sections;
            let cfg = TmkConfig {
                page_words: [4, 16, 64, 512][page_words],
                ..TmkConfig::hlrc()
            };
            let out = Cluster::run(ClusterConfig::sp2(3), move |node| {
                let tmk = Tmk::new(node, cfg);
                let hints = HintEngine::new(&tmk, 0);
                let arr = [tmk.malloc_f64(WORDS), tmk.malloc_f64(WORDS)];
                // Loop 0: node q writes section q of array q % 2 for loop
                // 1 and for node 0; loop 1: node q reads section 3 + q of
                // the same array.
                let consumer = move |_: &Range<usize>, q: usize, _| {
                    vec![
                        Access::read(arr[0], sections[3 + q].clone()),
                        Access::write_all(arr[1], sections[3 + (q + 1) % 3].clone()),
                        Access::write_all(arr[0], sections[(q + 2) % 3].clone()),
                        Access::read(arr[1], sections[q].clone()),
                    ]
                };
                let loops = [
                    inspected(move |_, q, _| {
                        vec![Access::write(arr[q % 2], sections[q].clone())
                            .consumed_by_loop(1, 0..1)
                            .consumed_by_node(0)]
                    }),
                    inspected(consumer),
                ];
                let runs_of = |s: &Section| runs_of(&tmk, arr[1], s);
                let pages = |runs: &[Range<usize>]| -> Vec<usize> {
                    runs.iter().cloned().flatten().collect()
                };
                let mut ok = true;
                for (a, b) in sections.iter().zip(&sections[1..]) {
                    let (ra, rb) = (runs_of(a), runs_of(b));
                    let (sa, sb) = (pages_reference(&tmk, arr[1], a), pages_reference(&tmk, arr[1], b));
                    ok &= pages(&ra) == sa.iter().copied().collect::<Vec<_>>();
                    ok &= ra.windows(2).all(|w| w[0].end < w[1].start);
                    let mut both = Vec::new();
                    for_each_overlap(ra.iter().cloned(), rb.iter().cloned(), |run| both.push(run));
                    ok &= pages(&both) == sa.intersection(&sb).copied().collect::<Vec<_>>();
                    let less = subtract(ra.clone(), &rb);
                    ok &= pages(&less) == sa.difference(&sb).copied().collect::<Vec<_>>();
                    let either = merge_ranges(ra.iter().chain(&rb).cloned().collect());
                    ok &= pages(&either) == sa.union(&sb).copied().collect::<Vec<_>>();
                    ok &= either.windows(2).all(|w| w[0].end < w[1].start);
                    // The operations `spf` shares, on runs that meet or
                    // abut `a`'s: each run of `b`, each one page wider on
                    // both sides, the hull of `b`, and an empty run.
                    let mut inserted = ra.clone();
                    rb.iter().for_each(|r| insert(&mut inserted, r.clone()));
                    ok &= inserted == either;
                    let wider = rb.iter().map(|r| r.start.saturating_sub(1)..r.end + 1);
                    let hull = rb.first().zip(rb.last()).map(|(f, l)| f.start..l.end);
                    for r in rb.iter().cloned().chain(wider).chain(hull).chain(std::iter::once(7..7)) {
                        let words: BTreeSet<usize> = r.clone().collect();
                        let mut one = ra.clone();
                        insert(&mut one, r.clone());
                        ok &= pages(&one) == sa.union(&words).copied().collect::<Vec<_>>();
                        ok &= one.windows(2).all(|w| w[0].end < w[1].start);
                        ok &= contains(&ra, &r) == words.is_subset(&sa);
                    }
                }
                let me = tmk.proc_id();
                let accesses = consumer(&(0..1), me, 3);
                ok &= arms_the_references(&tmk, &accesses);
                let written = [Access::write(arr[me % 2], sections[me].clone())
                    .consumed_by_loop(1, 0..1)
                    .consumed_by_node(0)];
                ok &= arms_the_references(&tmk, &written);
                let mut pushes = Pushes::default();
                hints.push_list(&loops, &|visit| listed(&written, visit), &mut pushes);
                ok &= pushes.entries() == push_list_reference(&hints, &loops, &written);
                let homes = hints.planned_homes(&loops, [(1, &(0..1))]);
                ok &= homes == homes_reference(&hints, &loops, 1, &(0..1));
                tmk.finish();
                ok
            });
            prop_assert!(out.results.iter().all(|&ok| ok));
        }
    }

    /// `(target, page)` pushes or `(page, writer)` candidates.
    type Pairs = Vec<(usize, usize)>;

    /// Columns of each array a generated footprint spans.
    const COLS: usize = 12;

    /// A touch of one of `arrs`, from seven small numbers, for node `q` of
    /// `np` over `iters`: a run of columns starting at an offset from
    /// `iters.start` (and, for some, from `q`), in any mode, every row or
    /// a chunk of each column, every column or a cyclic set.
    fn touch_from(
        arrs: [Cols; 2],
        p: &[usize],
        iters: &Range<usize>,
        q: usize,
        np: usize,
    ) -> Touch {
        let at = arrs[p[0] % 2];
        let start = (p[1] + iters.start + q * (p[2] % 3)) % COLS;
        let t = at.touch(
            start..(start + p[3] % 6).min(COLS),
            [Mode::Read, Mode::Write, Mode::Update][p[4] % 3],
        );
        let t = match p[5] % 3 {
            0 => t,
            _ => {
                let first = p[6] % at.stride;
                t.rows(first..(first + 1 + p[5] % at.stride).min(at.stride))
            }
        };
        match p[6] % 3 {
            0 => t.cyclic(q, np),
            _ => t,
        }
    }

    /// Who reads a written touch next, from three small numbers: nothing,
    /// one of three loops over a range, one node's sequential code over
    /// a run of columns, or both.
    fn next_from(p: &[usize]) -> Vec<Next> {
        let to_loop = Next::Loop(p[1] % 3, p[2] % 3..p[2] % 3 + 1 + p[1] % 2);
        let to_node = Next::Node(p[2] % 3, p[1] % COLS..COLS);
        match p[0] % 4 {
            0 => vec![],
            1 => vec![to_loop],
            2 => vec![to_node],
            _ => vec![to_node, to_loop],
        }
    }

    /// A prelude's touch, from five small numbers, before a dispatch over
    /// `iters`: a column or two at `iters.start` or just past it — where
    /// the loops before wrote — mostly rewritten, every row or a chunk.
    fn prelude_from(arrs: [Cols; 2], p: &[usize], iters: &Range<usize>) -> Touch {
        let at = arrs[p[0] % 2];
        let start = (iters.start + p[1] % 3) % COLS;
        let mode = [Mode::Read, Mode::Write, Mode::Update, Mode::Update][p[2] % 4];
        let t = at.touch(start..(start + 1 + p[3] % 2).min(COLS), mode);
        match p[4] % 2 {
            0 => t,
            _ => t.rows(p[3] % at.stride..at.stride),
        }
    }

    /// Three loops described by footprints generated from `p`, each with
    /// up to three touches, their `next` and, for some, a prelude.
    fn generated<'t>(arrs: [Cols; 2], p: &'t [usize]) -> Vec<Entry<'t>> {
        (0..3)
            .map(|l| {
                let p = &p[l * 45..(l + 1) * 45];
                let count = 1 + p[0] % 3;
                let footprint = move |iters: &Range<usize>, q: usize, np: usize| {
                    let touches =
                        (0..count).map(|k| touch_from(arrs, &p[1 + 7 * k..], iters, q, np));
                    (!p[44].is_multiple_of(5) || q != 1).then(|| touches.collect::<Vec<_>>())
                };
                let next =
                    move |_: &Range<usize>, t: &Touch| next_from(&p[22 + 3 * (t.cols.start % 3)..]);
                let mut entry = walked(footprint, next);
                if p[31].is_multiple_of(2) {
                    let touches = 1 + p[32] % 2;
                    let prelude: Prelude = Box::new(move |iters, visit| {
                        for k in 0..touches {
                            visit(&prelude_from(arrs, &p[33 + 5 * k..], iters));
                        }
                    });
                    let Some(Description::Footprint(_, slot)) = &mut entry.description else {
                        unreachable!("a footprint");
                    };
                    *slot = Some(prelude);
                }
                entry
            })
            .collect()
    }

    /// The loops of `loops`, each footprint replaced by an inspector that
    /// returns what [`derived_reference`] derives from it.
    fn by_reference<'t>(loops: &'t [Entry<'t>]) -> Vec<Entry<'t>> {
        (0..loops.len())
            .map(|id| inspected(move |iters, q, np| derived_reference(loops, id, iters, q, np)))
            .collect()
    }

    /// The three lists of loop `id`'s plan over `iters` on this node:
    /// the validate's word-run count, pages and pages armed (write-all,
    /// and validated-write), the pushes
    /// and the home candidates — each built, or refilled, by the plan's
    /// own call sites' path.
    fn plan_lists<'t>(
        hints: &HintEngine<'t, '_>,
        loops: &[Entry<'t>],
        id: usize,
        iters: &Range<usize>,
    ) -> (usize, Runs, (Runs, Runs), Pushes, Pairs) {
        let validate = |pages: &Pages| {
            let armed = (pages.armed.clone(), pages.written.clone());
            (pages.sections, pages.pages.clone(), armed)
        };
        let (sections, pages, armed) = hints.third(
            id,
            iters,
            |plan| &mut plan.validate,
            |pages| hints.build_validate(loops, id, iters, pages),
            validate,
        );
        let pushes = hints.third(
            id,
            iters,
            |plan| &mut plan.pushes,
            |pushes| hints.build_pushes(loops, id, iters, pushes),
            Pushes::clone,
        );
        let homes = hints.third(
            id,
            iters,
            |plan| &mut plan.homes,
            |homes| hints.build_homes(loops, id, iters, homes),
            Vec::clone,
        );
        (sections, pages, armed, pushes, homes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(120))]

        /// A plan built from the walk — each touch declared as it comes,
        /// its consumers derived from its `next` and the preludes of the
        /// loops it names — equals the plan built from the accesses the
        /// descriptor once derived: over random footprints of three
        /// loops (modes, row chunks, cyclic sets, `Next::Loop` and
        /// `Next::Node` consumers, with and without a prelude that reads
        /// or rewrites part of a written touch), the validate, push and
        /// home lists of every loop over two ranges, on every node and
        /// several page sizes. A plan refilled for the second range after
        /// the first equals one built for it afresh.
        #[test]
        fn a_plan_from_the_walk_equals_the_plan_from_derived_accesses(
            p in prop::collection::vec(0usize..64, 135..136),
            shape in (0usize..3, 3usize..12),
        ) {
            let cfg = TmkConfig {
                page_words: [4, 16, 64][shape.0],
                ..TmkConfig::hlrc()
            };
            let p = &p;
            let out = Cluster::run(ClusterConfig::sp2(3), move |node| {
                let tmk = Tmk::new(node, cfg);
                let arrs = [(); 2].map(|_| Cols::new(tmk.malloc_f64(COLS * shape.1), shape.1));
                let loops = generated(arrs, p);
                let reference = by_reference(&loops);
                // Each plan built by an engine of its own, but the one
                // refilled.
                let fresh = |loops: &[Entry], id, iters: &Range<usize>| {
                    plan_lists(&HintEngine::new(&tmk, 0), loops, id, iters)
                };
                let (refilled, mut ok) = (HintEngine::new(&tmk, 0), true);
                // The pushes' pages; their words are the footprints' own,
                // which an inspector's consumer does not have.
                let pages = |(s, p, a, pushes, h): (usize, Runs, (Runs, Runs), Pushes, Pairs)| {
                    let pairs: Pairs = pushes.list.iter().map(|&(q, p, _)| (q, p)).collect();
                    (s, p, a, pairs, h)
                };
                for id in 0..3 {
                    for iters in [0..1, 1..3] {
                        let walked = fresh(&loops, id, &iters);
                        let derived = derived_reference(&loops, id, &iters, node.id(), 3);
                        let hints = HintEngine::new(&tmk, 0);
                        ok &= walked.3.entries() == push_list_reference(&hints, &loops, &derived);
                        ok &= pages(walked) == pages(fresh(&reference, id, &iters));
                    }
                    plan_lists(&refilled, &loops, id, &(0..1));
                    let again = plan_lists(&refilled, &loops, id, &(1..3));
                    ok &= again == fresh(&loops, id, &(1..3));
                }
                tmk.finish();
                ok
            });
            prop_assert!(out.results.iter().all(|&ok| ok));
        }
    }

    /// The descriptions of a producer (loop 0: node `q` writes page `q`,
    /// read next by loop 1) and its consumer (loop 1: everyone reads
    /// everything, by its footprint or, `dynamic_consumer`, an
    /// inspector), each evaluation counted in `calls`.
    fn counted_pipeline<'t>(
        a: SharedArray,
        calls: &'t Cell<usize>,
        dynamic_consumer: bool,
    ) -> [Entry<'t>; 2] {
        let at = Cols::new(a, 512);
        let producer = move |_: &Range<usize>, q: usize, _| {
            calls.set(calls.get() + 1);
            Some([at.touch(q..q + 1, Mode::Update)])
        };
        let to_consumer = |iters: &Range<usize>, _: &Touch| [Next::Loop(1, iters.clone())];
        let consumer = move |_: &Range<usize>, _, np: usize| {
            calls.set(calls.get() + 1);
            at.touch(0..np, Mode::Read)
        };
        let consumer = match dynamic_consumer {
            true => inspected(move |iters, q, np| {
                let t = consumer(iters, q, np);
                vec![Access::read(a, t.section())]
            }),
            false => walked(
                move |iters, q, np| Some([consumer(iters, q, np)]),
                |_, _| [],
            ),
        };
        [walked(producer, to_consumer), consumer]
    }

    /// A repeated dispatch replays the plan without calling a descriptor;
    /// another range builds it again; and there is one plan per loop, not
    /// one per range.
    #[test]
    fn plans_replay_until_something_they_embed_changes() {
        let out = Cluster::run(ClusterConfig::sp2(3), |node| {
            let calls = Cell::new(0);
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk, 0);
            let a = tmk.malloc_f64(512 * 3);
            let loops = counted_pipeline(a, &calls, false);
            // One dispatch of loop 0: its own descriptor before and after
            // the body, the consumer's once per peer.
            let dispatch = |iters: Range<usize>| {
                let before = calls.get();
                hints.before_loop(&loops, 0, &iters);
                let registered = hints.after_loop(&loops, 0, &iters);
                tmk.barrier(0);
                (calls.get() - before, registered)
            };
            let mut seen = vec![dispatch(0..8), dispatch(0..8), dispatch(0..8)];
            seen.push(dispatch(0..4));
            seen.push(dispatch(0..8));
            tmk.finish();
            seen
        });
        // Every dispatch registers this node's page with both peers.
        let built = (4, 2);
        let replayed = (0, 2);
        let want = [
            built, replayed, replayed, // same range
            built, built, // another range and back
        ];
        for seen in &out.results {
            assert_eq!(seen[..], want);
        }
    }

    /// A replay counts the schedule-cache hits it stands for: the
    /// per-evaluation accounting of `inspections` and `schedule_reuse`
    /// does not change when the evaluations stop happening.
    #[test]
    fn a_replay_counts_the_hits_it_stands_for() {
        let out = Cluster::run(ClusterConfig::sp2(3), |node| {
            let calls = Cell::new(0);
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk, 0);
            let a = tmk.malloc_f64(512 * 3);
            let loops = counted_pipeline(a, &calls, true);
            let mut seen = Vec::new();
            for _ in 0..3 {
                hints.before_loop(&loops, 0, &(0..8));
                hints.after_loop(&loops, 0, &(0..8));
                hints.before_loop(&loops, 1, &(0..8));
                hints.after_loop(&loops, 1, &(0..8));
                tmk.barrier(0);
                let s = tmk.stats_snapshot();
                seen.push((calls.get(), s.inspections, s.schedule_reuse));
            }
            tmk.finish();
            seen
        });
        for (q, seen) in out.results.iter().enumerate() {
            // First dispatches: loop 0 twice, loop 1 inspected for the two
            // peers (after loop 0) and for this node (before loop 1), then
            // found in the cache after loop 1. Later ones: the same four
            // evaluations of loop 1, all hits, none of them made. Node 0,
            // first under FIFO, walks the peers' shares; the others are
            // served them from the cluster's table, and every node walks
            // its own.
            let calls = if q == 0 { 5 } else { 3 };
            assert_eq!(seen[..], [(calls, 3, 1), (calls, 3, 5), (calls, 3, 9)]);
        }
    }

    /// An inspector whose accesses depend on the node that evaluates it,
    /// not on the share it is asked for, is caught where a node walks its
    /// own share after a peer walked it into the cluster's table: the
    /// panic names the loop.
    #[test]
    #[should_panic(expected = "loop 0: its inspector gave node 1's share of 0..2 on node 1")]
    fn an_inspector_that_depends_on_its_evaluating_node_panics() {
        Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk, 0);
            let a = tmk.malloc_f64(512 * 2);
            let me = tmk.proc_id();
            // The evaluating node's page, whichever share is asked for,
            // read next by the loop itself.
            let loops = [inspected(move |iters, _, _| {
                let mine = Section::range(me * 512..(me + 1) * 512);
                vec![Access::write(a, mine).consumed_by_loop(0, iters.clone())]
            })];
            if me == 0 {
                // Node 1's share, walked here for the push list.
                hints.after_loop(&loops, 0, &(0..2));
            }
            tmk.barrier(0);
            if me == 1 {
                hints.before_loop(&loops, 0, &(0..2));
            }
            tmk.finish();
        });
    }

    /// The HLRC "consumer is the home" filter is applied when a push
    /// list is replayed, not when it is built: moving a page's home
    /// between two dispatches changes what the same plan registers.
    #[test]
    fn the_home_filter_is_applied_at_replay() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let calls = &Cell::new(0);
            let tmk = Tmk::new(node, TmkConfig::hlrc());
            let hints = HintEngine::new(&tmk, 0);
            let a = tmk.malloc_f64(512 * 2);
            let both = move |_: &Range<usize>, q: usize, _| {
                calls.set(calls.get() + 1);
                (q == 0).then(|| [Cols::new(a, 512).touch(0..2, Mode::Update)])
            };
            let loops = [walked(both, |_, _| [Next::Node(1, 0..2)])];
            let pages = [a.first_page(), a.first_page() + 1];
            // Nothing is written, so no notice pins a home and the
            // registrations carry no diff.
            let mut registered = Vec::new();
            for home in [None, Some(1), Some(0)] {
                if let Some(home) = home {
                    for p in pages {
                        assert!(tmk.set_page_home(p, home));
                    }
                }
                registered.push(hints.after_loop(&loops, 0, &(0..1)));
                tmk.barrier(0);
            }
            tmk.finish();
            (registered, calls.get())
        });
        let (registered, calls) = &out.results[0];
        assert_eq!(registered[1..], [0, 2], "all at the consumer, then none");
        assert!(registered[0] < 2, "block-cyclic homes put a page at node 1");
        assert_eq!(*calls, 1, "one build, two replays");
    }

    /// before_loop validates everything a phase will read: the body's
    /// views then fault nothing, and the whole exchange is one
    /// ValidateReq/Resp pair per (reader, writer) pair.
    #[test]
    fn before_loop_prevalidates_reads() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk, 0);
            let a = tmk.malloc_f64(512 * 4);
            let all = move |_: &Range<usize>, me: usize, _| {
                (me == 1).then(|| [Cols::new(a, 512).touch(0..4, Mode::Read)])
            };
            let loops = [walked(all, |_, _| [])];
            if tmk.proc_id() == 0 {
                let mut w = tmk.write(a, 0..512 * 4);
                for (i, x) in w.slice_mut().iter_mut().enumerate() {
                    *x = i as f64;
                }
            }
            tmk.barrier(0);
            let mut ok = true;
            if tmk.proc_id() == 1 {
                let validated = hints.before_loop(&loops, 0, &(0..4));
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
            let hints = HintEngine::new(&tmk, 0);
            let a = tmk.malloc_f64(512 * 4);
            // Loop 0: node 0 writes the first two pages; loop 1: node 1
            // reads pages 1..3 — the overlap is exactly page 1.
            let at = Cols::new(a, 512);
            let writes = move |_: &Range<usize>, me: usize, _| {
                (me == 0).then(|| [at.touch(0..2, Mode::Update)])
            };
            let reads = move |_: &Range<usize>, me: usize, _| {
                (me == 1).then(|| [at.touch(1..3, Mode::Read)])
            };
            let to_reads = |_: &Range<usize>, _: &Touch| [Next::Loop(1, 0..1)];
            let loops = [walked(writes, to_reads), walked(reads, |_, _| [])];
            let mut probe = 0.0;
            if tmk.proc_id() == 0 {
                let mut w = tmk.write(a, 0..512 * 2);
                for (i, x) in w.slice_mut().iter_mut().enumerate() {
                    *x = 1.0 + i as f64;
                }
                drop(w);
                let registered = hints.after_loop(&loops, 0, &(0..1));
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
            let hints = HintEngine::new(&tmk, 0);
            let a = tmk.malloc_f64(512 * 3);
            // Each node writes its own page, destined for node 0.
            let own = move |_: &Range<usize>, me: usize, _| {
                Some([Cols::new(a, 512).touch(me..me + 1, Mode::Update)])
            };
            let loops = [walked(own, |_, _| [Next::Node(0, 0..3)])];
            {
                let me = tmk.proc_id();
                let mut w = tmk.write(a, me * 512..(me + 1) * 512);
                for i in me * 512..(me + 1) * 512 {
                    w[i] = me as f64;
                }
            }
            hints.after_loop(&loops, 0, &(0..3));
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
            let hints = HintEngine::new(&tmk, 0);
            let a = tmk.malloc_f64(512 * 2);
            let at = Cols::new(a, 512);
            let writes = move |_: &Range<usize>, me: usize, _| {
                (me == 0).then(|| [at.touch(0..2, Mode::Update)])
            };
            let reads = move |_: &Range<usize>, me: usize, _| {
                (me == 1).then(|| [at.touch(0..2, Mode::Read)])
            };
            let to_reads = |_: &Range<usize>, _: &Touch| [Next::Loop(1, 0..1)];
            let loops = [walked(writes, to_reads), walked(reads, |_, _| [])];
            let accepted = tmk
                .adopt_page_homes(|| hints.planned_homes(&loops, [(0, &(0..1))]))
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
                hints.after_loop(&loops, 0, &(0..1));
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
            let hints = HintEngine::new(&tmk, 0);
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
            let second = move |_: &Range<usize>, me: usize, _| {
                (me == 0).then(|| [Cols::new(a, 512).touch(1..2, Mode::Update)])
            };
            let loops = [walked(second, |_, _| [Next::Node(1, 0..2)])];
            let accepted = tmk
                .adopt_page_homes(|| hints.planned_homes(&loops, [(0, &(0..1))]))
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
                registered = hints.after_loop(&loops, 0, &(0..1));
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
            let hints = HintEngine::new(&tmk, 0);
            let loops: [Entry; 0] = [];
            assert!(described(&loops, 3).is_none());
            assert_eq!(hints.before_loop(&loops, 3, &(0..10)), 0);
            assert_eq!(hints.after_loop(&loops, 3, &(0..10)), 0);
            tmk.finish();
        });
        assert_eq!(out.stats.total_messages(), 0);
    }
}
