//! The hint engine: turning access descriptors into runtime actions.
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
//! ## Hint plans
//!
//! A loop that is dispatched again over the same iteration range asks
//! for the same validate, the same pushes and the same home candidates,
//! so the engine compiles each registered loop **once** into a plan of
//! three flat lists and replays them:
//!
//! * what [`HintEngine::before_loop`] validates — the section count and
//!   the merged page runs handed to [`Tmk::validate_pages`];
//! * what [`HintEngine::after_loop`] registers — every `(target, page)`
//!   push, *before* the HLRC "the consumer is the page's home" filter,
//!   which stays a check at replay because homes change;
//! * the `(page, writer)` pairs [`HintEngine::planned_homes`] picks its
//!   home candidates from (HLRC, master only).
//!
//! Each third is built the first time its own call site runs, not ahead
//! of it: building evaluates descriptors, and a dynamic descriptor's
//! inspection charges virtual time where it runs. There is one plan per
//! loop id, replaced when the loop comes with another range (MGS
//! dispatches `i+1..n`: it never replays, and must not pile up a plan per
//! pivot). Every plan is dropped by [`HintEngine::set`],
//! [`HintEngine::register_dynamic`] and
//! [`HintEngine::invalidate_schedules`] — a producer's plan embeds its
//! consumers' descriptors, so any re-registration invalidates all of
//! them — which are exactly the events that drop cached schedules: a
//! replay therefore stands for evaluations that would all have hit the
//! schedule cache, and adds their number to `schedule_reuse`.
//!
//! The one contract plans lean on: a static [`AccessFn`] is a **pure
//! function of `(iters, q, np)`** — as a dynamic one already had to be
//! between two invalidations.
//!
//! Page sets are sorted, disjoint **page runs** (`Vec<Range<usize>>`)
//! throughout: a section's word runs map to page runs in order, unions
//! are sorted and merged, overlaps found by a two-pointer sweep.
//!
//! ## Dynamic descriptors (the inspector/executor split)
//!
//! When a loop's subscripts go through a run-time indirection map, no
//! static section exists — the descriptor *function* must walk the map
//! (an inspector loop) to discover the touched words, which it returns
//! as [`Section`]s built from the walk. Registering
//! such a function through [`HintEngine::register_dynamic`] makes the
//! engine memoize every evaluation in a **schedule cache** keyed by
//! `(loop, iteration range, node)`: the walk runs once per key per
//! epoch, and every later evaluation — the executor path — is served
//! from the cache at zero inspection cost. Cache effectiveness is
//! observable as [`DsmStats::inspections`](treadmarks::DsmStats) (cache
//! misses, with the walk's virtual time in `inspect_us`) versus
//! [`DsmStats::schedule_reuse`](treadmarks::DsmStats) (hits, counted
//! one by one or by the plan replay that stands for them). An
//! epoch-invalidating event — the application rebuilt the map — clears
//! the cache through [`HintEngine::invalidate_schedules`] (the `spf`
//! runtime broadcasts the invalidation inside the next dispatch, so
//! every node re-inspects at the same loop boundary).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use treadmarks::{SharedArray, Tmk};

use crate::section::{merge_ranges, Section};

/// Whether an access reads or writes its section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    /// The loop reads the section.
    Read,
    /// The loop writes the section. A write view fetches the current
    /// content too, so write sections are validated — except the whole
    /// pages of a write-all access ([`Access::write_all`]), which the
    /// body overwrites before it reads them.
    Write,
}

/// Who reads a written section next — the producer side of the
/// barrier-time push.
#[derive(Clone, Debug)]
pub enum Consumer {
    /// The registered loop `id`, next dispatched over `iters`: every
    /// node's read sections of that loop are evaluated and the page
    /// overlap with the producer's writes is pushed.
    Loop {
        /// Consuming loop id (registration order).
        id: usize,
        /// The iteration space that loop will be dispatched over.
        iters: Range<usize>,
    },
    /// A specific node's sequential code (e.g. the master's wrap-around
    /// copies in Shallow): the whole written section is pushed there.
    Node(usize),
}

/// One access of a loop: a section of a shared array, its mode, and
/// (for writes) the known consumers.
#[derive(Clone, Debug)]
pub struct Access {
    /// The shared array.
    pub arr: SharedArray,
    /// The section touched.
    pub section: Section,
    /// Read or write.
    pub mode: AccessMode,
    /// A write that stores every word of the section before the loop
    /// reads any of it ([`Access::write_all`]).
    pub write_all: bool,
    /// Consumers of a written section (ignored for reads).
    pub consumers: Vec<Consumer>,
}

impl Access {
    /// A read access.
    pub fn read(arr: SharedArray, section: Section) -> Access {
        Access {
            arr,
            section,
            mode: AccessMode::Read,
            write_all: false,
            consumers: Vec::new(),
        }
    }

    /// A write access.
    pub fn write(arr: SharedArray, section: Section) -> Access {
        Access {
            arr,
            section,
            mode: AccessMode::Write,
            write_all: false,
            consumers: Vec::new(),
        }
    }

    /// A write-all access: the loop stores every word of `section` before
    /// it reads any. A page the section covers whole, and no other access
    /// of the loop touches, is neither validated before the body nor
    /// pushed to it: the body's write view over it fetches nothing, takes
    /// no fault and no twin, and its release publishes the page whole
    /// ([`Tmk::arm_write_all`]).
    pub fn write_all(arr: SharedArray, section: Section) -> Access {
        Access {
            write_all: true,
            ..Access::write(arr, section)
        }
    }

    /// Declare that registered loop `id`, dispatched over `iters`, reads
    /// this written section next.
    pub fn consumed_by_loop(mut self, id: usize, iters: Range<usize>) -> Access {
        self.consumers.push(Consumer::Loop { id, iters });
        self
    }

    /// Declare that node `q`'s sequential code reads this written
    /// section next.
    pub fn consumed_by_node(mut self, q: usize) -> Access {
        self.consumers.push(Consumer::Node(q));
        self
    }
}

/// A loop's access descriptor: evaluated with the dispatched iteration
/// range and a `(proc id, nprocs)` pair — for this node before/after the
/// body, and for every peer when computing push targets. It must be a
/// pure function of those three arguments (for an inspector: between two
/// invalidations): the engine evaluates it once per loop and range and
/// replays the result (see "Hint plans" in the module doc).
pub type AccessFn<'t> = Rc<dyn Fn(&Range<usize>, usize, usize) -> Vec<Access> + 't>;

/// Sorted, disjoint page runs.
type Runs = Vec<Range<usize>>;

/// Schedule-cache key: `(loop id, iters.start, iters.end, node)`.
type ScheduleKey = (usize, usize, usize, usize);

/// One third of a [`Plan`]: the list its call site replays, and how many
/// dynamic-descriptor evaluations building it took — schedule-cache hits,
/// every one, by the time it is replayed.
struct Third<L> {
    list: L,
    dyn_evals: u64,
}

/// What a registered loop's hints come to over one iteration range.
#[derive(Default)]
struct Plan {
    iters: Range<usize>,
    /// `before_loop`: how many sections the body touches, the pages to
    /// validate and the pages it overwrites whole, as merged runs.
    validate: Option<Third<(usize, Runs, Runs)>>,
    /// `after_loop`: the `(target, page)` pushes in registration order,
    /// HLRC home filter not yet applied.
    pushes: Option<Third<Vec<(usize, usize)>>>,
    /// `planned_homes`: every `(page, writer)` of the write sections.
    homes: Option<Third<Vec<(usize, usize)>>>,
}

/// The per-node hint engine, layered on one [`Tmk`] instance.
pub struct HintEngine<'t, 'n> {
    tmk: &'t Tmk<'n>,
    fns: RefCell<Vec<Option<AccessFn<'t>>>>,
    /// Which registered descriptors are dynamic (inspector-backed).
    dynamic: RefCell<Vec<bool>>,
    /// Schedule cache for dynamic descriptors:
    /// `(loop id, iters.start, iters.end, node) -> evaluated accesses`.
    schedules: RefCell<HashMap<ScheduleKey, Rc<Vec<Access>>>>,
    /// The compiled plan of each loop id, for the range it last ran over.
    plans: RefCell<Vec<Option<Plan>>>,
    /// Dynamic-descriptor evaluations so far (hits and misses): a plan
    /// under construction reads its own share off this counter.
    dyn_evals: Cell<u64>,
}

impl<'t, 'n> HintEngine<'t, 'n> {
    /// An engine with no descriptors.
    pub fn new(tmk: &'t Tmk<'n>) -> HintEngine<'t, 'n> {
        HintEngine {
            tmk,
            fns: RefCell::new(Vec::new()),
            dynamic: RefCell::new(Vec::new()),
            schedules: RefCell::new(HashMap::new()),
            plans: RefCell::new(Vec::new()),
            dyn_evals: Cell::new(0),
        }
    }

    /// Attach `access` as loop `id`'s descriptor (same registration order
    /// on every node, like the loop bodies themselves). The fork-join
    /// runtime's applications do not call this directly: `spf`'s
    /// `Spf::describe` derives the function from the loop's footprint,
    /// the one its body opens its views from.
    pub fn set(&self, id: usize, access: impl Fn(&Range<usize>, usize, usize) -> Vec<Access> + 't) {
        let mut fns = self.fns.borrow_mut();
        if fns.len() <= id {
            fns.resize_with(id + 1, || None);
        }
        fns[id] = Some(Rc::new(access));
        let mut dynamic = self.dynamic.borrow_mut();
        if dynamic.len() <= id {
            dynamic.resize(id + 1, false);
        }
        dynamic[id] = false;
        // Re-registration replaces the descriptor: any schedules cached
        // from the previous one are stale, and so is every plan — this
        // loop's own and those of the loops it consumes from.
        self.schedules.borrow_mut().retain(|k, _| k.0 != id);
        self.plans.borrow_mut().clear();
    }

    /// Attach a **dynamic** (inspector) descriptor to loop `id` (what
    /// `spf`'s `Spf::describe_inspector` calls): the function walks a
    /// run-time indirection map, so its evaluations are memoized in the
    /// schedule cache and counted (miss =
    /// `DsmStats::inspections`, hit = `DsmStats::schedule_reuse`). The
    /// walk's virtual-time cost — whatever the function charged through
    /// `Node::advance` — is recorded in `DsmStats::inspect_us`.
    pub fn register_dynamic(
        &self,
        id: usize,
        inspect: impl Fn(&Range<usize>, usize, usize) -> Vec<Access> + 't,
    ) {
        self.set(id, inspect);
        self.dynamic.borrow_mut()[id] = true;
    }

    /// True when loop `id` has a descriptor.
    pub fn has(&self, id: usize) -> bool {
        self.fns.borrow().get(id).is_some_and(|f| f.is_some())
    }

    /// Drop every cached schedule and every plan: an epoch-invalidating
    /// event (the application rebuilt an indirection map). The next
    /// evaluation of each dynamic descriptor re-inspects. Every node must
    /// invalidate at the same loop boundary — the `spf` runtime ships the
    /// invalidation inside the dispatch so workers and master agree.
    pub fn invalidate_schedules(&self) {
        self.schedules.borrow_mut().clear();
        self.plans.borrow_mut().clear();
    }

    fn get(&self, id: usize) -> Option<AccessFn<'t>> {
        self.fns.borrow().get(id).and_then(|f| f.clone())
    }

    /// Evaluate loop `id`'s descriptor for node `q` over `iters` and hand
    /// the accesses to `with`; `None` when the loop has no descriptor.
    /// Static descriptors evaluate directly (they are cheap symbolic
    /// sections); dynamic descriptors go through the schedule cache.
    fn eval<R>(
        &self,
        id: usize,
        iters: &Range<usize>,
        q: usize,
        np: usize,
        with: impl FnOnce(&[Access]) -> R,
    ) -> Option<R> {
        let f = self.get(id)?;
        if !self.dynamic.borrow().get(id).copied().unwrap_or(false) {
            return Some(with(&f(iters, q, np)));
        }
        self.dyn_evals.set(self.dyn_evals.get() + 1);
        let key = (id, iters.start, iters.end, q);
        let hit = self.schedules.borrow().get(&key).cloned();
        let accesses = match hit {
            Some(hit) => {
                self.tmk.note_schedule_reuse(1);
                hit
            }
            None => {
                // Inspection: run the walk and charge it as inspector
                // cost (the walk advances virtual time itself; the delta
                // is the cost).
                let _s = self
                    .tmk
                    .node()
                    .trace_span(sp2sim::SpanKind::Inspect, id as u32);
                let t0 = self.tmk.node().now().us();
                let accesses = Rc::new(f(iters, q, np));
                let us = self.tmk.node().now().us() - t0;
                self.tmk.note_inspection(us);
                self.schedules
                    .borrow_mut()
                    .insert(key, Rc::clone(&accesses));
                accesses
            }
        };
        Some(with(&accesses))
    }

    /// Replay one third of loop `id`'s plan over `iters` — `build`ing it
    /// first if this is the call site's first run since the plan was
    /// dropped or the range changed. A replay counts the schedule-cache
    /// hits it stands for.
    fn third<L, R>(
        &self,
        id: usize,
        iters: &Range<usize>,
        slot: fn(&mut Plan) -> &mut Option<Third<L>>,
        build: impl FnOnce() -> L,
        replay: impl FnOnce(&L) -> R,
    ) -> R {
        let mut plans = self.plans.borrow_mut();
        if plans.len() <= id {
            plans.resize_with(id + 1, || None);
        }
        let plan = match &mut plans[id] {
            Some(plan) if plan.iters == *iters => plan,
            stale => stale.insert(Plan {
                iters: iters.clone(),
                ..Plan::default()
            }),
        };
        let third = match slot(plan) {
            Some(third) => {
                if third.dyn_evals > 0 {
                    self.tmk.note_schedule_reuse(third.dyn_evals);
                }
                third
            }
            unbuilt => {
                let before = self.dyn_evals.get();
                let list = build();
                unbuilt.insert(Third {
                    list,
                    dyn_evals: self.dyn_evals.get() - before,
                })
            }
        };
        replay(&third.list)
    }

    /// Pre-loop hint: an aggregated validate of every section the body
    /// will touch, but for the pages it overwrites whole, which are armed
    /// instead ([`Tmk::arm_write_all`]). Returns the number of pages that
    /// needed fetching.
    ///
    /// Home placement is **not** done here: the nodes reach
    /// `before_loop` with different interval views (the master may
    /// already have published its post-body interval into the dispatch
    /// departure), so a per-node placement decision could diverge. The
    /// fork-join runtime instead decides once on the master at fork
    /// time — see [`HintEngine::planned_homes`] and the `spf` crate —
    /// and ships the accepted overrides with the dispatch.
    pub fn before_loop(&self, id: usize, iters: &Range<usize>) -> u64 {
        if !self.has(id) {
            return 0;
        }
        let (me, np) = (self.tmk.proc_id(), self.tmk.nprocs());
        let build = || {
            let (mut sections, mut pages, mut armed) = (0, Vec::new(), Vec::new());
            self.eval(id, iters, me, np, |accesses| {
                for a in accesses {
                    sections += self.add_pages(a.arr, &a.section, &mut pages);
                }
                armed = self.write_all_pages(accesses);
            });
            (sections, subtract(merge_ranges(pages), &armed), armed)
        };
        let validate = |(sections, pages, armed): &(usize, Runs, Runs)| {
            let fetched = match sections {
                0 => 0,
                _ => self.tmk.validate_pages(*sections, pages),
            };
            self.tmk.arm_write_all(id, armed);
            fetched
        };
        self.third(id, iters, |plan| &mut plan.validate, build, validate)
    }

    /// HLRC home-placement candidates from the descriptors of `loops`,
    /// dispatched together: every page exactly one node's write sections
    /// cover, in all of them, paired with that node — the declared
    /// producer. Pure (nothing installed): the
    /// fork-join runtime filters the candidates through the runtime's
    /// no-notice guard on the master at fork time (when every worker is
    /// parked in its dispatch wait and no interval is in flight, so the
    /// decision state is cluster-complete) and ships the accepted list
    /// with the dispatch for the workers to install verbatim. It asks
    /// for them through [`Tmk::adopt_page_homes`], which evaluates
    /// nothing under a protocol without homes: building the list
    /// evaluates descriptors, and an inspection charges virtual time.
    pub fn planned_homes<'r>(
        &self,
        loops: impl IntoIterator<Item = (usize, &'r Range<usize>)>,
    ) -> Vec<(usize, usize)> {
        // Every `(page, writer)` of every loop: each loop's plan holds
        // its own, one per page a node's write sections cover.
        let mut writes = Vec::new();
        for (id, iters) in loops.into_iter().filter(|&(id, _)| self.has(id)) {
            let build = || {
                let np = self.tmk.nprocs();
                let (mut written, mut writes) = (Vec::new(), Vec::new());
                for q in 0..np {
                    written.clear();
                    self.eval(id, iters, q, np, |accesses| {
                        for a in accesses.iter().filter(|a| a.mode == AccessMode::Write) {
                            self.add_pages(a.arr, &a.section, &mut written);
                        }
                    });
                    written = merge_ranges(written);
                    writes.extend(written.iter().cloned().flatten().map(|p| (p, q)));
                }
                writes
            };
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
    /// descriptor; only the page-level overlap with the producer's writes
    /// travels (page granularity also captures the false-sharing fetches
    /// a page-based DSM would otherwise pay), less the pages the consumer
    /// overwrites whole. Under HLRC a consumer that
    /// is the page's home is skipped: the producer's eager home flush
    /// already carries the same diff there, so a push would only arrive
    /// as a duplicate for the stale-flush guard to drop — this is where
    /// a hinted body chooses push vs home-flush per `(consumer, page)`.
    /// Returns the number of `(target, page)` registrations.
    pub fn after_loop(&self, id: usize, iters: &Range<usize>) -> u64 {
        if !self.has(id) {
            return 0;
        }
        let (me, np) = (self.tmk.proc_id(), self.tmk.nprocs());
        let build = || {
            let mut pushes = Vec::new();
            self.eval(id, iters, me, np, |accesses| {
                self.push_list(accesses, &mut pushes)
            });
            pushes
        };
        let register = |pushes: &Vec<(usize, usize)>| self.register_pushes(pushes);
        self.third(id, iters, |plan| &mut plan.pushes, build, register)
    }

    /// Declare sections *sequential* code on this node just wrote,
    /// together with their consumers — the compiler's descriptor for
    /// straight-line code between two dispatches (IGrid's set-up of its
    /// grids and maps on the master). Pushes ride
    /// this node's next rendezvous exactly like a loop's `after_loop`
    /// registrations; [`Consumer::Loop`] overlaps are evaluated through
    /// the consumer's registered descriptor. Returns the number of
    /// `(target, page)` registrations.
    pub fn declare_produce(&self, accesses: &[Access]) -> u64 {
        let mut pushes = Vec::new();
        self.push_list(accesses, &mut pushes);
        self.register_pushes(&pushes)
    }

    /// [`HintEngine::declare_produce`] for sections sequential code on
    /// this node just **rewrote**, every word of each current here —
    /// whose pushes supersede: each carries the section's words, which
    /// the consumer installs outright instead of applying the newest
    /// diff, so it needs none of the pages' older diffs, of any writer
    /// ([`Tmk::supersede_at_next_sync`]). The compiler's promise is
    /// that nothing else of those pages changed since what a consumer
    /// holds; debug builds check it. Returns the number of `(target,
    /// page)` registrations.
    pub fn republish(&self, accesses: &[Access]) -> u64 {
        let pushed = |a: &&Access| a.mode == AccessMode::Write && !a.consumers.is_empty();
        for a in accesses.iter().filter(pushed) {
            self.tmk.supersede_at_next_sync(a.arr, a.section.runs());
        }
        self.declare_produce(accesses)
    }

    /// Every `(target, page)` the written sections of `accesses` owe
    /// their consumers, in registration order: per access, per consumer,
    /// targets then pages ascending.
    fn push_list(&self, accesses: &[Access], pushes: &mut Vec<(usize, usize)>) {
        let me = self.tmk.proc_id();
        let np = self.tmk.nprocs();
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        for a in accesses {
            if a.mode != AccessMode::Write || a.consumers.is_empty() {
                continue;
            }
            mine.clear();
            self.add_pages(a.arr, &a.section, &mut mine);
            if mine.is_empty() {
                continue;
            }
            for c in &a.consumers {
                match c {
                    Consumer::Loop { id, iters } => {
                        for q in (0..np).filter(|&q| q != me) {
                            // Union of q's accesses on this array — reads
                            // and writes alike, since a write view fetches
                            // the current content too — less the pages q
                            // overwrites whole, whose write fetches nothing.
                            theirs.clear();
                            let mut armed = Vec::new();
                            self.eval(*id, iters, q, np, |accesses| {
                                for ca in accesses.iter().filter(|ca| ca.arr == a.arr) {
                                    self.add_pages(ca.arr, &ca.section, &mut theirs);
                                }
                                armed = self.write_all_pages(accesses);
                            });
                            theirs = subtract(merge_ranges(theirs), &armed);
                            for_each_overlap(&mine, &theirs, |run| {
                                pushes.extend(run.map(|p| (q, p)));
                            });
                        }
                    }
                    Consumer::Node(q) if *q != me => {
                        pushes.extend(mine.iter().cloned().flatten().map(|p| (*q, p)));
                    }
                    Consumer::Node(_) => {}
                }
            }
        }
    }

    /// Register `pushes` for the next rendezvous, minus those the
    /// release already delivers to their target *now* (HLRC: the page's
    /// home) — homes move between two replays of one list. Returns the
    /// number registered.
    fn register_pushes(&self, pushes: &[(usize, usize)]) -> u64 {
        let mut registered = 0;
        for &(q, p) in pushes {
            if self.tmk.release_delivers(p, q) {
                continue;
            }
            self.tmk.push_page_at_next_sync(q, p);
            registered += 1;
        }
        registered
    }

    /// Append the pages of `section` to `runs` and return how many word
    /// runs it has. A section's runs ascend, so its pages come out as
    /// sorted, merged runs; what `runs` held before is left alone (the
    /// caller merges across sections).
    fn add_pages(
        &self,
        arr: SharedArray,
        section: &Section,
        runs: &mut Vec<Range<usize>>,
    ) -> usize {
        let first = runs.len();
        for r in section.runs() {
            let span = self.tmk.page_span(arr, r);
            match runs[first..].last_mut() {
                Some(last) if span.start <= last.end => last.end = last.end.max(span.end),
                _ => runs.push(span),
            }
        }
        section.runs().len()
    }

    /// The pages a body with `accesses` overwrites whole: each page a
    /// write-all section covers entirely, less every page an access that
    /// is not write-all touches — a read, or a write with fetch
    /// semantics. Sorted, disjoint runs.
    fn write_all_pages(&self, accesses: &[Access]) -> Runs {
        let pw = self.tmk.config().page_words;
        let mut whole = Vec::new();
        for a in accesses.iter().filter(|a| a.write_all) {
            let base = a.arr.first_page() * pw;
            for r in a.section.runs() {
                let run = (base + r.start).div_ceil(pw)..(base + r.end) / pw;
                if !run.is_empty() {
                    whole.push(run);
                }
            }
        }
        if whole.is_empty() {
            return whole;
        }
        let mut other = Vec::new();
        for a in accesses.iter().filter(|a| !a.write_all) {
            self.add_pages(a.arr, &a.section, &mut other);
        }
        subtract(merge_ranges(whole), &merge_ranges(other))
    }
}

/// The pages of sorted, disjoint runs `a` that are in no run of `b`;
/// `a` itself when `b` is empty.
fn subtract(a: Runs, b: &[Range<usize>]) -> Runs {
    if b.is_empty() {
        return a;
    }
    let (mut out, mut j) = (Vec::with_capacity(a.len()), 0);
    for run in a {
        let mut start = run.start;
        while j < b.len() && b[j].end <= start {
            j += 1;
        }
        // A cut may reach into the next run too: `j` stays on it.
        for cut in b[j..].iter().take_while(|cut| cut.start < run.end) {
            if cut.start > start {
                out.push(start..cut.start);
            }
            start = start.max(cut.end);
        }
        if start < run.end {
            out.push(start..run.end);
        }
    }
    out
}

/// Call `f` with every run of pages two sorted, disjoint run lists share,
/// ascending: a two-pointer sweep.
fn for_each_overlap(a: &[Range<usize>], b: &[Range<usize>], mut f: impl FnMut(Range<usize>)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let run = a[i].start.max(b[j].start)..a[i].end.min(b[j].end);
        if run.start < run.end {
            f(run);
        }
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;
    use sp2sim::{Cluster, ClusterConfig};
    use treadmarks::TmkConfig;

    use super::*;

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
            if !a.write_all {
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

    fn push_list_reference(hints: &HintEngine, accesses: &[Access]) -> Vec<(usize, usize)> {
        let (me, np) = (hints.tmk.proc_id(), hints.tmk.nprocs());
        let mut pushes = Vec::new();
        for a in accesses {
            if a.mode != AccessMode::Write || a.consumers.is_empty() {
                continue;
            }
            let mine = pages_reference(hints.tmk, a.arr, &a.section);
            for c in &a.consumers {
                match c {
                    Consumer::Loop { id, iters } => {
                        for q in (0..np).filter(|&q| q != me) {
                            let (mut pages, mut armed) = (BTreeSet::new(), BTreeSet::new());
                            hints.eval(*id, iters, q, np, |theirs| {
                                for ca in theirs.iter().filter(|ca| ca.arr == a.arr) {
                                    pages.extend(pages_reference(hints.tmk, ca.arr, &ca.section));
                                }
                                armed = armed_reference(hints.tmk, theirs);
                            });
                            let pushed = mine.intersection(&pages).filter(|p| !armed.contains(p));
                            pushes.extend(pushed.map(|&p| (q, p)));
                        }
                    }
                    Consumer::Node(q) if *q != me => pushes.extend(mine.iter().map(|&p| (*q, p))),
                    Consumer::Node(_) => {}
                }
            }
        }
        pushes
    }

    fn homes_reference(hints: &HintEngine, id: usize, iters: &Range<usize>) -> Vec<(usize, usize)> {
        let np = hints.tmk.nprocs();
        let mut writers: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for q in 0..np {
            hints.eval(id, iters, q, np, |accesses| {
                for a in accesses.iter().filter(|a| a.mode == AccessMode::Write) {
                    for p in pages_reference(hints.tmk, a.arr, &a.section) {
                        writers.entry(p).or_default().insert(q);
                    }
                }
            });
        }
        writers
            .into_iter()
            .filter(|(_, ws)| ws.len() == 1)
            .map(|(p, ws)| (p, *ws.iter().next().expect("single writer")))
            .collect()
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
        /// a subtraction the difference, and the pages a body overwrites
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
                let hints = HintEngine::new(&tmk);
                let arr = [tmk.malloc_f64(WORDS), tmk.malloc_f64(WORDS)];
                // Loop 0: node q writes section q of array q % 2 for loop
                // 1 and for node 0; loop 1: node q reads section 3 + q of
                // the same array.
                hints.set(0, move |_, q, _| {
                    vec![Access::write(arr[q % 2], sections[q].clone())
                        .consumed_by_loop(1, 0..1)
                        .consumed_by_node(0)]
                });
                hints.set(1, move |_, q, _| {
                    vec![
                        Access::read(arr[0], sections[3 + q].clone()),
                        Access::write_all(arr[1], sections[3 + (q + 1) % 3].clone()),
                        Access::write_all(arr[0], sections[(q + 2) % 3].clone()),
                        Access::read(arr[1], sections[q].clone()),
                    ]
                });
                let runs_of = |s: &Section| {
                    let mut runs = Vec::new();
                    hints.add_pages(arr[1], s, &mut runs);
                    runs
                };
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
                    for_each_overlap(&ra, &rb, |run| both.push(run));
                    ok &= pages(&both) == sa.intersection(&sb).copied().collect::<Vec<_>>();
                    let less = subtract(ra.clone(), &rb);
                    ok &= pages(&less) == sa.difference(&sb).copied().collect::<Vec<_>>();
                    let either = merge_ranges(ra.into_iter().chain(rb).collect());
                    ok &= pages(&either) == sa.union(&sb).copied().collect::<Vec<_>>();
                    ok &= either.windows(2).all(|w| w[0].end < w[1].start);
                }
                let me = tmk.proc_id();
                hints.eval(1, &(0..1), me, 3, |accesses| {
                    let armed = pages(&hints.write_all_pages(accesses));
                    ok &= armed == armed_reference(&tmk, accesses).into_iter().collect::<Vec<_>>();
                });
                let written = [Access::write(arr[me % 2], sections[me].clone())
                    .consumed_by_loop(1, 0..1)
                    .consumed_by_node(0)];
                let mut pushes = Vec::new();
                hints.push_list(&written, &mut pushes);
                ok &= pushes == push_list_reference(&hints, &written);
                ok &= hints.planned_homes([(1, &(0..1))]) == homes_reference(&hints, 1, &(0..1));
                tmk.finish();
                ok
            });
            prop_assert!(out.results.iter().all(|&ok| ok));
        }
    }

    /// The descriptors of a producer (loop 0: node `q` writes page `q`,
    /// read next by loop 1) and its consumer (loop 1: everyone reads
    /// everything), each evaluation counted in `calls`.
    fn counted_pipeline<'t>(
        hints: &HintEngine<'t, '_>,
        a: SharedArray,
        calls: &'t Cell<usize>,
        dynamic_consumer: bool,
    ) {
        hints.set(0, move |iters, q, _| {
            calls.set(calls.get() + 1);
            let page = q * 512..(q + 1) * 512;
            vec![Access::write(a, Section::range(page)).consumed_by_loop(1, iters.clone())]
        });
        let consumer = move |_: &Range<usize>, _, np| {
            calls.set(calls.get() + 1);
            vec![Access::read(a, Section::range(0..np * 512))]
        };
        if dynamic_consumer {
            hints.register_dynamic(1, consumer);
        } else {
            hints.set(1, consumer);
        }
    }

    /// A repeated dispatch replays the plan without calling a descriptor;
    /// another range, a re-registered *consumer* and an invalidation each
    /// build it again; and there is one plan per loop, not one per range.
    #[test]
    fn plans_replay_until_something_they_embed_changes() {
        let out = Cluster::run(ClusterConfig::sp2(3), |node| {
            let calls = Cell::new(0);
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 3);
            counted_pipeline(&hints, a, &calls, false);
            // One dispatch of loop 0: its own descriptor before and after
            // the body, the consumer's once per peer.
            let dispatch = |iters: Range<usize>| {
                let before = calls.get();
                hints.before_loop(0, &iters);
                let registered = hints.after_loop(0, &iters);
                tmk.barrier(0);
                (calls.get() - before, registered)
            };
            let mut seen = vec![dispatch(0..8), dispatch(0..8), dispatch(0..8)];
            seen.push(dispatch(0..4));
            seen.push(dispatch(0..8));
            counted_pipeline(&hints, a, &calls, false);
            seen.push(dispatch(0..8));
            seen.push(dispatch(0..8));
            hints.invalidate_schedules();
            seen.push(dispatch(0..8));
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
            built, replayed, // consumer re-registered
            built, replayed, // invalidated
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
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 3);
            counted_pipeline(&hints, a, &calls, true);
            let mut seen = Vec::new();
            for _ in 0..3 {
                hints.before_loop(0, &(0..8));
                hints.after_loop(0, &(0..8));
                hints.before_loop(1, &(0..8));
                hints.after_loop(1, &(0..8));
                tmk.barrier(0);
                let s = tmk.stats_snapshot();
                seen.push((calls.get(), s.inspections, s.schedule_reuse));
            }
            tmk.finish();
            seen
        });
        for seen in &out.results {
            // First dispatches: loop 0 twice, loop 1 inspected for the two
            // peers (after loop 0) and for this node (before loop 1), then
            // found in the cache after loop 1. Later ones: the same four
            // evaluations of loop 1, all hits, none of them made.
            assert_eq!(seen[..], [(5, 3, 1), (5, 3, 5), (5, 3, 9)]);
        }
    }

    /// The HLRC "consumer is the home" filter is applied when a push
    /// list is replayed, not when it is built: moving a page's home
    /// between two dispatches changes what the same plan registers.
    #[test]
    fn the_home_filter_is_applied_at_replay() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let calls = &Cell::new(0);
            let tmk = Tmk::new(node, TmkConfig::hlrc());
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 2);
            hints.set(0, move |_, q, _| {
                calls.set(calls.get() + 1);
                if q != 0 {
                    return vec![];
                }
                vec![Access::write(a, Section::range(0..512 * 2)).consumed_by_node(1)]
            });
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
                registered.push(hints.after_loop(0, &(0..1)));
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
}
