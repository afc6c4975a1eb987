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
//! the pusher's panics at the install).
//! Hinted and unhinted executions produce byte-identical shared memory;
//! `tests/cri_equivalence.rs` pins that property.
//!
//! The engine keeps no descriptor. It looks each one up in the loop
//! table it is handed, and keeps only what they came to: the plans it
//! replays and the inspectors' schedules (see "Hint plans" and "Dynamic
//! descriptors" in the crate doc).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

use cri::section::{for_each_overlap, merge_ranges, subtract};
use cri::{Access, AccessMode, Consumer, Section};
use treadmarks::{SharedArray, Tmk};

use crate::{described, Description, Entry};

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

/// What a described loop's hints come to over one iteration range.
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

/// The per-node hint engine, layered on one [`Tmk`] instance. Every
/// call that evaluates a descriptor is handed the loop table's entries,
/// `loops`, in which it looks the descriptor up.
pub(crate) struct HintEngine<'t, 'n> {
    tmk: &'t Tmk<'n>,
    /// Schedule cache for inspectors:
    /// `(loop id, iters.start, iters.end, node) -> evaluated accesses`.
    schedules: RefCell<HashMap<ScheduleKey, Rc<Vec<Access>>>>,
    /// The compiled plan of each loop id, for the range it last ran over.
    plans: RefCell<Vec<Option<Plan>>>,
    /// Inspector evaluations so far (hits and misses): a plan under
    /// construction reads its own share off this counter.
    dyn_evals: Cell<u64>,
}

impl<'t, 'n> HintEngine<'t, 'n> {
    /// An engine with nothing cached.
    pub(crate) fn new(tmk: &'t Tmk<'n>) -> HintEngine<'t, 'n> {
        HintEngine {
            tmk,
            schedules: RefCell::new(HashMap::new()),
            plans: RefCell::new(Vec::new()),
            dyn_evals: Cell::new(0),
        }
    }

    /// Drop every cached schedule and every plan: an epoch-invalidating
    /// event (the application rebuilt an indirection map). The next
    /// evaluation of each inspector re-inspects. Every node must
    /// invalidate at the same loop boundary — the run-time ships the
    /// invalidation inside the dispatch so workers and master agree.
    pub(crate) fn invalidate_schedules(&self) {
        self.schedules.borrow_mut().clear();
        self.plans.borrow_mut().clear();
    }

    /// Evaluate loop `id`'s descriptor for node `q` over `iters` and hand
    /// the accesses to `with`; `None` when the loop has no descriptor.
    /// A footprint's descriptor evaluates directly (cheap symbolic
    /// sections), handed the table to read its consumers' preludes;
    /// an inspector goes through the schedule cache.
    fn eval<R>(
        &self,
        loops: &[Entry<'t>],
        id: usize,
        iters: &Range<usize>,
        q: usize,
        np: usize,
        with: impl FnOnce(&[Access]) -> R,
    ) -> Option<R> {
        let f = match described(loops, id)? {
            Description::Footprint(.., descriptor) => {
                return Some(with(&descriptor(loops, iters, q, np)))
            }
            Description::Inspector(inspect) => inspect,
        };
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
    pub(crate) fn before_loop(&self, loops: &[Entry<'t>], id: usize, iters: &Range<usize>) -> u64 {
        if described(loops, id).is_none() {
            return 0;
        }
        let (me, np) = (self.tmk.proc_id(), self.tmk.nprocs());
        let build = || {
            let (mut sections, mut pages, mut armed) = (0, Vec::new(), Vec::new());
            self.eval(loops, id, iters, me, np, |accesses| {
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

    /// HLRC home-placement candidates from the descriptors of `group`,
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
    pub(crate) fn planned_homes<'r>(
        &self,
        loops: &[Entry<'t>],
        group: impl IntoIterator<Item = (usize, &'r Range<usize>)>,
    ) -> Vec<(usize, usize)> {
        // Every `(page, writer)` of every loop: each loop's plan holds
        // its own, one per page a node's write sections cover.
        let mut writes = Vec::new();
        let described = |&(id, _): &(usize, _)| described(loops, id).is_some();
        for (id, iters) in group.into_iter().filter(described) {
            let build = || {
                let np = self.tmk.nprocs();
                let (mut written, mut writes) = (Vec::new(), Vec::new());
                for q in 0..np {
                    written.clear();
                    self.eval(loops, id, iters, q, np, |accesses| {
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
    pub(crate) fn after_loop(&self, loops: &[Entry<'t>], id: usize, iters: &Range<usize>) -> u64 {
        if described(loops, id).is_none() {
            return 0;
        }
        let (me, np) = (self.tmk.proc_id(), self.tmk.nprocs());
        let build = || {
            let mut pushes = Vec::new();
            self.eval(loops, id, iters, me, np, |accesses| {
                self.push_list(loops, accesses, &mut pushes)
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
    /// the consumer's descriptor. Returns the number of `(target, page)`
    /// registrations.
    pub(crate) fn declare_produce(&self, loops: &[Entry<'t>], accesses: &[Access]) -> u64 {
        let mut pushes = Vec::new();
        self.push_list(loops, accesses, &mut pushes);
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
    pub(crate) fn republish(&self, loops: &[Entry<'t>], accesses: &[Access]) -> u64 {
        let pushed = |a: &&Access| a.mode == AccessMode::Write && !a.consumers.is_empty();
        for a in accesses.iter().filter(pushed) {
            self.tmk.supersede_at_next_sync(a.arr, a.section.runs());
        }
        self.declare_produce(loops, accesses)
    }

    /// Every `(target, page)` the written sections of `accesses` owe
    /// their consumers, in registration order: per access, per consumer,
    /// targets then pages ascending.
    fn push_list(
        &self,
        loops: &[Entry<'t>],
        accesses: &[Access],
        pushes: &mut Vec<(usize, usize)>,
    ) {
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
                            self.eval(loops, *id, iters, q, np, |accesses| {
                                for ca in accesses.iter().filter(|ca| ca.arr == a.arr) {
                                    self.add_pages(ca.arr, &ca.section, &mut theirs);
                                }
                                armed = self.write_all_pages(accesses);
                            });
                            theirs = subtract(merge_ranges(theirs), &armed);
                            for_each_overlap(mine.iter().cloned(), theirs.iter().cloned(), |run| {
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

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use cri::section::{contains, insert, meets};
    use proptest::prelude::*;
    use sp2sim::{Cluster, ClusterConfig, MsgKind};
    use treadmarks::TmkConfig;

    use super::*;

    /// A loop described by a hand-written access list: a footprint's
    /// descriptor, or with `inspector` an inspector's.
    fn entry<'t>(
        inspector: bool,
        accesses: impl Fn(&Range<usize>, usize, usize) -> Vec<Access> + 't,
    ) -> Entry<'t> {
        let description = match inspector {
            true => Description::Inspector(Box::new(accesses)),
            false => Description::Footprint(
                Box::new(|_, _, _, _, _| {}),
                None,
                Box::new(move |_, iters, q, np| accesses(iters, q, np)),
            ),
        };
        Entry {
            body: Box::new(|_| {}),
            sequential: None,
            description: Some(description),
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

    fn push_list_reference<'t>(
        hints: &HintEngine<'t, '_>,
        loops: &[Entry<'t>],
        accesses: &[Access],
    ) -> Vec<(usize, usize)> {
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
                            hints.eval(loops, *id, iters, q, np, |theirs| {
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

    fn homes_reference<'t>(
        hints: &HintEngine<'t, '_>,
        loops: &[Entry<'t>],
        id: usize,
        iters: &Range<usize>,
    ) -> Vec<(usize, usize)> {
        let np = hints.tmk.nprocs();
        let mut writers: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for q in 0..np {
            hints.eval(loops, id, iters, q, np, |accesses| {
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
        /// a subtraction the difference, an insertion the union with its
        /// run, "meets, less a minus set" and containment the set tests
        /// they name, and the pages a body overwrites
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
                let loops = [
                    entry(false, move |_, q, _| {
                        vec![Access::write(arr[q % 2], sections[q].clone())
                            .consumed_by_loop(1, 0..1)
                            .consumed_by_node(0)]
                    }),
                    entry(false, move |_, q, _| {
                        vec![
                            Access::read(arr[0], sections[3 + q].clone()),
                            Access::write_all(arr[1], sections[3 + (q + 1) % 3].clone()),
                            Access::write_all(arr[0], sections[(q + 2) % 3].clone()),
                            Access::read(arr[1], sections[q].clone()),
                        ]
                    }),
                ];
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
                        // Whether `r` less `a` meets `b`.
                        let outside_a: BTreeSet<usize> = words.difference(&sa).copied().collect();
                        ok &= meets(&rb, &r, &ra) == outside_a.intersection(&sb).next().is_some();
                        ok &= contains(&ra, &r) == words.is_subset(&sa);
                    }
                }
                let me = tmk.proc_id();
                hints.eval(&loops, 1, &(0..1), me, 3, |accesses| {
                    let armed = pages(&hints.write_all_pages(accesses));
                    ok &= armed == armed_reference(&tmk, accesses).into_iter().collect::<Vec<_>>();
                });
                let written = [Access::write(arr[me % 2], sections[me].clone())
                    .consumed_by_loop(1, 0..1)
                    .consumed_by_node(0)];
                let mut pushes = Vec::new();
                hints.push_list(&loops, &written, &mut pushes);
                ok &= pushes == push_list_reference(&hints, &loops, &written);
                let homes = hints.planned_homes(&loops, [(1, &(0..1))]);
                ok &= homes == homes_reference(&hints, &loops, 1, &(0..1));
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
        a: SharedArray,
        calls: &'t Cell<usize>,
        dynamic_consumer: bool,
    ) -> [Entry<'t>; 2] {
        let producer = move |iters: &Range<usize>, q, _| {
            calls.set(calls.get() + 1);
            let page = q * 512..(q + 1) * 512;
            vec![Access::write(a, Section::range(page)).consumed_by_loop(1, iters.clone())]
        };
        let consumer = move |_: &Range<usize>, _, np| {
            calls.set(calls.get() + 1);
            vec![Access::read(a, Section::range(0..np * 512))]
        };
        [entry(false, producer), entry(dynamic_consumer, consumer)]
    }

    /// A repeated dispatch replays the plan without calling a descriptor;
    /// another range and an invalidation each build it again; and there is
    /// one plan per loop, not one per range.
    #[test]
    fn plans_replay_until_something_they_embed_changes() {
        let out = Cluster::run(ClusterConfig::sp2(3), |node| {
            let calls = Cell::new(0);
            let tmk = Tmk::new(node, TmkConfig::default());
            let hints = HintEngine::new(&tmk);
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
            let loops = [entry(false, move |_, q, _| {
                calls.set(calls.get() + 1);
                if q != 0 {
                    return vec![];
                }
                vec![Access::write(a, Section::range(0..512 * 2)).consumed_by_node(1)]
            })];
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
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 4);
            let loops = [entry(false, move |_, me, _| {
                if me == 1 {
                    vec![Access::read(a, Section::range(0..512 * 4))]
                } else {
                    vec![]
                }
            })];
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
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 4);
            // Loop 0: node 0 writes the first two pages; loop 1: node 1
            // reads pages 1..3 — the overlap is exactly page 1.
            let writes = move |_: &Range<usize>, me, _| {
                if me == 0 {
                    vec![Access::write(a, Section::range(0..512 * 2)).consumed_by_loop(1, 0..1)]
                } else {
                    vec![]
                }
            };
            let reads = move |_: &Range<usize>, me, _| {
                if me == 1 {
                    vec![Access::read(a, Section::range(512..512 * 3))]
                } else {
                    vec![]
                }
            };
            let loops = [entry(false, writes), entry(false, reads)];
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
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 3);
            let loops = [entry(false, move |_, me, _| {
                // Each node writes its own page, destined for node 0.
                let r = me * 512..(me + 1) * 512;
                vec![Access::write(a, Section::range(r)).consumed_by_node(0)]
            })];
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
            let hints = HintEngine::new(&tmk);
            let a = tmk.malloc_f64(512 * 2);
            let writes = move |_: &Range<usize>, me, _| {
                if me == 0 {
                    vec![Access::write(a, Section::range(0..512 * 2)).consumed_by_loop(1, 0..1)]
                } else {
                    vec![]
                }
            };
            let reads = move |_: &Range<usize>, me, _| {
                if me == 1 {
                    vec![Access::read(a, Section::range(0..512 * 2))]
                } else {
                    vec![]
                }
            };
            let loops = [entry(false, writes), entry(false, reads)];
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
            let loops = [entry(false, move |_, me, _| {
                if me == 0 {
                    vec![Access::write(a, Section::range(512..512 * 2)).consumed_by_node(1)]
                } else {
                    vec![]
                }
            })];
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
            let hints = HintEngine::new(&tmk);
            let loops: [Entry; 0] = [];
            assert!(described(&loops, 3).is_none());
            assert_eq!(hints.before_loop(&loops, 3, &(0..10)), 0);
            assert_eq!(hints.after_loop(&loops, 3, &(0..10)), 0);
            tmk.finish();
        });
        assert_eq!(out.stats.total_messages(), 0);
    }
}
