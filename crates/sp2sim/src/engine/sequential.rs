//! The engine: fibers of one OS thread under a FIFO or seeded schedule.
//!
//! Every simulated node closure — and every service loop spawned
//! through [`Node::spawn_service`] — runs as a stackful fiber
//! (see [`super::fiber`]) on the single OS thread that called
//! [`Cluster::run`](crate::Cluster::run). Under
//! [`EngineKind::Sequential`](super::EngineKind) a strict FIFO run
//! queue schedules the fibers and a fiber runs until it blocks (empty
//! receive queue, rendezvous, service join, a held state cell) or
//! finishes; under [`EngineKind::Seeded`](super::EngineKind) the next
//! fiber is drawn at random and [`Engine::preempt`] — called before
//! every packet delivery and around every state-cell section — may
//! take the running fiber off the processor for a while. Either way a
//! switch is a user-space context switch of tens of nanoseconds.
//!
//! Properties that follow:
//!
//! * **Determinism.** Scheduling decisions depend only on program
//!   behaviour and the seed, never on OS timing: the same configuration
//!   produces byte-for-byte identical virtual times, statistics and
//!   results on every run.
//! * **Speed.** No thread spawns, no locks, no atomics — a blocking
//!   receive is two context switches.
//! * **Parallel sweeps.** The engine touches nothing global, so many
//!   independent simulations can run concurrently, one per OS thread —
//!   the harness's parallel sweep runner relies on this.
//!
//! Deadlocks in the simulated program (every fiber blocked) are
//! detected and reported with a per-fiber diagnostic (and the schedule
//! seed) instead of hanging, except for the benign teardown case:
//! service loops still waiting for requests after every node finished
//! are woken with "channel closed" (`recv` returns `None`).

use std::any::Any;
use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use super::fiber::{ContextSlot, Fiber};
use super::{ServiceHandle, TraceShared};
use crate::cluster::{ClusterConfig, RunOutput};
use crate::cost::CostModel;
use crate::node::Node;
use crate::packet::{Packet, Port};
use crate::rng::SplitMix64;
use crate::stats::NetStats;
use crate::time::VTime;

fn port_ix(port: Port) -> usize {
    match port {
        Port::App => 0,
        Port::Service => 1,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FiberState {
    Runnable,
    Running,
    /// Waiting for a packet at (node, port).
    RecvBlocked(usize, usize),
    /// Waiting at the rendezvous barrier.
    BarrierBlocked,
    /// Waiting for fiber `usize` to finish.
    JoinBlocked(usize),
    /// Found a [`StateCell`](crate::StateCell) held; its release wakes us.
    CellBlocked,
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FiberKind {
    /// Node closure for node `id`.
    Node(usize),
    /// Service loop spawned by node code.
    Service,
}

/// Scheduler bookkeeping. No borrow of it is ever held across a
/// context switch.
struct Sched {
    n: usize,
    /// Per-(node, port) delivery queues.
    queues: Vec<[VecDeque<Packet>; 2]>,
    /// Fiber waiting on each (node, port), if any.
    pkt_waiter: Vec<[Option<usize>; 2]>,
    runq: VecDeque<usize>,
    /// The seeded schedule, if the run has one; `None` is strict FIFO.
    seeded: Option<Seeded>,
    state: Vec<FiberState>,
    kind: Vec<FiberKind>,
    /// Currently executing fiber.
    current: Option<usize>,
    /// Final virtual clocks, by node id.
    finals: Vec<VTime>,
    /// Fibers parked at the rendezvous barrier, in arrival order.
    barrier_wait: Vec<usize>,
    /// Whether each fiber panicked (service joins re-raise this).
    panicked: Vec<bool>,
    /// First node-fiber panic payload, re-raised by the engine.
    panic: Option<Box<dyn Any + Send>>,
    /// Unfinished fibers.
    live: usize,
    /// Set when only parked service loops remain: receives now fail.
    teardown: bool,
}

/// A seeded schedule: the generator every choice is drawn from, and
/// the fibers a preemption has taken off the processor for a while.
///
/// How eagerly a run preempts and how long a preempted fiber stays away
/// are themselves drawn from the seed, once per run. Some races need a
/// fiber stopped at one exact point and its neighbour run at once;
/// others need the rest of the cluster to get far while it is stopped,
/// as when the OS deschedules a thread — measured on the three historic
/// bugs (`ci/mutants.sh`), naps of up to a few hundred picks find them
/// three to five times as often per seed as none.
struct Seeded {
    rng: SplitMix64,
    /// A preemption point switches once in this many visits.
    preempt_one_in: u64,
    /// A preempted fiber sits out up to this many picks.
    max_nap: u64,
    /// Scheduler picks so far: the clock naps are measured on.
    picks: u64,
    /// Preempted fibers and the pick that ends each one's nap.
    napping: Vec<(u64, usize)>,
}

impl Seeded {
    fn new(seed: u64) -> Seeded {
        let mut rng = SplitMix64::new(seed);
        Seeded {
            preempt_one_in: 2 << rng.below(3),
            max_nap: 16 << (2 * rng.below(4)),
            rng,
            picks: 0,
            napping: Vec::new(),
        }
    }
}

/// The engine: scheduler state plus the fiber contexts. It is `!Send`
/// and every handle to it is an `Rc`, so the contexts are only ever
/// touched from the OS thread that runs [`run`].
pub(crate) struct Engine {
    /// The cluster cost model.
    pub(crate) cost: CostModel,
    /// The cluster-wide statistics.
    pub(crate) stats: NetStats,
    /// The run's trace recorder, when tracing is enabled.
    pub(crate) trace: Option<TraceShared>,
    /// The run's host slots, one value per type (see
    /// [`Node::cluster_slot`]).
    pub(crate) slots: RefCell<Vec<Rc<dyn Any>>>,
    /// The schedule seed; `None` is strict FIFO, which never preempts.
    seed: Option<u64>,
    sched: RefCell<Sched>,
    /// Fiber table, indexed by fiber id. Boxed so entries have stable
    /// addresses across table growth (a suspended fiber's saved context
    /// points into its own `Fiber`).
    #[allow(clippy::vec_box)]
    fibers: UnsafeCell<Vec<Box<Fiber>>>,
    /// The scheduler loop's own (OS thread) context.
    main: ContextSlot,
}

impl Sched {
    /// Make the blocked fiber `f` runnable.
    fn ready(&mut self, f: usize) {
        self.state[f] = FiberState::Runnable;
        self.runq.push_back(f);
    }

    /// The running fiber, which is about to switch out: mark it `blocked`.
    fn block(&mut self, blocked: FiberState, what: &str) -> usize {
        let me = self.current;
        let me = me.unwrap_or_else(|| panic!("{what} outside an engine fiber"));
        self.state[me] = blocked;
        me
    }

    /// Take the next fiber to run: the oldest runnable one, or under a
    /// seeded schedule any of them.
    fn pick(&mut self) -> Option<usize> {
        let Sched { runq, seeded, .. } = self;
        let Some(seeded) = seeded else {
            return runq.pop_front();
        };
        seeded.picks += 1;
        // The naps that are over rejoin the queue; with nothing else to
        // run, the shortest one is cut short.
        let first_up = seeded.napping.iter().map(|&(wake, _)| wake).min();
        let due = match first_up {
            Some(wake) if runq.is_empty() => wake,
            _ => seeded.picks,
        };
        seeded.napping.retain(|&(wake, fiber)| {
            let over = wake <= due;
            if over {
                runq.push_back(fiber);
            }
            !over
        });
        if runq.is_empty() {
            return None;
        }
        let i = seeded.rng.below(runq.len() as u64) as usize;
        runq.swap_remove_back(i)
    }

    /// A seeded preemption point, visited by the running fiber: draw
    /// whether it switches out here, and if so send it napping.
    fn preempt(&mut self) -> Option<usize> {
        let seeded = self.seeded.as_mut()?;
        let me = self.current?;
        if seeded.rng.below(seeded.preempt_one_in) != 0 {
            return None;
        }
        let nap = 1 + seeded.rng.below(seeded.max_nap);
        seeded.napping.push((seeded.picks + nap, me));
        self.state[me] = FiberState::Runnable;
        Some(me)
    }
}

impl Engine {
    /// Park the current fiber (its state must already be set to a
    /// blocked variant or `Runnable`, and the scheduler borrow released)
    /// and run the scheduler until something resumes it.
    fn switch_to_scheduler(&self, me: usize) {
        // SAFETY: `me` is the fiber this code runs on (callers take it
        // from `Sched::current`); its table entry is boxed, so the table
        // growing (a spawn) moves no `Fiber`, and no reference into the
        // table outlives the statement that made it.
        unsafe {
            let fiber: *const Fiber = &*(&*self.fibers.get())[me];
            (*fiber).suspend_into(&self.main);
        }
    }

    /// Register a new runnable fiber running `body` wrapped in the
    /// completion protocol (panic capture, joiner wake-up, final
    /// switch-out). Returns its fiber id.
    fn spawn_fiber(&self, kind: FiberKind, body: Box<dyn FnOnce() + '_>) -> usize {
        // The shell captures the engine as a raw pointer: `run` keeps
        // the engine alive until every fiber completed (or the stacks
        // are deliberately leaked on the panic path, never running
        // again), and a strong Rc here would cycle through the
        // suspended final frame and leak the whole engine.
        let engine: *const Engine = self;
        let mut s = self.sched.borrow_mut();
        let id = s.state.len();
        s.state.push(FiberState::Runnable);
        s.kind.push(kind);
        s.panicked.push(false);
        s.live += 1;
        s.runq.push_back(id);
        let shell: Box<dyn FnOnce() + '_> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(body));
            // SAFETY: see above — the engine outlives its fibers' runs.
            let engine = unsafe { &*engine };
            let mut s = engine.sched.borrow_mut();
            debug_assert_eq!(s.current, Some(id));
            s.state[id] = FiberState::Done;
            s.live -= 1;
            if let Err(payload) = result {
                if let Some(seed) = engine.seed {
                    eprintln!(
                        "sp2sim: fiber {id} panicked under schedule seeded:{seed} \
                         [replay with --engine seeded:{seed}]"
                    );
                }
                s.panicked[id] = true;
                if matches!(s.kind[id], FiberKind::Node(_)) && s.panic.is_none() {
                    s.panic = Some(payload);
                }
            }
            // Wake any fiber parked in join_service on us.
            for w in 0..s.state.len() {
                if s.state[w] == FiberState::JoinBlocked(id) {
                    s.ready(w);
                }
            }
            drop(s);
            engine.switch_to_scheduler(id);
            unreachable!("completed fiber resumed");
        });
        // SAFETY (lifetime erasure, which is what `Fiber::new` asks
        // about): the scheduler loop runs every fiber to completion
        // before `run` returns, or deliberately leaks unfinished stacks
        // when propagating a panic — either way no fiber executes after
        // its borrows expire. Nobody else holds the table right now (see
        // `switch_to_scheduler`).
        unsafe {
            let shell: Box<dyn FnOnce() + 'static> = std::mem::transmute(shell);
            (*self.fibers.get()).push(Box::new(Fiber::new(shell)));
        }
        id
    }

    /// The scheduler loop: run fibers until all are done (or the run
    /// deadlocks/panics). Returns the first node panic, if any.
    fn schedule(&self) -> Option<Box<dyn Any + Send>> {
        loop {
            let next = {
                let mut s = self.sched.borrow_mut();
                s.pick().inspect(|&f| {
                    debug_assert_eq!(s.state[f], FiberState::Runnable);
                    s.state[f] = FiberState::Running;
                    s.current = Some(f);
                })
            };

            match next {
                Some(f) => {
                    // SAFETY: `f` is suspended (it was on the run queue)
                    // and `main` is this loop's own save-slot.
                    unsafe {
                        let fiber: *const Fiber = &*(&*self.fibers.get())[f];
                        (*fiber).resume(&self.main);
                    }
                    let mut s = self.sched.borrow_mut();
                    debug_assert_ne!(
                        s.state[f],
                        FiberState::Running,
                        "fiber suspended without parking itself"
                    );
                    s.current = None;
                }
                None => {
                    let mut s = self.sched.borrow_mut();
                    if s.live == 0 || s.panic.is_some() {
                        // Done — or a node panicked and the survivors
                        // are stuck: propagate, deliberately leaking
                        // the blocked fibers' stacks.
                        return s.panic.take();
                    }
                    // Teardown: only service loops blocked on receive
                    // may remain; wake them with "channel closed".
                    let all_service_recv = (0..s.state.len()).all(|i| match s.state[i] {
                        FiberState::RecvBlocked(..) => s.kind[i] == FiberKind::Service,
                        FiberState::Done => true,
                        _ => false,
                    });
                    if all_service_recv && !s.teardown {
                        s.teardown = true;
                        for i in 0..s.state.len() {
                            if matches!(s.state[i], FiberState::RecvBlocked(..)) {
                                s.ready(i);
                            }
                        }
                        for w in s.pkt_waiter.iter_mut() {
                            *w = [None, None];
                        }
                        continue;
                    }
                    let report: Vec<String> = (0..s.state.len())
                        .filter(|&i| s.state[i] != FiberState::Done)
                        .map(|i| format!("fiber {i} ({:?}): {:?}", s.kind[i], s.state[i]))
                        .collect();
                    let seed = self.seed.map_or(String::new(), |seed| {
                        format!(" [schedule seed {seed}: replay with --engine seeded:{seed}]")
                    });
                    let report = report.join("\n  ");
                    panic!("simulated cluster deadlocked{seed}; blocked fibers:\n  {report}");
                }
            }
        }
    }

    /// A preemption point: under a seeded schedule the running fiber
    /// may be taken off the processor here, so that any other runnable
    /// fiber — its own node's other context included — gets in first.
    #[inline]
    pub(crate) fn preempt(&self) {
        if self.seed.is_some() {
            let preempted = self.sched.borrow_mut().preempt();
            if let Some(me) = preempted {
                self.switch_to_scheduler(me);
            }
        }
    }

    /// Block the running fiber, which found a state cell held, until
    /// [`Engine::wake`] names it; it is added to `waiters`.
    pub(crate) fn park_on_cell(&self, waiters: &RefCell<Vec<usize>>) {
        let mut s = self.sched.borrow_mut();
        let me = s.block(FiberState::CellBlocked, "a held state cell");
        drop(s);
        waiters.borrow_mut().push(me);
        self.switch_to_scheduler(me);
    }

    /// Make a fiber parked by [`Engine::park_on_cell`] runnable.
    pub(crate) fn wake(&self, fiber: usize) {
        let mut s = self.sched.borrow_mut();
        debug_assert_eq!(s.state[fiber], FiberState::CellBlocked);
        s.ready(fiber);
    }

    /// Enqueue `pkt` at `dst`'s `port`.
    pub(crate) fn deliver(&self, dst: usize, port: Port, pkt: Packet) {
        let p = port_ix(port);
        let mut s = self.sched.borrow_mut();
        s.queues[dst][p].push_back(pkt);
        if let Some(w) = s.pkt_waiter[dst][p].take() {
            debug_assert_eq!(s.state[w], FiberState::RecvBlocked(dst, p));
            s.ready(w);
        }
    }

    /// Put `unmatched` — received at (`id`, `port`) and never matched —
    /// back at the head of its queue, in the order it came. Called from
    /// a drop, so it never panics: with the scheduler borrowed (a panic
    /// unwinding through it) the packets are dropped.
    pub(crate) fn requeue(&self, id: usize, port: Port, unmatched: &mut VecDeque<Packet>) {
        if let Ok(mut s) = self.sched.try_borrow_mut() {
            let queue = &mut s.queues[id][port_ix(port)];
            for pkt in unmatched.drain(..).rev() {
                queue.push_front(pkt);
            }
        }
    }

    /// With debug assertions, panic on a packet still queued at the end
    /// of a run: a message nobody received — a push announced to no one,
    /// or consumed under the wrong count — is a protocol bug even when
    /// the results come out right.
    fn check_drained(&self) {
        let s = self.sched.borrow();
        for (node, queues) in s.queues.iter().enumerate() {
            for (port, queue) in [Port::App, Port::Service].into_iter().zip(queues) {
                if let Some(p) = queue.front() {
                    panic!(
                        "the run ended with {} packet(s) queued at node {node}'s {port:?} port, \
                         the first with tag {:#x}, kind {:?}, from node {}",
                        queue.len(),
                        p.tag,
                        p.kind,
                        p.src
                    );
                }
            }
        }
    }

    /// Blocking receive of the next packet at (`id`, `port`), in
    /// delivery order. Returns `None` only when the engine is tearing
    /// the run down and no further packet can arrive.
    pub(crate) fn recv(&self, id: usize, port: Port) -> Option<Packet> {
        let p = port_ix(port);
        loop {
            let me = {
                let mut s = self.sched.borrow_mut();
                if let Some(pkt) = s.queues[id][p].pop_front() {
                    return Some(pkt);
                }
                if s.teardown {
                    return None;
                }
                debug_assert!(
                    s.pkt_waiter[id][p].is_none(),
                    "two receivers on one port queue"
                );
                let me = s.block(FiberState::RecvBlocked(id, p), "recv");
                s.pkt_waiter[id][p] = Some(me);
                me
            };
            self.switch_to_scheduler(me);
        }
    }

    /// Record node `id`'s final virtual clock.
    pub(crate) fn record_final(&self, id: usize, t: VTime) {
        self.sched.borrow_mut().finals[id] = t;
    }

    /// Wall-clock rendezvous of all node contexts (measurement
    /// infrastructure; see [`Node::rendezvous`]).
    pub(crate) fn rendezvous(&self) {
        let me = {
            let mut s = self.sched.borrow_mut();
            if s.barrier_wait.len() + 1 == s.n {
                // Last arriver releases everyone, in arrival order.
                for w in std::mem::take(&mut s.barrier_wait) {
                    s.ready(w);
                }
                return;
            }
            let me = s.block(FiberState::BarrierBlocked, "rendezvous");
            debug_assert!(
                matches!(s.kind[me], FiberKind::Node(_)),
                "rendezvous from a service context"
            );
            s.barrier_wait.push(me);
            me
        };
        self.switch_to_scheduler(me);
    }

    /// Run `f` as a fiber of its own, concurrently with the node
    /// contexts.
    pub(crate) fn spawn_service(&self, f: Box<dyn FnOnce()>) -> ServiceHandle {
        ServiceHandle(self.spawn_fiber(FiberKind::Service, f))
    }

    /// Wait until the service fiber behind `h` finishes. Panics if it
    /// panicked, like a thread join.
    pub(crate) fn join_service(&self, h: ServiceHandle) {
        let fid = h.0;
        let blocked = {
            let mut s = self.sched.borrow_mut();
            (s.state[fid] != FiberState::Done)
                .then(|| s.block(FiberState::JoinBlocked(fid), "join"))
        };
        if let Some(me) = blocked {
            self.switch_to_scheduler(me);
        }
        let panicked = self.sched.borrow().panicked[fid];
        assert!(!panicked, "service thread panicked");
    }
}

/// Run `f` on every node of a fresh cluster, all as fibers of the
/// calling thread.
pub(crate) fn run<R, F>(cfg: ClusterConfig, f: F) -> RunOutput<R>
where
    F: Fn(&Node) -> R,
{
    let n = cfg.nprocs;
    let seed = cfg.engine.seed();
    let engine = Rc::new(Engine {
        cost: cfg.cost,
        stats: NetStats::new(),
        trace: cfg.trace.then(TraceShared::new),
        slots: RefCell::default(),
        seed,
        sched: RefCell::new(Sched {
            n,
            queues: (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect(),
            pkt_waiter: vec![[None, None]; n],
            runq: VecDeque::new(),
            seeded: seed.map(Seeded::new),
            state: Vec::new(),
            kind: Vec::new(),
            current: None,
            finals: vec![VTime::ZERO; n],
            barrier_wait: Vec::new(),
            panicked: Vec::new(),
            panic: None,
            live: 0,
            teardown: false,
        }),
        fibers: UnsafeCell::new(Vec::new()),
        main: ContextSlot::new(),
    });

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let slot_ptrs: Vec<*mut Option<R>> = results.iter_mut().map(|r| r as *mut _).collect();
        for (id, slot) in slot_ptrs.into_iter().enumerate() {
            let handle = Rc::clone(&engine);
            let fref = &f;
            let body = Box::new(move || {
                let node = Node::new(id, n, handle);
                let r = fref(&node);
                node.record_final_clock();
                // SAFETY: each fiber owns exactly one distinct slot,
                // and `results` outlives the scheduler loop below.
                unsafe { *slot = Some(r) };
            });
            engine.spawn_fiber(FiberKind::Node(id), body);
        }
        if let Some(payload) = engine.schedule() {
            std::panic::resume_unwind(payload);
        }
        if cfg!(debug_assertions) {
            engine.check_drained();
        }
    }

    let finals = std::mem::take(&mut engine.sched.borrow_mut().finals);
    let elapsed = finals.iter().copied().fold(VTime::ZERO, VTime::max);
    // All fibers completed: verify no stack overflowed silently, then
    // park the stacks for this thread's next run. (On the panic path
    // above, unfinished fibers' stacks are never handed back.)
    // SAFETY: the scheduler loop has returned, so nothing else touches
    // the fiber table.
    for fiber in unsafe { &mut *engine.fibers.get() }.drain(..) {
        fiber.check_canary();
        fiber.recycle();
    }
    let trace = engine
        .trace
        .as_ref()
        .map(|ts| ts.collect(finals.iter().map(|t| t.us()).collect()));
    RunOutput {
        results: results.into_iter().map(|r| r.expect("node ran")).collect(),
        elapsed,
        stats: engine.stats.snapshot(),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::super::fiber::spare_stack_addrs;
    use crate::{Cluster, ClusterConfig, EngineKind, MsgKind, Port, RunOutput, StateCell};

    /// Two runs on one thread: the second takes its fiber stacks — node
    /// closures and service loops alike — from the ones the first
    /// parked, and hands the same allocations back.
    #[test]
    fn cluster_runs_on_one_thread_reuse_their_fiber_stacks() {
        let run = || {
            Cluster::run(ClusterConfig::sp2(3), |node| {
                let h = node.spawn_service(|| {});
                node.join_service(h);
                node.id()
            })
        };
        // Own thread: the spare list is thread-local, and the harness
        // may have run other clusters on this one.
        std::thread::spawn(move || {
            assert!(spare_stack_addrs().is_empty());
            run();
            let mut first = spare_stack_addrs();
            assert_eq!(first.len(), 6, "3 nodes + 3 service loops parked");
            run();
            let mut second = spare_stack_addrs();
            first.sort_unstable();
            second.sort_unstable();
            assert_eq!(first, second, "no stack was allocated for the second run");
        })
        .join()
        .expect("test thread");
    }

    /// The shape of PR 18's lock send-order race: node 0's two contexts
    /// each take `rounds` tickets under the state cell and send each
    /// one to node 1 *after* leaving the section. Node 1 returns the
    /// tickets in the order their packets arrived.
    fn ticket_race(engine: EngineKind, rounds: usize) -> RunOutput<Vec<u64>> {
        fn take(cell: &StateCell<u64>) -> u64 {
            let mut next = cell.lock();
            *next += 1;
            *next - 1
        }
        Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
            if node.id() == 1 {
                let arrived = (0..2 * rounds).map(|_| node.recv_match(|_| true).payload[0]);
                return arrived.collect();
            }
            let cell = Rc::new(StateCell::new(node, 0));
            let (ep, theirs) = (node.take_service_endpoint(), Rc::clone(&cell));
            let service = node.spawn_service(move || {
                for _ in 0..rounds {
                    let ticket = take(&theirs);
                    ep.send_to_port(1, Port::App, 0, MsgKind::Data, vec![ticket]);
                }
            });
            for _ in 0..rounds {
                let ticket = take(&cell);
                node.advance(ticket as f64);
                node.send(1, 0, MsgKind::Data, vec![ticket]);
            }
            node.join_service(service);
            Vec::new()
        })
    }

    /// Nothing runs between an unlock and a send under FIFO, so the
    /// packets always leave in ticket order; a seeded schedule puts the
    /// other context in between. The seed is pinned: the schedule a
    /// seed stands for is part of what a replay relies on.
    #[test]
    fn a_send_after_the_section_is_reordered_by_some_seed_and_never_by_fifo() {
        for _ in 0..10 {
            assert_eq!(ticket_race(EngineKind::Sequential, 1).results[1], [0, 1]);
        }
        let reorders = |&seed: &u64| ticket_race(EngineKind::Seeded(seed), 1).results[1] == [1, 0];
        assert_eq!((1..=64).find(reorders), Some(FIRST_REORDERING_SEED));
    }
    const FIRST_REORDERING_SEED: u64 = 3;

    /// The same schedule is the same run, bit for bit — FIFO or seeded;
    /// another seed is another interleaving of the contended cell.
    #[test]
    fn a_schedule_replays_bit_for_bit_and_seeds_differ() {
        let run = |engine| ticket_race(engine, 8);
        let runs: Vec<_> = EngineKind::explore(8).map(run).collect();
        for (engine, a) in EngineKind::explore(8).zip(&runs) {
            let b = run(engine);
            assert_eq!(a.results, b.results, "{engine}");
            assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "{engine}");
            assert_eq!(a.stats, b.stats, "{engine}");
            let mut sorted = a.results[1].clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "every ticket once");
        }
        let alone = |a: &RunOutput<Vec<u64>>| runs.iter().any(|b| a.results != b.results);
        assert!(runs.iter().all(alone), "nine schedules, one interleaving");
    }

    /// A fiber that finds the cell held parks, and the release resumes
    /// it — the path no FIFO run of the DSM reaches, forced here on
    /// every schedule: the application sits in its section until node 1
    /// answers, and node 1 answers only once the service loop is on its
    /// way to the cell.
    #[test]
    fn a_fiber_that_finds_the_cell_held_parks_until_the_release() {
        for engine in EngineKind::explore(8) {
            let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
                if node.id() == 1 {
                    node.recv_from(0, 1);
                    node.send(0, 2, MsgKind::Data, Vec::new());
                    return Vec::new();
                }
                let log = Rc::new(RefCell::new(Vec::new()));
                let cell = Rc::new(StateCell::new(node, ()));
                let section = cell.lock();
                log.borrow_mut().push("app in");
                let (ep, theirs, said) = (
                    node.take_service_endpoint(),
                    Rc::clone(&cell),
                    Rc::clone(&log),
                );
                let service = node.spawn_service(move || {
                    said.borrow_mut().push("service wants in");
                    ep.send_to_port(1, Port::App, 1, MsgKind::Data, Vec::new());
                    let _section = theirs.lock();
                    said.borrow_mut().push("service in");
                });
                node.recv_from(1, 2);
                log.borrow_mut().push("app out");
                drop(section);
                node.join_service(service);
                log.take()
            });
            let want = ["app in", "service wants in", "app out", "service in"];
            assert_eq!(out.results[0], want, "engine {engine}");
        }
    }

    #[test]
    #[should_panic(expected = "deadlocked [schedule seed 5: replay with --engine seeded:5]")]
    fn a_seeded_deadlock_names_its_seed() {
        Cluster::run(ClusterConfig::sp2_on(2, EngineKind::Seeded(5)), |node| {
            node.recv_from(1 - node.id(), 0);
        });
    }
}
