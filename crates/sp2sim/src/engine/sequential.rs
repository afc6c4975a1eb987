//! The deterministic sequential engine.
//!
//! Every simulated node closure — and every service loop spawned
//! through [`Node::spawn_service`] — runs as a stackful fiber
//! (see [`super::fiber`]) on the single OS thread that called
//! [`Cluster::run`](crate::Cluster::run). A strict FIFO run queue
//! schedules the fibers; a fiber runs until it blocks (empty receive
//! queue, rendezvous, service join) or finishes, and blocking switches
//! straight back to the scheduler in tens of nanoseconds.
//!
//! Properties that follow:
//!
//! * **Determinism.** Scheduling decisions depend only on program
//!   behaviour, never on OS timing: the same configuration produces
//!   byte-for-byte identical virtual times, statistics and results on
//!   every run.
//! * **Speed.** No thread spawns, no channel synchronization, no futex
//!   waits — a blocking receive is two user-space context switches.
//! * **Parallel sweeps.** The engine touches nothing global, so many
//!   independent simulations can run concurrently, one per OS thread —
//!   the harness's parallel sweep runner relies on this.
//!
//! Deadlocks in the simulated program (every fiber blocked) are
//! detected and reported with a per-fiber diagnostic instead of
//! hanging, except for the benign teardown case: service loops still
//! waiting for requests after every node finished are woken with
//! "channel closed" (`recv` returns `None`), mirroring the threaded
//! engine's channel-disconnect semantics.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;

use super::fiber::{ContextSlot, Fiber};
use super::{node_body, Fabric, ServiceHandle, TraceShared};
use crate::cluster::{ClusterConfig, RunOutput};
use crate::cost::CostModel;
use crate::node::Node;
use crate::packet::{Packet, Port};
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
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FiberKind {
    /// Node closure for node `id`.
    Node(usize),
    /// Service loop spawned by node code.
    Service,
}

/// Scheduler bookkeeping. Guarded by a (never contended) mutex purely
/// to satisfy the `Sync` bound on [`Fabric`]; every access happens on
/// the one OS thread that owns the engine.
struct Sched {
    n: usize,
    /// Per-(node, port) delivery queues.
    queues: Vec<[VecDeque<Packet>; 2]>,
    /// Fiber waiting on each (node, port), if any.
    pkt_waiter: Vec<[Option<usize>; 2]>,
    runq: VecDeque<usize>,
    state: Vec<FiberState>,
    kind: Vec<FiberKind>,
    /// Currently executing fiber.
    current: Option<usize>,
    /// Final virtual clocks, by node id.
    finals: Vec<u64>,
    /// Fibers parked at the rendezvous barrier, in arrival order.
    barrier_wait: Vec<usize>,
    /// Service handle id -> fiber id.
    svc_fiber: HashMap<u64, usize>,
    next_service: u64,
    /// Whether each fiber panicked (service joins re-raise this).
    panicked: Vec<bool>,
    /// First node-fiber panic payload, re-raised by the engine.
    panic: Option<Box<dyn Any + Send>>,
    /// Unfinished fibers.
    live: usize,
    /// Set when only parked service loops remain: receives now fail.
    teardown: bool,
    /// Fiber bodies created while some fiber is running, not yet
    /// materialized into the fiber table by the scheduler loop.
    newborn: Vec<NewFiber>,
}

struct NewFiber {
    id: usize,
    body: Box<dyn FnOnce() + 'static>,
}

/// The engine: scheduler state plus the fiber contexts. Contexts are
/// only ever touched from the engine's OS thread, which is what makes
/// the blanket `Sync` sound (see `assert_engine_thread`).
pub(crate) struct SequentialFabric {
    cost: CostModel,
    stats: NetStats,
    trace: Option<TraceShared>,
    sched: Mutex<Sched>,
    /// Fiber table, indexed by fiber id. Boxed so entries have stable
    /// addresses across table growth (a suspended fiber's saved context
    /// points into its own `Fiber`). Only the engine thread touches it.
    fibers: UnsafeCell<Vec<Option<Box<Fiber>>>>,
    /// The scheduler loop's own (OS thread) context.
    main: ContextSlot,
    /// The OS thread the engine runs on (see [`thread_token`]).
    engine_thread: usize,
}

/// A token identifying the calling OS thread: the address of a
/// thread-local byte, distinct among live threads. The engine captures
/// its thread's token at construction and compares it on every blocking
/// operation; unlike `std::thread::current().id()` that is a plain TLS
/// address computation, with no `Arc<thread::Inner>` clone and drop.
/// Address reuse cannot fool the check where it matters: the engine's
/// thread is alive for as long as `run` executes, and once `run` has
/// returned no fiber is current, so every blocking operation panics on
/// that before it could reach a context switch.
fn thread_token() -> usize {
    thread_local!(static TOKEN: u8 = const { 0 });
    TOKEN.with(|t| t as *const u8 as usize)
}

// SAFETY: `fibers` and `main` are only accessed from `engine_thread`
// (checked at run time, in every build); everything else is behind the
// mutex. `Endpoint`s holding this fabric can be moved into service
// closures, but those closures execute as fibers of the engine thread.
unsafe impl Send for SequentialFabric {}
unsafe impl Sync for SequentialFabric {}

impl SequentialFabric {
    /// The `unsafe impl Sync` below is sound only while every context
    /// switch happens on the engine's own OS thread. This is checked
    /// unconditionally (not just in debug builds): `Endpoint` is
    /// `Send`, so safe user code could otherwise smuggle a handle into
    /// a real thread and corrupt fiber stacks. The check is a TLS
    /// address compare — noise next to the scheduler lock on every
    /// blocking operation.
    #[inline]
    fn assert_engine_thread(&self) {
        assert!(
            thread_token() == self.engine_thread,
            "sequential-engine handle used from a foreign OS thread \
             (node closures must not move endpoints to std::thread; \
             use Node::spawn_service)"
        );
    }

    /// Park the current fiber (its state must already be set to a
    /// blocked variant under the lock, and the lock released) and run
    /// the scheduler until something wakes it.
    fn switch_to_scheduler(&self, me: usize) {
        self.assert_engine_thread();
        unsafe {
            let table = &*self.fibers.get();
            let fiber: *const Fiber = &**table[me].as_ref().expect("current fiber exists");
            (*fiber).suspend_into(&self.main);
        }
    }

    /// Register a new runnable fiber running `body` wrapped in the
    /// completion protocol (panic capture, joiner wake-up, final
    /// switch-out). Returns its fiber id.
    fn spawn_fiber(&self, kind: FiberKind, body: Box<dyn FnOnce() + '_>) -> usize {
        // The shell captures the fabric as a raw pointer: `run` keeps
        // the fabric alive until every fiber completed (or the stacks
        // are deliberately leaked on the panic path, never running
        // again), and a strong Arc here would cycle through the
        // suspended final frame and leak the whole engine.
        let fab: *const SequentialFabric = self;
        let mut s = self.sched.lock();
        let id = s.state.len();
        s.state.push(FiberState::Runnable);
        s.kind.push(kind);
        s.panicked.push(false);
        s.live += 1;
        s.runq.push_back(id);
        let shell: Box<dyn FnOnce() + '_> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(body));
            let fab = unsafe { &*fab };
            let mut s = fab.sched.lock();
            debug_assert_eq!(s.current, Some(id));
            s.state[id] = FiberState::Done;
            s.live -= 1;
            if result.is_err() {
                s.panicked[id] = true;
            }
            if let Err(payload) = result {
                if matches!(s.kind[id], FiberKind::Node(_)) && s.panic.is_none() {
                    s.panic = Some(payload);
                }
            }
            // Wake any fiber parked in join_service on us.
            let waiters: Vec<usize> = s
                .state
                .iter()
                .enumerate()
                .filter(|(_, st)| matches!(st, FiberState::JoinBlocked(j) if *j == id))
                .map(|(w, _)| w)
                .collect();
            for w in waiters {
                s.state[w] = FiberState::Runnable;
                s.runq.push_back(w);
            }
            drop(s);
            fab.switch_to_scheduler(id);
            unreachable!("completed fiber resumed");
        });
        // SAFETY (lifetime erasure): the scheduler loop runs every
        // fiber to completion before `run` returns, or deliberately
        // leaks unfinished stacks when propagating a panic — either
        // way no fiber executes after its borrows expire.
        let shell: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(shell) };
        s.newborn.push(NewFiber { id, body: shell });
        id
    }

    /// The scheduler loop: run fibers until all are done (or the run
    /// deadlocks/panics). Returns the first node panic, if any.
    fn schedule(&self) -> Option<Box<dyn Any + Send>> {
        self.assert_engine_thread();
        loop {
            // Materialize newborn fibers (stack allocation + initial
            // context) outside the scheduler lock.
            let newborn = {
                let mut s = self.sched.lock();
                std::mem::take(&mut s.newborn)
            };
            for nb in newborn {
                let fiber = unsafe { Fiber::new(nb.body) };
                let table = unsafe { &mut *self.fibers.get() };
                if table.len() <= nb.id {
                    table.resize_with(nb.id + 1, || None);
                }
                table[nb.id] = Some(Box::new(fiber));
            }

            let next = {
                let mut s = self.sched.lock();
                s.runq.pop_front().inspect(|&f| {
                    debug_assert_eq!(s.state[f], FiberState::Runnable);
                    s.state[f] = FiberState::Running;
                    s.current = Some(f);
                })
            };

            match next {
                Some(f) => {
                    unsafe {
                        let table = &*self.fibers.get();
                        let fiber: *const Fiber = &**table[f].as_ref().expect("fiber exists");
                        (*fiber).resume(&self.main);
                    }
                    let mut s = self.sched.lock();
                    debug_assert_ne!(
                        s.state[f],
                        FiberState::Running,
                        "fiber suspended without parking itself"
                    );
                    s.current = None;
                }
                None => {
                    let mut s = self.sched.lock();
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
                        let stuck: Vec<usize> = (0..s.state.len())
                            .filter(|&i| matches!(s.state[i], FiberState::RecvBlocked(..)))
                            .collect();
                        for i in stuck {
                            s.state[i] = FiberState::Runnable;
                            s.runq.push_back(i);
                        }
                        for w in s.pkt_waiter.iter_mut() {
                            *w = [None, None];
                        }
                        continue;
                    }
                    let report: Vec<String> = s
                        .state
                        .iter()
                        .enumerate()
                        .filter(|(_, st)| !matches!(st, FiberState::Done))
                        .map(|(i, st)| format!("fiber {i} ({:?}): {st:?}", s.kind[i]))
                        .collect();
                    panic!(
                        "simulated cluster deadlocked on the sequential engine; \
                         blocked fibers:\n  {}",
                        report.join("\n  ")
                    );
                }
            }
        }
    }
}

impl Fabric for SequentialFabric {
    fn tracing(&self) -> Option<&TraceShared> {
        self.trace.as_ref()
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn deliver(&self, dst: usize, port: Port, pkt: Packet) {
        let p = port_ix(port);
        let mut s = self.sched.lock();
        s.queues[dst][p].push_back(pkt);
        if let Some(w) = s.pkt_waiter[dst][p].take() {
            debug_assert_eq!(s.state[w], FiberState::RecvBlocked(dst, p));
            s.state[w] = FiberState::Runnable;
            s.runq.push_back(w);
        }
    }

    fn recv(&self, id: usize, port: Port) -> Option<Packet> {
        self.assert_engine_thread();
        let p = port_ix(port);
        loop {
            let me = {
                let mut s = self.sched.lock();
                if let Some(pkt) = s.queues[id][p].pop_front() {
                    return Some(pkt);
                }
                if s.teardown {
                    return None;
                }
                let me = s.current.expect("recv outside an engine fiber");
                debug_assert!(
                    s.pkt_waiter[id][p].is_none(),
                    "two receivers on one port queue"
                );
                s.pkt_waiter[id][p] = Some(me);
                s.state[me] = FiberState::RecvBlocked(id, p);
                me
            };
            self.switch_to_scheduler(me);
        }
    }

    fn record_final(&self, id: usize, t: VTime) {
        self.sched.lock().finals[id] = t.to_bits();
    }

    fn rendezvous(&self) {
        self.assert_engine_thread();
        let me = {
            let mut s = self.sched.lock();
            let me = s.current.expect("rendezvous outside an engine fiber");
            debug_assert!(
                matches!(s.kind[me], FiberKind::Node(_)),
                "rendezvous from a service context"
            );
            if s.barrier_wait.len() + 1 == s.n {
                // Last arriver releases everyone, in arrival order.
                let woken = std::mem::take(&mut s.barrier_wait);
                for w in woken {
                    s.state[w] = FiberState::Runnable;
                    s.runq.push_back(w);
                }
                return;
            }
            s.barrier_wait.push(me);
            s.state[me] = FiberState::BarrierBlocked;
            me
        };
        self.switch_to_scheduler(me);
    }

    fn spawn_service(&self, f: Box<dyn FnOnce() + Send>) -> ServiceHandle {
        self.assert_engine_thread();
        let fid = self.spawn_fiber(FiberKind::Service, f);
        let mut s = self.sched.lock();
        let h = s.next_service;
        s.next_service += 1;
        s.svc_fiber.insert(h, fid);
        ServiceHandle(h)
    }

    fn join_service(&self, h: ServiceHandle) {
        self.assert_engine_thread();
        let fid = {
            let mut s = self.sched.lock();
            let fid = *s.svc_fiber.get(&h.0).expect("unknown service handle");
            if s.state[fid] != FiberState::Done {
                let me = s.current.expect("join outside an engine fiber");
                s.state[me] = FiberState::JoinBlocked(fid);
                drop(s);
                self.switch_to_scheduler(me);
            }
            fid
        };
        let panicked = self.sched.lock().panicked[fid];
        assert!(!panicked, "service thread panicked");
    }
}

/// Run `f` on every node of a fresh cluster, all as fibers of the
/// calling thread.
pub(crate) fn run<R, F>(cfg: ClusterConfig, f: F) -> RunOutput<R>
where
    R: Send,
    F: Fn(&Node) -> R + Sync,
{
    assert!(
        super::fiber::supported(),
        "the sequential engine needs fiber support (x86-64 or aarch64); \
         use EngineKind::Threaded on this architecture"
    );
    let n = cfg.nprocs;
    let fabric = Arc::new(SequentialFabric {
        cost: cfg.cost,
        stats: NetStats::new(),
        trace: cfg.trace.map(TraceShared::new),
        sched: Mutex::new(Sched {
            n,
            queues: (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect(),
            pkt_waiter: vec![[None, None]; n],
            runq: VecDeque::new(),
            state: Vec::new(),
            kind: Vec::new(),
            current: None,
            finals: vec![0; n],
            barrier_wait: Vec::new(),
            svc_fiber: HashMap::new(),
            next_service: 0,
            panicked: Vec::new(),
            panic: None,
            live: 0,
            teardown: false,
            newborn: Vec::new(),
        }),
        fibers: UnsafeCell::new(Vec::new()),
        main: ContextSlot::new(),
        engine_thread: thread_token(),
    });
    let dyn_fabric: Arc<dyn Fabric> = Arc::clone(&fabric) as Arc<dyn Fabric>;

    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    {
        let slot_ptrs: Vec<*mut Option<R>> = results.iter_mut().map(|r| r as *mut _).collect();
        for (id, slot) in slot_ptrs.into_iter().enumerate() {
            let dyn_fabric = Arc::clone(&dyn_fabric);
            let fref = &f;
            let body = Box::new(move || {
                // SAFETY: each fiber owns exactly one distinct slot,
                // and `results` outlives the scheduler loop below.
                let slot = unsafe { &mut *slot };
                node_body(id, n, &dyn_fabric, fref, slot);
            });
            fabric.spawn_fiber(FiberKind::Node(id), body);
        }
        if let Some(payload) = fabric.schedule() {
            std::panic::resume_unwind(payload);
        }
    }

    let s = fabric.sched.lock();
    let finals: Vec<VTime> = s.finals.iter().map(|&b| VTime::from_bits(b)).collect();
    drop(s);
    let elapsed = finals.iter().copied().fold(VTime::ZERO, VTime::max);
    // All fibers completed: verify no stack overflowed silently, then
    // park the stacks for this thread's next run. (On the panic path
    // above, unfinished fibers' stacks are never handed back.)
    // SAFETY: the scheduler loop has returned, so nothing else touches
    // the fiber table, and this is the engine's thread.
    for fiber in unsafe { &mut *fabric.fibers.get() }.drain(..).flatten() {
        fiber.check_canary();
        fiber.recycle();
    }
    let trace = fabric
        .trace
        .as_ref()
        .map(|ts| ts.collect(finals.iter().map(|t| t.us()).collect()));
    RunOutput {
        results: results.into_iter().map(|r| r.expect("node ran")).collect(),
        elapsed,
        stats: fabric.stats.snapshot(),
        trace,
    }
}

#[cfg(all(test, any(target_arch = "x86_64", target_arch = "aarch64")))]
mod tests {
    use super::super::fiber::spare_stack_addrs;
    use crate::{Cluster, ClusterConfig, EngineKind};

    /// `Endpoint` is `Send`, so safe code can carry one to a real
    /// thread; using it there must panic before any context switch.
    #[test]
    fn a_handle_on_a_foreign_thread_panics() {
        let out = Cluster::run(ClusterConfig::sp2_on(1, EngineKind::Sequential), |node| {
            let ep = node.take_service_endpoint();
            let payload = std::thread::spawn(move || ep.recv_any_raw())
                .join()
                .expect_err("a foreign-thread receive must panic");
            *payload.downcast::<&str>().expect("a literal message")
        });
        assert!(out.results[0].contains("used from a foreign OS thread"));
    }

    /// Two runs on one thread: the second takes its fiber stacks — node
    /// closures and service loops alike — from the ones the first
    /// parked, and hands the same allocations back.
    #[test]
    fn cluster_runs_on_one_thread_reuse_their_fiber_stacks() {
        let run = || {
            Cluster::run(ClusterConfig::sp2_on(3, EngineKind::Sequential), |node| {
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
}
