//! Pluggable execution engines for the simulated cluster.
//!
//! [`Cluster::run`](crate::Cluster::run) accepts the engine through
//! [`ClusterConfig`](crate::ClusterConfig); everything the rest of the
//! simulator (and the DSM layer above it) touches — [`Node`],
//! [`Endpoint`](crate::Endpoint), packet delivery, the service-loop
//! spawn — goes through the [`Fabric`] trait defined here, so the two
//! engines are interchangeable:
//!
//! * [`EngineKind::Sequential`] — the default: a deterministic backend
//!   that runs every node closure and service loop as a cooperatively
//!   scheduled fiber on **one** OS thread. No thread spawns, no
//!   channels, no nondeterminism: the same program produces
//!   byte-for-byte identical virtual times and statistics on every run,
//!   and many independent simulations can safely run in parallel (one
//!   engine per sweep worker thread), which is what the harness's
//!   parallel sweep runner does.
//! * [`EngineKind::Threaded`] — the original backend, asked for by
//!   name: one OS thread per simulated node (plus one per DSM service
//!   loop), packets over channels. Exercises the protocol under true
//!   concurrency, which makes it the right engine for race-hunting, but
//!   wall-clock performance is dominated by synchronization, and
//!   wall-clock scheduling leaks into tie-breaking decisions.
//!
//! Virtual time is computed identically by construction — both engines
//! share every cost-model code path; only *who runs the node code when*
//! differs. For programs whose virtual-time outcome is independent of
//! benign message races (symmetric barrier programs, neighbor exchanges
//! with per-source matching), the two engines produce identical
//! `elapsed` and statistics; the engine-equivalence tests pin this.

#[allow(unsafe_code)]
pub(crate) mod fiber;
#[allow(unsafe_code)]
pub(crate) mod sequential;
pub(crate) mod threaded;

use std::str::FromStr;
use std::sync::Arc;

use crate::cost::CostModel;
use crate::node::Node;
use crate::packet::{Packet, Port};
use crate::stats::NetStats;
use crate::time::VTime;

/// Which execution engine carries a cluster run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// One OS thread per node; packets over channels.
    Threaded,
    /// All nodes as fibers on one OS thread; deterministic (the
    /// default: what every recorded table, baseline and sweep uses).
    #[default]
    Sequential,
}

impl EngineKind {
    /// Both engines, threaded first.
    pub const ALL: [EngineKind; 2] = [EngineKind::Threaded, EngineKind::Sequential];

    /// Stable lower-case name (accepted back by [`FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Threaded => "threaded",
            EngineKind::Sequential => "sequential",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "threaded" | "thread" | "threads" => Ok(EngineKind::Threaded),
            "sequential" | "seq" | "fiber" | "fibers" => Ok(EngineKind::Sequential),
            other => Err(format!(
                "unknown engine '{other}' (expected 'threaded' or 'sequential')"
            )),
        }
    }
}

/// Handle to a spawned service loop, returned by
/// [`Node::spawn_service`] and consumed by [`Node::join_service`].
/// Engine-specific: a thread join handle id or a fiber id.
#[derive(Debug)]
pub struct ServiceHandle(pub(crate) u64);

/// Shared state of a traced run, owned by the engine's fabric: the
/// spec, the run's wall-clock origin (every event's `host_ns` is
/// relative to it), and the sink endpoint buffers drain into when they
/// drop. Recording itself is lock-free (each endpoint owns its buffer);
/// the sink mutex is touched once per endpoint at teardown.
pub(crate) struct TraceShared {
    pub(crate) spec: trace::TraceSpec,
    pub(crate) start: std::time::Instant,
    pub(crate) sink: parking_lot::Mutex<Vec<trace::TrackTrace>>,
}

impl TraceShared {
    pub(crate) fn new(spec: trace::TraceSpec) -> TraceShared {
        TraceShared {
            spec,
            start: std::time::Instant::now(),
            sink: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Assemble the final [`trace::TraceData`] once every endpoint has
    /// dropped (both engines guarantee this before run output is
    /// built).
    pub(crate) fn collect(&self, final_us: Vec<f64>) -> trace::TraceData {
        let tracks = std::mem::take(&mut *self.sink.lock());
        let mut data = trace::TraceData { tracks, final_us };
        data.sort_tracks();
        data
    }
}

/// Everything a [`Node`]/[`Endpoint`](crate::Endpoint) needs from the
/// engine that carries it: packet transport, virtual-clock collection,
/// the wall-clock rendezvous, and the service-loop executor. One
/// implementation per engine.
pub(crate) trait Fabric: Send + Sync {
    /// The run's trace recorder, when tracing is enabled.
    fn tracing(&self) -> Option<&TraceShared> {
        None
    }

    /// The cluster cost model.
    fn cost(&self) -> &CostModel;

    /// The cluster-wide statistics.
    fn stats(&self) -> &NetStats;

    /// Enqueue `pkt` at `dst`'s `port`.
    fn deliver(&self, dst: usize, port: Port, pkt: Packet);

    /// Blocking receive of the next packet at (`id`, `port`), in
    /// delivery order. Returns `None` only when the engine is tearing
    /// the run down and no further packet can arrive.
    fn recv(&self, id: usize, port: Port) -> Option<Packet>;

    /// Record node `id`'s final virtual clock.
    fn record_final(&self, id: usize, t: VTime);

    /// Wall-clock rendezvous of all node contexts (measurement
    /// infrastructure; see [`Node::rendezvous`]).
    fn rendezvous(&self);

    /// Run `f` concurrently with the node contexts (an OS thread or a
    /// fiber, depending on the engine).
    fn spawn_service(&self, f: Box<dyn FnOnce() + Send>) -> ServiceHandle;

    /// Wait until the service context behind `h` finishes. Panics if it
    /// panicked, mirroring a thread join.
    fn join_service(&self, h: ServiceHandle);
}

/// Per-node body shared by both engines: build the node handle, run the
/// user closure, record the final clock, park the result.
pub(crate) fn node_body<R, F>(
    id: usize,
    n: usize,
    fabric: &Arc<dyn Fabric>,
    f: &F,
    slot: &mut Option<R>,
) where
    F: Fn(&Node) -> R + Sync,
{
    let node = Node::new(id, n, Arc::clone(fabric));
    let r = f(&node);
    node.endpoint().record_final_clock();
    *slot = Some(r);
}
