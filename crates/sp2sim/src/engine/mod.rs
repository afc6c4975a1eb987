//! The execution engine of the simulated cluster, and its schedules.
//!
//! There is one engine (`sequential`): every node closure and every
//! service loop runs as a cooperatively scheduled fiber on the **one**
//! OS thread that called [`Cluster::run`](crate::Cluster::run) — so
//! [`Node`](crate::Node), [`Endpoint`](crate::Endpoint) and
//! [`StateCell`](crate::StateCell) are `!Send`, and independent
//! simulations run in parallel one engine per OS thread. What varies is
//! the **schedule**, a value of the run ([`EngineKind`]). Virtual time
//! is computed by the same code under every schedule; only *who runs
//! when* differs. DESIGN.md ("Execution engine and its schedules") has
//! the argument that seeded schedules cover what OS threads would.

#[allow(unsafe_code)]
pub(crate) mod fiber;
#[allow(unsafe_code)]
pub(crate) mod sequential;

use std::cell::RefCell;
use std::str::FromStr;

/// Which schedule carries a cluster run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EngineKind {
    /// Strict FIFO run queue; a fiber runs until it blocks. The default:
    /// what every recorded table, baseline and sweep uses.
    #[default]
    Sequential,
    /// The schedule explorer: the next fiber is drawn at random, and the
    /// running one may be preempted before every packet delivery and at
    /// both ends of every [`StateCell`](crate::StateCell) section. All
    /// of it is drawn from this seed, so the same seed replays the same
    /// run bit for bit, and every diagnostic names it.
    Seeded(u64),
}

impl EngineKind {
    /// The FIFO schedule, then the seeded schedules `1..=k`: what a
    /// test loops over to hold a property on `k + 1` interleavings.
    pub fn explore(k: u64) -> impl Iterator<Item = EngineKind> {
        std::iter::once(EngineKind::Sequential).chain((1..=k).map(EngineKind::Seeded))
    }

    /// The seed of a seeded schedule.
    pub(crate) fn seed(self) -> Option<u64> {
        match self {
            EngineKind::Sequential => None,
            EngineKind::Seeded(seed) => Some(seed),
        }
    }
}

/// `sequential` or `seeded:N` (accepted back by [`FromStr`]).
impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Sequential => f.write_str("sequential"),
            EngineKind::Seeded(seed) => write!(f, "seeded:{seed}"),
        }
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        let s = s.to_ascii_lowercase();
        if let Some(seed) = s.strip_prefix("seeded:") {
            let seed = seed.parse();
            return seed
                .map(EngineKind::Seeded)
                .map_err(|_| format!("bad schedule seed in '{s}' (expected 'seeded:N')"));
        }
        match s.as_str() {
            "sequential" | "seq" => Ok(EngineKind::Sequential),
            "threaded" => Err(
                "the thread-per-node engine is gone: 'seeded:N' explores its interleavings, \
                 replayably (expected 'sequential' or 'seeded:N')"
                    .into(),
            ),
            other => Err(format!(
                "unknown engine '{other}' (expected 'sequential' or 'seeded:N')"
            )),
        }
    }
}

/// Handle to a spawned service loop, returned by
/// [`Node::spawn_service`](crate::Node::spawn_service) and consumed by
/// [`Node::join_service`](crate::Node::join_service): its fiber id.
#[derive(Debug)]
pub struct ServiceHandle(pub(crate) usize);

/// Shared state of a traced run, owned by the engine: the run's
/// wall-clock origin (every event's `host_ns` is relative to it), and
/// the sink endpoint buffers drain into when they drop.
pub(crate) struct TraceShared {
    pub(crate) start: std::time::Instant,
    pub(crate) sink: RefCell<Vec<trace::TrackTrace>>,
}

impl TraceShared {
    pub(crate) fn new() -> TraceShared {
        TraceShared {
            start: std::time::Instant::now(),
            sink: RefCell::new(Vec::new()),
        }
    }

    /// Assemble the final [`trace::TraceData`] once every endpoint has
    /// dropped (the engine guarantees this before run output is built).
    pub(crate) fn collect(&self, final_us: Vec<f64>) -> trace::TraceData {
        let tracks = std::mem::take(&mut *self.sink.borrow_mut());
        let mut data = trace::TraceData { tracks, final_us };
        data.sort_tracks();
        data
    }
}
