//! Cluster construction and execution.

use crate::cost::CostModel;
use crate::engine::{self, EngineKind};
use crate::node::Node;
use crate::stats::StatsSnapshot;
use crate::time::VTime;

/// Configuration of a simulated cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes (the paper uses 8).
    pub nprocs: usize,
    /// Communication/protocol cost model.
    pub cost: CostModel,
    /// The schedule the engine runs the cluster under (see
    /// [`crate::engine`]).
    pub engine: EngineKind,
    /// Event tracing (see the `trace` crate). `false` (the default)
    /// records nothing and adds no cost; tracing never changes any
    /// simulated observable either way.
    pub trace: bool,
}

impl ClusterConfig {
    /// The paper's default platform: `n` nodes of an IBM SP/2, under the
    /// default (sequential, FIFO) schedule.
    pub fn sp2(nprocs: usize) -> ClusterConfig {
        ClusterConfig {
            nprocs,
            cost: CostModel::sp2(),
            engine: EngineKind::default(),
            trace: false,
        }
    }

    /// Same platform under an explicit schedule.
    pub fn sp2_on(nprocs: usize, engine: EngineKind) -> ClusterConfig {
        ClusterConfig::sp2(nprocs).with_engine(engine)
    }

    /// Select the schedule.
    pub fn with_engine(mut self, engine: EngineKind) -> ClusterConfig {
        self.engine = engine;
        self
    }

    /// Turn event tracing on or off.
    pub fn with_tracing(mut self, enabled: bool) -> ClusterConfig {
        self.trace = enabled;
        self
    }
}

/// Result of a cluster run.
pub struct RunOutput<R> {
    /// Per-node return values, indexed by node id.
    pub results: Vec<R>,
    /// Simulated elapsed time: the maximum over nodes of their final
    /// virtual clocks.
    pub elapsed: VTime,
    /// Final network statistics.
    pub stats: StatsSnapshot,
    /// The recorded event trace, present iff tracing was enabled.
    pub trace: Option<trace::TraceData>,
}

/// The simulated machine. See the crate docs for the model.
pub struct Cluster;

impl Cluster {
    /// Run `f` on every node of a fresh cluster and collect the results.
    ///
    /// `f` is invoked once per node with a [`Node`] handle; the nodes
    /// are fibers of the calling thread, scheduled as the selected
    /// [`EngineKind`] says. Panics in any node propagate to the caller
    /// (under a seeded schedule the seed is printed on stderr first).
    pub fn run<R, F>(cfg: ClusterConfig, f: F) -> RunOutput<R>
    where
        F: Fn(&Node) -> R,
    {
        assert!(cfg.nprocs >= 1, "cluster needs at least one node");
        engine::sequential::run(cfg, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MsgKind;

    /// Schedules under test (everything in this module must hold on all).
    fn engines() -> impl Iterator<Item = EngineKind> {
        EngineKind::explore(8)
    }

    #[test]
    fn elapsed_is_max_over_nodes() {
        for engine in engines() {
            let out = Cluster::run(ClusterConfig::sp2_on(4, engine), |node| {
                node.advance(100.0 * (node.id() + 1) as f64);
            });
            assert!((out.elapsed.us() - 400.0).abs() < 1e-9, "engine {engine}");
        }
    }

    #[test]
    fn results_are_ordered_by_node_id() {
        for engine in engines() {
            let out = Cluster::run(ClusterConfig::sp2_on(5, engine), |node| node.id() * 10);
            assert_eq!(out.results, vec![0, 10, 20, 30, 40], "engine {engine}");
        }
    }

    #[test]
    fn single_node_cluster_works() {
        for engine in engines() {
            let out = Cluster::run(ClusterConfig::sp2_on(1, engine), |node| {
                node.advance(5.0);
                node.id()
            });
            assert_eq!(out.results, vec![0]);
            assert!((out.elapsed.us() - 5.0).abs() < 1e-9, "engine {engine}");
        }
    }

    #[test]
    fn stats_count_cross_node_traffic() {
        for engine in engines() {
            let out = Cluster::run(ClusterConfig::sp2_on(3, engine), |node| {
                if node.id() > 0 {
                    node.send(0, 1, MsgKind::Data, vec![0; 16]);
                } else {
                    for _ in 1..3 {
                        node.recv_match(|p| p.tag == 1);
                    }
                }
            });
            assert_eq!(out.stats.total_messages(), 2, "engine {engine}");
            assert_eq!(out.stats.total_bytes(), 2 * 16 * 8, "engine {engine}");
        }
    }

    #[test]
    fn rendezvous_synchronizes_all_threads() {
        for engine in engines() {
            let out = Cluster::run(ClusterConfig::sp2_on(4, engine), |node| {
                node.rendezvous();
                node.rendezvous();
                1
            });
            assert_eq!(out.results.iter().sum::<i32>(), 4, "engine {engine}");
        }
    }

    #[test]
    fn a_cluster_slot_is_one_value_per_run_and_type() {
        use std::cell::Cell;
        let made = Cell::new(0);
        let run = || {
            Cluster::run(ClusterConfig::sp2(3), |node| {
                let slot = node.cluster_slot(|| {
                    made.set(made.get() + 1);
                    Cell::new(0usize)
                });
                slot.set(slot.get() + 1);
                node.rendezvous();
                let other = node.cluster_slot(|| 7u8);
                (slot.get(), *other)
            })
        };
        // Made once per run, on the first node to ask; a fresh run, and
        // another type, start afresh.
        assert_eq!(run().results, vec![(3, 7); 3]);
        assert_eq!(run().results, vec![(3, 7); 3]);
        assert_eq!(made.get(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = Cluster::run(ClusterConfig::sp2(0), |_| ());
    }

    #[test]
    fn default_engine_is_the_deterministic_one() {
        assert_eq!(EngineKind::default(), EngineKind::Sequential);
        assert_eq!(ClusterConfig::sp2(4).engine, EngineKind::Sequential);
    }

    #[test]
    fn engine_kind_parses() {
        assert_eq!("seq".parse::<EngineKind>(), Ok(EngineKind::Sequential));
        assert_eq!(
            "Seeded:42".parse::<EngineKind>(),
            Ok(EngineKind::Seeded(42))
        );
        assert!("warp".parse::<EngineKind>().is_err());
        assert!("seeded:x".parse::<EngineKind>().is_err());
        // The deleted engine's name says what replaced it.
        assert!("threaded"
            .parse::<EngineKind>()
            .unwrap_err()
            .contains("seeded:N"));
        assert_eq!(EngineKind::Sequential.to_string(), "sequential");
        assert_eq!(EngineKind::Seeded(7).to_string(), "seeded:7");
        let all: Vec<_> = EngineKind::explore(2).collect();
        let want = [
            EngineKind::Sequential,
            EngineKind::Seeded(1),
            EngineKind::Seeded(2),
        ];
        assert_eq!(all, want);
    }

    #[test]
    fn sequential_engine_request_reply_between_nodes() {
        // Request/response over the app port, plus a spawned service
        // context answering on the service port — the full fabric
        // surface on one engine run.
        let out = Cluster::run(ClusterConfig::sp2_on(2, EngineKind::Sequential), |node| {
            use crate::packet::Port;
            if node.id() == 0 {
                let svc_ep = node.take_service_endpoint();
                let h = node.spawn_service(move || {
                    // Answer exactly one request, then exit.
                    let req = svc_ep.recv_any_raw().expect("one request");
                    svc_ep.send_at(
                        req.src,
                        Port::App,
                        10,
                        MsgKind::Data,
                        vec![req.payload[0] * 2],
                        req.arrival + 1.0,
                    );
                });
                node.join_service(h);
                0
            } else {
                node.send_to_port(0, Port::Service, 9, MsgKind::Data, vec![21]);
                let resp = node.recv_from(0, 10);
                resp.payload[0]
            }
        });
        assert_eq!(out.results, vec![0, 42]);
    }

    #[test]
    fn tracing_changes_no_simulated_observable() {
        fn prog(node: &Node) -> u64 {
            use crate::SpanKind;
            if node.id() == 0 {
                node.trace_begin(SpanKind::Compute, 1);
                node.advance(3.0);
                node.trace_end(SpanKind::Compute);
                node.send(1, 4, MsgKind::Data, vec![0; 8]);
            } else {
                node.recv_from(0, 4);
            }
            node.now().to_bits()
        }
        for engine in engines() {
            let plain = Cluster::run(ClusterConfig::sp2_on(2, engine), prog);
            let traced = Cluster::run(ClusterConfig::sp2_on(2, engine).with_tracing(true), prog);
            assert_eq!(plain.results, traced.results, "engine {engine}");
            assert_eq!(plain.elapsed.to_bits(), traced.elapsed.to_bits());
            assert_eq!(plain.stats.msgs, traced.stats.msgs);
            assert!(plain.trace.is_none());
            let t = traced.trace.expect("trace recorded");
            // 2 nodes x (app + service) endpoints.
            assert_eq!(t.tracks.len(), 4, "engine {engine}");
            assert_eq!(t.final_us.len(), 2);
            let app0 = t.track(0, crate::TracePort::App).unwrap();
            use crate::EventKind;
            assert!(app0.events.iter().any(|e| matches!(
                e.kind,
                EventKind::Send {
                    bytes: 64,
                    peer: 1,
                    ..
                }
            )));
            assert!(app0
                .events
                .iter()
                .any(|e| matches!(e.kind, EventKind::Begin { arg: 1, .. })));
            let app1 = t.track(1, crate::TracePort::App).unwrap();
            assert!(app1.events.iter().any(|e| matches!(
                e.kind,
                EventKind::Recv {
                    bytes: 64,
                    peer: 0,
                    ..
                }
            )));
            // App-track virtual timestamps never decrease.
            for tr in t.tracks.iter().filter(|t| t.port == crate::TracePort::App) {
                assert!(tr.events.windows(2).all(|w| w[0].vt_us <= w[1].vt_us));
                assert_eq!(tr.dropped, 0);
            }
        }
    }
}
