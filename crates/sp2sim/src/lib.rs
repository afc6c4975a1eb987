//! # sp2sim — a virtual-time simulation of an IBM SP/2-class cluster
//!
//! This crate is the hardware substrate for the reproduction of Cox et al.,
//! *"Evaluating the Performance of Software Distributed Shared Memory as a
//! Target for Parallelizing Compilers"* (IPPS 1997). The paper's experiments
//! ran on an 8-node IBM SP/2 connected by a two-level crossbar switch, with
//! user-level MPL as the message-passing layer. We do not have that machine,
//! so we simulate it:
//!
//! * Every simulated **node** is a fiber with a private **virtual
//!   clock** measured in microseconds.
//! * Nodes exchange **packets** over reliable FIFO channels. Each packet is
//!   priced by a LogGP-style [`CostModel`]: the sender pays a fixed send
//!   overhead, the packet arrives after `latency + bytes/bandwidth`, and the
//!   receiver pays a receive overhead (and never lets its clock run
//!   backwards).
//! * Computation is charged explicitly: application kernels perform the real
//!   arithmetic (so results can be validated) and advance their clock by a
//!   calibrated per-operation cost.
//! * Global statistics count messages and payload bytes by protocol
//!   category, which is exactly what the paper's Tables 2 and 3 report.
//!
//! The model is deliberately simple — contention in the switch is not
//! modelled — because the paper's conclusions rest on message/byte counts
//! and on the relative composition of compute, communication and
//! synchronization time, all of which this model captures.
//!
//! ## The engine and its schedules
//!
//! One engine carries the simulated machine (see [`engine`]): all nodes
//! and service loops are cooperatively scheduled fibers of one OS
//! thread. The default **sequential** schedule is strict FIFO —
//! byte-for-byte reproducible, what every recorded number uses; a
//! **seeded** schedule ([`EngineKind::Seeded`]) picks fibers at random
//! and preempts them at sends and around [`StateCell`] sections, to
//! explore the interleavings a protocol must survive, replayably.
//! Select with [`ClusterConfig::with_engine`].
//!
//! ## Example
//!
//! ```
//! use sp2sim::{Cluster, ClusterConfig, CostModel, MsgKind};
//!
//! let cfg = ClusterConfig::sp2(4);
//! let out = Cluster::run(cfg, |node| {
//!     // Everyone sends its id to node 0, which sums them.
//!     if node.id() == 0 {
//!         let mut sum = 0;
//!         for _ in 1..node.nprocs() {
//!             let pkt = node.recv_match(|p| p.tag == 7);
//!             sum += pkt.payload[0];
//!         }
//!         sum
//!     } else {
//!         node.send(0, 7, MsgKind::Data, vec![node.id() as u64]);
//!         0
//!     }
//! });
//! assert_eq!(out.results[0], 1 + 2 + 3);
//! assert_eq!(out.stats.total_messages(), 3);
//! ```

#![deny(unsafe_code)]

pub mod cell;
pub mod cluster;
pub mod codec;
pub mod collective;
pub mod cost;
pub mod engine;
pub mod node;
pub mod packet;
pub mod rng;
pub mod stats;
pub mod time;

pub use cell::{StateCell, StateGuard};
pub use cluster::{Cluster, ClusterConfig, RunOutput};
pub use codec::{WordReader, WordWriter};
pub use collective::{block_range, ReduceOp, Tree};
pub use cost::CostModel;
pub use engine::{EngineKind, ServiceHandle};
pub use node::{Endpoint, Node, TraceSpanGuard};
pub use packet::{seq_sender, Packet, Payload, Port};
pub use rng::SplitMix64;
pub use stats::{MsgKind, NetStats, StatsSnapshot};
pub use time::VTime;

// The tracing event model lives in the dependency-free `trace` crate;
// re-export it so upper layers spell everything `sp2sim::...`.
pub use trace::{
    Category, EdgeKind, Event, EventKind, SpanKind, TraceBuf, TraceData, TracePort, TrackTrace,
};
