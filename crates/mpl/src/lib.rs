//! # mpl — message-passing library over the simulated SP/2
//!
//! Models the two message-passing layers of the paper:
//!
//! * **MPL** — IBM's user-level communication library, used by TreadMarks
//!   and by the XHPF run-time system as transport;
//! * **PVMe** — IBM's optimized PVM implementation, used by the hand-coded
//!   message-passing programs.
//!
//! Both reduce to the same primitive operations on the simulated switch, so
//! this crate provides a single [`Comm`] type with typed point-to-point
//! transfers and the collectives the applications need (binomial-tree
//! broadcast and reduce, all-reduce, barrier, gather, all-gather,
//! all-to-all). Collective algorithms are the standard hypercube/binomial
//! constructions of the era; their message counts — e.g. `n - 1` messages
//! for a tree broadcast, `2 (n - 1)` for a tree barrier — are what the
//! paper's Tables 2 and 3 reflect for the PVMe programs.
//!
//! ## Example
//!
//! ```
//! use sp2sim::{Cluster, ClusterConfig};
//! use mpl::Comm;
//!
//! let out = Cluster::run(ClusterConfig::sp2(4), |node| {
//!     let comm = Comm::new(node);
//!     let x = vec![comm.rank() as f64];
//!     let sum = comm.allreduce_sum_f64(&x);
//!     sum[0]
//! });
//! assert!(out.results.iter().all(|&s| s == 6.0));
//! ```

#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;

pub use comm::{Comm, ReduceOp};
