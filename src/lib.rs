//! # dsm-suite — umbrella crate
//!
//! Reproduction of Cox, Dwarkadas, Lu & Zwaenepoel, *"Evaluating the
//! Performance of Software Distributed Shared Memory as a Target for
//! Parallelizing Compilers"* (IPPS 1997).
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can reach everything through one dependency:
//!
//! * [`sp2sim`] — virtual-time simulated SP/2 cluster (substrate)
//! * [`mpl`] — MPL/PVMe-style message-passing library
//! * [`treadmarks`] — the page-based software DSM (core contribution)
//! * [`cri`] — the compiler–runtime interface (regular/triangular/dynamic
//!   section hints)
//! * [`inspector`] — inspector/executor runtime for irregular loops
//!   (indirection-map walks into dynamic sections, CHAOS-style)
//! * [`spf`] — the SPF fork-join compiler model targeting the DSM
//! * [`xhpf`] — the XHPF SPMD compiler model targeting message passing
//! * [`apps`] — the six applications in five versions each
//! * [`harness`] — experiment driver for every table/figure in the paper

#![forbid(unsafe_code)]

pub use apps;
pub use cri;
pub use harness;
pub use inspector;
pub use mpl;
pub use sp2sim;
pub use spf;
pub use treadmarks;
pub use xhpf;
