//! # treadmarks — a page-based software DSM with lazy release consistency
//!
//! This crate is the core system of the reproduction of Cox, Dwarkadas, Lu
//! & Zwaenepoel, *"Evaluating the Performance of Software Distributed
//! Shared Memory as a Target for Parallelizing Compilers"* (IPPS 1997): a
//! reimplementation of the TreadMarks distributed shared memory system
//! (Amza et al., IEEE Computer 1996) on top of the simulated SP/2 cluster
//! provided by [`sp2sim`].
//!
//! ## Protocol
//!
//! * **Lazy invalidate release consistency (RC).** Ordinary shared accesses
//!   are distinguished from synchronization accesses. A processor's writes
//!   become visible to another only when a release by the writer becomes
//!   visible to the reader through a chain of synchronization events.
//!   Consistency information travels as **intervals** (per-release bundles
//!   of **write notices**) stamped with vector clocks and Lamport clocks;
//!   it is propagated at barrier departures and lock grants, and causes the
//!   receiver to invalidate its copies of the named pages.
//! * **Multiple-writer protocol.** Two or more processors may modify their
//!   own copy of a page simultaneously. On the first write a node saves a
//!   **twin** of the page; modifications are captured as **diffs** — run
//!   length encodings of the changed 64-bit words, produced by comparing
//!   the page against its twin. Diff creation is *delayed*: flushing at a
//!   release only publishes write notices; the diff itself is materialized
//!   the first time some node requests it (or when a push/broadcast
//!   extension needs it). Consecutive un-requested intervals of the sole
//!   writer of a page coalesce into a single diff, exactly the behaviour
//!   that keeps real TreadMarks' diff traffic bounded by the page size.
//! * **Access detection.** The original system used `mprotect` and SIGSEGV.
//!   Here shared data is reachable only through [`dsm::ReadView`] /
//!   [`dsm::WriteView`] handles whose creation performs the access check at
//!   page granularity and triggers the same protocol transitions; the cost
//!   model charges the same fault/twin/diff overheads the paper measures.
//!   The views are windows onto the page frames, not copies — loads and
//!   stores happen in place, as behind `mprotect` — under the invariants
//!   stated in [`page`]. This substitution is documented in `DESIGN.md`.
//! * **Synchronization.** Barriers have a centralized manager (node 0):
//!   `2 (n - 1)` messages per barrier. Locks have statically assigned
//!   managers (`lock % n`); acquire requests go to the manager and are
//!   forwarded to the last holder; releases cost no communication.
//! * **Improved fork-join interface (paper §2.3).** `fork` is a one-to-all
//!   barrier *departure* that carries the loop-control variables, and
//!   `join` is an all-to-one barrier *arrival*: `2 (n - 1)` messages per
//!   parallel loop instead of `8 (n - 1)` with the original
//!   barrier-plus-shared-control-page scheme (which is also implemented,
//!   for the ablation).
//! * **Extensions (paper §8 / Dwarkadas et al.).** Request aggregation
//!   (one diff request per writer covering a whole view), data push at
//!   barriers, and page broadcast — used by the hand-optimized program
//!   versions of Section 5.
//! * **Two protocol modes.** [`config::ProtocolMode`] selects between the
//!   original distributed-diff protocol (**LRC**, the default) and
//!   **home-based LRC** (**HLRC**, Zhou et al.): every page has a home
//!   node — block-cyclic `page % n`, overridable per page before its
//!   first write notice — that eagerly receives each writer's diffs at
//!   the release that publishes them (`HOME_FLUSH`); an access miss then
//!   fetches the whole page from its home in one round trip (`PAGE_REQ`),
//!   however many writers modified it. The home keeps a dedicated home
//!   copy per page ([`hlrc::HomePage`], separate from its working
//!   frame) and constructs every response at *exactly* the requester's
//!   notice watermarks, applying buffered ranges in `(lamport, writer)`
//!   order — never local unpublished words, never intervals the
//!   requester has not synchronized with; requests the buffered history
//!   cannot cover yet are deferred until the in-flight flush arrives. A
//!   one-page response is the home's memoized construction itself,
//!   shared copy-on-write.
//!   HLRC trades update traffic for fault round trips — the second
//!   protocol axis of the harness. Each protocol is one module
//!   ([`lrc`], [`hlrc`]); the rest of the crate reaches them through
//!   the four hooks of [`coherence`] and never compares the mode.
//! * **Compiler–runtime interface services.** Three entry points the
//!   `spf` crate's hint engine drives from compiler-provided
//!   regular-section descriptors: [`dsm::Tmk::validate`] (aggregated
//!   validate — one round trip per writer for every page a phase will
//!   fault — which write-enables the pages the phase writes),
//!   [`dsm::Tmk::push_at_next_sync`] (a [`dsm::Pushes`] list of
//!   producer→consumer pushes riding the next rendezvous, barrier or
//!   fork-join; under LRC a push carries the words its consumer reads,
//!   the rest a [`hole`] the consumer faults on if it reads it), and
//!   [`dsm::Tmk::reduce`] (direct binomial-tree reduction, `2 (n - 1)`
//!   messages instead of lock-and-shared-page folding).
//!
//! ## Example
//!
//! ```
//! use sp2sim::{Cluster, ClusterConfig};
//! use treadmarks::{Tmk, TmkConfig};
//!
//! let out = Cluster::run(ClusterConfig::sp2(4), |node| {
//!     let tmk = Tmk::new(node, TmkConfig::default());
//!     let a = tmk.malloc_f64(1024);
//!     if tmk.proc_id() == 0 {
//!         let mut w = tmk.write(a, 0..1024);
//!         for i in 0..1024 {
//!             w[i] = i as f64;
//!         }
//!         drop(w);
//!     }
//!     tmk.barrier(0);
//!     // Everyone reads the data written by node 0 on demand.
//!     // (A view is a window onto the page frames: it must be gone
//!     // before the next barrier, so it lives in this one expression.)
//!     let x = tmk.read(a, 512..516)[514];
//!     tmk.barrier(1);
//!     tmk.finish();
//!     x
//! });
//! assert!(out.results.iter().all(|&x| x == 514.0));
//! ```

#![deny(unsafe_code)]

pub mod coherence;
pub mod config;
pub mod diff;
pub mod dsm;
pub mod hlrc;
pub mod hole;
pub mod interval;
pub mod lrc;
#[allow(unsafe_code)]
pub mod page;
pub mod profile;
pub mod protocol;
pub mod race;
pub mod service;
pub mod state;
pub mod stats;
pub mod vc;

pub use config::{ProtocolMode, TmkConfig};
pub use diff::Diff;
pub use dsm::{Pushes, ReadView, SharedArray, Tmk, ViewFence, WriteView};
pub use profile::{LockProfile, PageProfile, SharingProfile};
pub use race::{FalseSharingReport, RaceLog, RaceReport};
pub use sp2sim::ReduceOp;
pub use stats::DsmStats;
