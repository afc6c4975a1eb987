//! # apps — the six applications of the paper, in five versions each
//!
//! | application | pattern | workload (paper) |
//! |---|---|---|
//! | Jacobi | regular 4-pt stencil | 2048², 100 iterations |
//! | Shallow | regular, 13 coupled arrays (NCAR shallow water) | 1024², 50 iterations |
//! | MGS | regular, modified Gramm-Schmidt | 1024 × 1024 |
//! | 3-D FFT | regular with transpose (NAS FT kernel) | 128×128×64, 5 iterations |
//! | IGrid | irregular 9-pt stencil through an indirection map | 500², 19 iterations |
//! | NBF | irregular molecular-dynamics kernel | 32768 molecules, 20 iterations |
//!
//! Each application exists in five (for some, six) versions:
//!
//! * [`Version::Seq`] — the sequential program (Table 1 baseline);
//! * [`Version::Spf`] — compiler-generated shared memory: the exact code
//!   shape the Forge SPF compiler emits, on the [`spf`] fork-join run-time
//!   over [`treadmarks`];
//! * [`Version::SpfCri`] — the SPF shape plus the compiler–runtime
//!   interface ([`cri`]): regular-section descriptors on every parallel
//!   loop of the three describable regular apps (Jacobi, Shallow, 3-D
//!   FFT) drive aggregated validates, barrier-time pushes and direct
//!   reductions; irregular apps degenerate to plain SPF;
//! * [`Version::Tmk`] — hand-coded TreadMarks (SPMD, private scratch,
//!   minimal barriers, locality-aware placement);
//! * [`Version::Xhpf`] — compiler-generated message passing: the code
//!   shape the Forge XHPF compiler emits, on the [`xhpf`] run-time;
//! * [`Version::Pvme`] — hand-coded message passing over [`mpl`];
//! * [`Version::HandOpt`] — the hand-optimized shared-memory variant of
//!   paper §5 where one exists (Jacobi/FFT: +aggregation; Shallow:
//!   +merged loops +aggregation; MGS: +broadcast, merged sync and data).
//!
//! All versions of an application share the same numerical kernels
//! (operating on [`common::Slab`] buffers), so results are bit-identical
//! across versions except where reduction order legitimately differs
//! (NBF, checksum reductions), where validation uses a relative tolerance.
//!
//! A run is a [`RunSpec`] — application, version, processors, scale,
//! schedule and DSM configuration as one `Copy` value;
//! `RunSpec::new(app, version, nprocs, scale).run()` is the paper's run
//! under the FIFO schedule, `.on(engine)` / `.protocol(p)` adjust
//! it. Each application module exports its `Params`, `params(scale)`
//! and one `node` function holding the version dispatch;
//! [`RunSpec::launch`] is the only place that builds a cluster for
//! them. `runner::run_with_cfg_on`, the same six values as positional
//! arguments, stays because the out-of-workspace `benchmark/` package
//! binds to it.
//!
//! Virtual time: kernels charge a calibrated per-point cost to the node
//! clock (constants in each module, calibrated against the sequential
//! times of Table 1); communication costs come from the [`sp2sim`] cost
//! model.

#![forbid(unsafe_code)]

pub mod common;
pub mod demo;
pub mod fft3d;
pub mod igrid;
pub mod jacobi;
pub mod mgs;
pub mod nbf;
pub mod runner;
pub mod shallow;

pub use runner::{AppId, RunResult, RunSpec, Version};
