//! # cri — the compiler–runtime interface for the DSM
//!
//! The paper's conclusion attributes most of the SPF-on-TreadMarks gap
//! to information the compiler had and the runtime did not: which pages
//! a parallel loop will fault, who consumes the data it produces, and
//! which shared updates are really reductions. This crate is the
//! vocabulary of that interface, following the integrated
//! compile-time/run-time approach of Dwarkadas, Cox & Zwaenepoel:
//!
//! * [`Section`] — **section access descriptors**: the words a
//!   parallelized loop touches, held as sorted word runs. The compiler
//!   builds them from its subscript analysis (a contiguous range, a
//!   chunk of every plane, a cyclic column set), an inspector from its
//!   indirection-map walk (see the `inspector` crate); [`section`] also
//!   holds the algebra on sorted runs that every derivation shares;
//! * [`Mode`] — how a loop uses the words it touches: read, written
//!   all over, or updated. One vocabulary serves both descriptions: a
//!   footprint's touch (`spf` re-exports it) and an inspector's access;
//! * [`Access`] — one touched section of a shared array, with its
//!   [`Mode`] and (for writes) the known [`Consumer`]s: what an
//!   inspector, evaluated per node from the dispatched iteration range,
//!   returns, and what sequential code declares it wrote.
//!
//! Applications describe each loop once, before the run, through
//! `spf`'s `Spf`: by the footprint its body opens its views from, or by
//! an inspector, which returns [`Access`]es. Either is a pure function
//! of the dispatched range, the node and the node count for the whole
//! run. The loop table keeps the description, and its hint engine turns
//! it into validates, pushes and home placements around every body,
//! reading a footprint's accesses off its walk (see "Hint plans" in the
//! `spf` crate). The third mechanism, **direct reductions**, lives on
//! the DSM handle itself ([`treadmarks::Tmk::reduce`]).

#![forbid(unsafe_code)]

use std::ops::Range;

use treadmarks::SharedArray;

pub mod section;

pub use section::Section;

/// How a loop uses the words of an access, as its descriptor declares
/// them: a footprint's touch and an inspector's access alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Read.
    Read,
    /// Written all over: the body stores every word before it reads
    /// any, so a hinted loop's pages the access covers whole are neither
    /// fetched nor twinned ([`Access::write_all`]).
    Write,
    /// Read and written — or written in part: a plain write, whose view
    /// fetches the current content first, so its pages are validated.
    Update,
}

/// Who reads a written section next — the producer side of the
/// barrier-time push.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Consumer {
    /// The described loop `id`, next dispatched over `iters`: every
    /// node's sections of that loop are evaluated and the page overlap
    /// with the producer's writes is pushed.
    Loop {
        /// Consuming loop id (registration order).
        id: usize,
        /// The iteration space that loop will be dispatched over.
        iters: Range<usize>,
    },
    /// A specific node's sequential code (e.g. the master's wrap-around
    /// copies in Shallow): the whole written section is pushed there.
    Node(usize),
}

/// One access of a loop: a section of a shared array, its mode, and
/// (for writes) the known consumers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// The shared array.
    pub arr: SharedArray,
    /// The section touched.
    pub section: Section,
    /// How the loop uses it.
    pub mode: Mode,
    /// Consumers of a written section (ignored for reads).
    pub consumers: Vec<Consumer>,
}

impl Access {
    /// A read access.
    pub fn read(arr: SharedArray, section: Section) -> Access {
        Access {
            arr,
            section,
            mode: Mode::Read,
            consumers: Vec::new(),
        }
    }

    /// A write access, with fetch semantics ([`Mode::Update`]). Its pages
    /// are validated before a hinted body and write-enabled: the body's
    /// first write view over each takes its twin but no fault
    /// ([`treadmarks::Tmk::arm`]).
    pub fn write(arr: SharedArray, section: Section) -> Access {
        Access {
            mode: Mode::Update,
            ..Access::read(arr, section)
        }
    }

    /// A write-all access: the loop stores every word of `section` before
    /// it reads any. A page the section covers whole, and no other access
    /// of the loop touches, is neither validated before the body nor
    /// pushed to it: the body's write view over it fetches nothing, takes
    /// no fault and no twin, and its release publishes the page whole
    /// ([`treadmarks::Tmk::arm`]).
    pub fn write_all(arr: SharedArray, section: Section) -> Access {
        Access {
            mode: Mode::Write,
            ..Access::read(arr, section)
        }
    }

    /// Declare that described loop `id`, dispatched over `iters`, reads
    /// this written section next.
    pub fn consumed_by_loop(mut self, id: usize, iters: Range<usize>) -> Access {
        self.consumers.push(Consumer::Loop { id, iters });
        self
    }

    /// Declare that node `q`'s sequential code reads this written
    /// section next.
    pub fn consumed_by_node(mut self, q: usize) -> Access {
        self.consumers.push(Consumer::Node(q));
        self
    }
}
