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
//! * [`Access`] — one touched section of a shared array, with its
//!   [`AccessMode`] and (for writes) the known [`Consumer`]s: what a
//!   loop's descriptor, evaluated per node from the dispatched
//!   iteration range, returns, and what sequential code declares it
//!   wrote.
//!
//! Applications describe each loop once, through `spf`'s `Spf`, by the
//! footprint its body opens its views from (or by an inspector, which
//! returns [`Access`]es), which its loop table keeps and its hint engine
//! turns into validates, pushes and home placements around every body,
//! reading a footprint's accesses off its walk (see "Hint plans" in the
//! `spf` crate). The third mechanism, **direct
//! reductions**, lives on the DSM handle itself
//! ([`treadmarks::Tmk::reduce`]).

#![forbid(unsafe_code)]

use std::ops::Range;

use treadmarks::SharedArray;

pub mod section;

pub use section::Section;

/// Whether an access reads or writes its section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    /// The loop reads the section.
    Read,
    /// The loop writes the section. A write view fetches the current
    /// content too, so write sections are validated — except the whole
    /// pages of a write-all access ([`Access::write_all`]), which the
    /// body overwrites before it reads them.
    Write,
}

/// Who reads a written section next — the producer side of the
/// barrier-time push.
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
pub struct Access {
    /// The shared array.
    pub arr: SharedArray,
    /// The section touched.
    pub section: Section,
    /// Read or write.
    pub mode: AccessMode,
    /// A write that stores every word of the section before the loop
    /// reads any of it ([`Access::write_all`]).
    pub write_all: bool,
    /// Consumers of a written section (ignored for reads).
    pub consumers: Vec<Consumer>,
}

impl Access {
    /// A read access.
    pub fn read(arr: SharedArray, section: Section) -> Access {
        Access {
            arr,
            section,
            mode: AccessMode::Read,
            write_all: false,
            consumers: Vec::new(),
        }
    }

    /// A write access.
    pub fn write(arr: SharedArray, section: Section) -> Access {
        Access {
            arr,
            section,
            mode: AccessMode::Write,
            write_all: false,
            consumers: Vec::new(),
        }
    }

    /// A write-all access: the loop stores every word of `section` before
    /// it reads any. A page the section covers whole, and no other access
    /// of the loop touches, is neither validated before the body nor
    /// pushed to it: the body's write view over it fetches nothing, takes
    /// no fault and no twin, and its release publishes the page whole
    /// ([`treadmarks::Tmk::arm_write_all`]).
    pub fn write_all(arr: SharedArray, section: Section) -> Access {
        Access {
            write_all: true,
            ..Access::write(arr, section)
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
