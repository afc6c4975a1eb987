//! The state cell: what a node's two contexts share.
//!
//! A simulated node runs two fibers — its application closure and the
//! service loop it spawned — over one piece of protocol state. Both
//! live on one OS thread, so the state needs no lock in the OS sense;
//! it needs a *section*: [`StateCell::lock`] hands out a guard, and
//! until the guard drops the other context stays out.
//!
//! Under the FIFO schedule no section of the DSM blocks, so the cell is
//! never found held and `lock` is a borrow-flag check. Under a seeded
//! schedule ([`crate::EngineKind`]) both ends of a section are
//! preemption points, and so is every send *inside* one; a fiber that
//! then finds the cell held parks, and the release resumes it — what a
//! mutex did between the two threads of a node, at the cost of a flag.

use std::cell::{RefCell, RefMut};
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use crate::engine::sequential::Engine;
use crate::node::Node;

/// State shared by the fibers of one node; see the module docs.
pub struct StateCell<T> {
    value: RefCell<T>,
    engine: Rc<Engine>,
    /// Fibers parked in [`StateCell::lock`], to be woken at release.
    waiters: RefCell<Vec<usize>>,
}

impl<T> StateCell<T> {
    /// A cell for the contexts of `node`.
    pub fn new(node: &Node, value: T) -> StateCell<T> {
        StateCell {
            value: RefCell::new(value),
            engine: Rc::clone(&node.engine),
            waiters: RefCell::new(Vec::new()),
        }
    }

    /// Enter a section: exclusive access until the guard drops. Parks
    /// the calling fiber while another one is inside.
    pub fn lock(&self) -> StateGuard<'_, T> {
        self.engine.preempt();
        let value = loop {
            match self.value.try_borrow_mut() {
                Ok(value) => break value,
                Err(_) => self.engine.park_on_cell(&self.waiters),
            }
        };
        StateGuard {
            value,
            _release: Release {
                engine: &self.engine,
                waiters: &self.waiters,
            },
        }
    }
}

/// A section of a [`StateCell`]: dereferences to the state.
pub struct StateGuard<'a, T> {
    // Field order is drop order: the borrow ends, then the release
    // wakes the fibers waiting for it.
    value: RefMut<'a, T>,
    _release: Release<'a>,
}

impl<T> Deref for StateGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for StateGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// The end of a section: wake whoever parked on the cell, then let the
/// schedule put any fiber in before this one goes on.
struct Release<'a> {
    engine: &'a Engine,
    waiters: &'a RefCell<Vec<usize>>,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        for fiber in self.waiters.borrow_mut().drain(..) {
            self.engine.wake(fiber);
        }
        self.engine.preempt();
    }
}
