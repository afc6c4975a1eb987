//! Footprints: what one node's share of a parallel loop touches, said
//! once.
//!
//! A loop's footprint for a dispatch is a list of [`Touch`]es, each the
//! words of one shared array the node's share of the iterations touches
//! and the mode the compiler declares for them. The body opens its views
//! from it, and a hinted loop's hints are read off the same list, with
//! the consumers of its writes added ([`crate::Spf::describe`]), so the
//! two cannot drift apart. A touch holds plain word ranges: neither the
//! body nor the hint engine builds a [`Section`] of it.

use std::ops::Range;

use cri::Section;
use treadmarks::{ReadView, SharedArray, Tmk, WriteView};

/// How a loop uses the words of a touch, as its descriptor declares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Read.
    Read,
    /// Written all over: the body stores every word of the touch before
    /// it reads any, so a hinted loop's pages that the touch covers
    /// whole are neither fetched nor twinned ([`cri::Access::write_all`]).
    Write,
    /// Read and written — or written in part: declared as a plain write,
    /// whose view fetches the current content first.
    Update,
}

/// A shared array as consecutive columns of `stride` words each (a
/// column-major matrix, a stack of planes, or — with `stride` 1 — a
/// vector).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cols {
    /// The array.
    pub arr: SharedArray,
    /// Words per column.
    pub stride: usize,
}

impl Cols {
    /// `arr` as columns of `stride` words.
    pub fn new(arr: SharedArray, stride: usize) -> Cols {
        Cols { arr, stride }
    }

    /// Every word of columns `cols`, in `mode`.
    pub fn touch(self, cols: Range<usize>, mode: Mode) -> Touch {
        Touch {
            at: self,
            cols,
            cyclic: (0, 1),
            rows: 0..self.stride,
            mode,
        }
    }
}

/// The words one node's share of a loop touches in one array: rows
/// `rows` of each column `j` of `cols` with `j ≡ me (mod np)`, where
/// `cyclic` is `(me, np)` — `(0, 1)` for every column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Touch {
    /// The array and its column length.
    pub at: Cols,
    /// The columns spanned.
    pub cols: Range<usize>,
    /// `(me, np)`: the columns kept are those congruent to `me` mod `np`.
    pub cyclic: (usize, usize),
    /// The words touched within each column.
    pub rows: Range<usize>,
    /// The declared mode.
    pub mode: Mode,
}

impl Touch {
    /// Only rows `rows` of each column.
    pub fn rows(self, rows: Range<usize>) -> Touch {
        Touch { rows, ..self }
    }

    /// Only the columns a cyclic schedule gives node `me` of `np`.
    pub fn cyclic(self, me: usize, np: usize) -> Touch {
        Touch {
            cyclic: (me, np),
            ..self
        }
    }

    /// The columns touched, ascending.
    pub fn columns(&self) -> std::iter::StepBy<Range<usize>> {
        let (me, np) = self.cyclic;
        let first = self.cols.start + (me + np - self.cols.start % np) % np;
        (first..self.cols.end).step_by(np)
    }

    /// The words touched in column `j`.
    pub fn run(&self, j: usize) -> Range<usize> {
        j * self.at.stride + self.rows.start..j * self.at.stride + self.rows.end
    }

    /// The words touched, a run per column, ascending.
    pub fn runs(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.columns().map(|j| self.run(j))
    }

    /// The touch within columns `cols`, when it touches a word there.
    pub(crate) fn within(&self, cols: &Range<usize>) -> Option<Touch> {
        let cols = cols.start.max(self.cols.start)..cols.end.min(self.cols.end);
        let t = Touch {
            cols,
            ..self.clone()
        };
        (!t.rows.is_empty() && t.columns().next().is_some()).then_some(t)
    }

    /// The words, when they are one run: whole columns, every one.
    pub fn words(&self) -> Range<usize> {
        assert!(self.cyclic.1 == 1 && self.rows == (0..self.at.stride));
        self.cols.start * self.at.stride..self.cols.end * self.at.stride
    }

    /// A read view of [`Touch::words`].
    pub fn read<'t>(&self, tmk: &'t Tmk) -> ReadView<'t> {
        tmk.read(self.at.arr, self.words())
    }

    /// A write view of [`Touch::words`].
    pub fn write<'t>(&self, tmk: &'t Tmk) -> WriteView<'t> {
        tmk.write(self.at.arr, self.words())
    }

    /// The words as a section descriptor.
    pub fn section(&self) -> Section {
        let (me, np) = self.cyclic;
        // Whole columns are one run: no buffer with a run per column.
        if np == 1 && self.rows == (0..self.at.stride) {
            return Section::range(self.words());
        }
        Section::cyclic_cols(self.cols.clone(), me, np, self.at.stride, self.rows.clone())
    }
}

/// Who reads a written touch next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Next {
    /// Every node's footprint of loop `.0`, dispatched over `.1`.
    Loop(usize, Range<usize>),
    /// Node `.0`'s sequential code, which reads columns `.1` of it.
    Node(usize, Range<usize>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use cri::section::for_each_overlap;
    use proptest::prelude::*;
    use sp2sim::{Cluster, ClusterConfig};
    use treadmarks::TmkConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// What a descriptor declares is what a body opens: a touch's
        /// section holds exactly the words of its columns' runs — whole
        /// blocks, row chunks of every column, cyclic column sets with
        /// a non-divisible origin, empty ones — and two touches meet
        /// exactly when those words do.
        #[test]
        fn a_touch_declares_the_words_its_body_opens(
            cols in (0usize..30, 0usize..30),
            stride in 1usize..12,
            rows in (0usize..12, 0usize..12),
            cyclic in (0usize..4, 1usize..4),
        ) {
            let rows = rows.0 % (stride + 1)..rows.1 % (stride + 1);
            let (me, np) = (cyclic.0 % cyclic.1, cyclic.1);
            Cluster::run(ClusterConfig::sp2(1), move |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let at = Cols::new(tmk.malloc_f64(30 * stride), stride);
                let touches = [
                    at.touch(cols.0..cols.1, Mode::Read),
                    at.touch(cols.0..cols.1, Mode::Write).rows(rows.clone()),
                    at.touch(cols.0..cols.1, Mode::Update).rows(rows.clone()).cyclic(me, np),
                    at.touch(cols.1..cols.1 + 3, Mode::Read).rows(rows.clone()).cyclic(me, np),
                ];
                let set = |t: &Touch| t.columns().flat_map(|j| t.run(j)).collect::<BTreeSet<_>>();
                for t in &touches {
                    let mut words: Vec<usize> = t.columns().flat_map(|j| t.run(j)).collect();
                    words.sort_unstable();
                    let declared: Vec<usize> = t.section().runs().iter().cloned().flatten().collect();
                    prop_assert_eq!(declared, words, "{:?}", t);
                    for u in &touches {
                        let shared = set(t).intersection(&set(u)).next().is_some();
                        let mut met = false;
                        for_each_overlap(t.runs(), u.runs(), |_| met = true);
                        prop_assert_eq!(met, shared, "{:?} {:?}", t, u);
                    }
                }
                tmk.finish();
            });
        }
    }
}
