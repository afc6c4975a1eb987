//! Footprints: what one node's share of a parallel loop touches, said
//! once.
//!
//! A loop's footprint for a dispatch is a list of [`Touch`]es, each the
//! words of one shared array the node's share of the iterations touches
//! and the [`Mode`] the compiler declares for them (`cri`'s, which an
//! inspector's accesses speak too). The body opens its views
//! from it, and a hinted loop's hints are read off the same list, with
//! the consumers of its writes added ([`crate::Spf::describe`]), so the
//! two cannot drift apart. A touch holds plain word ranges: neither the
//! body nor the hint engine builds a [`Section`] of it. Its words are
//! maximal runs ([`Touch::runs`]), and whether two touches share a word
//! or a page is, where arithmetic can tell, worked out from their
//! strides, rows, column ranges and cyclic residues rather than from
//! their runs (DESIGN.md, "Touches meet by arithmetic").

use std::ops::Range;

use cri::section::for_each_overlap;
pub use cri::Mode;
use cri::Section;
use treadmarks::{ReadView, SharedArray, Tmk, WriteView};

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
/// `cyclic` is `(me, np)` — `(0, 1)` for every column. The rows lie
/// within a column (`rows.end ≤ stride`), so two columns' words never
/// overlap.
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
        debug_assert!(
            rows.end <= self.at.stride || rows.is_empty(),
            "rows {rows:?} overrun a column"
        );
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
        first(&self.cols, me, np).step_by(np)
    }

    /// The words touched in column `j`.
    pub fn run(&self, j: usize) -> Range<usize> {
        j * self.at.stride + self.rows.start..j * self.at.stride + self.rows.end
    }

    /// Whether the words are one run: whole columns, every one.
    fn whole(&self) -> bool {
        self.cyclic.1 == 1 && self.rows == (0..self.at.stride)
    }

    /// The words touched as maximal runs, ascending, none empty: one for
    /// whole columns, every one ([`Touch::words`]); else one per column,
    /// which never meet, since the rows lie within a column and either
    /// leave part of it out or skip a column between two.
    pub fn runs(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let whole = self.whole();
        let one = whole.then(|| self.words()).filter(|w| !w.is_empty());
        let columns = match whole || self.rows.is_empty() {
            true => (0..0).step_by(1),
            false => self.columns(),
        };
        one.into_iter().chain(columns.map(|j| self.run(j)))
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
        assert!(self.whole());
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
        if self.whole() {
            return Section::range(self.words());
        }
        Section::cyclic_cols(self.cols.clone(), me, np, self.at.stride, self.rows.clone())
    }

    /// The touch's units of `grain` words, worked out for [`Units::meet`].
    pub(crate) fn units(&self, grain: usize) -> Units {
        let hull = self.hull(grain);
        let lattice = hull.as_ref().and_then(|_| self.lattice(grain));
        Units {
            arr: self.at.arr,
            grain,
            hull,
            lattice,
        }
    }

    /// The first and last unit of `grain` words the touch holds, as a
    /// range; `None` when it holds none.
    fn hull(&self, grain: usize) -> Option<Range<usize>> {
        let (me, np) = self.cyclic;
        let first = first(&self.cols, me, np)
            .next()
            .filter(|_| !self.rows.is_empty())?;
        let last = first + (self.cols.end - 1 - first) / np * np;
        let words = self.run(first).start..self.run(last).end;
        match grain {
            1 => Some(words),
            _ => Some(words.start / grain..words.end.div_ceil(grain)),
        }
    }

    /// The units of `grain` words the touch holds, as a lattice, when they
    /// are one: always for words; for pages, when the touch is one run or
    /// its columns are whole pages long.
    fn lattice(&self, grain: usize) -> Option<Lattice> {
        let (stride, rows, cols) = (self.at.stride, self.rows.clone(), self.cols.clone());
        let words = Lattice::new(stride, rows, cols, self.cyclic);
        if grain == 1 {
            return Some(words);
        }
        if let Some(run) = words.single {
            return Some(Lattice::run(run.start / grain..run.end.div_ceil(grain)));
        }
        stride.is_multiple_of(grain).then(|| {
            let rows = self.rows.start / grain..self.rows.end.div_ceil(grain);
            Lattice::new(stride / grain, rows, words.cols, words.cyclic)
        })
    }

    /// Whether every word of `s` is one of this touch's, by arithmetic:
    /// `false` when it cannot tell. A run inside maximal runs lies inside
    /// one, so `s` must be one run and lie in one of this touch's
    /// columns.
    pub(crate) fn covers(&self, s: &Touch) -> bool {
        let one = s.hull(1).and(s.lattice(1)).and_then(|s| s.single);
        let t = self.hull(1).and(self.lattice(1));
        let (Some(t), Some(s), true) = (t, one, self.at.arr == s.at.arr) else {
            return false;
        };
        let (j, (me, np)) = (s.start / t.stride, t.cyclic);
        let run = match t.single {
            Some(run) => run,
            None if t.cols.contains(&j) && j % np == me % np => {
                j * t.stride + t.rows.start..j * t.stride + t.rows.end
            }
            None => return false,
        };
        let inside = run.start <= s.start && s.end <= run.end;
        debug_assert!(
            !inside || self.runs().any(|r| r.start <= s.start && s.end <= r.end),
            "{self:?} covers {s:?}"
        );
        inside
    }
}

/// A touch's units of `grain` words, arrays starting on a unit, worked
/// out once so that it meets many touches by arithmetic alone: its
/// array, its first to last unit, and the units exactly when a lattice
/// holds them.
#[derive(Clone, Debug)]
pub(crate) struct Units {
    arr: SharedArray,
    grain: usize,
    /// First to last unit; `None` when the touch holds none.
    hull: Option<Range<usize>>,
    /// The units, when a lattice holds them exactly.
    lattice: Option<Lattice>,
}

impl Units {
    /// Whether the two touches these are the units of share one, by
    /// arithmetic alone (DESIGN.md, "Touches meet by arithmetic"); `None`
    /// where it cannot tell. Touches of two arrays, or whose hulls are
    /// apart, share none; a touch that is one run of units meets any
    /// other exactly when a column of the other reaches into it; two of
    /// one stride meet when their rows overlap and some column is in
    /// both, which the Chinese remainder theorem finds. Two runs of
    /// columns of unequal strides are left to the touches' runs.
    fn meet(&self, other: &Units) -> Option<bool> {
        let (Some(a), Some(b)) = (&self.hull, &other.hull) else {
            return Some(false);
        };
        if self.arr != other.arr || a.end <= b.start || b.end <= a.start {
            return Some(false);
        }
        let (a, b) = (self.lattice.as_ref()?, other.lattice.as_ref()?);
        match (&a.single, &b.single) {
            (Some(run), _) => Some(b.reaches(run)),
            (_, Some(run)) => Some(a.reaches(run)),
            _ if a.stride == b.stride => {
                let rows = a.rows.start.max(b.rows.start) < a.rows.end.min(b.rows.end);
                Some(rows && a.shares_a_column(b))
            }
            _ => None,
        }
    }
}

/// Whether touches `a` and `b`, whose units of one grain are `ua` and
/// `ub`, share a unit: in closed form where it decides
/// ([`Units::meet`]), else — and, with debug assertions, always, to check
/// the closed form — by their runs.
pub(crate) fn meet(a: &Touch, ua: &Units, b: &Touch, ub: &Units) -> bool {
    let grain = ua.grain;
    debug_assert_eq!(grain, ub.grain);
    let by_runs = || {
        let mut met = false;
        let (ra, rb) = (unit_runs(a.runs(), grain), unit_runs(b.runs(), grain));
        for_each_overlap(ra, rb, |_| met = true);
        met && a.at.arr == b.at.arr
    };
    match ua.meet(ub) {
        Some(met) => {
            debug_assert_eq!(met, by_runs(), "{a:?} and {b:?} at {grain}");
            met
        }
        None => by_runs(),
    }
}

/// The columns of `cols` congruent to `me` mod `np`, from the first of
/// them: step it by `np`.
fn first(cols: &Range<usize>, me: usize, np: usize) -> Range<usize> {
    match np {
        1 => cols.clone(),
        _ => cols.start + (me + np - cols.start % np) % np..cols.end,
    }
}

/// The units of `grain` words that ascending, disjoint word runs reach,
/// as sorted, disjoint runs.
fn unit_runs(
    runs: impl Iterator<Item = Range<usize>>,
    grain: usize,
) -> impl Iterator<Item = Range<usize>> {
    let mut spans = runs
        .map(move |r| r.start / grain..r.end.div_ceil(grain))
        .peekable();
    std::iter::from_fn(move || {
        let mut run = spans.next()?;
        while let Some(next) = spans.next_if(|next| next.start <= run.end) {
            run.end = run.end.max(next.end);
        }
        Some(run)
    })
}

/// The units `j·stride + r` for each column `j` of `cols` with
/// `j ≡ me (mod np)` and each `r` of `rows`, which lie within a column:
/// a touch's words, or its pages.
#[derive(Clone, Debug)]
struct Lattice {
    stride: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    cyclic: (usize, usize),
    /// The units, when they are one run: whole columns, every one, or a
    /// single column.
    single: Option<Range<usize>>,
}

impl Lattice {
    /// The units of rows `rows` of columns `cols` with `cyclic`, `stride`
    /// units each, when they hold a unit.
    fn new(
        stride: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        cyclic: (usize, usize),
    ) -> Lattice {
        let (me, np) = cyclic;
        let j = first(&cols, me, np).start;
        let single = match np == 1 && rows == (0..stride) {
            true => Some(cols.start * stride..cols.end * stride),
            false => (j + np >= cols.end).then(|| j * stride + rows.start..j * stride + rows.end),
        };
        Lattice {
            stride,
            rows,
            cols,
            cyclic,
            single,
        }
    }

    /// The units `run`, as a lattice of one-unit columns.
    fn run(run: Range<usize>) -> Lattice {
        Lattice::new(1, 0..1, run, (0, 1))
    }

    /// Whether a column of the lattice reaches into `run`: its columns
    /// `j` with `j·stride + rows.end > run.start` and `j·stride +
    /// rows.start < run.end`, one of them congruent to `me`.
    fn reaches(&self, run: &Range<usize>) -> bool {
        let (me, np) = self.cyclic;
        let lo = (run.start + 1)
            .saturating_sub(self.rows.end)
            .div_ceil(self.stride);
        let hi = match run.end > self.rows.start {
            true => (run.end - 1 - self.rows.start) / self.stride + 1,
            false => 0,
        };
        let cols = lo.max(self.cols.start)..hi.min(self.cols.end);
        !first(&cols, me, np).is_empty()
    }

    /// Whether a column is in both lattices: one of this one's columns
    /// where their ranges overlap that is congruent to the other's
    /// residue. This one's columns there pass through every residue mod
    /// `n` that the remainder theorem allows within `n / gcd(np, n)`
    /// steps, so the search is that long at most.
    fn shares_a_column(&self, other: &Lattice) -> bool {
        let ((a, m), (b, n)) = (self.cyclic, other.cyclic);
        let cols = self.cols.start.max(other.cols.start)..self.cols.end.min(other.cols.end);
        // One modulus: the first column decides.
        let steps = if m == n { 1 } else { n / gcd(m, n) };
        first(&cols, a, m)
            .step_by(m)
            .take(steps)
            .any(|j| j % n == b % n)
    }
}

/// The greatest common divisor.
fn gcd(a: usize, b: usize) -> usize {
    match b {
        0 => a,
        _ => gcd(b, a % b),
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

        /// Touches meet in closed form exactly where their words, or
        /// their pages, do: whenever arithmetic answers, the answer is the
        /// brute-force one, at the word level and for pages of 4, 16 and
        /// 64 words — over strides 1–12, equal and unequal, rows empty,
        /// partial and whole, column ranges empty and not, and cyclic
        /// sets of equal, coprime and non-coprime `np`; it always answers
        /// for one stride at the word level. A touch's runs are maximal,
        /// and a touch that covers another holds each of its words.
        #[test]
        fn touches_meet_in_closed_form_exactly_where_their_words_do(
            p in prop::collection::vec(0usize..55_440, 17..18),
        ) {
            Cluster::run(ClusterConfig::sp2(1), move |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let arrays = [tmk.malloc_f64(31 * 12), tmk.malloc_f64(31 * 12)];
                let stride = 1 + p[0] % 12;
                let strides = [stride, if p[1] % 3 == 0 { stride } else { 1 + p[1] % 12 }];
                let drawn = |stride: usize, arr, q: &[usize]| {
                    let rows = match q[0] % 4 {
                        0 => 0..stride,
                        _ => q[1] % (stride + 1)..q[2] % (stride + 1),
                    };
                    let np = [1, 1, 2, 3, 4, 6][q[3] % 6];
                    let cols = q[4] % 30..q[5] % 31;
                    Cols::new(arr, stride).touch(cols, Mode::Read).rows(rows).cyclic(q[6] % np, np)
                };
                let other = arrays[usize::from(p[2] % 8 == 0)];
                let (t, u) = (drawn(strides[0], arrays[0], &p[3..10]), drawn(strides[1], other, &p[10..17]));
                let words = |t: &Touch| t.columns().flat_map(|j| t.run(j)).collect::<BTreeSet<_>>();
                for t in [&t, &u] {
                    let maximal: Vec<_> = t.runs().collect();
                    prop_assert_eq!(&maximal[..], t.section().runs(), "{:?}", t);
                }
                for grain in [1, 4, 16, 64] {
                    let units = |t: &Touch| words(t).iter().map(|w| w / grain).collect::<BTreeSet<_>>();
                    let shared = t.at.arr == u.at.arr && units(&t).intersection(&units(&u)).next().is_some();
                    let closed = t.units(grain).meet(&u.units(grain));
                    prop_assert!(closed.is_none_or(|met| met == shared), "{:?} {:?} at {}: {:?}", t, u, grain, closed);
                    prop_assert_eq!(meet(&t, &t.units(grain), &u, &u.units(grain)), shared);
                    let decides = grain > 1 || strides[0] != strides[1];
                    prop_assert!(decides || closed.is_some(), "{:?} {:?}", t, u);
                }
                if t.covers(&u) {
                    prop_assert!(words(&u).is_subset(&words(&t)), "{:?} {:?}", t, u);
                }
                tmk.finish();
            });
        }
    }
}
