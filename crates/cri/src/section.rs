//! Regular-section descriptors (RSDs).
//!
//! A regular section describes the set of array elements a loop nest
//! touches as a small product of strided dimensions — the representation
//! parallelizing compilers (Forge SPF, the Rice compiler of Dwarkadas et
//! al.) derive from subscript analysis of DO loops. The descriptor is
//! pure data: evaluating it enumerates element ranges without running
//! the loop, which is what lets the runtime fetch or push everything a
//! phase needs ahead of the accesses.

use std::ops::Range;

/// One dimension of a regular section: indices `lo..hi`, each scaled by
/// `stride` words. The innermost dimension of a dense access has
/// `stride == 1` and contributes a contiguous run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dim {
    /// First index (inclusive).
    pub lo: usize,
    /// Last index (exclusive).
    pub hi: usize,
    /// Words between consecutive indices.
    pub stride: usize,
}

/// A regular section over a flat (column-major) shared array: the set of
/// word indices `Σ_k i_k · stride_k` for `i_k ∈ lo_k..hi_k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Dimensions, outermost first.
    pub dims: Vec<Dim>,
}

impl Section {
    /// A contiguous 1-D section.
    pub fn range(r: Range<usize>) -> Section {
        Section {
            dims: vec![Dim {
                lo: r.start,
                hi: r.end,
                stride: 1,
            }],
        }
    }

    /// A column block of a column-major 2-D array with `rows` words per
    /// column: all of columns `cols`.
    pub fn cols(cols: Range<usize>, rows: usize) -> Section {
        Section {
            dims: vec![
                Dim {
                    lo: cols.start,
                    hi: cols.end,
                    stride: rows,
                },
                Dim {
                    lo: 0,
                    hi: rows,
                    stride: 1,
                },
            ],
        }
    }

    /// An `outer`-strided section of contiguous `inner` runs: for each
    /// `i ∈ outer`, words `i·stride + inner.start .. i·stride + inner.end`.
    pub fn strided(outer: Range<usize>, stride: usize, inner: Range<usize>) -> Section {
        Section {
            dims: vec![
                Dim {
                    lo: outer.start,
                    hi: outer.end,
                    stride,
                },
                Dim {
                    lo: inner.start,
                    hi: inner.end,
                    stride: 1,
                },
            ],
        }
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty() || self.dims.iter().any(|d| d.lo >= d.hi)
    }

    /// Number of words described.
    pub fn words(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.dims.iter().map(|d| d.hi - d.lo).product()
    }

    /// Enumerate the section as maximal contiguous word ranges (sorted,
    /// merged) — what the hint engine turns into page runs for validates
    /// and pushes.
    pub fn word_ranges(&self) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        self.for_each_range(|r| runs.push(r));
        runs
    }

    /// Call `f` with every range of [`Section::word_ranges`], in order,
    /// without building the vector. A section whose dimensions nest —
    /// every stride at least the extent of the dimensions inside it, the
    /// shape subscript analysis produces — enumerates in ascending order
    /// and is merged on the fly; any other shape is sorted first.
    pub fn for_each_range(&self, f: impl FnMut(Range<usize>)) {
        if self.is_empty() {
            return;
        }
        if self.nests() {
            merged(|run| walk(&self.dims, 0, run), f);
        } else {
            self.sorted_ranges().into_iter().for_each(f);
        }
    }

    /// True when enumerating the dimensions outermost first yields run
    /// starts in nondecreasing order.
    fn nests(&self) -> bool {
        // Largest offset the dimensions inside the current one add to a
        // run's start (a unit-stride innermost dimension is the run).
        let mut inner = 0;
        self.dims.iter().rev().enumerate().all(|(k, d)| {
            let ok = d.stride >= inner;
            if k > 0 || d.stride != 1 {
                inner += (d.hi - d.lo - 1) * d.stride;
            }
            ok
        })
    }

    /// The ranges by enumerating every run and sorting: the general path,
    /// and the reference the in-order walk is tested against.
    fn sorted_ranges(&self) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        walk(&self.dims, 0, &mut |r| runs.push(r));
        merge_ranges(runs)
    }
}

/// Enumerate the runs of `dims` (none empty) displaced by `base`,
/// outermost index slowest.
fn walk(dims: &[Dim], base: usize, run: &mut dyn FnMut(Range<usize>)) {
    let (d, inner) = dims.split_first().expect("a section has dimensions");
    if !inner.is_empty() {
        for i in d.lo..d.hi {
            walk(inner, base + i * d.stride, run);
        }
    } else if d.stride == 1 {
        run(base + d.lo..base + d.hi);
    } else {
        for i in d.lo..d.hi {
            let w = base + i * d.stride;
            run(w..w + 1);
        }
    }
}

/// Hand `emit` the maximal ranges of the runs `walk` produces in
/// nondecreasing start order: empty runs dropped, overlapping and adjacent
/// ones joined — [`merge_ranges`] of a sorted stream, with nothing stored.
fn merged(walk: impl FnOnce(&mut dyn FnMut(Range<usize>)), mut emit: impl FnMut(Range<usize>)) {
    // The range still growing; empty until the first run arrives.
    let mut open = 0..0;
    walk(&mut |r| {
        if r.start >= r.end {
            return;
        }
        if open.start < open.end && r.start <= open.end {
            open.end = open.end.max(r.end);
            return;
        }
        let done = std::mem::replace(&mut open, r);
        if done.start < done.end {
            emit(done);
        }
    });
    if open.start < open.end {
        emit(open);
    }
}

/// An affine bound `base + coef * i` over an outer index `i`, clamped at
/// zero. The building block of triangular sections: a compiler derives
/// these from loop bounds like `DO J = I+1, N`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AffineBound {
    /// Constant term (words).
    pub base: i64,
    /// Per-outer-index slope (words per index).
    pub coef: i64,
}

impl AffineBound {
    /// A constant bound (slope zero).
    pub const fn constant(base: i64) -> AffineBound {
        AffineBound { base, coef: 0 }
    }

    /// An affine bound `base + coef * i`.
    pub const fn affine(base: i64, coef: i64) -> AffineBound {
        AffineBound { base, coef }
    }

    /// Evaluate at outer index `i`, clamped at zero.
    pub fn eval(&self, i: usize) -> usize {
        (self.base + self.coef * i as i64).max(0) as usize
    }
}

/// A triangular section: for each outer index `i ∈ outer`, the contiguous
/// words `i·stride + lo(i) .. i·stride + hi(i)` with `lo`/`hi` affine in
/// `i`. This is the shape [`Section`] cannot express: the inner extent
/// varies with the outer index (MGS's `DO J = I+1, N` nests, triangular
/// solves), and the affine base also gives plain strided runs an origin
/// offset (a cyclic column set `j0, j0+np, …` of a padded matrix).
///
/// An empty inner range (`hi(i) <= lo(i)`) contributes nothing for that
/// `i`, so descriptors may over-approximate the outer range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriSection {
    /// Outer index range.
    pub outer: Range<usize>,
    /// Words between consecutive outer indices.
    pub stride: usize,
    /// Inner lower bound (inclusive), affine in the outer index.
    pub lo: AffineBound,
    /// Inner upper bound (exclusive), affine in the outer index.
    pub hi: AffineBound,
}

impl TriSection {
    /// The cyclic column set `{j ∈ cols : j ≡ me (mod np)}` of a matrix
    /// with `stride` words per column, each column contributing words
    /// `inner` — the per-node section of a cyclically scheduled loop.
    pub fn cyclic_cols(
        cols: Range<usize>,
        me: usize,
        np: usize,
        stride: usize,
        inner: Range<usize>,
    ) -> TriSection {
        // First owned column at or after cols.start.
        let j0 = cols.start + (me + np - cols.start % np) % np;
        let count = if j0 >= cols.end {
            0
        } else {
            (cols.end - j0).div_ceil(np)
        };
        TriSection {
            outer: 0..count,
            stride: np * stride,
            lo: AffineBound::constant((j0 * stride + inner.start) as i64),
            hi: AffineBound::constant((j0 * stride + inner.end) as i64),
        }
    }

    /// True when no outer index contributes any words. Both "the inner
    /// range is not empty" (`hi(i) > lo(i)`) and "it ends above word zero"
    /// (`hi(i) > 0`, the clamp) are affine in `i`, so the contributing
    /// indices are an interval found without visiting them.
    pub fn is_empty(&self) -> bool {
        let all = self.outer.start as i64..self.outer.end as i64;
        let above_zero = where_positive(self.hi.base, self.hi.coef, all);
        let live = where_positive(
            self.hi.base - self.lo.base,
            self.hi.coef - self.lo.coef,
            above_zero,
        );
        live.start >= live.end
    }

    /// Number of words described.
    pub fn words(&self) -> usize {
        self.outer
            .clone()
            .map(|i| self.hi.eval(i).saturating_sub(self.lo.eval(i)))
            .sum()
    }

    /// Enumerate as maximal contiguous word ranges (sorted, merged).
    pub fn word_ranges(&self) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        self.for_each_range(|r| runs.push(r));
        runs
    }

    /// Call `f` with every range of [`TriSection::word_ranges`], in
    /// order, without building the vector — unless the lower bound falls
    /// faster than the stride climbs, the one shape whose runs do not
    /// start in ascending order and have to be sorted.
    pub fn for_each_range(&self, f: impl FnMut(Range<usize>)) {
        let runs = self.outer.clone().map(|i| {
            let b = i * self.stride;
            b + self.lo.eval(i)..b + self.hi.eval(i)
        });
        if self.stride as i64 + self.lo.coef >= 0 {
            merged(|run| runs.for_each(run), f);
        } else {
            merge_ranges(runs.collect()).into_iter().for_each(f);
        }
    }
}

/// The part of `within` on which `base + coef * i` is positive.
fn where_positive(base: i64, coef: i64, within: Range<i64>) -> Range<i64> {
    match coef {
        0 if base > 0 => within,
        0 => within.start..within.start,
        // i > -base / coef
        c if c > 0 => within.start.max((-base).div_euclid(c) + 1)..within.end,
        // i < base / -coef
        c => within.start..within.end.min(-(-base).div_euclid(-c)),
    }
}

/// Sort and merge overlapping or adjacent ranges (in place: the result
/// reuses the argument's buffer).
pub fn merge_ranges(mut runs: Vec<Range<usize>>) -> Vec<Range<usize>> {
    runs.retain(|r| r.start < r.end);
    // Which of two runs with one start comes first does not matter: the
    // merged run ends at the larger end either way.
    runs.sort_unstable_by_key(|r| r.start);
    runs.dedup_by(|next, run| {
        let joins = next.start <= run.end;
        if joins {
            run.end = run.end.max(next.end);
        }
        joins
    });
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The in-order walk and the sorting path enumerate the same
        /// ranges, whether or not the dimensions nest (small strides
        /// under wide inner dimensions, non-unit innermost strides,
        /// empty dimensions).
        #[test]
        fn section_walk_equals_the_sorting_reference(
            dims in prop::collection::vec((0usize..4, 0usize..5, 1usize..12), 1..4),
        ) {
            let s = Section {
                dims: dims
                    .iter()
                    .map(|&(lo, len, stride)| Dim { lo, hi: lo + len, stride })
                    .collect(),
            };
            let want = if s.is_empty() { Vec::new() } else { s.sorted_ranges() };
            prop_assert_eq!(s.word_ranges(), want);
        }

        /// A triangular section enumerates the merge of its per-index
        /// runs and knows in O(1) whether there are any — rising and
        /// falling bounds, bounds clamped at zero, runs that overlap
        /// their neighbours or start below them.
        #[test]
        fn triangular_walk_and_emptiness_equal_the_per_index_reference(
            outer in (0usize..6, 0usize..8),
            stride in 0usize..12,
            lo in (0u8..30, 0u8..9),
            hi in (0u8..30, 0u8..9),
        ) {
            let bound = |(base, coef): (u8, u8)| AffineBound::affine(base as i64 - 8, coef as i64 - 4);
            let t = TriSection {
                outer: outer.0..outer.0 + outer.1,
                stride,
                lo: bound(lo),
                hi: bound(hi),
            };
            let runs = t.outer.clone().map(|i| {
                let b = i * t.stride;
                b + t.lo.eval(i)..b + t.hi.eval(i)
            });
            prop_assert_eq!(t.word_ranges(), merge_ranges(runs.collect()));
            prop_assert_eq!(t.is_empty(), t.words() == 0);
        }
    }

    #[test]
    fn contiguous_range_is_one_run() {
        assert_eq!(Section::range(5..12).word_ranges(), vec![5..12]);
        assert_eq!(Section::range(5..12).words(), 7);
        assert!(Section::range(5..5).is_empty());
        assert!(Section::range(5..5).word_ranges().is_empty());
    }

    #[test]
    fn full_columns_coalesce_into_one_run() {
        // Columns 2..5 of a 10-row array are contiguous in column-major
        // layout: the enumeration must merge them.
        assert_eq!(Section::cols(2..5, 10).word_ranges(), vec![20..50]);
    }

    #[test]
    fn strided_interior_stays_fragmented() {
        // Rows 1..4 of columns 0..3 (10 rows): three runs of three.
        let s = Section {
            dims: vec![
                Dim {
                    lo: 0,
                    hi: 3,
                    stride: 10,
                },
                Dim {
                    lo: 1,
                    hi: 4,
                    stride: 1,
                },
            ],
        };
        assert_eq!(s.word_ranges(), vec![1..4, 11..14, 21..24]);
        assert_eq!(s.words(), 9);
    }

    #[test]
    fn strided_helper_matches_manual_dims() {
        let s = Section::strided(2..4, 100, 10..20);
        assert_eq!(s.word_ranges(), vec![210..220, 310..320]);
    }

    #[test]
    fn non_unit_innermost_stride_enumerates_single_words() {
        let s = Section {
            dims: vec![Dim {
                lo: 0,
                hi: 3,
                stride: 4,
            }],
        };
        assert_eq!(s.word_ranges(), vec![0..1, 4..5, 8..9]);
    }

    #[test]
    fn merge_handles_overlap_and_adjacency() {
        assert_eq!(
            merge_ranges(vec![8..10, 0..4, 4..6, 5..9, 20..20]),
            vec![0..10]
        );
    }

    #[test]
    fn triangular_shrinking_upper_bound() {
        // For i in 0..3: words i*10 + (0 .. 6 - 2i): a lower-left triangle.
        let t = TriSection {
            outer: 0..3,
            stride: 10,
            lo: AffineBound::constant(0),
            hi: AffineBound::affine(6, -2),
        };
        assert_eq!(t.word_ranges(), vec![0..6, 10..14, 20..22]);
        assert_eq!(t.words(), 12);
        assert!(!t.is_empty());
    }

    #[test]
    fn triangular_growing_lower_bound() {
        // For i in 0..4: words i*4 + (i .. 4): the strict upper triangle of
        // a 4x4 column-major matrix, column i rows i..4.
        let t = TriSection {
            outer: 0..4,
            stride: 4,
            lo: AffineBound::affine(0, 1),
            hi: AffineBound::constant(4),
        };
        assert_eq!(t.word_ranges(), vec![0..4, 5..8, 10..12, 15..16]);
        assert_eq!(t.words(), 10);
    }

    #[test]
    fn triangular_empty_inner_ranges_drop_out() {
        let t = TriSection {
            outer: 0..5,
            stride: 8,
            lo: AffineBound::constant(0),
            hi: AffineBound::affine(2, -1), // empty from i = 2 on
        };
        assert_eq!(t.word_ranges(), vec![0..2, 8..9]);
        let empty = TriSection {
            outer: 3..3,
            stride: 8,
            lo: AffineBound::constant(0),
            hi: AffineBound::constant(4),
        };
        assert!(empty.is_empty());
        assert!(empty.word_ranges().is_empty());
    }

    #[test]
    fn cyclic_cols_partition_exactly() {
        // Columns 3..17 over 4 nodes, 10-word columns of which words 2..7
        // are touched: every column owned exactly once, by j % 4.
        let (stride, inner) = (10usize, 2..7);
        let mut seen = vec![0u32; 17 * stride];
        for me in 0..4 {
            let t = TriSection::cyclic_cols(3..17, me, 4, stride, inner.clone());
            for r in t.word_ranges() {
                for w in r {
                    seen[w] += 1;
                }
            }
        }
        for j in 3..17 {
            for i in 0..stride {
                let expect = u32::from(inner.contains(&i));
                assert_eq!(seen[j * stride + i], expect, "col {j} word {i}");
            }
        }
        // A node with no column in range contributes nothing.
        assert!(TriSection::cyclic_cols(5..6, 2, 4, 10, 0..10).is_empty());
    }
}
