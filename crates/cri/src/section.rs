//! Section descriptors: the words a loop touches, as word runs.
//!
//! A section describes the set of array elements a loop nest touches.
//! A parallelizing compiler (Forge SPF, the Rice compiler of Dwarkadas
//! et al.) derives it from subscript analysis of DO loops; an inspector
//! materializes it by walking a run-time indirection map. Either way the
//! runtime asks one thing of it — its maximal contiguous word ranges,
//! ascending, which `spf`'s hint engine turns into page runs for validates
//! and pushes — so a [`Section`] *is* that list, and each constructor
//! evaluates its shape once, when the descriptor is built, without
//! running the loop.

use std::ops::Range;

/// A set of word indices of one shared array, held as its maximal runs:
/// sorted, disjoint and non-adjacent, none empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    runs: Vec<Range<usize>>,
}

impl Section {
    /// The contiguous words `r`.
    pub fn range(r: Range<usize>) -> Section {
        Section::ascending([r])
    }

    /// The cyclic column set `{j ∈ cols : j ≡ me (mod np)}` of a matrix
    /// with `stride` words per column, each column contributing words
    /// `inner` — the per-node section of a cyclically scheduled loop, or,
    /// with `np = 1`, a strided one (a chunk of every plane). Runs that
    /// touch or overlap (a stride shorter than `inner`) join.
    pub fn cyclic_cols(
        cols: Range<usize>,
        me: usize,
        np: usize,
        stride: usize,
        inner: Range<usize>,
    ) -> Section {
        // First owned column at or after cols.start.
        let j0 = cols.start + (me + np - cols.start % np) % np;
        let owned = (j0..cols.end).step_by(np);
        Section::ascending(owned.map(|j| j * stride + inner.start..j * stride + inner.end))
    }

    /// Compact an unordered stream of touched word indices. Duplicates
    /// collapse; adjacent indices merge into runs.
    ///
    /// The stream is painted into a growable bitmap that is then scanned
    /// for runs of set bits, so nothing is stored per index and nothing
    /// is sorted: an inspector walk produces several indices per
    /// iteration (nine per IGrid stencil point), mostly duplicates of
    /// its neighbours'. Memory is one bit per word up to the largest
    /// index seen — 1/64 of the shared array the indices point into.
    pub fn from_indices(indices: impl IntoIterator<Item = usize>) -> Section {
        let mut bits: Vec<u64> = Vec::new();
        for i in indices {
            let w = i / 64;
            if w >= bits.len() {
                bits.resize((w + 1).max(2 * bits.len()), 0);
            }
            bits[w] |= 1 << (i % 64);
        }
        Section {
            runs: runs_of_set_bits(&bits),
        }
    }

    /// [`Section::from_indices`] for a walk that meets its indices a few
    /// neighbours at a time (the three row segments of a stencil point):
    /// the same section as the spans' indices one by one would give,
    /// painted a span at a time.
    pub fn from_spans(spans: impl IntoIterator<Item = Range<usize>>) -> Section {
        let mut bits: Vec<u64> = Vec::new();
        for r in spans.into_iter().filter(|r| r.start < r.end) {
            let (first, last) = (r.start / 64, (r.end - 1) / 64);
            if last >= bits.len() {
                bits.resize((last + 1).max(2 * bits.len()), 0);
            }
            let from_start = !0u64 << (r.start % 64);
            let to_end = !0u64 >> (63 - (r.end - 1) % 64);
            if first == last {
                bits[first] |= from_start & to_end;
            } else {
                bits[first] |= from_start;
                bits[first + 1..last].fill(!0);
                bits[last] |= to_end;
            }
        }
        Section {
            runs: runs_of_set_bits(&bits),
        }
    }

    /// The runs of ranges whose starts never decrease: empty ones
    /// dropped, overlapping and adjacent ones joined.
    fn ascending(ranges: impl IntoIterator<Item = Range<usize>>) -> Section {
        let ranges = ranges.into_iter();
        let mut runs: Vec<Range<usize>> = Vec::with_capacity(ranges.size_hint().0);
        for r in ranges.filter(|r| r.start < r.end) {
            match runs.last_mut() {
                Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
                _ => runs.push(r),
            }
        }
        Section { runs }
    }

    /// The sorted maximal runs.
    pub fn runs(&self) -> &[Range<usize>] {
        &self.runs
    }

    /// True when no words are described.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

/// The maximal runs of set bits of a bitmap, ascending (bit `i` of word
/// `w` stands for index `64 w + i`).
fn runs_of_set_bits(bits: &[u64]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    // Start of the run of set bits still open at the scan position.
    let mut open: Option<usize> = None;
    for (w, &word) in bits.iter().enumerate() {
        let base = w * 64;
        let mut pos = 0;
        while pos < 64 {
            let rest = word >> pos;
            match open {
                None if rest == 0 => break,
                None => {
                    pos += rest.trailing_zeros();
                    open = Some(base + pos as usize);
                }
                Some(start) => {
                    pos += rest.trailing_ones();
                    if pos < 64 {
                        runs.push(start..base + pos as usize);
                        open = None;
                    }
                }
            }
        }
    }
    if let Some(start) = open {
        runs.push(start..bits.len() * 64);
    }
    runs
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

/// Add run `r` to the sorted, disjoint, non-adjacent `runs`, joining
/// what it meets or abuts.
pub fn insert(runs: &mut Vec<Range<usize>>, r: Range<usize>) {
    if r.is_empty() {
        return;
    }
    let (i, j) = (
        runs.partition_point(|x| x.end < r.start),
        runs.partition_point(|x| x.start <= r.end),
    );
    if i == j {
        runs.insert(i, r);
    } else {
        runs[i] = runs[i].start.min(r.start)..runs[j - 1].end.max(r.end);
        runs.drain(i + 1..j);
    }
}

/// Call `f` with every run of the words of `a` in no run of `b` (both
/// sorted and disjoint), ascending.
pub fn for_each_difference(
    a: &[Range<usize>],
    b: &[Range<usize>],
    mut f: impl FnMut(Range<usize>),
) {
    let mut j = 0;
    for run in a {
        let mut start = run.start;
        j += b[j..].partition_point(|cut| cut.end <= start);
        // A cut may reach into the next run too: `j` stays on it.
        for cut in b[j..].iter().take_while(|cut| cut.start < run.end) {
            if cut.start > start {
                f(start..cut.start);
            }
            start = start.max(cut.end);
        }
        if start < run.end {
            f(start..run.end);
        }
    }
}

/// The words of sorted, disjoint runs `a` in no run of `b`, as runs;
/// `a` itself when `b` is empty.
pub fn subtract(a: Vec<Range<usize>>, b: &[Range<usize>]) -> Vec<Range<usize>> {
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len());
    for_each_difference(&a, b, |r| out.push(r));
    out
}

/// Call `f` with every run two ascending lists of disjoint runs share,
/// ascending: a two-pointer sweep.
pub fn for_each_overlap(
    a: impl IntoIterator<Item = Range<usize>>,
    b: impl IntoIterator<Item = Range<usize>>,
    mut f: impl FnMut(Range<usize>),
) {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        let (run, a_ends_first) = (x.start.max(y.start)..x.end.min(y.end), x.end <= y.end);
        if run.start < run.end {
            f(run);
        }
        // Step past whichever run ends first.
        if a_ends_first {
            a.next();
        } else {
            b.next();
        }
    }
}

/// Whether every word of run `r` is in a run of `runs` (sorted and
/// disjoint).
pub fn contains(runs: &[Range<usize>], r: &Range<usize>) -> bool {
    let mut outside = false;
    for_each_difference(std::slice::from_ref(r), runs, |_| outside = true);
    !outside
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use proptest::prelude::*;

    /// The maximal runs of a set of words, by brute force.
    fn maximal_runs(words: &BTreeSet<usize>) -> Vec<Range<usize>> {
        let mut runs: Vec<Range<usize>> = Vec::new();
        for &w in words {
            match runs.last_mut() {
                Some(r) if r.end == w => r.end += 1,
                _ => runs.push(w..w + 1),
            }
        }
        runs
    }

    /// `s` holds exactly the maximal runs of `words`, and knows whether
    /// there are any.
    fn assert_describes(s: &Section, words: BTreeSet<usize>) {
        assert_eq!(s.runs(), maximal_runs(&words), "{words:?}");
        assert_eq!(s.is_empty(), words.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every constructor yields the maximal runs of the words its
        /// definition names: reversed and empty ranges, strides shorter
        /// than the inner run (and zero), empty column or inner ranges,
        /// cyclic column sets whose columns touch (`np = 1`, `inner =
        /// 0..stride`), unordered and overlapping spans in either order,
        /// duplicate indices across bitmap-word boundaries.
        #[test]
        fn every_constructor_yields_the_maximal_runs_of_its_words(
            bounds in (0usize..40, 0usize..40, 0usize..12),
            inner in (0usize..12, 0usize..12),
            cyclic in (0usize..5, 1usize..5, 0usize..3),
            spans in prop::collection::vec((0usize..300, 0usize..80), 0..12),
        ) {
            let (lo, hi, stride) = bounds;
            let inner = inner.0..inner.1;
            let words = |r: Range<usize>| r.collect::<BTreeSet<_>>();

            assert_describes(&Section::range(lo..hi), words(lo..hi));

            // `touching` makes every column's inner range the whole column.
            let (me, np, touching) = cyclic;
            let me = me % np;
            let inner = if touching == 0 { 0..stride } else { inner };
            let cols = lo..hi;
            let cyclic = cols
                .clone()
                .filter(|j| j % np == me)
                .flat_map(|j| words(j * stride + inner.start..j * stride + inner.end));
            assert_describes(&Section::cyclic_cols(cols, me, np, stride, inner.clone()), cyclic.collect());

            let spans: Vec<Range<usize>> = spans.iter().map(|&(at, len)| at..at + len).collect();
            let painted: BTreeSet<usize> = spans.iter().cloned().flatten().collect();
            assert_describes(&Section::from_spans(spans.iter().cloned()), painted.clone());
            assert_describes(&Section::from_spans(spans.iter().rev().cloned()), painted.clone());
            let indices = spans.iter().flat_map(|r| r.clone().rev().chain(r.clone()));
            assert_describes(&Section::from_indices(indices), painted);
        }
    }

    #[test]
    fn constructors_on_known_shapes() {
        assert_eq!(Section::range(5..12).runs(), vec![5..12]);
        assert!(Section::range(5..5).is_empty());
        // Rows 1..4 of columns 0..3 (10 rows): three runs of three.
        assert_eq!(
            Section::cyclic_cols(0..3, 0, 1, 10, 1..4).runs(),
            [1..4, 11..14, 21..24]
        );
        // Whole columns are contiguous in column-major layout.
        assert_eq!(
            Section::cyclic_cols(2..5, 0, 1, 10, 0..10).runs(),
            vec![20..50]
        );
        assert_eq!(
            Section::cyclic_cols(0..4, 1, 2, 10, 0..10).runs(),
            [10..20, 30..40]
        );
        // A node with no column in range contributes nothing.
        assert!(Section::cyclic_cols(5..6, 2, 4, 10, 0..10).is_empty());
        let d = Section::from_indices((60..200).chain([63, 64, 255, 256, 257]));
        assert_eq!(d.runs(), [60..200, 255..258]);
        // A run ending exactly at the last bit of the bitmap.
        assert_eq!(
            Section::from_indices([127, 126, 0]).runs(),
            [0..1, 126..128]
        );
    }

    #[test]
    fn merge_handles_overlap_and_adjacency() {
        assert_eq!(
            merge_ranges(vec![8..10, 0..4, 4..6, 5..9, 20..20]),
            vec![0..10]
        );
    }
}
