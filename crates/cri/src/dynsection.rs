//! Dynamic section descriptors (the inspector/executor data format).
//!
//! A [`DynSection`] is what an inspector loop produces when it walks a
//! run-time indirection map: the set of touched word indices, compacted
//! into sorted run-length ranges. Unlike a [`Section`] it has no
//! algebraic structure — it is the *materialized* access set — but it
//! enumerates through the same `word_ranges` interface, so the hint
//! engine's validate/push/home-placement machinery consumes both
//! uniformly through [`SectionSet`].

use std::ops::Range;

use crate::section::{merge_ranges, Section, TriSection};

/// A dynamic section: sorted, merged word-index runs — the run-length
/// compacted image of an indirection map walk.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DynSection {
    runs: Vec<Range<usize>>,
}

impl DynSection {
    /// Compact an unordered stream of touched word indices. Duplicates
    /// collapse; adjacent indices merge into runs.
    ///
    /// The stream is painted into a growable bitmap that is then scanned
    /// for runs of set bits, so nothing is stored per index and nothing
    /// is sorted: an inspector walk produces several indices per
    /// iteration (nine per IGrid stencil point), mostly duplicates of
    /// its neighbours'. Memory is one bit per word up to the largest
    /// index seen — 1/64 of the shared array the indices point into.
    pub fn from_indices(indices: impl IntoIterator<Item = usize>) -> DynSection {
        let mut bits: Vec<u64> = Vec::new();
        for i in indices {
            let w = i / 64;
            if w >= bits.len() {
                bits.resize((w + 1).max(2 * bits.len()), 0);
            }
            bits[w] |= 1 << (i % 64);
        }
        DynSection {
            runs: runs_of_set_bits(&bits),
        }
    }

    /// [`DynSection::from_indices`] for a walk that meets its indices a
    /// few neighbours at a time (the three row segments of a stencil
    /// point): the same section as the spans' indices one by one would
    /// give, painted a span at a time.
    pub fn from_spans(spans: impl IntoIterator<Item = Range<usize>>) -> DynSection {
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
        DynSection {
            runs: runs_of_set_bits(&bits),
        }
    }

    /// The previous implementation — one unit range per index, sorted
    /// and merged — kept as the reference the bitmap walk is tested
    /// against.
    #[cfg(test)]
    fn from_indices_reference(indices: impl IntoIterator<Item = usize>) -> DynSection {
        DynSection {
            runs: merge_ranges(indices.into_iter().map(|i| i..i + 1).collect()),
        }
    }

    /// Compact a set of (possibly overlapping, unordered) runs.
    pub fn from_runs(runs: Vec<Range<usize>>) -> DynSection {
        DynSection {
            runs: merge_ranges(runs),
        }
    }

    /// The sorted maximal runs.
    pub fn runs(&self) -> &[Range<usize>] {
        &self.runs
    }

    /// True when no words are described.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of words described.
    pub fn words(&self) -> usize {
        self.runs.iter().map(|r| r.end - r.start).sum()
    }

    /// Enumerate as maximal contiguous word ranges (already canonical).
    pub fn word_ranges(&self) -> Vec<Range<usize>> {
        self.runs.clone()
    }

    /// Merge another section's words into this one — dynamic and
    /// rectangular descriptors compose (an inspector result unioned with
    /// the regular part the compiler *could* describe).
    pub fn union(&mut self, other: &SectionSet) {
        let mut runs = std::mem::take(&mut self.runs);
        other.for_each_range(|r| runs.push(r));
        self.runs = merge_ranges(runs);
    }
}

impl From<&Section> for DynSection {
    fn from(s: &Section) -> DynSection {
        DynSection {
            runs: s.word_ranges(),
        }
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

/// Any of the three descriptor shapes a loop access can carry: the
/// compiler's rectangular [`Section`], its triangular extension
/// [`TriSection`], or an inspector-materialized [`DynSection`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SectionSet {
    /// Regular (rectangular strided) section.
    Regular(Section),
    /// Triangular section (inner bounds affine in the outer index).
    Tri(TriSection),
    /// Dynamic section (inspector-materialized run list).
    Dyn(DynSection),
}

impl SectionSet {
    /// True when no words are described.
    pub fn is_empty(&self) -> bool {
        match self {
            SectionSet::Regular(s) => s.is_empty(),
            SectionSet::Tri(s) => s.is_empty(),
            SectionSet::Dyn(s) => s.is_empty(),
        }
    }

    /// Number of words described.
    pub fn words(&self) -> usize {
        match self {
            SectionSet::Regular(s) => s.words(),
            SectionSet::Tri(s) => s.words(),
            SectionSet::Dyn(s) => s.words(),
        }
    }

    /// Enumerate as maximal contiguous word ranges (sorted, merged).
    pub fn word_ranges(&self) -> Vec<Range<usize>> {
        match self {
            SectionSet::Regular(s) => s.word_ranges(),
            SectionSet::Tri(s) => s.word_ranges(),
            SectionSet::Dyn(s) => s.word_ranges(),
        }
    }

    /// Call `f` with every range of [`SectionSet::word_ranges`], in
    /// order, without building the vector: what the hint engine's page-run
    /// construction iterates.
    pub fn for_each_range(&self, f: impl FnMut(Range<usize>)) {
        match self {
            SectionSet::Regular(s) => s.for_each_range(f),
            SectionSet::Tri(s) => s.for_each_range(f),
            SectionSet::Dyn(s) => s.runs().iter().cloned().for_each(f),
        }
    }
}

impl From<Section> for SectionSet {
    fn from(s: Section) -> SectionSet {
        SectionSet::Regular(s)
    }
}

impl From<TriSection> for SectionSet {
    fn from(s: TriSection) -> SectionSet {
        SectionSet::Tri(s)
    }
}

impl From<DynSection> for SectionSet {
    fn from(s: DynSection) -> SectionSet {
        SectionSet::Dyn(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn indices_compact_into_runs() {
        let d = DynSection::from_indices([9, 3, 4, 5, 4, 10, 100]);
        assert_eq!(d.runs(), &[3..6, 9..11, 100..101]);
        assert_eq!(d.words(), 6);
        assert!(!d.is_empty());
        assert!(DynSection::from_indices([]).is_empty());
    }

    #[test]
    fn runs_cross_bitmap_word_boundaries() {
        let d = DynSection::from_indices((60..200).chain([63, 64, 255, 256, 257]));
        assert_eq!(d.runs(), &[60..200, 255..258]);
        // A run ending exactly at the last bit of the bitmap.
        let d = DynSection::from_indices([127, 126, 0]);
        assert_eq!(d.runs(), &[0..1, 126..128]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The bitmap walk returns the canonical run list of the
        /// sort-and-merge reference on random index streams: duplicates,
        /// descending stretches, dense clusters, sparse outliers, empty.
        #[test]
        fn bitmap_walk_equals_the_sorting_reference(
            clusters in prop::collection::vec((0usize..5000, 1usize..40, 0usize..3), 0..12),
            sparse in prop::collection::vec(0usize..200_000, 0..6),
        ) {
            let mut stream: Vec<usize> = Vec::new();
            for &(base, len, shape) in &clusters {
                match shape {
                    0 => stream.extend(base..base + len),
                    1 => stream.extend((base..base + len).rev()),
                    _ => stream.extend((base..base + len).flat_map(|i| [i, i])),
                }
            }
            stream.extend(&sparse);
            let got = DynSection::from_indices(stream.iter().copied());
            let want = DynSection::from_indices_reference(stream.iter().copied());
            prop_assert_eq!(got.runs(), want.runs());
            prop_assert_eq!(got.words(), want.words());
        }

        /// Painting spans gives the section of their indices one by one:
        /// spans inside a bitmap word, across one boundary, over whole
        /// words, empty, overlapping.
        #[test]
        fn painted_spans_equal_their_indices(
            spans in prop::collection::vec((0usize..3000, 0usize..200), 0..20),
        ) {
            let spans: Vec<Range<usize>> = spans.iter().map(|&(lo, len)| lo..lo + len).collect();
            let got = DynSection::from_spans(spans.iter().cloned());
            let want = DynSection::from_indices(spans.iter().cloned().flatten());
            prop_assert_eq!(got.runs(), want.runs());
        }
    }

    #[test]
    fn union_merges_with_regular_sections() {
        let mut d = DynSection::from_indices([0, 1, 2]);
        d.union(&Section::range(3..10).into());
        assert_eq!(d.word_ranges(), vec![0..10]);
    }

    #[test]
    fn section_set_dispatches_enumeration() {
        let reg: SectionSet = Section::range(5..8).into();
        assert_eq!(reg.word_ranges(), vec![5..8]);
        assert_eq!(reg.words(), 3);
        let dy: SectionSet = DynSection::from_indices([1, 7]).into();
        assert_eq!(dy.word_ranges(), vec![1..2, 7..8]);
        let tri: SectionSet = TriSection::cyclic_cols(0..4, 1, 2, 10, 0..10).into();
        assert_eq!(tri.word_ranges(), vec![10..20, 30..40]);
        assert!(!tri.is_empty());
    }

    #[test]
    fn dyn_from_section_matches_its_ranges() {
        let s = Section::strided(0..3, 10, 2..5);
        let d = DynSection::from(&s);
        assert_eq!(d.word_ranges(), s.word_ranges());
    }
}
