//! Holes: the words of a page a meet push left out.
//!
//! An LRC push of a page that names its target's words
//! ([`crate::dsm::Pushes::meet`]) carries the **meet**:
//! the words of the pusher's newest range that the target reads there,
//! with their values. The range's other changed words travel as bare run
//! headers. The target applies the meet and raises its watermark for the
//! pusher as for a whole range, and records each header-only run as a
//! **hole** tagged `(writer, seq)`: the words whose newest value is the
//! one range `seq` of `writer` holds for the page, which the frame does
//! not hold.
//!
//! * Any later diff or install that lands on a hole word clears that
//!   word: the newer value is in the frame.
//! * A view that overlaps a hole faults and fetches that writer's range
//!   from `seq` on, as a miss would, and fills only the hole words from
//!   the range `seq` ([`Holes::fill`]): the rest of the range is already
//!   applied, and newer diffs may lie on top of it.
//!
//! A footprint that misses a word therefore costs a fault and its
//! messages, never memory: once filled, the frame and its watermarks are
//! those a whole-range push would have left.

use std::ops::Range;

use crate::diff::Diff;

/// Words `words` of a page, whose newest value is range `seq` of
/// `writer`'s and which the frame does not hold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hole {
    /// The writer whose range holds the words.
    pub writer: usize,
    /// That range's last interval (its `hi`).
    pub seq: u32,
    /// Page-relative words.
    pub words: Range<usize>,
}

/// A page's holes: sorted by word, disjoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Holes(Vec<Hole>);

impl Holes {
    /// Is no word of the page a hole?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The holes that share a word with `words`, ascending.
    pub fn overlapping(&self, words: Range<usize>) -> impl Iterator<Item = &Hole> {
        let first = self.0.partition_point(|h| h.words.end <= words.start);
        let rest = self.0[first..].iter();
        rest.take_while(move |h| h.words.start < words.end)
    }

    /// Forget the words of `run`: a diff or an install landed there.
    pub fn clear(&mut self, run: Range<usize>) {
        if run.is_empty() {
            return;
        }
        let first = self.0.partition_point(|h| h.words.end <= run.start);
        let last = first + self.0[first..].partition_point(|h| h.words.start < run.end);
        if first == last {
            return;
        }
        // What sticks out of `run` on either side stays a hole.
        let head = self.0[first].clone();
        let tail = self.0[last - 1].clone();
        let left = Hole {
            words: head.words.start..run.start,
            ..head
        };
        let right = Hole {
            words: run.end..tail.words.end,
            ..tail
        };
        self.0.drain(first..last);
        for kept in [right, left].into_iter().filter(|h| !h.words.is_empty()) {
            self.0.insert(first, kept);
        }
    }

    /// Record `run` as a hole of range `seq` of `writer`, in place of
    /// whatever hole lay there.
    pub fn add(&mut self, writer: usize, seq: u32, run: Range<usize>) {
        if run.is_empty() {
            return;
        }
        self.clear(run.clone());
        let at = self.0.partition_point(|h| h.words.start < run.start);
        let hole = Hole {
            writer,
            seq,
            words: run,
        };
        self.0.insert(at, hole);
    }

    /// Fill the holes of range `seq` of `writer` from `diff`, that
    /// range: hand each word run of them that `diff` carries to `put` as
    /// `(start, values)` and forget it. Returns how many words were
    /// filled.
    pub fn fill(
        &mut self,
        writer: usize,
        seq: u32,
        diff: &Diff,
        mut put: impl FnMut(usize, &[u64]),
    ) -> usize {
        let mut filled = Vec::new();
        for hole in self.0.iter().filter(|h| (h.writer, h.seq) == (writer, seq)) {
            for (start, values) in diff.runs() {
                let (lo, hi) = (
                    start.max(hole.words.start),
                    (start + values.len()).min(hole.words.end),
                );
                if lo < hi {
                    put(lo, &values[lo - start..hi - start]);
                    filled.push(lo..hi);
                }
            }
        }
        let words = filled.iter().map(|r| r.len()).sum();
        filled.into_iter().for_each(|r| self.clear(r));
        words
    }
}

/// Unpack a hole run's wire header — a diff run's, `start << 32 | len`,
/// with no values behind it ([`Diff::encode_meet`]); the run must lie in
/// a page of `page_words` words.
pub(crate) fn run_of(header: u64, page_words: usize) -> Range<usize> {
    let (start, len) = ((header >> 32) as usize, (header & 0xFFFF_FFFF) as usize);
    assert!(
        start <= page_words && len <= page_words - start,
        "hole {start}+{len} out of bounds of the page"
    );
    start..start + len
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// The holes as one tag per word.
    fn by_word(h: &Holes) -> BTreeMap<usize, (usize, u32)> {
        let mut words = BTreeMap::new();
        for hole in &h.0 {
            words.extend(hole.words.clone().map(|w| (w, (hole.writer, hole.seq))));
        }
        words
    }

    #[test]
    fn clearing_splits_a_hole() {
        let mut h = Holes::default();
        h.add(1, 3, 4..12);
        h.clear(6..8);
        let runs: Vec<_> = h.0.iter().map(|h| h.words.clone()).collect();
        assert_eq!(runs, [4..6, 8..12]);
        assert_eq!(h.overlapping(5..9).count(), 2);
        assert_eq!(h.overlapping(6..8).count(), 0);
    }

    #[test]
    fn filling_takes_only_the_tagged_words_the_diff_carries() {
        let mut h = Holes::default();
        h.add(1, 3, 0..4);
        h.add(2, 5, 6..8);
        let diff = Diff::create(&[0; 8], &[0, 0, 7, 7, 7, 0, 0, 0]);
        let mut put = Vec::new();
        let n = h.fill(1, 3, &diff, |at, w| put.push((at, w.to_vec())));
        assert_eq!((n, put), (2, vec![(2, vec![7, 7])]));
        let left: Vec<_> = h.0.iter().map(|h| (h.writer, h.words.clone())).collect();
        assert_eq!(left, [(1, 0..2), (2, 6..8)]);
    }

    proptest! {
        /// Adds and clears against a plain map from word to tag.
        #[test]
        fn prop_holes_match_a_word_map(
            ops in prop::collection::vec((0usize..3, 0usize..40, 0usize..12, 0u32..4), 1..40),
        ) {
            let (mut h, mut model) = (Holes::default(), BTreeMap::new());
            for (op, start, len, seq) in ops {
                let run = start..start + len;
                match op {
                    0 => {
                        h.clear(run.clone());
                        run.for_each(|w| _ = model.remove(&w));
                    }
                    _ => {
                        h.add(op, seq, run.clone());
                        model.extend(run.map(|w| (w, (op, seq))));
                    }
                }
                prop_assert_eq!(&by_word(&h), &model);
                let sorted = h.0.windows(2).all(|p| p[0].words.end <= p[1].words.start);
                prop_assert!(sorted, "holes sorted and disjoint: {:?}", h);
            }
        }
    }
}
