//! Diffs: run-length encodings of page modifications.
//!
//! A diff is produced by comparing a page word-by-word against its twin
//! (the copy saved before the first modification). TreadMarks created
//! byte-granularity runs; all shared data in this reproduction is 64-bit
//! words, so runs are word-granular — the same encoding at the granularity
//! the applications actually write.
//!
//! The in-memory form **is** the wire form: one shared buffer
//! `[nruns, (start << 32 | len), words…, (start << 32 | len), words…]`
//! that [`Diff::create`] builds, [`Diff::encode`] appends to a message
//! as is, [`Diff::decode`] copies back out of one, and [`Diff::apply`]
//! walks. Cloning a diff — into a response, a home copy, a push — is a
//! reference-count bump.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use sp2sim::{WordReader, WordWriter};

/// A run-length encoding of the modifications made to one page: runs of
/// consecutive modified words in increasing `start` order, non-adjacent.
#[derive(Clone, Debug, PartialEq)]
pub struct Diff {
    /// The wire encoding. Always well formed: `enc[0]` run headers
    /// follow, each with its `len` data words, and nothing else.
    enc: Arc<[u64]>,
}

impl Default for Diff {
    /// The empty diff (`[0]`): one process-wide buffer, so an unchanged
    /// page allocates nothing.
    fn default() -> Diff {
        static EMPTY: OnceLock<Diff> = OnceLock::new();
        EMPTY
            .get_or_init(|| Diff {
                enc: Arc::from([0u64]),
            })
            .clone()
    }
}

thread_local! {
    /// Where [`Diff::create`] builds an encoding before it knows its
    /// size; the finished diff is one exact-size copy of it.
    static SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn header(start: usize, len: usize) -> u64 {
    (start as u64) << 32 | len as u64
}

/// The next run of changed words at or after word `from`, as
/// `start..end`.
///
/// The scan is chunked: 8-word blocks are XOR-accumulated so fully
/// unchanged blocks (the common case when comparing a page against its
/// twin) are skipped with one branch, and fully changed blocks extend
/// the run without per-word branching. The blocks come from
/// `chunks_exact` over equal-length slices, which is what lets the
/// compiler drop the bounds checks and vectorize the block bodies
/// (indexing `old[i + k]` cost four times as much on an unchanged page).
fn next_run(old: &[u64], new: &[u64], from: usize) -> Option<Range<usize>> {
    const BLOCK: usize = 8;
    let n = new.len().min(old.len());
    let (old, new) = (&old[..n], &new[..n]);
    let blocks = |i: usize| {
        old[i..]
            .chunks_exact(BLOCK)
            .zip(new[i..].chunks_exact(BLOCK))
    };
    let mut i = from;
    // Skip unchanged blocks: OR together the XOR of each pair; zero
    // means the whole block matches.
    for (a, b) in blocks(i) {
        let mut acc = 0u64;
        for k in 0..BLOCK {
            acc |= a[k] ^ b[k];
        }
        if acc != 0 {
            break;
        }
        i += BLOCK;
    }
    // Word-wise skip through the partially changed block (or tail).
    while i < n && old[i] == new[i] {
        i += 1;
    }
    if i >= n {
        return None;
    }
    let start = i;
    // Extend the run a block at a time while every word differs.
    for (a, b) in blocks(i) {
        let mut all = true;
        for k in 0..BLOCK {
            all &= a[k] != b[k];
        }
        if !all {
            break;
        }
        i += BLOCK;
    }
    while i < n && old[i] != new[i] {
        i += 1;
    }
    Some(start..i)
}

impl Diff {
    /// Compare `new` against its twin `old` and encode the changed words.
    ///
    /// Both slices must be the same length (one page). The run structure
    /// produced by the chunked scan ([`next_run`]) is identical to a
    /// word-by-word scan — disjoint, ordered, non-adjacent runs — which
    /// the property tests below pin.
    pub fn create(old: &[u64], new: &[u64]) -> Diff {
        debug_assert_eq!(old.len(), new.len());
        let Some(first) = next_run(old, new, 0) else {
            return Diff::default();
        };
        SCRATCH.with_borrow_mut(|enc| {
            enc.clear();
            enc.push(0); // the run count, known at the end
            let mut next = Some(first);
            while let Some(run) = next {
                enc[0] += 1;
                enc.push(header(run.start, run.len()));
                enc.extend_from_slice(&new[run.clone()]);
                next = next_run(old, new, run.end);
            }
            Diff {
                enc: Arc::from(&enc[..]),
            }
        })
    }

    /// The runs, in order: `(start, new values)`.
    fn runs(&self) -> impl Iterator<Item = (usize, &[u64])> {
        let mut rest = &self.enc[1..];
        std::iter::from_fn(move || {
            let (&header, tail) = rest.split_first()?;
            let (words, tail) = tail.split_at((header & 0xFFFF_FFFF) as usize);
            rest = tail;
            Some(((header >> 32) as usize, words))
        })
    }

    /// Apply the diff to a page buffer.
    pub fn apply(&self, page: &mut [u64]) {
        for (start, words) in self.runs() {
            page[start..start + words.len()].copy_from_slice(words);
        }
    }

    /// Total number of modified words.
    pub fn changed_words(&self) -> usize {
        self.enc.len() - 1 - self.enc[0] as usize
    }

    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.enc[0] == 0
    }

    /// Ascending page-relative indices of every modified word — the
    /// per-word write provenance the race detector records at each flush
    /// (see `crate::race`).
    pub fn changed_positions(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.changed_words());
        for (start, words) in self.runs() {
            out.extend(start as u32..(start + words.len()) as u32);
        }
        out
    }

    /// Size of the wire encoding in words: one count word plus, per run,
    /// a header word and the data words.
    pub fn encoded_words(&self) -> usize {
        self.enc.len()
    }

    /// Serialize into a word stream. The encoding packs `(start, len)`
    /// into the run header word.
    pub fn encode(&self, w: &mut WordWriter) {
        w.put_raw(&self.enc);
    }

    /// Inverse of [`Diff::encode`]. The encoding says where it ends only
    /// through its headers, so the decoder hops them on a second cursor
    /// — every hop bounds-checked against the message, so a truncated or
    /// lying payload panics there like any over-read — and then takes
    /// the measured words in one piece.
    pub fn decode(r: &mut WordReader) -> Diff {
        let mut ahead = r.clone();
        let nruns = ahead.get();
        for _ in 0..nruns {
            let len = (ahead.get() & 0xFFFF_FFFF) as usize;
            ahead.take(len);
        }
        let enc = r.take(r.remaining() - ahead.remaining());
        if nruns == 0 {
            return Diff::default();
        }
        Diff {
            enc: Arc::from(enc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The representation this module had before the flat buffer — a
    /// vector of runs, each owning its words, built, serialized and
    /// parsed a run and a word at a time. Kept as the reference the
    /// flat [`Diff`] must agree with word for word.
    mod reference {
        use sp2sim::{WordReader, WordWriter};

        #[derive(Clone, Debug, PartialEq)]
        pub struct Run {
            pub start: u32,
            pub words: Vec<u64>,
        }

        #[derive(Clone, Debug, PartialEq, Default)]
        pub struct RunDiff {
            pub runs: Vec<Run>,
        }

        impl RunDiff {
            /// Plain word-by-word scan.
            pub fn create(old: &[u64], new: &[u64]) -> RunDiff {
                let mut runs = Vec::new();
                let mut i = 0;
                while i < new.len() {
                    if old[i] == new[i] {
                        i += 1;
                        continue;
                    }
                    let start = i;
                    while i < new.len() && old[i] != new[i] {
                        i += 1;
                    }
                    runs.push(Run {
                        start: start as u32,
                        words: new[start..i].to_vec(),
                    });
                }
                RunDiff { runs }
            }

            pub fn apply(&self, page: &mut [u64]) {
                for run in &self.runs {
                    let s = run.start as usize;
                    page[s..s + run.words.len()].copy_from_slice(&run.words);
                }
            }

            pub fn changed_words(&self) -> usize {
                self.runs.iter().map(|r| r.words.len()).sum()
            }

            pub fn changed_positions(&self) -> Vec<u32> {
                let mut out = Vec::new();
                for run in &self.runs {
                    out.extend(run.start..run.start + run.words.len() as u32);
                }
                out
            }

            pub fn encode(&self, w: &mut WordWriter) {
                w.put_usize(self.runs.len());
                for run in &self.runs {
                    w.put((run.start as u64) << 32 | run.words.len() as u64);
                    for &x in &run.words {
                        w.put(x);
                    }
                }
            }

            pub fn decode(r: &mut WordReader) -> RunDiff {
                let nruns = r.get_usize();
                let mut runs = Vec::new();
                for _ in 0..nruns {
                    let header = r.get();
                    let start = (header >> 32) as u32;
                    let len = (header & 0xFFFF_FFFF) as usize;
                    let mut words = Vec::with_capacity(len);
                    for _ in 0..len {
                        words.push(r.get());
                    }
                    runs.push(Run { start, words });
                }
                RunDiff { runs }
            }
        }
    }
    use reference::RunDiff;

    fn encoded(d: &Diff) -> Vec<u64> {
        let mut w = WordWriter::new();
        d.encode(&mut w);
        w.finish()
    }

    /// Everything the flat diff must share with the reference for one
    /// `(old, new)` pair.
    fn assert_matches_reference(old: &[u64], new: &[u64]) {
        let d = Diff::create(old, new);
        let want = RunDiff::create(old, new);
        let mut w = WordWriter::new();
        want.encode(&mut w);
        let stream = w.finish();
        assert_eq!(encoded(&d), stream, "identical word stream");
        assert_eq!(d.encoded_words(), stream.len());
        assert_eq!(d.changed_words(), want.changed_words());
        assert_eq!(d.changed_positions(), want.changed_positions());
        assert_eq!(d.is_empty(), want.runs.is_empty());
        // Either decoder reads the other's stream; decode(encode(d)) == d.
        let mut r = WordReader::new(&stream);
        assert_eq!(Diff::decode(&mut r), d);
        assert!(r.is_exhausted());
        assert_eq!(RunDiff::decode(&mut WordReader::new(&encoded(&d))), want);
        // And both turn `old` into `new`.
        let (mut a, mut b) = (old.to_vec(), old.to_vec());
        d.apply(&mut a);
        want.apply(&mut b);
        assert_eq!(a, new);
        assert_eq!(b, new);
    }

    #[test]
    fn create_apply_roundtrip_basic() {
        let old = vec![0u64; 16];
        let mut new = old.clone();
        new[3] = 7;
        new[4] = 8;
        new[10] = 9;
        let d = Diff::create(&old, &new);
        assert_eq!(d.runs().count(), 2);
        assert_eq!(d.changed_words(), 3);
        assert_eq!(d.changed_positions(), vec![3, 4, 10]);
        let mut page = old.clone();
        d.apply(&mut page);
        assert_eq!(page, new);
    }

    /// The encoding's exact words: a change to the wire format (and with
    /// it to every simulated byte count) must show up here.
    #[test]
    fn encoding_golden_vector() {
        let old = vec![0u64; 16];
        let mut new = old.clone();
        new[3] = 7;
        new[4] = 8;
        new[10] = 9;
        new[15] = 1;
        assert_eq!(
            encoded(&Diff::create(&old, &new)),
            vec![3, 3 << 32 | 2, 7, 8, 10 << 32 | 1, 9, 15 << 32 | 1, 1]
        );
        assert_eq!(encoded(&Diff::create(&old, &old)), vec![0]);
        assert_eq!(encoded(&Diff::default()), vec![0]);
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let p = vec![5u64; 8];
        let d = Diff::create(&p, &p);
        assert!(d.is_empty());
        assert_eq!(d.encoded_words(), 1);
        assert_eq!(d.changed_words(), 0);
        assert_eq!(d, Diff::default());
        assert!(
            Arc::ptr_eq(&d.enc, &Diff::default().enc),
            "every empty diff is the one shared buffer"
        );
    }

    #[test]
    fn full_page_diff() {
        let old = vec![0u64; 8];
        let new = vec![1u64; 8];
        let d = Diff::create(&old, &new);
        assert_eq!(d.runs().count(), 1);
        assert_eq!(d.changed_words(), 8);
        // 1 count + 1 header + 8 words.
        assert_eq!(d.encoded_words(), 10);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let old = vec![0u64; 32];
        let mut new = old.clone();
        for i in [0usize, 1, 5, 6, 7, 31] {
            new[i] = i as u64 + 100;
        }
        let d = Diff::create(&old, &new);
        let buf = encoded(&d);
        assert_eq!(buf.len(), d.encoded_words());
        let d2 = Diff::decode(&mut WordReader::new(&buf));
        assert_eq!(d, d2);
    }

    #[test]
    fn decode_consumes_exactly_one_diff() {
        let a = Diff::create(&[0, 0, 0], &[1, 0, 2]);
        let mut w = WordWriter::new();
        a.encode(&mut w);
        Diff::default().encode(&mut w);
        a.encode(&mut w);
        w.put(77);
        let buf = w.finish();
        let mut r = WordReader::new(&buf);
        assert_eq!(Diff::decode(&mut r), a);
        assert!(Diff::decode(&mut r).is_empty());
        assert_eq!(Diff::decode(&mut r), a);
        assert_eq!(r.get(), 77);
    }

    #[test]
    fn flat_diff_matches_reference_on_edge_shapes() {
        let page = 512;
        let old = vec![0u64; page];
        // Empty.
        assert_matches_reference(&old, &old);
        // One word.
        let mut one = old.clone();
        one[200] = 5;
        assert_matches_reference(&old, &one);
        // Full page.
        assert_matches_reference(&old, &vec![9u64; page]);
        // A run touching the last word.
        let mut tail = old.clone();
        for x in &mut tail[page - 11..] {
            *x = 3;
        }
        assert_matches_reference(&old, &tail);
        // 64 alternating runs.
        let mut alt = old.clone();
        for x in alt.iter_mut().step_by(2).take(64) {
            *x = 1;
        }
        assert_matches_reference(&old, &alt);
        assert_eq!(Diff::create(&old, &alt).runs().count(), 64);
        // A one-word page.
        assert_matches_reference(&[4], &[4]);
        assert_matches_reference(&[4], &[5]);
    }

    #[test]
    #[should_panic]
    fn decode_of_a_truncated_payload_panics() {
        let mut buf = encoded(&Diff::create(&[0; 8], &[0, 1, 1, 0, 0, 0, 2, 2]));
        buf.pop();
        Diff::decode(&mut WordReader::new(&buf));
    }

    #[test]
    #[should_panic]
    fn decode_of_a_run_length_past_the_message_panics() {
        // One run claiming five words; two follow.
        Diff::decode(&mut WordReader::new(&[1, 5, 11, 12]));
    }

    #[test]
    #[should_panic]
    fn decode_of_a_run_count_past_the_message_panics() {
        // Three runs claimed; the message ends after the first.
        Diff::decode(&mut WordReader::new(&[3, 2 << 32 | 1, 7]));
    }

    #[test]
    #[should_panic]
    fn reference_decoder_panics_on_the_same_truncation() {
        RunDiff::decode(&mut WordReader::new(&[1, 5, 11, 12]));
    }

    fn flipped(old: &[u64], flips: Vec<(usize, u64)>) -> Vec<u64> {
        let mut new = old.to_vec();
        for (i, v) in flips {
            let i = i % new.len();
            new[i] = new[i].wrapping_add(v);
        }
        new
    }

    proptest! {
        /// apply(create(old, new), old) == new, for arbitrary pages.
        #[test]
        fn prop_diff_roundtrip(
            old in prop::collection::vec(0u64..4, 1..128),
            flips in prop::collection::vec((0usize..128, 1u64..4), 0..64),
        ) {
            let new = flipped(&old, flips);
            let d = Diff::create(&old, &new);
            let mut page = old.clone();
            d.apply(&mut page);
            prop_assert_eq!(&page, &new);
            // Encoding round-trips too.
            let buf = encoded(&d);
            prop_assert_eq!(buf.len(), d.encoded_words());
            let d2 = Diff::decode(&mut WordReader::new(&buf));
            prop_assert_eq!(d, d2);
        }

        /// The flat diff and the run-by-run reference agree on the word
        /// stream, the counts, the positions and the result of `apply`.
        #[test]
        fn prop_flat_diff_matches_reference(
            old in prop::collection::vec(0u64..4, 1..600),
            flips in prop::collection::vec((0usize..600, 1u64..4), 0..200),
        ) {
            let new = flipped(&old, flips);
            assert_matches_reference(&old, &new);
        }

        /// The encoding never exceeds page size + 2 * runs + 1, and runs
        /// are disjoint, ordered, and non-adjacent.
        #[test]
        fn prop_diff_runs_canonical(
            old in prop::collection::vec(0u64..4, 1..128),
            flips in prop::collection::vec((0usize..128, 1u64..4), 0..64),
        ) {
            let new = flipped(&old, flips);
            let d = Diff::create(&old, &new);
            prop_assert!(d.changed_words() <= old.len());
            let mut prev_end: Option<usize> = None;
            for (start, words) in d.runs() {
                prop_assert!(!words.is_empty());
                if let Some(e) = prev_end {
                    // Non-adjacent: a gap of at least one unchanged word.
                    prop_assert!(start > e);
                }
                prev_end = Some(start + words.len());
            }
        }
    }
}
