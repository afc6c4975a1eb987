//! Intervals and write notices.
//!
//! An **interval** is the unit of consistency information in lazy release
//! consistency: everything a node wrote between two releases. It carries
//! the creator, a per-creator sequence number, a Lamport stamp (a linear
//! extension of happens-before used to order diff application), and the
//! list of pages written — the **write notices**.
//!
//! An [`Interval`] is a **window**, not a copy: `(shared word buffer,
//! offset)` over its wire encoding `[node, seq, lamport, npages, pages…]`,
//! in one of [`crate::diff`]'s two buffer flavours. A node's own interval
//! is sealed once, at the release that creates it ([`Interval::seal`]);
//! everybody else's is read in the message that carried it
//! ([`Intervals::window`]) — an arrival at the manager, a departure or a
//! lock grant everywhere else — which the interval log then keeps alive:
//! a message with a new interval in it lives as long as the log does.
//! Encoding one is a copy of its words; decoding a batch checks every
//! count against the words left and allocates nothing (DESIGN.md, "An
//! interval is a window too").

use std::fmt;
use std::sync::Arc;

use sp2sim::{WordReader, WordWriter};

use crate::diff::{Landed, Words};
use crate::page::PageId;

/// Words before an interval's page list.
const HEAD: usize = 4;

/// One interval: a node's writes culminating in one of its releases, as
/// a window onto its wire words.
#[derive(Clone)]
pub struct Interval {
    words: Words,
    /// `words[off..]` starts with the interval's encoding, always whole:
    /// the four header words and the `npages` pages they announce.
    off: u32,
}

impl Interval {
    /// Node `node`'s `seq`-th interval, naming `pages` (ascending), in
    /// one exact-size buffer of its own.
    pub fn seal(node: usize, seq: u32, lamport: u64, pages: &[PageId]) -> Interval {
        let head = [node as u64, seq as u64, lamport, pages.len() as u64];
        let words: Arc<[u64]> = (head.into_iter())
            .chain(pages.iter().map(|&p| p as u64))
            .collect();
        Interval {
            words: Words::Sealed(words),
            off: 0,
        }
    }

    /// The wire encoding.
    pub fn words(&self) -> &[u64] {
        let enc = &self.words[self.off as usize..];
        &enc[..HEAD + enc[3] as usize]
    }

    /// Creating node.
    pub fn node(&self) -> usize {
        self.words()[0] as usize
    }

    /// Per-creator sequence number (1-based; `vc[node] >= seq` means seen).
    pub fn seq(&self) -> u32 {
        self.words()[1] as u32
    }

    /// Lamport stamp: any two ordered intervals have ordered stamps. A
    /// diff range carries its opening interval's stamp and spans no
    /// foreign notice, so applying ranges in `(lamport, node)` order
    /// extends happens-before (DESIGN.md, "The order diffs apply in").
    /// Concurrent intervals only ever write disjoint words, so their
    /// order is irrelevant.
    pub fn lamport(&self) -> u64 {
        self.words()[2]
    }

    /// Pages written during the interval (write notices), ascending, a
    /// wire word each.
    pub fn pages(&self) -> &[u64] {
        &self.words()[HEAD..]
    }

    /// How many windows and logs share the buffer this one looks into
    /// (`None`: a sealed buffer, shared with nobody's message).
    #[cfg(test)]
    pub(crate) fn message_refs(&self) -> Option<usize> {
        match &self.words {
            Words::Sealed(_) => None,
            Words::Landed(msg) => Some(msg.refs()),
        }
    }
}

/// Intervals are equal when their encodings are, whatever buffers hold
/// them.
impl PartialEq for Interval {
    fn eq(&self, other: &Interval) -> bool {
        self.words() == other.words()
    }
}

/// The window's own words, not the buffer around them.
impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interval")
            .field("node", &self.node())
            .field("seq", &self.seq())
            .field("lamport", &self.lamport())
            .field("pages", &self.pages())
            .finish()
    }
}

/// Encode a batch of intervals with a count prefix: one pass to count,
/// one to copy each interval's words.
pub fn encode_intervals<'a>(
    w: &mut WordWriter,
    intervals: impl Iterator<Item = &'a Interval> + Clone,
) {
    w.put_usize(intervals.clone().count());
    for iv in intervals {
        w.put_raw(iv.words());
    }
}

/// Words [`encode_intervals`] produces (count prefix included).
pub fn intervals_words<'a>(intervals: impl Iterator<Item = &'a Interval>) -> usize {
    1 + intervals.map(|iv| iv.words().len()).sum::<usize>()
}

/// A received batch of intervals, checked whole and then handed out as
/// windows onto the message it arrived in — the inverse of
/// [`encode_intervals`], without a copy or an allocation.
#[derive(Clone, Debug)]
pub struct Intervals {
    msg: Landed,
    /// Where the next interval starts in `msg`.
    off: usize,
    left: usize,
}

impl Intervals {
    /// The count-prefixed batch of `msg` that `r` stands before; `r` is
    /// stepped over it. Every count is held against the words left before
    /// anything relies on it: a batch count the rest of the message cannot
    /// hold (an interval is at least four words), a page count past the
    /// end or a truncated interval panics here like any other over-read.
    pub fn window(msg: &Landed, r: &mut WordReader) -> Intervals {
        let n = r.get_usize();
        assert!(
            n <= r.remaining() / HEAD,
            "interval count {n} out of range for the {} words left",
            r.remaining()
        );
        let off = msg.offset_of(r);
        for _ in 0..n {
            r.take(HEAD - 1);
            let npages = r.get_count(1);
            r.take(npages);
        }
        Intervals {
            msg: msg.clone(),
            off,
            left: n,
        }
    }
}

impl Iterator for Intervals {
    type Item = Interval;

    fn next(&mut self) -> Option<Interval> {
        self.left = self.left.checked_sub(1)?;
        let iv = Interval {
            words: Words::Landed(self.msg.clone()),
            off: self.off as u32,
        };
        self.off += iv.words().len();
        Some(iv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The representation this module had before the window — an owned
    /// struct with its own page vector, encoded and decoded a field at a
    /// time. Kept as the reference the window must agree with.
    mod reference {
        use sp2sim::{WordReader, WordWriter};

        #[derive(Clone, Debug, PartialEq)]
        pub struct Interval {
            pub node: usize,
            pub seq: u32,
            pub lamport: u64,
            pub pages: Vec<usize>,
        }

        impl Interval {
            pub fn encode(&self, w: &mut WordWriter) {
                w.put_usize(self.node);
                w.put(self.seq as u64);
                w.put(self.lamport);
                w.put_usize(self.pages.len());
                for &p in &self.pages {
                    w.put_usize(p);
                }
            }

            pub fn decode(r: &mut WordReader) -> Interval {
                let node = r.get_usize();
                let seq = r.get() as u32;
                let lamport = r.get();
                let npages = r.get_usize();
                let pages = r.take(npages).iter().map(|&p| p as usize).collect();
                Interval {
                    node,
                    seq,
                    lamport,
                    pages,
                }
            }
        }

        pub fn encode_intervals(w: &mut WordWriter, intervals: &[Interval]) {
            w.put_usize(intervals.len());
            for iv in intervals {
                iv.encode(w);
            }
        }

        pub fn decode_intervals(r: &mut WordReader) -> Vec<Interval> {
            let n = r.get_usize();
            (0..n).map(|_| Interval::decode(r)).collect()
        }
    }

    fn agrees(window: &Interval, owned: &reference::Interval) -> bool {
        window.node() == owned.node
            && window.seq() == owned.seq
            && window.lamport() == owned.lamport
            && window
                .pages()
                .iter()
                .map(|&p| p as usize)
                .eq(owned.pages.iter().copied())
    }

    /// The batch at the start of the message `buf`, as windows onto it.
    fn windows(buf: &[u64]) -> Vec<Interval> {
        let msg = Landed::new(buf.to_vec());
        let mut r = msg.reader();
        let ivs = Intervals::window(&msg, &mut r);
        assert!(r.is_exhausted());
        ivs.collect()
    }

    #[test]
    fn a_sealed_interval_is_its_wire_words() {
        let iv = Interval::seal(3, 17, 99, &[1, 2, 40]);
        assert_eq!(iv.words(), [3, 17, 99, 3, 1, 2, 40]);
        assert_eq!((iv.node(), iv.seq(), iv.lamport()), (3, 17, 99));
        assert_eq!(iv.pages(), [1, 2, 40]);
        assert_eq!(iv.message_refs(), None);
        let empty = Interval::seal(0, 1, 1, &[]);
        assert_eq!(empty.words(), [0, 1, 1, 0]);
        assert!(empty.pages().is_empty());
    }

    #[test]
    fn batch_roundtrip() {
        let ivs = [Interval::seal(0, 1, 1, &[]), Interval::seal(1, 2, 5, &[9])];
        let mut w = WordWriter::new();
        encode_intervals(&mut w, ivs.iter());
        let buf = w.finish();
        assert_eq!(buf, [2, 0, 1, 1, 0, 1, 2, 5, 1, 9]);
        assert_eq!(buf.len(), intervals_words(ivs.iter()));
        let got = windows(&buf);
        assert_eq!(got, ivs);
        // The windows look into one message, at their own offsets.
        assert_eq!((got[0].off, got[1].off), (1, 5));
        assert_eq!(got[0].message_refs(), Some(2));
    }

    /// A batch of one interval whose page count claims `npages`, with
    /// three pages actually behind it.
    fn interval_claiming(npages: u64) -> Vec<u64> {
        vec![1, 0, 1, 1, npages, 10, 11, 12]
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lying_page_count_is_an_overread_not_an_allocation() {
        // 2^40 pages would be an 8 TB list if the count sized one.
        windows(&interval_claiming(1 << 40));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_truncated_interval_is_an_overread() {
        windows(&interval_claiming(4));
    }

    #[test]
    #[should_panic(expected = "interval count")]
    fn lying_interval_count_is_rejected_before_any_allocation() {
        let mut buf = interval_claiming(3);
        buf[0] = 1 << 40;
        windows(&buf);
    }

    #[test]
    fn a_damaged_batch_hands_out_no_window() {
        // The second interval is cut short: the check fails before the
        // first could be integrated anywhere.
        let damaged = std::panic::catch_unwind(|| {
            let msg = Landed::new(vec![2, 0, 1, 1, 0, 1, 2, 5, 3, 9]);
            Intervals::window(&msg, &mut msg.reader())
        });
        assert!(damaged.is_err());
    }

    proptest! {
        /// Random batches: `encode → window decode → re-encode` gives the
        /// same words, the reference decoder reads them too, and window
        /// and owned interval agree field by field.
        #[test]
        fn prop_windows_match_the_owned_reference(
            batch in prop::collection::vec(
                (0usize..8, 1u32..1000, 0u64..1 << 40, prop::collection::vec(0usize..4096, 0..40)),
                0..12,
            ),
            lead in prop::collection::vec(0u64..9, 0..5),
        ) {
            let owned: Vec<reference::Interval> = batch
                .into_iter()
                .map(|(node, seq, lamport, mut pages)| {
                    pages.sort_unstable();
                    pages.dedup();
                    reference::Interval {
                        node,
                        seq,
                        lamport,
                        pages,
                    }
                })
                .collect();
            // The batch sits behind `lead` words of some other header.
            let mut w = WordWriter::new();
            w.put_raw(&lead);
            reference::encode_intervals(&mut w, &owned);
            let msg = Landed::new(w.finish());
            let mut r = msg.reader();
            r.take(lead.len());
            let got: Vec<Interval> = Intervals::window(&msg, &mut r).collect();
            prop_assert!(r.is_exhausted());
            prop_assert_eq!(got.len(), owned.len());
            for (window, owned) in got.iter().zip(&owned) {
                prop_assert!(agrees(window, owned), "{:?} vs {:?}", window, owned);
                let sealed = Interval::seal(owned.node, owned.seq, owned.lamport, &owned.pages);
                prop_assert_eq!(window, &sealed);
            }
            let mut again = WordWriter::new();
            again.put_raw(&lead);
            encode_intervals(&mut again, got.iter());
            let again = again.finish();
            prop_assert_eq!(again.len(), lead.len() + intervals_words(got.iter()));
            let mut r = WordReader::new(&again);
            r.take(lead.len());
            prop_assert_eq!(reference::decode_intervals(&mut r), owned);
            prop_assert_eq!(&again[..], msg.words());
        }
    }
}
