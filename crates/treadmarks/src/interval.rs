//! Intervals and write notices.
//!
//! An **interval** is the unit of consistency information in lazy release
//! consistency: everything a node wrote between two releases. It carries
//! the creator, a per-creator sequence number, a Lamport stamp (a linear
//! extension of happens-before used to order diff application), and the
//! list of pages written — the **write notices**.

use sp2sim::{WordReader, WordWriter};

use crate::page::PageId;

/// One interval: node `node`'s writes culminating in its `seq`-th release.
#[derive(Clone, Debug, PartialEq)]
pub struct Interval {
    /// Creating node.
    pub node: usize,
    /// Per-creator sequence number (1-based; `vc[node] >= seq` means seen).
    pub seq: u32,
    /// Lamport stamp: any two ordered intervals have ordered stamps, so
    /// applying diffs in `(lamport, node)` order is a linear extension of
    /// happens-before. Concurrent intervals only ever write disjoint words
    /// (the multiple-writer guarantee), so their relative order is
    /// irrelevant.
    pub lamport: u64,
    /// Pages written during the interval (write notices).
    pub pages: Vec<PageId>,
}

impl Interval {
    /// Serialize into a word stream.
    pub fn encode(&self, w: &mut WordWriter) {
        w.put_usize(self.node);
        w.put(self.seq as u64);
        w.put(self.lamport);
        w.put_usize(self.pages.len());
        w.put_raw_usizes(&self.pages);
    }

    /// Inverse of [`Interval::encode`]. The page count is checked
    /// against the message (by [`WordReader::take`]) before it sizes the
    /// list: a corrupted count panics like any other over-read.
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

    /// Number of words [`Interval::encode`] produces.
    pub fn encoded_words(&self) -> usize {
        4 + self.pages.len()
    }
}

/// Encode a batch of intervals with a count prefix. Generic over the
/// element's ownership (`Interval` or `Arc<Interval>`): senders keep
/// their interval logs as `Arc`s, and encoding must not clone the page
/// lists just to borrow them.
pub fn encode_intervals<T: std::borrow::Borrow<Interval>>(w: &mut WordWriter, intervals: &[T]) {
    w.put_usize(intervals.len());
    for iv in intervals {
        iv.borrow().encode(w);
    }
}

/// Words [`encode_intervals`] produces (count prefix included).
pub fn intervals_words<T: std::borrow::Borrow<Interval>>(intervals: &[T]) -> usize {
    1 + intervals
        .iter()
        .map(|iv| iv.borrow().encoded_words())
        .sum::<usize>()
}

/// Inverse of [`encode_intervals`]. Panics, before allocating anything,
/// on a count the rest of the message cannot hold (an interval is at
/// least four words).
pub fn decode_intervals(r: &mut WordReader) -> Vec<Interval> {
    let n = r.get_usize();
    assert!(
        n <= r.remaining() / 4,
        "interval count {n} out of range for the {} words left",
        r.remaining()
    );
    (0..n).map(|_| Interval::decode(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_roundtrip() {
        let iv = Interval {
            node: 3,
            seq: 17,
            lamport: 99,
            pages: vec![1, 2, 40],
        };
        let mut w = WordWriter::new();
        iv.encode(&mut w);
        let buf = w.finish();
        assert_eq!(buf.len(), iv.encoded_words());
        let iv2 = Interval::decode(&mut WordReader::new(&buf));
        assert_eq!(iv, iv2);
    }

    #[test]
    fn batch_roundtrip() {
        let ivs = vec![
            Interval {
                node: 0,
                seq: 1,
                lamport: 1,
                pages: vec![],
            },
            Interval {
                node: 1,
                seq: 2,
                lamport: 5,
                pages: vec![9],
            },
        ];
        let mut w = WordWriter::new();
        encode_intervals(&mut w, &ivs);
        let buf = w.finish();
        let got = decode_intervals(&mut WordReader::new(&buf));
        assert_eq!(ivs, got);
        assert_eq!(buf.len(), intervals_words(&ivs));
    }

    /// An interval whose page count claims `npages`, with three pages
    /// actually behind it.
    fn interval_claiming(npages: u64) -> Vec<u64> {
        vec![0, 1, 1, npages, 10, 11, 12]
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lying_page_count_is_an_overread_not_an_allocation() {
        // 2^40 pages would be an 8 TB list if the count sized it.
        Interval::decode(&mut WordReader::new(&interval_claiming(1 << 40)));
    }

    #[test]
    #[should_panic(expected = "interval count")]
    fn lying_interval_count_is_rejected_before_any_allocation() {
        let mut buf = vec![1 << 40];
        buf.extend(interval_claiming(3));
        decode_intervals(&mut WordReader::new(&buf));
    }
}
