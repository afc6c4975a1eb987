//! Data-race detection over per-interval write provenance.
//!
//! The multiple-writer protocol is only correct for programs in which
//! **concurrent intervals write disjoint words**: diffs of concurrent
//! intervals are applied in an arbitrary linear extension of
//! happens-before, so two unordered writes to one word make the final
//! content an accident of (lamport, writer) tie-breaking — a data race.
//! The detector makes that contract checkable: with
//! [`crate::TmkConfig::detect_races`] on, every flush records the words
//! the closing interval wrote (the twin-vs-published delta, computed at
//! the release point) together with a vector-clock snapshot, and
//! [`detect`] flags every pair of intervals that touched the same word
//! of the same page while unordered under the vector-clock partial
//! order ([`crate::vc::intervals_concurrent`]).
//!
//! This is the coherent-DSM race model of Butelle & Coti: races are
//! defined on the *interval* (release-to-release epoch) granularity the
//! consistency protocol itself uses, not on raw memory accesses — reads
//! need no instrumentation because a read that observes an unordered
//! write is only possible when some write pair is itself unordered.
//!
//! Recording is host-side only: no message, clock advance or simulated
//! statistic changes whether detection is on or off (pinned by
//! `tests/race_detection.rs`), so the mode can run inside any existing
//! experiment. The analysis itself runs post-run, cluster-wide, on the
//! per-node logs collected through the apps' `NodeOut`.

use std::collections::BTreeMap;
use std::fmt;

use crate::page::PageId;
use crate::vc::{self, Vc};

/// Write provenance of one closed interval: which words of which pages
/// it wrote, and the creator's vector clock at the closing flush.
#[derive(Clone, Debug)]
pub struct IntervalWrites {
    /// Creating node.
    pub node: usize,
    /// Interval sequence number (`vc[node]` at creation).
    pub seq: u32,
    /// Lamport stamp of the interval.
    pub lamport: u64,
    /// The creator's vector clock when the interval closed.
    pub vc: Vc,
    /// Pages written, each with the ascending page-relative word indices
    /// this interval wrote.
    pub writes: Vec<(PageId, Vec<u32>)>,
}

/// One node's race-detection log: the provenance of every interval it
/// created. Collected per node and analyzed cluster-wide by [`detect`].
#[derive(Clone, Debug, Default)]
pub struct RaceLog {
    /// The recording node.
    pub node: usize,
    /// Provenance records, ascending by sequence number.
    pub intervals: Vec<IntervalWrites>,
}

/// One detected race: two concurrent intervals wrote the same word.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// The page both intervals wrote.
    pub page: PageId,
    /// First overlapping page-relative word index.
    pub word: u32,
    /// Total overlapping words of this interval pair on this page.
    pub words: u64,
    /// The two writers, ascending by node id.
    pub writers: (usize, usize),
    /// The racing interval sequence numbers, `(writers.0, writers.1)`.
    pub intervals: (u32, u32),
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "race: page {} word {} ({} word{}) writers {}#{} / {}#{}",
            self.page,
            self.word,
            self.words,
            if self.words == 1 { "" } else { "s" },
            self.writers.0,
            self.intervals.0,
            self.writers.1,
            self.intervals.1,
        )
    }
}

/// First element of the intersection of two ascending word lists, with
/// the intersection size.
fn overlap(a: &[u32], b: &[u32]) -> Option<(u32, u64)> {
    let (mut i, mut j) = (0, 0);
    let mut first = None;
    let mut count = 0u64;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                first.get_or_insert(a[i]);
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    first.map(|w| (w, count))
}

/// One interval's writes to one page: the interval and its words.
type PageWrites<'a> = (&'a IntervalWrites, &'a [u32]);

/// Hand `visit` every pair of intervals that wrote the same page while
/// concurrent under the vector-clock partial order, page by page in
/// ascending order, the lower node's interval first. An empty word list
/// cannot race and is skipped.
fn concurrent_pairs<'a>(
    logs: &'a [RaceLog],
    mut visit: impl FnMut(PageId, PageWrites<'a>, PageWrites<'a>),
) {
    let mut by_page: BTreeMap<PageId, Vec<PageWrites>> = BTreeMap::new();
    for log in logs {
        for iv in &log.intervals {
            debug_assert_eq!(iv.node, log.node, "log holds its own node's intervals");
            for (page, words) in iv.writes.iter().filter(|(_, w)| !w.is_empty()) {
                by_page.entry(*page).or_default().push((iv, words));
            }
        }
    }
    for (page, ivs) in by_page {
        for (i, &a) in ivs.iter().enumerate() {
            for &b in &ivs[i + 1..] {
                let (x, y) = (a.0, b.0);
                if vc::intervals_concurrent(x.node, x.seq, &x.vc, y.node, y.seq, &y.vc) {
                    let (lo, hi) = if x.node < y.node { (a, b) } else { (b, a) };
                    visit(page, lo, hi);
                }
            }
        }
    }
}

/// Analyze the cluster's per-node logs: report every pair of intervals
/// that wrote the same word of the same page while concurrent under the
/// vector-clock partial order. One report per `(page, writer pair,
/// interval pair)`, carrying the first overlapping word and the overlap
/// size; reports are sorted for deterministic output.
pub fn detect(logs: &[RaceLog]) -> Vec<RaceReport> {
    let mut out = Vec::new();
    concurrent_pairs(logs, |page, (a, aw), (b, bw)| {
        if let Some((word, words)) = overlap(aw, bw) {
            out.push(RaceReport {
                page,
                word,
                words,
                writers: (a.node, b.node),
                intervals: (a.seq, b.seq),
            });
        }
    });
    out.sort_by_key(|r| (r.page, r.word, r.writers, r.intervals));
    out
}

/// One false-sharing candidate: concurrent writers repeatedly shared a
/// page while writing **disjoint** word ranges — the multiple-writer
/// protocol's legal-but-expensive case. Every such interval pair costs
/// a diff exchange (LRC) or a flush + fetch (HLRC) that per-writer page
/// placement would have avoided; the paper's §5 attributes Shallow's
/// boundary-column traffic to exactly this pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FalseSharingReport {
    /// The shared page.
    pub page: PageId,
    /// The two writers, ascending by node id.
    pub writers: (usize, usize),
    /// Concurrent interval pairs of these writers on this page with
    /// disjoint word sets.
    pub pairs: u64,
    /// Words the first writer touched across those pairs (with
    /// multiplicity — a measure of diff traffic, not footprint).
    pub words_a: u64,
    /// Words the second writer touched across those pairs.
    pub words_b: u64,
}

impl fmt::Display for FalseSharingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "false sharing: page {} writers {}/{} ({} concurrent disjoint interval pair{}, {}+{} words)",
            self.page,
            self.writers.0,
            self.writers.1,
            self.pairs,
            if self.pairs == 1 { "" } else { "s" },
            self.words_a,
            self.words_b,
        )
    }
}

/// Analyze the cluster's per-node logs for **false sharing**: the exact
/// complement of [`detect`] over the same provenance — interval pairs
/// that are vector-clock concurrent on the same page but whose word
/// sets are *disjoint* (both non-empty). Aggregated per `(page, writer
/// pair)` and sorted by descending pair count (then page) so the top
/// entry names the strongest candidate.
pub fn detect_false_sharing(logs: &[RaceLog]) -> Vec<FalseSharingReport> {
    let mut agg: BTreeMap<(PageId, usize, usize), (u64, u64, u64)> = BTreeMap::new();
    concurrent_pairs(logs, |page, (a, aw), (b, bw)| {
        // Disjoint word sets; an overlap is a race, not false sharing.
        if overlap(aw, bw).is_none() {
            let e = agg.entry((page, a.node, b.node)).or_default();
            e.0 += 1;
            e.1 += aw.len() as u64;
            e.2 += bw.len() as u64;
        }
    });
    let mut out: Vec<FalseSharingReport> = agg
        .into_iter()
        .map(|((page, w1, w2), (pairs, wa, wb))| FalseSharingReport {
            page,
            writers: (w1, w2),
            pairs,
            words_a: wa,
            words_b: wb,
        })
        .collect();
    out.sort_by(|a, b| {
        b.pairs
            .cmp(&a.pairs)
            .then(a.page.cmp(&b.page))
            .then(a.writers.cmp(&b.writers))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(node: usize, seq: u32, vc: Vc, writes: Vec<(PageId, Vec<u32>)>) -> IntervalWrites {
        IntervalWrites {
            node,
            seq,
            lamport: seq as u64,
            vc,
            writes,
        }
    }

    #[test]
    fn concurrent_overlap_is_a_race() {
        let logs = [
            RaceLog {
                node: 0,
                intervals: vec![iv(0, 1, vec![1, 0], vec![(3, vec![5, 7])])],
            },
            RaceLog {
                node: 1,
                intervals: vec![iv(1, 1, vec![0, 1], vec![(3, vec![7, 9])])],
            },
        ];
        let r = detect(&logs);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].page, 3);
        assert_eq!(r[0].word, 7);
        assert_eq!(r[0].words, 1);
        assert_eq!(r[0].writers, (0, 1));
        assert_eq!(r[0].intervals, (1, 1));
    }

    #[test]
    fn ordered_overlap_is_not_a_race() {
        // Node 1's interval integrated node 0's first: same word, but
        // synchronized (e.g. handed over under a lock).
        let logs = [
            RaceLog {
                node: 0,
                intervals: vec![iv(0, 1, vec![1, 0], vec![(3, vec![5])])],
            },
            RaceLog {
                node: 1,
                intervals: vec![iv(1, 1, vec![1, 1], vec![(3, vec![5])])],
            },
        ];
        assert!(detect(&logs).is_empty());
    }

    #[test]
    fn concurrent_disjoint_words_are_fine() {
        // The multiple-writer protocol's legal case: concurrent writers
        // of one page touching different words.
        let logs = [
            RaceLog {
                node: 0,
                intervals: vec![iv(0, 1, vec![1, 0], vec![(3, vec![0, 1])])],
            },
            RaceLog {
                node: 1,
                intervals: vec![iv(1, 1, vec![0, 1], vec![(3, vec![2, 3])])],
            },
        ];
        assert!(detect(&logs).is_empty());
        // ... but it is exactly what the false-sharing detector flags.
        let fs = detect_false_sharing(&logs);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].page, 3);
        assert_eq!(fs[0].writers, (0, 1));
        assert_eq!(fs[0].pairs, 1);
        assert_eq!((fs[0].words_a, fs[0].words_b), (2, 2));
    }

    #[test]
    fn false_sharing_excludes_races_ordered_pairs_and_same_writer() {
        // A racing pair (overlap), an ordered pair, and two intervals of
        // one creator: none are false sharing.
        let logs = [
            RaceLog {
                node: 0,
                intervals: vec![
                    iv(0, 1, vec![1, 0], vec![(3, vec![5])]),
                    iv(0, 2, vec![2, 0], vec![(3, vec![6])]),
                ],
            },
            RaceLog {
                node: 1,
                // Saw both of node 0's intervals: ordered after them.
                intervals: vec![iv(1, 1, vec![2, 1], vec![(3, vec![7])])],
            },
        ];
        assert!(detect_false_sharing(&logs).is_empty());
    }

    #[test]
    fn false_sharing_aggregates_and_sorts_by_pair_count() {
        // Page 3: two concurrent disjoint pairs; page 9: one.
        let logs = [
            RaceLog {
                node: 0,
                intervals: vec![
                    iv(0, 1, vec![1, 0], vec![(3, vec![0]), (9, vec![0])]),
                    iv(0, 2, vec![2, 0], vec![(3, vec![1])]),
                ],
            },
            RaceLog {
                node: 1,
                intervals: vec![iv(1, 1, vec![0, 1], vec![(3, vec![4, 5]), (9, vec![2])])],
            },
        ];
        let fs = detect_false_sharing(&logs);
        assert_eq!(fs.len(), 2);
        assert_eq!((fs[0].page, fs[0].pairs), (3, 2));
        assert_eq!((fs[0].words_a, fs[0].words_b), (2, 4));
        assert_eq!((fs[1].page, fs[1].pairs), (9, 1));
        let shown = format!("{}", fs[0]);
        assert!(shown.contains("page 3 writers 0/1"), "{shown}");
    }

    #[test]
    fn same_creator_never_races_with_itself() {
        let logs = [RaceLog {
            node: 0,
            intervals: vec![
                iv(0, 1, vec![1, 0], vec![(3, vec![5])]),
                iv(0, 2, vec![2, 0], vec![(3, vec![5])]),
            ],
        }];
        assert!(detect(&logs).is_empty());
    }

    #[test]
    fn reports_are_sorted_and_count_overlap() {
        let logs = [
            RaceLog {
                node: 0,
                intervals: vec![iv(0, 1, vec![1, 0], vec![(1, vec![0, 1, 2]), (9, vec![4])])],
            },
            RaceLog {
                node: 1,
                intervals: vec![iv(1, 1, vec![0, 1], vec![(1, vec![1, 2]), (9, vec![4])])],
            },
        ];
        let r = detect(&logs);
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].page, r[0].word, r[0].words), (1, 1, 2));
        assert_eq!((r[1].page, r[1].word, r[1].words), (9, 4, 1));
        let shown = format!("{}", r[1]);
        assert!(shown.contains("page 9 word 4"), "{shown}");
        assert!(shown.contains("0#1 / 1#1"), "{shown}");
    }
}
