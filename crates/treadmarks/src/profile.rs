//! Sharing-pattern profiles: per-page and per-lock contention counters.
//!
//! These are the §5 diagnostics of the paper made machine-readable: the
//! per-application discussions attribute DSM slowdown to *named* pages
//! (Shallow's boundary columns, IGrid's interface planes) and *named*
//! locks, not to aggregate message counts. The profiles are host-side
//! bookkeeping only — they never touch the simulated wire or any
//! virtual clock, so enabling them changes no simulated observable.
//!
//! Counters are recorded per node while the protocol runs and merged
//! cluster-wide by the harness: event counters (faults, diffs, waits)
//! **add**, while writer-set statistics **max** (every node integrates
//! every write notice, so each node's view of a page's writer set is
//! already near-global).

/// Per-page sharing profile of one node (merge for the cluster view).
#[derive(Debug, Clone, Default)]
pub struct PageProfile {
    /// Access faults taken on the page (read or write).
    pub faults: u64,
    /// HLRC whole-page fetches requested for the page.
    pub page_fetches: u64,
    /// Diffs materialized (LRC freeze or HLRC flush range) for the page.
    pub diffs_created: u64,
    /// Words covered by those diffs.
    pub diff_words_created: u64,
    /// Remote diff ranges applied to the local frame.
    pub diffs_applied: u64,
    /// Distinct writers observed over the whole run (bit per node id;
    /// ids ≥ 64 saturate into bit 63 — the paper's machine has 8).
    pub writer_mask: u64,
    /// Max distinct writers observed within one epoch — the
    /// multi-writer indicator: > 1 means concurrent writers shared the
    /// page inside a synchronization interval (false sharing when their
    /// word ranges are disjoint; see [`crate::race`]).
    pub max_epoch_writers: u32,
}

impl PageProfile {
    /// True while nothing was ever recorded for the page (every
    /// recording site bumps one of these).
    pub(crate) fn is_untouched(&self) -> bool {
        self.faults == 0
            && self.page_fetches == 0
            && self.diffs_created == 0
            && self.diffs_applied == 0
            && self.writer_mask == 0
    }

    /// Distinct writers over the whole run.
    pub fn writers(&self) -> u32 {
        self.writer_mask.count_ones()
    }

    /// Fold `other` (same page, another node) into `self`.
    pub fn merge(&mut self, other: &PageProfile) {
        self.faults += other.faults;
        self.page_fetches += other.page_fetches;
        self.diffs_created += other.diffs_created;
        self.diff_words_created += other.diff_words_created;
        self.diffs_applied += other.diffs_applied;
        self.writer_mask |= other.writer_mask;
        self.max_epoch_writers = self.max_epoch_writers.max(other.max_epoch_writers);
    }
}

/// The writer statistics of one page while the run is in progress.
///
/// Recorded for every write notice a node integrates — once per page per
/// interval, whether or not the node ever touches the page — so the
/// windows live in a dense array of their own beside the notice
/// watermarks ([`crate::state::NoticeTable`]), not in the page rows, and
/// [`WriterWindow::fold_into`] hands them to the [`PageProfile`] when
/// the run ends.
#[derive(Debug, Clone, Default)]
pub(crate) struct WriterWindow {
    /// See [`PageProfile::writer_mask`].
    writer_mask: u64,
    /// Writers seen in the open epoch window.
    epoch_mask: u64,
    /// Epoch the open window belongs to.
    epoch_last: u64,
    /// See [`PageProfile::max_epoch_writers`] (closed windows only).
    max_epoch_writers: u32,
}

impl WriterWindow {
    /// Record that `writer` published writes to this page during local
    /// epoch `epoch` (a per-node epoch proxy: completed barriers+forks).
    #[inline]
    pub(crate) fn record(&mut self, writer: usize, epoch: u64) {
        let bit = 1u64 << writer.min(63);
        self.writer_mask |= bit;
        if epoch != self.epoch_last {
            self.roll_epoch();
            self.epoch_last = epoch;
        }
        self.epoch_mask |= bit;
    }

    fn roll_epoch(&mut self) {
        let w = self.epoch_mask.count_ones();
        if w > self.max_epoch_writers {
            self.max_epoch_writers = w;
        }
        self.epoch_mask = 0;
    }

    /// Close the open epoch window and write the page's writer
    /// statistics into `prof` (call once, when the run ends).
    pub(crate) fn fold_into(mut self, prof: &mut PageProfile) {
        self.roll_epoch();
        prof.writer_mask = self.writer_mask;
        prof.max_epoch_writers = self.max_epoch_writers;
    }
}

/// Per-lock contention profile of one node (merge for the cluster view).
#[derive(Debug, Clone, Default)]
pub struct LockProfile {
    /// Acquires performed by this node.
    pub acquires: u64,
    /// Acquires satisfied locally (token present, no messages).
    pub local_hits: u64,
    /// Virtual time the application spent blocked in `acquire`.
    pub wait_us: f64,
    /// Token handoffs to another node (queue grants at release plus
    /// immediate service-side handovers).
    pub handoffs: u64,
    /// Longest run of consecutive handoffs this node performed without
    /// the token resting locally — a serialization-chain indicator
    /// (per-node lower bound on the global chain).
    pub max_chain: u32,
    /// Current handoff run (internal).
    chain: u32,
}

impl LockProfile {
    /// Record a handoff to another node.
    pub(crate) fn record_handoff(&mut self) {
        self.handoffs += 1;
        self.chain += 1;
        if self.chain > self.max_chain {
            self.max_chain = self.chain;
        }
    }

    /// Record the token resting locally (local hit or self-grant).
    pub(crate) fn record_rest(&mut self) {
        self.chain = 0;
    }

    /// Fold `other` (same lock, another node) into `self`.
    pub fn merge(&mut self, other: &LockProfile) {
        self.acquires += other.acquires;
        self.local_hits += other.local_hits;
        self.wait_us += other.wait_us;
        self.handoffs += other.handoffs;
        self.max_chain = self.max_chain.max(other.max_chain);
    }
}

/// One node's sharing profile, sorted by page / lock id.
#[derive(Debug, Clone, Default)]
pub struct SharingProfile {
    /// Per-page profiles, ascending page id.
    pub pages: Vec<(usize, PageProfile)>,
    /// Per-lock profiles, ascending lock id.
    pub locks: Vec<(u32, LockProfile)>,
}

impl SharingProfile {
    /// Fold another node's profile into this cluster-wide view.
    pub fn merge_from(&mut self, other: &SharingProfile) {
        merge_sorted(&mut self.pages, &other.pages, PageProfile::merge);
        merge_sorted(&mut self.locks, &other.locks, LockProfile::merge);
    }

    /// The pages hottest first: most faults, then lowest page id.
    pub fn hottest_pages(&self) -> Vec<&(usize, PageProfile)> {
        let mut pages: Vec<_> = self.pages.iter().collect();
        pages.sort_by(|a, b| b.1.faults.cmp(&a.1.faults).then(a.0.cmp(&b.0)));
        pages
    }

    /// The lock with the most blocked virtual time, then the lowest lock
    /// id; `None` when no lock was used.
    pub fn hottest_lock(&self) -> Option<u32> {
        let hotter = |a: &&(u32, LockProfile), b: &&(u32, LockProfile)| {
            a.1.wait_us.total_cmp(&b.1.wait_us).then(b.0.cmp(&a.0))
        };
        self.locks.iter().max_by(hotter).map(|(lock, _)| *lock)
    }
}

fn merge_sorted<K: Ord + Copy, V: Clone>(
    into: &mut Vec<(K, V)>,
    from: &[(K, V)],
    merge: impl Fn(&mut V, &V),
) {
    for (k, v) in from {
        match into.binary_search_by_key(k, |e| e.0) {
            Ok(i) => merge(&mut into[i].1, v),
            Err(i) => into.insert(i, (*k, v.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_writer_window_rolls_per_epoch() {
        let mut w = WriterWindow::default();
        // Epoch 0: two concurrent writers; epoch 1: one.
        w.record(0, 0);
        w.record(3, 0);
        w.record(3, 1);
        // The open window only folds into the max when it closes.
        assert_eq!(w.max_epoch_writers, 2);
        let mut p = PageProfile::default();
        w.fold_into(&mut p);
        assert_eq!(p.max_epoch_writers, 2);
        assert_eq!(p.writers(), 2);
        assert_eq!(p.writer_mask, 0b1001);
    }

    #[test]
    fn lock_chain_resets_on_local_rest() {
        let mut l = LockProfile::default();
        l.record_handoff();
        l.record_handoff();
        l.record_rest();
        l.record_handoff();
        assert_eq!(l.handoffs, 3);
        assert_eq!(l.max_chain, 2);
    }

    #[test]
    fn merge_is_sum_for_events_and_max_for_writers() {
        let mut a = SharingProfile {
            pages: vec![(
                4,
                PageProfile {
                    faults: 2,
                    writer_mask: 0b01,
                    max_epoch_writers: 1,
                    ..Default::default()
                },
            )],
            locks: vec![(
                1,
                LockProfile {
                    acquires: 3,
                    ..Default::default()
                },
            )],
        };
        let b = SharingProfile {
            pages: vec![
                (
                    4,
                    PageProfile {
                        faults: 5,
                        writer_mask: 0b10,
                        max_epoch_writers: 2,
                        ..Default::default()
                    },
                ),
                (7, PageProfile::default()),
            ],
            locks: vec![(
                1,
                LockProfile {
                    acquires: 1,
                    wait_us: 10.0,
                    ..Default::default()
                },
            )],
        };
        a.merge_from(&b);
        assert_eq!(a.pages.len(), 2);
        let p4 = &a.pages[0].1;
        assert_eq!(p4.faults, 7);
        assert_eq!(p4.writers(), 2);
        assert_eq!(p4.max_epoch_writers, 2);
        assert_eq!(a.locks[0].1.acquires, 4);
        assert_eq!(a.locks[0].1.wait_us, 10.0);
    }

    #[test]
    fn hottest_sites_break_ties_to_the_lowest_id() {
        let page = |faults| PageProfile {
            faults,
            ..Default::default()
        };
        let lock = |wait_us| LockProfile {
            wait_us,
            ..Default::default()
        };
        let s = SharingProfile {
            pages: vec![(2, page(1)), (5, page(3)), (9, page(3))],
            locks: vec![(1, lock(2.0)), (4, lock(7.5)), (6, lock(7.5))],
        };
        let order: Vec<usize> = s.hottest_pages().iter().map(|(p, _)| *p).collect();
        assert_eq!(order, [5, 9, 2]);
        assert_eq!(s.hottest_lock(), Some(4));
        assert_eq!(SharingProfile::default().hottest_lock(), None);
    }
}
