//! Global message statistics, the raw material for the paper's Tables 2
//! and 3 ("8-Processor Message Totals and Data Totals").
//!
//! Counters are per-cluster cells keyed by [`MsgKind`] (every fiber of a
//! cluster runs on one OS thread); additions are order-insensitive, so
//! the totals do not depend on the schedule. Local deliveries (a node
//! messaging itself, e.g. the barrier manager's own arrival) are *not*
//! counted, matching the paper's `2 x (n - 1)` message accounting for
//! barriers.

use std::cell::Cell;

/// Message categories. `Data` and the two `Diff*` kinds carry application
/// data; the rest is synchronization and control traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum MsgKind {
    /// Application payload (message-passing programs).
    Data = 0,
    /// Combined synchronization traffic of message-passing programs
    /// (barriers, handshakes).
    Sync = 1,
    /// DSM diff request.
    DiffReq = 2,
    /// DSM diff response (carries diffs — counted as data volume).
    DiffResp = 3,
    /// DSM lock request (to manager).
    LockReq = 4,
    /// DSM lock request forwarded manager -> holder.
    LockFwd = 5,
    /// DSM lock grant (carries write notices).
    LockGrant = 6,
    /// DSM barrier arrival (carries intervals).
    BarrierArrive = 7,
    /// DSM barrier departure (carries intervals, and loop-control variables
    /// under the improved fork-join interface of Section 2.3).
    BarrierDepart = 8,
    /// Pushed diffs (the Dwarkadas et al. "push" optimization).
    Push = 9,
    /// Broadcast page content (the hand-optimization of Section 5.3).
    Bcast = 10,
    /// Process management (startup/shutdown); excluded from totals.
    Control = 11,
    /// CRI aggregated-validate request: one round trip covering every
    /// page a compiler-described phase will touch.
    ValidateReq = 12,
    /// CRI aggregated-validate response (carries diffs — data volume).
    ValidateResp = 13,
    /// CRI direct-reduction partial, combined up a binomial tree.
    ReducePart = 14,
    /// CRI direct-reduction result, distributed down the tree.
    ReduceResult = 15,
    /// HLRC eager diff flush from a writer to a page's home node
    /// (carries diffs — counted as data volume).
    HomeFlush = 16,
    /// HLRC whole-page fetch request to a page's home node.
    PageReq = 17,
    /// HLRC whole-page fetch response (carries page content — data).
    PageResp = 18,
}

/// Number of `MsgKind` variants.
pub const NKINDS: usize = 19;

/// All message kinds, in discriminant order.
pub const ALL_KINDS: [MsgKind; NKINDS] = [
    MsgKind::Data,
    MsgKind::Sync,
    MsgKind::DiffReq,
    MsgKind::DiffResp,
    MsgKind::LockReq,
    MsgKind::LockFwd,
    MsgKind::LockGrant,
    MsgKind::BarrierArrive,
    MsgKind::BarrierDepart,
    MsgKind::Push,
    MsgKind::Bcast,
    MsgKind::Control,
    MsgKind::ValidateReq,
    MsgKind::ValidateResp,
    MsgKind::ReducePart,
    MsgKind::ReduceResult,
    MsgKind::HomeFlush,
    MsgKind::PageReq,
    MsgKind::PageResp,
];

impl MsgKind {
    /// True for categories that represent application data movement
    /// rather than synchronization.
    pub fn is_data(self) -> bool {
        // Reduction partials/results carry application values, like the
        // hand-coded versions' allreduce messages (MsgKind::Data): both
        // sides of the SPF+CRI vs message-passing comparison count them.
        matches!(
            self,
            MsgKind::Data
                | MsgKind::DiffResp
                | MsgKind::Push
                | MsgKind::Bcast
                | MsgKind::ValidateResp
                | MsgKind::ReducePart
                | MsgKind::ReduceResult
                | MsgKind::HomeFlush
                | MsgKind::PageResp
        )
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::Data => "data",
            MsgKind::Sync => "sync",
            MsgKind::DiffReq => "diff-req",
            MsgKind::DiffResp => "diff-resp",
            MsgKind::LockReq => "lock-req",
            MsgKind::LockFwd => "lock-fwd",
            MsgKind::LockGrant => "lock-grant",
            MsgKind::BarrierArrive => "barr-arr",
            MsgKind::BarrierDepart => "barr-dep",
            MsgKind::Push => "push",
            MsgKind::Bcast => "bcast",
            MsgKind::Control => "control",
            MsgKind::ValidateReq => "val-req",
            MsgKind::ValidateResp => "val-resp",
            MsgKind::ReducePart => "red-part",
            MsgKind::ReduceResult => "red-res",
            MsgKind::HomeFlush => "home-flush",
            MsgKind::PageReq => "page-req",
            MsgKind::PageResp => "page-resp",
        }
    }
}

/// Cluster-wide network counters for one cluster run.
#[derive(Default)]
pub struct NetStats {
    msgs: [Cell<u64>; NKINDS],
    bytes: [Cell<u64>; NKINDS],
}

impl NetStats {
    /// Fresh, zeroed counters.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Record one message of `kind` with `payload_bytes` of payload.
    #[inline]
    pub fn record(&self, kind: MsgKind, payload_bytes: usize) {
        let (msgs, bytes) = (&self.msgs[kind as usize], &self.bytes[kind as usize]);
        msgs.set(msgs.get() + 1);
        bytes.set(bytes.get() + payload_bytes as u64);
    }

    /// Copy of the counters. Callers are responsible for quiescing the
    /// cluster (e.g. via a rendezvous) if they need a cut that means
    /// something; totals-at-end are always exact.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            msgs: std::array::from_fn(|k| self.msgs[k].get()),
            bytes: std::array::from_fn(|k| self.bytes[k].get()),
        }
    }
}

/// A point-in-time copy of [`NetStats`], supporting subtraction so the
/// harness can report deltas over the timed region only (the paper excludes
/// startup iterations from its measurements).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Message counts by kind.
    pub msgs: [u64; NKINDS],
    /// Payload bytes by kind.
    pub bytes: [u64; NKINDS],
}

impl StatsSnapshot {
    /// Total messages across categories (excluding `Control`).
    pub fn total_messages(&self) -> u64 {
        ALL_KINDS
            .iter()
            .filter(|k| !matches!(k, MsgKind::Control))
            .map(|&k| self.msgs[k as usize])
            .sum()
    }

    /// Total payload bytes across categories (excluding `Control`).
    pub fn total_bytes(&self) -> u64 {
        ALL_KINDS
            .iter()
            .filter(|k| !matches!(k, MsgKind::Control))
            .map(|&k| self.bytes[k as usize])
            .sum()
    }

    /// Total payload kilobytes, rounded like the paper's tables.
    pub fn total_kbytes(&self) -> u64 {
        self.total_bytes() / 1024
    }

    /// Messages counted for a single kind.
    pub fn messages(&self, kind: MsgKind) -> u64 {
        self.msgs[kind as usize]
    }

    /// Bytes counted for a single kind.
    pub fn bytes_of(&self, kind: MsgKind) -> u64 {
        self.bytes[kind as usize]
    }

    /// Data-movement bytes (see [`MsgKind::is_data`]).
    pub fn data_bytes(&self) -> u64 {
        ALL_KINDS
            .iter()
            .filter(|k| k.is_data())
            .map(|&k| self.bytes[k as usize])
            .sum()
    }

    /// `self - earlier`, elementwise. Panics in debug builds if counters
    /// would go negative (snapshots taken out of order).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut d = StatsSnapshot::default();
        for k in 0..NKINDS {
            debug_assert!(self.msgs[k] >= earlier.msgs[k]);
            d.msgs[k] = self.msgs[k] - earlier.msgs[k];
            d.bytes[k] = self.bytes[k] - earlier.bytes[k];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let s = NetStats::new();
        s.record(MsgKind::Data, 100);
        s.record(MsgKind::Data, 50);
        s.record(MsgKind::Sync, 0);
        s.record(MsgKind::Control, 8);
        let snap = s.snapshot();
        assert_eq!(snap.messages(MsgKind::Data), 2);
        assert_eq!(snap.bytes_of(MsgKind::Data), 150);
        // Control traffic is excluded from the table totals.
        assert_eq!(snap.total_messages(), 3);
        assert_eq!(snap.total_bytes(), 150);
    }

    #[test]
    fn delta_subtracts() {
        let s = NetStats::new();
        s.record(MsgKind::DiffResp, 1024);
        let a = s.snapshot();
        s.record(MsgKind::DiffResp, 1024);
        s.record(MsgKind::DiffReq, 16);
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.messages(MsgKind::DiffResp), 1);
        assert_eq!(d.messages(MsgKind::DiffReq), 1);
        assert_eq!(d.total_bytes(), 1040);
    }

    #[test]
    fn data_kinds_classification() {
        assert!(MsgKind::Data.is_data());
        assert!(MsgKind::DiffResp.is_data());
        assert!(MsgKind::Push.is_data());
        assert!(!MsgKind::Sync.is_data());
        assert!(!MsgKind::BarrierArrive.is_data());
        assert!(!MsgKind::LockReq.is_data());
    }
}
