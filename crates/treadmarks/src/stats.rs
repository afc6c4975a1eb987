//! DSM-level statistics (protocol actions rather than messages).

/// Per-node counters of DSM protocol actions. Network message counts live
/// in [`sp2sim::NetStats`]; these counters cover the shared-memory
/// machinery itself — the "overhead of detecting modifications" the paper
/// analyzes (twinning, diffing, page faults) plus synchronization events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Access faults taken (read faults on invalidated pages and write
    /// faults that created a twin).
    pub faults: u64,
    /// Twins created.
    pub twins: u64,
    /// Per-interval page diffs captured at releases.
    pub diffs_created: u64,
    /// Total modified words captured.
    pub diff_words_created: u64,
    /// Diff ranges applied from remote writers.
    pub diffs_applied: u64,
    /// Intervals created (releases with dirty pages).
    pub intervals_created: u64,
    /// Barriers completed.
    pub barriers: u64,
    /// Fork (parallel-loop dispatch) operations.
    pub forks: u64,
    /// Lock acquires performed.
    pub lock_acquires: u64,
    /// Pages pushed via the push extension.
    pub pages_pushed: u64,
    /// Views that overlapped a hole a meet push left (`crate::hole`) and
    /// faulted to fill it: a footprint that missed a word its loop reads.
    pub hole_faults: u64,
    /// Words the pushed ranges changed, over every LRC push of a range
    /// or its meet…
    pub push_words_changed: u64,
    /// …the words of them sent with their values…
    pub push_words_sent: u64,
    /// …and, over the meet pushes, the words the target's footprint
    /// reads on the pushed pages.
    pub push_words_read: u64,
    /// CRI aggregated-validate operations (one per hinted phase with at
    /// least one section).
    pub validates: u64,
    /// Pages made consistent through aggregated validates (would each
    /// have been a separate access fault without the hint).
    pub validate_pages: u64,
    /// CRI direct (tree-combined) reductions this node participated in
    /// (scalar sums and windowed ordered reductions alike).
    pub direct_reduces: u64,
    /// Inspector walks: evaluations of a dynamic (indirection-map)
    /// descriptor that missed the schedule cache and ran the walk.
    pub inspections: u64,
    /// Virtual microseconds spent in inspector walks (the amortized
    /// "inspector cost" column of the irregular-app experiments).
    pub inspect_us: u64,
    /// Schedule-cache hits: dynamic-descriptor evaluations served from
    /// the cached communication schedule at zero inspection cost.
    pub schedule_reuse: u64,
    /// HLRC: home-flush messages sent at releases/rendezvous (one per
    /// destination home with at least one fresh diff).
    pub home_flushes: u64,
    /// HLRC: page diffs eagerly flushed to their homes.
    pub home_flush_pages: u64,
    /// HLRC: whole pages fetched from their homes on access misses.
    pub page_fetches: u64,
    /// HLRC home-side: flushed ranges dropped because the home copy
    /// already buffered them (duplicate deliveries) — the stale-flush
    /// guard; re-applying a stale range during a later page construction
    /// would overwrite newer words with old values.
    pub stale_flush_drops: u64,
    /// HLRC home-side: buffered diff ranges folded into a promoted base
    /// and dropped because the rendezvous min-VC proved every node has
    /// passed them (home-copy pruning).
    pub home_ranges_pruned: u64,
    /// Malformed service requests (unknown opcodes). Non-zero means the
    /// node's service loop shut itself down defensively.
    pub service_errors: u64,
    /// The first unknown opcode the service loop rejected, if any —
    /// the value behind `service_errors`, kept so a sweep failure log
    /// can name the culprit. Merged across nodes with `or`: the first
    /// node (in merge order) that saw garbage wins.
    pub last_bad_opcode: Option<u64>,
    /// Scratch-arena hits: twin/page buffers served from the recycled
    /// pool instead of the allocator. At steady state (after the first
    /// epoch warms the pool) virtually every twin creation is a hit.
    pub arena_hits: u64,
    /// Scratch-arena misses: pool was empty, a fresh buffer was
    /// allocated. Bounded by the node's peak concurrently-live twins.
    pub arena_misses: u64,
    /// Peak bytes parked in the scratch arena — the arena's memory
    /// footprint. Merged across nodes with `max`, not sum.
    pub arena_peak_bytes: u64,
}

impl DsmStats {
    /// Elementwise sum, for aggregating across nodes.
    ///
    /// The exhaustive destructuring is deliberate: adding a counter to
    /// the struct without deciding how it aggregates fails to compile
    /// here, instead of silently not merging.
    pub fn merge(&mut self, other: &DsmStats) {
        let DsmStats {
            faults,
            twins,
            diffs_created,
            diff_words_created,
            diffs_applied,
            intervals_created,
            barriers,
            forks,
            lock_acquires,
            pages_pushed,
            hole_faults,
            push_words_changed,
            push_words_sent,
            push_words_read,
            validates,
            validate_pages,
            direct_reduces,
            inspections,
            inspect_us,
            schedule_reuse,
            home_flushes,
            home_flush_pages,
            page_fetches,
            stale_flush_drops,
            home_ranges_pruned,
            service_errors,
            last_bad_opcode,
            arena_hits,
            arena_misses,
            arena_peak_bytes,
        } = *other;
        self.faults += faults;
        self.twins += twins;
        self.diffs_created += diffs_created;
        self.diff_words_created += diff_words_created;
        self.diffs_applied += diffs_applied;
        self.intervals_created += intervals_created;
        self.barriers += barriers;
        self.forks += forks;
        self.lock_acquires += lock_acquires;
        self.pages_pushed += pages_pushed;
        self.hole_faults += hole_faults;
        self.push_words_changed += push_words_changed;
        self.push_words_sent += push_words_sent;
        self.push_words_read += push_words_read;
        self.validates += validates;
        self.validate_pages += validate_pages;
        self.direct_reduces += direct_reduces;
        self.inspections += inspections;
        self.inspect_us += inspect_us;
        self.schedule_reuse += schedule_reuse;
        self.home_flushes += home_flushes;
        self.home_flush_pages += home_flush_pages;
        self.page_fetches += page_fetches;
        self.stale_flush_drops += stale_flush_drops;
        self.home_ranges_pruned += home_ranges_pruned;
        self.service_errors += service_errors;
        self.last_bad_opcode = self.last_bad_opcode.or(last_bad_opcode);
        self.arena_hits += arena_hits;
        self.arena_misses += arena_misses;
        // A peak is a footprint, not a flow: take the worst node.
        self.arena_peak_bytes = self.arena_peak_bytes.max(arena_peak_bytes);
    }

    /// Sum a collection of per-node statistics.
    pub fn total<'a>(stats: impl IntoIterator<Item = &'a DsmStats>) -> DsmStats {
        let mut t = DsmStats::default();
        for s in stats {
            t.merge(s);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let a = DsmStats {
            faults: 1,
            twins: 2,
            barriers: 3,
            ..Default::default()
        };
        let b = DsmStats {
            faults: 10,
            lock_acquires: 5,
            ..Default::default()
        };
        let t = DsmStats::total([&a, &b]);
        assert_eq!(t.faults, 11);
        assert_eq!(t.twins, 2);
        assert_eq!(t.barriers, 3);
        assert_eq!(t.lock_acquires, 5);
    }

    #[test]
    fn arena_peak_merges_with_max() {
        let a = DsmStats {
            arena_hits: 10,
            arena_peak_bytes: 4096,
            ..Default::default()
        };
        let b = DsmStats {
            arena_hits: 5,
            arena_misses: 2,
            arena_peak_bytes: 8192,
            ..Default::default()
        };
        let t = DsmStats::total([&a, &b]);
        assert_eq!(t.arena_hits, 15);
        assert_eq!(t.arena_misses, 2);
        assert_eq!(t.arena_peak_bytes, 8192, "peak is a max, not a sum");
    }

    #[test]
    fn first_bad_opcode_wins_the_merge() {
        let clean = DsmStats::default();
        let a = DsmStats {
            service_errors: 1,
            last_bad_opcode: Some(0xBAAD),
            ..Default::default()
        };
        let b = DsmStats {
            service_errors: 1,
            last_bad_opcode: Some(0xF00D),
            ..Default::default()
        };
        let t = DsmStats::total([&clean, &a, &b]);
        assert_eq!(t.service_errors, 2);
        assert_eq!(t.last_bad_opcode, Some(0xBAAD));
    }
}
