//! The cost model: how virtual time is charged for communication and for
//! DSM protocol actions.
//!
//! The model is LogGP-flavoured. A message of `b` payload bytes sent at
//! sender time `t` behaves as follows:
//!
//! * the sender's clock advances by [`CostModel::send_overhead_us`]
//!   (processor occupancy of the send call);
//! * the packet arrives at `t + send_overhead + latency + b * per_byte_us`;
//! * when the receiver consumes the packet its clock becomes
//!   `max(own clock, arrival) + recv_overhead_us`.
//!
//! Protocol-service costs (page faults, twin creation, diff creation and
//! application) are charged by the DSM layer using the knobs defined here,
//! mirroring the overheads the paper lists for TreadMarks ("the overhead of
//! detecting modifications to shared memory (twinning, diffing, and page
//! faults)").
//!
//! The default numbers in [`CostModel::sp2`] are calibrated to mid-1990s
//! IBM SP/2 measurements with user-level MPL: tens of microseconds of
//! per-message software overhead, ~40 µs switch latency, and ~38 MB/s
//! sustained point-to-point bandwidth. Absolute values only set the scale of
//! reported times; the paper-shape comparisons are driven by counts.

/// Cost knobs for the simulated machine. All values are in microseconds
/// unless noted otherwise.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Sender CPU occupancy per message.
    pub send_overhead_us: f64,
    /// Receiver CPU occupancy per message.
    pub recv_overhead_us: f64,
    /// Wire/switch latency per message.
    pub latency_us: f64,
    /// Transfer cost per payload byte (inverse bandwidth).
    pub per_byte_us: f64,
    /// Fixed per-message header bytes counted against bandwidth and in the
    /// byte statistics (envelope, protocol header).
    pub header_bytes: usize,
    /// Time for the service processor to handle one protocol request
    /// (lookup + reply construction), excluding diff work priced below.
    pub service_us: f64,
    /// Cost of taking one access fault (the simulated mprotect/SIGSEGV
    /// round trip into the DSM library).
    pub page_fault_us: f64,
    /// Cost of creating a twin (copying one page).
    pub twin_us: f64,
    /// Fixed cost of diffing one page against its twin.
    pub diff_create_page_us: f64,
    /// Additional diff-creation cost per modified 64-bit word.
    pub diff_create_word_us: f64,
    /// Fixed cost of applying one diff to a page.
    pub diff_apply_page_us: f64,
    /// Additional diff-application cost per encoded 64-bit word.
    pub diff_apply_word_us: f64,
    /// Barrier/lock manager bookkeeping per handled message.
    pub manager_us: f64,
}

impl CostModel {
    /// Calibration for the paper's platform: an 8-node IBM SP/2 (thin
    /// nodes, AIX 3.2.5) with user-level MPL over the high-performance
    /// switch, running TreadMarks 0.10.1.
    pub fn sp2() -> CostModel {
        CostModel {
            send_overhead_us: 23.0,
            recv_overhead_us: 23.0,
            latency_us: 40.0,
            per_byte_us: 1.0 / 38.0, // ~38 MB/s
            header_bytes: 32,
            service_us: 15.0,
            page_fault_us: 60.0,
            twin_us: 28.0,
            diff_create_page_us: 30.0,
            diff_create_word_us: 0.012,
            diff_apply_page_us: 20.0,
            diff_apply_word_us: 0.010,
            manager_us: 8.0,
        }
    }

    /// A zero-cost model: useful in unit tests that only care about
    /// protocol correctness, not timing.
    pub fn free() -> CostModel {
        CostModel {
            send_overhead_us: 0.0,
            recv_overhead_us: 0.0,
            latency_us: 0.0,
            per_byte_us: 0.0,
            header_bytes: 0,
            service_us: 0.0,
            page_fault_us: 0.0,
            twin_us: 0.0,
            diff_create_page_us: 0.0,
            diff_create_word_us: 0.0,
            diff_apply_page_us: 0.0,
            diff_apply_word_us: 0.0,
            manager_us: 0.0,
        }
    }

    /// Sender-side occupancy of one message: fixed software overhead plus
    /// serialization of payload and header through the node's network
    /// interface. Successive messages from one endpoint serialize by this
    /// amount — the property that makes communication aggregation pay off,
    /// as the paper's hand optimizations demonstrate.
    #[inline]
    pub fn occupancy_us(&self, payload_bytes: usize) -> f64 {
        self.send_overhead_us + (payload_bytes + self.header_bytes) as f64 * self.per_byte_us
    }

    /// Cost of creating a diff with `changed_words` modified words.
    #[inline]
    pub fn diff_create_us(&self, changed_words: usize) -> f64 {
        self.diff_create_page_us + changed_words as f64 * self.diff_create_word_us
    }

    /// Cost of applying a diff with `encoded_words` words.
    #[inline]
    pub fn diff_apply_us(&self, encoded_words: usize) -> f64 {
        self.diff_apply_page_us + encoded_words as f64 * self.diff_apply_word_us
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::sp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_is_free() {
        let c = CostModel::free();
        assert_eq!(c.occupancy_us(123456), 0.0);
        assert_eq!(c.diff_create_us(100), 0.0);
        assert_eq!(c.diff_apply_us(100), 0.0);
    }

    #[test]
    fn diff_costs_scale_with_words() {
        let c = CostModel::sp2();
        assert!(c.diff_create_us(512) > c.diff_create_us(1));
        assert!(c.diff_apply_us(512) > c.diff_apply_us(1));
    }
}
