//! Packets: the unit of communication between simulated nodes.

use std::ops::Deref;
use std::sync::Arc;

use crate::stats::MsgKind;
use crate::time::VTime;

/// A packet's words. All shared data in this reproduction is
/// word-oriented (f64 bit patterns or integer-encoded metadata), which
/// keeps the payloads fully safe Rust while matching TreadMarks' word
/// granularity diffs.
///
/// A payload is either the packet's own — what every `Vec` send is, and
/// what a receiver gets back by value ([`Payload::into_vec`]) — or
/// shared with windows its sender keeps onto the message it built: a
/// receiver that keeps windows too takes the same buffer over
/// ([`Payload::into_shared`]), so the words exist once.
#[derive(Clone, Debug)]
pub enum Payload {
    /// Owned by the packet.
    Owned(Vec<u64>),
    /// Shared with the sender's windows onto it.
    Shared(Arc<Vec<u64>>),
}

impl Payload {
    /// The words as a vector of the caller's: the packet's own, moved; a
    /// shared buffer's, moved if nobody else holds it, else copied.
    pub fn into_vec(self) -> Vec<u64> {
        match self {
            Payload::Owned(words) => words,
            Payload::Shared(words) => Arc::unwrap_or_clone(words),
        }
    }

    /// The words as a shared buffer: an owned payload moves into one (the
    /// handle is allocated, the words are not copied), a shared one is
    /// handed over as it is.
    pub fn into_shared(self) -> Arc<Vec<u64>> {
        match self {
            Payload::Owned(words) => Arc::new(words),
            Payload::Shared(words) => words,
        }
    }
}

impl Deref for Payload {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Payload::Owned(words) => words,
            Payload::Shared(words) => words,
        }
    }
}

impl From<Vec<u64>> for Payload {
    fn from(words: Vec<u64>) -> Payload {
        Payload::Owned(words)
    }
}

/// Destination port on a node.
///
/// Each simulated node exposes two independent receive queues:
/// * [`Port::App`] — consumed by the application thread (data messages,
///   protocol *replies*, barrier departures, lock grants);
/// * [`Port::Service`] — consumed by the node's DSM service thread
///   (protocol *requests*: diff requests, lock requests, barrier arrivals).
///
/// This mirrors TreadMarks on AIX, where protocol requests were handled by
/// a SIGIO interrupt handler while the application thread was computing or
/// blocked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Port {
    /// The application thread's queue.
    App,
    /// The protocol service thread's queue.
    Service,
}

/// A message in flight (or delivered) between two nodes.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Sending node id.
    pub src: usize,
    /// Correlation id, unique across the run: the sending endpoint
    /// (node id and port) in the top bits, a per-endpoint counter
    /// starting at 1 in the low 40 bits. Simulator metadata like `src`
    /// — never on the simulated wire, never counted in `payload_bytes`.
    /// The trace layer stamps it into `Send`/`Recv` events so the
    /// critical-path analyzer can pair them across nodes.
    pub seq: u64,
    /// Application-defined tag used for matching.
    pub tag: u32,
    /// Category used for the message statistics (Tables 2 and 3).
    pub kind: MsgKind,
    /// Virtual time at which the packet is available at the receiver.
    pub arrival: VTime,
    /// Payload, in 64-bit words.
    pub payload: Payload,
}

impl Packet {
    /// Payload size in bytes (as counted by the statistics).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.payload.len() * 8
    }
}

/// Decode a correlation id back to its sending (node, port). The
/// critical-path analyzer uses this when a hop's `Send` event is absent
/// (self-sends record no event) to decide whose timeline to continue on.
#[inline]
pub fn seq_sender(seq: u64) -> (usize, Port) {
    let endpoint = seq >> 40;
    let port = if endpoint & 1 == 0 {
        Port::App
    } else {
        Port::Service
    };
    ((endpoint / 2) as usize, port)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_bytes_counts_words() {
        let p = Packet {
            src: 0,
            seq: 1,
            tag: 1,
            kind: MsgKind::Data,
            arrival: VTime::ZERO,
            payload: vec![1, 2, 3].into(),
        };
        assert_eq!(p.payload_bytes(), 24);
    }

    #[test]
    fn a_shared_payload_is_the_senders_buffer() {
        let words = Arc::new(vec![4, 5]);
        let shared = Payload::Shared(Arc::clone(&words));
        assert_eq!(*shared, [4, 5]);
        assert!(Arc::ptr_eq(&shared.clone().into_shared(), &words));
        // Held elsewhere too: the caller's vector is a copy.
        assert_eq!(shared.into_vec(), [4, 5]);
        let owned = Payload::from(vec![6]);
        let at = owned.as_ptr();
        assert_eq!(owned.into_shared().as_ptr(), at, "moved, not copied");
    }
}
