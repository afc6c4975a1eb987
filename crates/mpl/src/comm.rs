//! The communicator: typed point-to-point operations.

use std::cell::Cell;

use sp2sim::{MsgKind, Node, Payload, SpanKind, WordReader, WordWriter};

/// The reduction operators, shared with the DSM's direct reduction.
pub use sp2sim::ReduceOp;

/// Pack a slice of `f64`s into a fresh payload: the one copy a message
/// costs on its way out — or a multicast, however many destinations
/// share it.
pub(crate) fn pack_f64s(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// A received payload as `f64`s, in the buffer the packet already owns:
/// `u64` and `f64` have one layout, so the collect reuses the allocation
/// and the receiver is handed the message's own buffer.
pub(crate) fn into_f64s(payload: Vec<u64>) -> Vec<f64> {
    payload.into_iter().map(f64::from_bits).collect()
}

/// Refill `out` with a multicast's words: the packets share one buffer,
/// so a receiver reads it where it is, into a vector it keeps.
pub(crate) fn land_f64s(words: &[u64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(words.iter().map(|&w| f64::from_bits(w)));
}

/// Tag space layout: user tags must stay below this; collectives use a
/// per-operation sequence number above it so that back-to-back collectives
/// never cross-match.
pub(crate) const COLLECTIVE_TAG_BASE: u32 = 1 << 20;

/// A communicator bound to one simulated node.
///
/// Point-to-point operations transfer `u64` words or `f64` slices; each
/// call is one message on the simulated switch. Collectives live in
/// [`crate::collectives`] and are exposed as inherent methods.
pub struct Comm<'a> {
    pub(crate) node: &'a Node,
    pub(crate) coll_seq: Cell<u32>,
}

impl<'a> Comm<'a> {
    /// Bind a communicator to a node.
    pub fn new(node: &'a Node) -> Comm<'a> {
        Comm {
            node,
            coll_seq: Cell::new(0),
        }
    }

    /// This process's rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.node.id()
    }

    /// Number of processes.
    #[inline]
    pub fn size(&self) -> usize {
        self.node.nprocs()
    }

    /// The underlying simulated node.
    #[inline]
    pub fn node(&self) -> &Node {
        self.node
    }

    /// Send raw words to `dst` with a user `tag` (must be `< 2^20`).
    pub fn send(&self, dst: usize, tag: u32, data: &[u64]) {
        debug_assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^20");
        self.node.send(dst, tag, MsgKind::Data, data.to_vec());
    }

    /// Receive raw words from `src` with `tag`.
    pub fn recv(&self, src: usize, tag: u32) -> Vec<u64> {
        self.recv_payload(src, tag).into_vec()
    }

    /// The payload of the next message from `src` with `tag`, as it
    /// arrived.
    fn recv_payload(&self, src: usize, tag: u32) -> Payload {
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        self.node.recv_from(src, tag).payload
    }

    /// Send a slice of `f64`s (packed straight from it).
    pub fn send_f64s(&self, dst: usize, tag: u32, data: &[f64]) {
        debug_assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^20");
        self.node.send(dst, tag, MsgKind::Data, pack_f64s(data));
    }

    /// Send the same `f64`s to every rank of `dsts`, in order, one
    /// message each: they are packed once, into a buffer all the packets
    /// share (the XHPF run-time's flat broadcast of a fragment).
    pub fn multicast_f64s(&self, dsts: impl IntoIterator<Item = usize>, tag: u32, data: &[f64]) {
        debug_assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^20");
        self.multicast(dsts, tag, || pack_f64s(data));
    }

    /// Send one payload, packed by `pack` only if there is a destination,
    /// to every rank of `dsts` in order, each packet holding a clone.
    pub(crate) fn multicast(
        &self,
        dsts: impl IntoIterator<Item = usize>,
        tag: u32,
        pack: impl FnOnce() -> Vec<u64>,
    ) {
        let mut dsts = dsts.into_iter().peekable();
        if dsts.peek().is_some() {
            let payload = Payload::shared(pack());
            for dst in dsts {
                self.node.send(dst, tag, MsgKind::Data, payload.clone());
            }
        }
    }

    /// Send a payload the caller packed — a header and several array
    /// sections in one message, PVM's `pvm_pk*` idiom. The writer's
    /// buffer becomes the packet's payload; nothing is copied.
    pub fn send_packed(&self, dst: usize, tag: u32, packed: WordWriter) {
        debug_assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^20");
        self.node.send(dst, tag, MsgKind::Data, packed.finish());
    }

    /// Receive a vector of `f64`s (the message's own buffer, converted
    /// in place).
    pub fn recv_f64s(&self, src: usize, tag: u32) -> Vec<f64> {
        into_f64s(self.recv(src, tag))
    }

    /// Receive `f64`s straight into `out` (a ghost column, a replica
    /// range), read from the packet's words where they are — a
    /// multicast's buffer is shared with the other packets. The message
    /// must be exactly `out.len()` words long.
    pub fn recv_f64s_into(&self, src: usize, tag: u32, out: &mut [f64]) {
        let payload = self.recv_payload(src, tag);
        assert_eq!(
            payload.len(),
            out.len(),
            "message from {src} with tag {tag} has {} words, its destination {}",
            payload.len(),
            out.len()
        );
        WordReader::new(&payload).take_f64s_into(out);
    }

    /// Combined send+receive (both directions in flight at once), the
    /// natural idiom for boundary exchange in the hand-coded programs.
    pub fn sendrecv_f64s(
        &self,
        dst: usize,
        send_tag: u32,
        data: &[f64],
        src: usize,
        recv_tag: u32,
    ) -> Vec<f64> {
        self.send_f64s(dst, send_tag, data);
        self.recv_f64s(src, recv_tag)
    }

    /// A zero-payload synchronization message (PVMe programs signal with
    /// empty messages when they need pure synchronization).
    pub fn send_signal(&self, dst: usize, tag: u32) {
        debug_assert!(tag < COLLECTIVE_TAG_BASE, "user tags must be < 2^20");
        self.node.send(dst, tag, MsgKind::Sync, Vec::new());
    }

    /// Receive a zero-payload synchronization message.
    pub fn recv_signal(&self, src: usize, tag: u32) {
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        let p = self.node.recv_from(src, tag);
        debug_assert!(p.payload.is_empty());
    }

    /// Allocate a fresh tag block for one collective operation.
    pub(crate) fn next_coll_tag(&self) -> u32 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s.wrapping_add(1));
        COLLECTIVE_TAG_BASE + (s % 0xFFFF) * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{Cluster, ClusterConfig};

    #[test]
    fn p2p_roundtrip() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let comm = Comm::new(node);
            if comm.rank() == 0 {
                comm.send_f64s(1, 5, &[1.5, 2.5]);
                comm.recv_f64s(1, 6)
            } else {
                let v = comm.recv_f64s(0, 5);
                comm.send_f64s(0, 6, &[v[0] + v[1]]);
                v
            }
        });
        assert_eq!(out.results[0], vec![4.0]);
        assert_eq!(out.results[1], vec![1.5, 2.5]);
    }

    #[test]
    fn packed_sections_land_in_place() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let comm = Comm::new(node);
            if comm.rank() == 0 {
                let mut w = WordWriter::with_capacity(5);
                w.put_usize(2).put_f64s(&[1.5, -0.0]).put_f64s(&[9.0, 8.0]);
                comm.send_packed(1, 5, w);
                comm.send_f64s(1, 6, &[4.0, 5.0]);
                vec![]
            } else {
                let mut grid = vec![0.0; 6];
                let payload = comm.recv(0, 5);
                let mut r = WordReader::new(&payload);
                let n = r.get_usize();
                r.take_f64s_into(&mut grid[..n]);
                r.take_f64s_into(&mut grid[4..]);
                grid.push(r.remaining() as f64);
                comm.recv_f64s_into(0, 6, &mut grid[2..4]);
                grid
            }
        });
        assert_eq!(out.results[1], vec![1.5, -0.0, 4.0, 5.0, 9.0, 8.0, 0.0]);
        assert!(out.results[1][1].is_sign_negative());
        assert_eq!(out.stats.total_bytes(), (5 + 2) * 8);
    }

    /// A destination shorter or longer than the message is a panic
    /// naming both lengths, never a partial copy.
    fn recv_three_words_into(len: usize) {
        Cluster::run(
            ClusterConfig::sp2_on(2, sp2sim::EngineKind::Sequential),
            |node| {
                let comm = Comm::new(node);
                if comm.rank() == 0 {
                    comm.send_f64s(1, 5, &[1.0, 2.0, 3.0]);
                } else {
                    comm.recv_f64s_into(0, 5, &mut vec![0.0; len]);
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "has 3 words, its destination 2")]
    fn recv_into_a_short_destination_panics() {
        recv_three_words_into(2);
    }

    #[test]
    #[should_panic(expected = "has 3 words, its destination 4")]
    fn recv_into_a_long_destination_panics() {
        recv_three_words_into(4);
    }

    #[test]
    fn sendrecv_exchanges_boundaries() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let comm = Comm::new(node);
            let me = comm.rank();
            let other = 1 - me;
            comm.sendrecv_f64s(other, 1, &[me as f64], other, 1)
        });
        assert_eq!(out.results[0], vec![1.0]);
        assert_eq!(out.results[1], vec![0.0]);
    }

    #[test]
    fn signals_have_no_payload_bytes() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let comm = Comm::new(node);
            if comm.rank() == 0 {
                comm.send_signal(1, 9);
            } else {
                comm.recv_signal(0, 9);
            }
        });
        assert_eq!(out.stats.total_messages(), 1);
        assert_eq!(out.stats.total_bytes(), 0);
    }
}
