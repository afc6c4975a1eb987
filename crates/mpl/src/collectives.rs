//! Collective operations: binomial trees and pairwise exchanges.
//!
//! Message counts (for `n` processes):
//!
//! | collective        | messages            |
//! |-------------------|---------------------|
//! | `barrier`         | `2 (n - 1)` (gather-up + release-down tree) |
//! | `bcast` (tree)    | `n - 1`             |
//! | `bcast_flat`      | `n - 1`, serialized at the root (models the XHPF run-time's naive broadcast) |
//! | `reduce`          | `n - 1`             |
//! | `allreduce`       | `2 (n - 1)`         |
//! | `gather`/`allgather` | `n - 1` / `2 (n - 1)` |
//! | `alltoall`        | `n (n - 1)` pairwise |
//!
//! The binomial tree, the tree broadcast's walk and the reduction
//! operators are `sp2sim`'s ([`sp2sim::Tree`], `Endpoint::tree_bcast`,
//! [`ReduceOp`]), shared with the DSM's direct reduction and page
//! broadcast. A broadcast's words are packed once: the root builds one
//! shared payload, every packet of the collective holds a clone of it
//! (tree forwarders pass on the one they received), and each receiver
//! refills the caller's vector from it.

use sp2sim::{MsgKind, Payload, SpanKind, Tree};

use crate::comm::{into_f64s, land_f64s, pack_f64s, Comm, ReduceOp};

impl<'a> Comm<'a> {
    /// Tree barrier: gather to rank 0 up a binomial tree, release down it.
    pub fn barrier(&self) {
        let tag = self.next_coll_tag();
        if self.size() == 1 {
            return;
        }
        let _s = self.node.trace_span(SpanKind::BarrierWait, tag);
        let tree = Tree::new(self.rank(), self.size(), 0);
        // Gather phase: receive from each child, then report to the parent.
        for child in tree.children().rev() {
            self.node.recv_from(child, tag);
        }
        // Release phase: wait for the parent, then release our subtree.
        if let Some(parent) = tree.parent() {
            self.node.send(parent, tag, MsgKind::Sync, Vec::new());
            self.node.recv_from(parent, tag + 1);
        }
        for child in tree.children() {
            self.node.send(child, tag + 1, MsgKind::Sync, Vec::new());
        }
    }

    /// Binomial-tree broadcast of raw words from `root`.
    pub fn bcast(&self, root: usize, data: &mut Vec<u64>) {
        if let Some(words) = self.bcast_words(root, || data.to_vec()) {
            data.clear();
            data.extend_from_slice(&words);
        }
    }

    /// Broadcast a vector of `f64`s from `root` (tree). The root packs
    /// `data` once; everyone else refills its `data` from the payload it
    /// received.
    pub fn bcast_f64s(&self, root: usize, data: &mut Vec<f64>) {
        if let Some(words) = self.bcast_words(root, || pack_f64s(data)) {
            land_f64s(&words, data);
        }
    }

    /// The tree broadcast both forms run under a fresh collective tag:
    /// the payload a non-root received, `None` at the root.
    fn bcast_words(&self, root: usize, pack: impl FnOnce() -> Vec<u64>) -> Option<Payload> {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        let tree = Tree::new(self.rank(), self.size(), root);
        let ep = self.node.endpoint();
        let payload = ep.tree_bcast(tree, tag, MsgKind::Data, pack);
        tree.parent().map(|_| payload)
    }

    /// Flat (serialized) broadcast: the root sends `n - 1` individual
    /// messages back to back, all holding the one payload it packed.
    /// This is how the mid-90s XHPF run-time broadcast partitions; the
    /// serialization at the root is a real cost the paper's XHPF numbers
    /// include.
    pub fn bcast_flat_f64s(&self, root: usize, data: &mut Vec<f64>) {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        if self.rank() == root {
            let others = (0..self.size()).filter(|&dst| dst != root);
            self.multicast(others, tag, || pack_f64s(data));
        } else {
            land_f64s(&self.node.recv_from(root, tag).payload, data);
        }
    }

    /// Binomial-tree reduction of `f64` vectors to `root`. Returns the
    /// reduced vector on the root, `None` elsewhere. The accumulator is
    /// the one buffer a rank allocates: it leaves as the payload of the
    /// message to the parent, or is the root's result.
    pub fn reduce_f64s(&self, root: usize, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::ReduceWait, tag);
        let tree = Tree::new(self.rank(), self.size(), root);
        let mut acc = data.to_vec();
        for child in tree.children().rev() {
            let got = into_f64s(self.node.recv_from(child, tag).payload.into_vec());
            op.fold(&mut acc, &got);
        }
        let Some(parent) = tree.parent() else {
            return Some(acc);
        };
        let words: Vec<u64> = acc.into_iter().map(f64::to_bits).collect();
        self.node.send(parent, tag, MsgKind::Data, words);
        None
    }

    /// Reduce to rank 0 then tree-broadcast the result: `2 (n - 1)`
    /// messages total, the classic PVM-era all-reduce.
    pub fn allreduce_f64s(&self, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        let reduced = self.reduce_f64s(0, op, data);
        let mut out = reduced.unwrap_or_default();
        self.bcast_f64s(0, &mut out);
        out
    }

    /// All-reduce with the `Sum` operator.
    pub fn allreduce_sum_f64(&self, data: &[f64]) -> Vec<f64> {
        self.allreduce_f64s(ReduceOp::Sum, data)
    }

    /// Reduce a single scalar to every rank.
    pub fn allreduce_scalar(&self, op: ReduceOp, x: f64) -> f64 {
        self.allreduce_f64s(op, &[x])[0]
    }

    /// Gather variable-length word vectors to `root` (flat, `n - 1`
    /// messages). `data` is handed over: it is the message, or the
    /// root's own entry. Returns `Some(vec indexed by rank)` at the root.
    pub fn gather(&self, root: usize, data: Vec<u64>) -> Option<Vec<Vec<u64>>> {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        if self.rank() == root {
            let mut out: Vec<Vec<u64>> = (0..self.size()).map(|_| Vec::new()).collect();
            out[root] = data;
            for _ in 0..self.size() - 1 {
                let p = self.node.recv_match(|p| p.tag == tag);
                out[p.src] = p.payload.into_vec();
            }
            Some(out)
        } else {
            self.node.send(root, tag, MsgKind::Data, data);
            None
        }
    }

    /// Gather `f64` vectors to `root`.
    pub fn gather_f64s(&self, root: usize, data: &[f64]) -> Option<Vec<Vec<f64>>> {
        self.gather(root, pack_f64s(data))
            .map(|vs| vs.into_iter().map(into_f64s).collect())
    }

    /// Pairwise all-to-all exchange of packed payloads: `pack(r)` builds
    /// what rank `r` is sent, `unpack(r, payload)` consumes what it sent
    /// us, so a transpose can gather from and scatter into its arrays
    /// with no per-peer staging vectors. The exchange with oneself is the
    /// caller's (a local copy). `n (n - 1)` messages cluster-wide.
    pub fn alltoall_packed(
        &self,
        mut pack: impl FnMut(usize) -> Vec<u64>,
        mut unpack: impl FnMut(usize, Vec<u64>),
    ) {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        let me = self.rank();
        let n = self.size();
        // Symmetric pairwise schedule: in round r exchange with me ^ r.
        for peer in (1..n.next_power_of_two()).map(|r| me ^ r) {
            if peer >= n {
                continue;
            }
            self.node.send(peer, tag, MsgKind::Data, pack(peer));
            unpack(peer, self.node.recv_from(peer, tag).payload.into_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{Cluster, ClusterConfig};

    fn run<R: Send>(n: usize, f: impl Fn(&Comm) -> R + Sync) -> sp2sim::RunOutput<R> {
        Cluster::run(ClusterConfig::sp2(n), move |node| f(&Comm::new(node)))
    }

    #[test]
    fn barrier_message_count_is_2n_minus_2() {
        for n in [2usize, 3, 4, 5, 8] {
            let out = run(n, |c| c.barrier());
            assert_eq!(
                out.stats.total_messages(),
                2 * (n as u64 - 1),
                "barrier on {n} nodes"
            );
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for n in [1usize, 2, 3, 5, 8] {
            for root in 0..n {
                let out = run(n, |c| {
                    let mut v = if c.rank() == root {
                        vec![7, 8, 9]
                    } else {
                        vec![]
                    };
                    c.bcast(root, &mut v);
                    v
                });
                for r in out.results {
                    assert_eq!(r, vec![7, 8, 9]);
                }
            }
        }
    }

    #[test]
    fn bcast_message_count_is_n_minus_1() {
        let out = run(8, |c| {
            let mut v = if c.rank() == 0 { vec![1] } else { vec![] };
            c.bcast(0, &mut v);
        });
        assert_eq!(out.stats.total_messages(), 7);
    }

    /// A broadcast packs its words once. The ranks that only receive —
    /// the tree's leaves, every non-root of the flat form — take their
    /// packet themselves, and each finds the root's one shared buffer,
    /// however many forwarders it passed; the collective still sends
    /// `n - 1` messages of the whole vector.
    #[test]
    fn every_receiver_of_a_broadcast_holds_the_roots_one_buffer() {
        use crate::comm::COLLECTIVE_TAG_BASE;
        use sp2sim::Payload;
        use std::sync::Arc;

        const N: usize = 8;
        let data = [3.5, -1.0, 0.25];
        type Bcast = fn(&Comm, usize, &mut Vec<f64>);
        let forms: [(&str, bool, Bcast); 3] = [
            ("bcast", true, |c, root, v| {
                let mut words = pack_f64s(v);
                c.bcast(root, &mut words);
                *v = into_f64s(words);
            }),
            ("bcast_f64s", true, |c, root, v| c.bcast_f64s(root, v)),
            ("bcast_flat_f64s", false, |c, root, v| {
                c.bcast_flat_f64s(root, v)
            }),
        ];
        for (name, tree, bcast) in forms {
            for root in 0..N {
                let out = run(N, |c| {
                    let shape = Tree::new(c.rank(), c.size(), root);
                    let (parent, mut children) = (shape.parent(), shape.children());
                    let parent = if tree {
                        parent
                    } else {
                        (c.rank() != root).then_some(root)
                    };
                    match parent {
                        Some(parent) if !tree || children.next().is_none() => {
                            let payload = c.node().recv_from(parent, COLLECTIVE_TAG_BASE).payload;
                            let shared = match &payload {
                                Payload::Shared(buf) => Some(Arc::clone(buf)),
                                Payload::Owned(_) => None,
                            };
                            (into_f64s(payload.to_vec()), shared)
                        }
                        _ => {
                            let mut v = if parent.is_none() {
                                data.to_vec()
                            } else {
                                vec![]
                            };
                            bcast(c, root, &mut v);
                            (v, None)
                        }
                    }
                });
                let cell = format!("{name} from {root} of {N}");
                assert!(out.results.iter().all(|(got, _)| *got == data), "{cell}");
                let bufs: Vec<&Arc<Vec<u64>>> = out.results.iter().flat_map(|(_, b)| b).collect();
                let receivers = if tree { N / 2 } else { N - 1 };
                assert_eq!(
                    bufs.len(),
                    receivers,
                    "{cell}: receivers holding a shared payload"
                );
                assert!(
                    bufs.iter().all(|b| Arc::ptr_eq(b, bufs[0])),
                    "{cell}: one buffer"
                );
                assert_eq!(out.stats.total_messages(), N as u64 - 1, "{cell}");
                assert_eq!(out.stats.total_bytes(), (N as u64 - 1) * 3 * 8, "{cell}");
            }
        }
    }

    #[test]
    fn flat_bcast_matches_tree_values() {
        let out = run(6, |c| {
            let mut v = if c.rank() == 2 {
                vec![3.5, -1.0]
            } else {
                vec![]
            };
            c.bcast_flat_f64s(2, &mut v);
            v
        });
        for r in out.results {
            assert_eq!(r, vec![3.5, -1.0]);
        }
    }

    #[test]
    fn reduce_sums_to_root() {
        for n in [1usize, 2, 4, 7, 8] {
            let out = run(n, |c| {
                c.reduce_f64s(0, ReduceOp::Sum, &[c.rank() as f64, 1.0])
            });
            let expect: f64 = (0..n).map(|r| r as f64).sum();
            assert_eq!(out.results[0].as_ref().unwrap()[0], expect);
            assert_eq!(out.results[0].as_ref().unwrap()[1], n as f64);
            for r in 1..n {
                assert!(out.results[r].is_none());
            }
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = run(5, |c| {
            let lo = c.allreduce_scalar(ReduceOp::Min, c.rank() as f64);
            let hi = c.allreduce_scalar(ReduceOp::Max, c.rank() as f64);
            (lo, hi)
        });
        for (lo, hi) in out.results {
            assert_eq!(lo, 0.0);
            assert_eq!(hi, 4.0);
        }
    }

    #[test]
    fn gather_collects_by_rank() {
        let out = run(4, |c| c.gather_f64s(2, &[c.rank() as f64 * 2.0]));
        let at_root = out.results[2].as_ref().unwrap();
        assert_eq!(at_root.len(), 4);
        for (r, got) in at_root.iter().enumerate() {
            assert_eq!(*got, vec![r as f64 * 2.0]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let out = run(4, |c| {
            let me = c.rank() as f64;
            let mut got = vec![Vec::new(); 4];
            got[c.rank()] = vec![me * 10.0 + c.rank() as f64];
            c.alltoall_packed(
                |peer| pack_f64s(&[me * 10.0 + peer as f64]),
                |peer, payload| got[peer] = into_f64s(payload),
            );
            got
        });
        for (me, r) in out.results.iter().enumerate() {
            for (src, got) in r.iter().enumerate() {
                assert_eq!(*got, vec![src as f64 * 10.0 + me as f64]);
            }
        }
    }

    #[test]
    fn barrier_aligns_clocks_forward() {
        let out = Cluster::run(ClusterConfig::sp2(4), |node| {
            let c = Comm::new(node);
            node.advance(1000.0 * node.id() as f64);
            c.barrier();
            node.now().us()
        });
        // Everyone's clock is now at least the latest arrival (3000us).
        for t in out.results {
            assert!(t >= 3000.0);
        }
    }
}
