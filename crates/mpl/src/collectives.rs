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

use sp2sim::{MsgKind, SpanKind};

use crate::comm::{into_f64s, pack_f64s, Comm, ReduceOp};

impl<'a> Comm<'a> {
    /// This rank's place in the binomial tree rooted at `root`: its
    /// parent (`None` at the root) and its children in the order a
    /// broadcast sends to them; a reduction gathers in the reverse order.
    fn tree(
        &self,
        root: usize,
    ) -> (
        Option<usize>,
        impl DoubleEndedIterator<Item = usize> + Clone,
    ) {
        let n = self.size();
        // Re-rank so the root is virtual rank 0. Clearing our lowest set
        // bit gives the parent; our children set one of the bits below it.
        let vrank = (self.rank() + n - root) % n;
        let bits = match vrank {
            0 => n.next_power_of_two().trailing_zeros(),
            _ => vrank.trailing_zeros(),
        };
        let parent = (vrank != 0).then(|| ((vrank & (vrank - 1)) + root) % n);
        let children = (0..bits)
            .rev()
            .map(move |b| vrank | 1 << b)
            .filter(move |&vchild| vchild < n)
            .map(move |vchild| (vchild + root) % n);
        (parent, children)
    }

    /// Tree barrier: gather to rank 0 up a binomial tree, release down it.
    pub fn barrier(&self) {
        let tag = self.next_coll_tag();
        if self.size() == 1 {
            return;
        }
        let _s = self.node.trace_span(SpanKind::BarrierWait, tag);
        let (parent, children) = self.tree(0);
        // Gather phase: receive from each child, then report to the parent.
        for child in children.clone().rev() {
            self.node.recv_from(child, tag);
        }
        // Release phase: wait for the parent, then release our subtree.
        if let Some(parent) = parent {
            self.node.send(parent, tag, MsgKind::Sync, Vec::new());
            self.node.recv_from(parent, tag + 1);
        }
        for child in children {
            self.node.send(child, tag + 1, MsgKind::Sync, Vec::new());
        }
    }

    /// Binomial-tree broadcast of raw words from `root`.
    pub fn bcast(&self, root: usize, data: &mut Vec<u64>) {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        let (parent, children) = self.tree(root);
        if let Some(parent) = parent {
            *data = self.node.recv_from(parent, tag).payload.into_vec();
        }
        for child in children {
            self.node.send(child, tag, MsgKind::Data, data.clone());
        }
    }

    /// Broadcast a vector of `f64`s from `root` (tree). The root packs
    /// each child's payload straight from `data`; everyone else forwards
    /// the payload it received and keeps that buffer as its `data`.
    pub fn bcast_f64s(&self, root: usize, data: &mut Vec<f64>) {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        let (parent, children) = self.tree(root);
        match parent {
            None => {
                for child in children {
                    self.node.send(child, tag, MsgKind::Data, pack_f64s(data));
                }
            }
            Some(parent) => {
                let words = self.node.recv_from(parent, tag).payload.into_vec();
                for child in children {
                    self.node.send(child, tag, MsgKind::Data, words.clone());
                }
                *data = into_f64s(words);
            }
        }
    }

    /// Flat (serialized) broadcast: the root sends `n - 1` individual
    /// messages back to back. This is how the mid-90s XHPF run-time
    /// broadcast partitions; the serialization at the root is a real cost
    /// the paper's XHPF numbers include.
    pub fn bcast_flat_f64s(&self, root: usize, data: &mut Vec<f64>) {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::RecvWait, tag);
        if self.rank() == root {
            for dst in (0..self.size()).filter(|&dst| dst != root) {
                self.node.send(dst, tag, MsgKind::Data, pack_f64s(data));
            }
        } else {
            *data = into_f64s(self.node.recv_from(root, tag).payload.into_vec());
        }
    }

    /// Binomial-tree reduction of `f64` vectors to `root`. Returns the
    /// reduced vector on the root, `None` elsewhere. The accumulator is
    /// the one buffer a rank allocates: it leaves as the payload of the
    /// message to the parent, or is the root's result.
    pub fn reduce_f64s(&self, root: usize, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
        let tag = self.next_coll_tag();
        let _s = self.node.trace_span(SpanKind::ReduceWait, tag);
        let (parent, children) = self.tree(root);
        let mut acc = data.to_vec();
        for child in children.rev() {
            let got = into_f64s(self.node.recv_from(child, tag).payload.into_vec());
            op.fold(&mut acc, &got);
        }
        let Some(parent) = parent else {
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

    /// All-gather: gather to rank 0, then broadcast the concatenation.
    pub fn allgather_f64s(&self, data: &[f64]) -> Vec<Vec<f64>> {
        let (mut lens, mut flat) = (Vec::new(), Vec::new());
        for v in self.gather(0, pack_f64s(data)).into_iter().flatten() {
            lens.push(v.len() as u64);
            flat.extend_from_slice(&v);
        }
        self.bcast(0, &mut lens);
        self.bcast(0, &mut flat);
        let mut rest = flat.as_slice();
        lens.iter()
            .map(|&l| {
                let (part, tail) = rest.split_at(l as usize);
                rest = tail;
                part.iter().map(|&w| f64::from_bits(w)).collect()
            })
            .collect()
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

    /// [`Comm::alltoall_packed`] over owned vectors: `bufs[r]` is sent to
    /// rank `r`; the returned vector holds what each rank sent us.
    pub fn alltoall_f64s(&self, bufs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(bufs.len(), self.size());
        let mut out: Vec<Vec<f64>> = (0..self.size()).map(|_| Vec::new()).collect();
        out[self.rank()] = bufs[self.rank()].clone();
        self.alltoall_packed(
            |peer| pack_f64s(&bufs[peer]),
            |peer, payload| out[peer] = into_f64s(payload),
        );
        out
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
    fn allgather_gives_everyone_everything() {
        let out = run(3, |c| c.allgather_f64s(&[c.rank() as f64; 2]));
        for r in out.results {
            assert_eq!(r[0], vec![0.0, 0.0]);
            assert_eq!(r[1], vec![1.0, 1.0]);
            assert_eq!(r[2], vec![2.0, 2.0]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let out = run(4, |c| {
            let me = c.rank() as f64;
            let bufs: Vec<Vec<f64>> = (0..4).map(|d| vec![me * 10.0 + d as f64]).collect();
            c.alltoall_f64s(&bufs)
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
