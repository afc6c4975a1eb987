//! What the collectives of both sides of the paper's comparison share:
//! the binomial [`Tree`] that message passing's barrier, broadcasts and
//! reductions and the DSM's direct reduction and page broadcast walk,
//! the tree broadcast itself ([`Endpoint::tree_bcast`]), the combining
//! operator ([`ReduceOp`]), and the block partition ([`block_range`])
//! by which SPF and XHPF split their loops alike.

use std::ops::Range;

use crate::node::Endpoint;
use crate::packet::Payload;
use crate::stats::MsgKind;

/// One rank's place in the binomial tree over `n` ranks rooted at
/// `root`. The ranks are re-numbered so the root is virtual rank 0:
/// clearing a virtual rank's lowest set bit gives its parent, setting
/// one of the bits below it gives a child.
#[derive(Clone, Copy, Debug)]
pub struct Tree {
    vrank: usize,
    n: usize,
    root: usize,
}

impl Tree {
    /// `rank`'s place in the tree over `n` ranks rooted at `root`.
    #[inline]
    pub fn new(rank: usize, n: usize, root: usize) -> Tree {
        debug_assert!(rank < n && root < n, "rank {rank} / root {root} of {n}");
        Tree {
            vrank: (rank + n - root) % n,
            n,
            root,
        }
    }

    /// The parent; `None` at the root.
    #[inline]
    pub fn parent(&self) -> Option<usize> {
        let v = self.vrank;
        (v != 0).then(|| ((v & (v - 1)) + self.root) % self.n)
    }

    /// The children, largest subtree first: the order a broadcast sends
    /// in. `.rev()` is the order a reduction combines in, ascending
    /// virtual rank.
    #[inline]
    pub fn children(&self) -> impl DoubleEndedIterator<Item = usize> + Clone {
        let Tree { vrank, n, root } = *self;
        let bits = match vrank {
            0 => n.next_power_of_two().trailing_zeros(),
            _ => vrank.trailing_zeros(),
        };
        (0..bits)
            .rev()
            .map(move |b| vrank | 1 << b)
            .filter(move |&vchild| vchild < n)
            .map(move |vchild| (vchild + root) % n)
    }
}

impl Endpoint {
    /// Broadcast down `tree` under `tag`, one `kind` message per edge to
    /// the children's application ports. The root calls `pack` once and
    /// every packet holds the one shared payload; a forwarder receives
    /// the payload from its parent and passes that same payload on.
    /// Every node gets the payload back to unpack.
    pub fn tree_bcast(
        &self,
        tree: Tree,
        tag: u32,
        kind: MsgKind,
        pack: impl FnOnce() -> Vec<u64>,
    ) -> Payload {
        let payload = match tree.parent() {
            None => Payload::shared(pack()),
            Some(parent) => self.recv_from(parent, tag).payload,
        };
        for child in tree.children() {
            self.send(child, tag, kind, payload.clone());
        }
        payload
    }
}

/// The combining operator of a reduction over `f64` vectors. Min and
/// Max are exact and order-insensitive, so a tree combine returns
/// bitwise what any sequential fold does; Sum is deterministic in a
/// fixed tree order, but not bitwise equal to a left fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise addition.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    /// Combine `b` into `a`, elementwise.
    #[inline]
    pub fn fold(self, a: &mut [f64], b: &[f64]) {
        debug_assert_eq!(a.len(), b.len());
        match self {
            ReduceOp::Sum => a.iter_mut().zip(b).for_each(|(x, y)| *x += y),
            ReduceOp::Min => a.iter_mut().zip(b).for_each(|(x, y)| *x = x.min(*y)),
            ReduceOp::Max => a.iter_mut().zip(b).for_each(|(x, y)| *x = x.max(*y)),
        }
    }

    /// Wire code.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Decode a wire code (an unknown code combines as Sum; senders
    /// always encode a valid one).
    pub fn from_code(code: u64) -> ReduceOp {
        match code {
            1 => ReduceOp::Min,
            2 => ReduceOp::Max,
            _ => ReduceOp::Sum,
        }
    }
}

/// Contiguous block decomposition of `range` for processor `me` of
/// `n`: the first `len % n` processors get one extra element.
#[inline]
pub fn block_range(me: usize, n: usize, range: Range<usize>) -> Range<usize> {
    let len = range.end - range.start;
    let base = len / n;
    let extra = len % n;
    let lo = range.start + me * base + me.min(extra);
    let hi = lo + base + usize::from(me < extra);
    lo..hi.min(range.end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vrank(r: usize, n: usize, root: usize) -> usize {
        (r + n - root) % n
    }

    #[test]
    fn tree_is_a_partition_from_every_root() {
        for n in 1..=9 {
            for root in 0..n {
                let mut parents = vec![0; n];
                for r in 0..n {
                    let tree = Tree::new(r, n, root);
                    assert_eq!(
                        tree.parent().is_none(),
                        r == root,
                        "n={n} root={root} r={r}"
                    );
                    if let Some(p) = tree.parent() {
                        assert!(Tree::new(p, n, root).children().any(|c| c == r));
                    }
                    let v: Vec<usize> = tree.children().map(|c| vrank(c, n, root)).collect();
                    assert!(v.windows(2).all(|w| w[0] > w[1]), "n={n} root={root} r={r}");
                    let up: Vec<usize> = tree.children().rev().map(|c| vrank(c, n, root)).collect();
                    assert!(up.windows(2).all(|w| w[0] < w[1]));
                    for c in tree.children() {
                        parents[c] += 1;
                    }
                }
                // The children lists cover every non-root rank once.
                parents[root] += 1;
                assert!(parents.iter().all(|&k| k == 1), "n={n} root={root}");
            }
        }
    }

    /// The lists of message passing's own tree helper before the DSM
    /// shared it.
    #[test]
    fn tree_of_eight_rooted_at_three() {
        let tree: Vec<(Option<usize>, Vec<usize>)> = (0..8)
            .map(|r| Tree::new(r, 8, 3))
            .map(|t| (t.parent(), t.children().collect()))
            .collect();
        let expect = [
            (Some(7), vec![]),
            (Some(7), vec![2]),
            (Some(1), vec![]),
            (None, vec![7, 5, 4]),
            (Some(3), vec![]),
            (Some(3), vec![6]),
            (Some(5), vec![]),
            (Some(3), vec![1, 0]),
        ];
        assert_eq!(tree, expect);
    }

    #[test]
    fn block_range_partitions_exactly() {
        for n in 1..9 {
            for len in [0usize, 1, 7, 64, 1000] {
                let mut seen = vec![0u32; len];
                for me in 0..n {
                    for i in block_range(me, n, 0..len) {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "n={n} len={len}");
            }
        }
    }

    #[test]
    fn block_range_is_ordered_and_balanced() {
        let r0 = block_range(0, 3, 0..10);
        let r1 = block_range(1, 3, 0..10);
        let r2 = block_range(2, 3, 0..10);
        assert_eq!(r0, 0..4);
        assert_eq!(r1, 4..7);
        assert_eq!(r2, 7..10);
    }

    #[test]
    fn reduce_op_codes_round_trip() {
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            assert_eq!(ReduceOp::from_code(op.code()), op);
        }
        let mut a = [1.0, 5.0, -3.0];
        ReduceOp::Sum.fold(&mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, [2.0, 6.0, -2.0]);
        ReduceOp::Max.fold(&mut a, &[0.0, 10.0, 0.0]);
        assert_eq!(a, [2.0, 10.0, 0.0]);
        ReduceOp::Min.fold(&mut a, &[-7.0, 20.0, 0.5]);
        assert_eq!(a, [-7.0, 10.0, 0.0]);
    }
}
