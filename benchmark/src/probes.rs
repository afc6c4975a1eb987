//! Unit-cost probes: what one call into each layer's public surface
//! costs on the host, so a movement in a workload's fold bucket can be
//! traced to (or ruled out for) a primitive. Every probe reports the
//! median of [`SAMPLES`] timed batches after one warm-up batch, and
//! binds only to public items (listed in README.md under "measurement
//! surface").
//!
//! Cluster probes run on the sequential engine, where node 0's
//! stopwatch also covers every fiber that runs while node 0 is blocked:
//! the figure is the host cost of the whole collective operation, not
//! of node 0's share.

use std::hint::black_box;
use std::time::Instant;

use inspector::Inspector;
use mpl::comm::ReduceOp;
use mpl::Comm;
use sp2sim::{
    Cluster, ClusterConfig, EngineKind, Event, EventKind, MsgKind, Node, SpanKind, TraceBuf,
    WordReader, WordWriter,
};
use spf::{Schedule, Spf};
use treadmarks::{Diff, ProtocolMode, Tmk, TmkConfig};

use crate::report::Metric;
use crate::stats::median;

/// Timed batches per probe.
pub const SAMPLES: usize = 31;

const PAGE_WORDS: usize = 512;
/// Pages the view and fault probes touch.
const PAGES: usize = 64;
/// 1 kword = 1024 words of 8 bytes.
const KWORD: f64 = 1024.0;

fn cluster(nprocs: usize) -> ClusterConfig {
    ClusterConfig::sp2_on(nprocs, EngineKind::Sequential)
}

/// Nanoseconds per call of `op`: one warm-up batch, then [`SAMPLES`]
/// timed batches of `reps` calls each.
fn batches(reps: usize, mut op: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::with_capacity(SAMPLES);
    for batch in 0..=SAMPLES {
        let t = Instant::now();
        for _ in 0..reps {
            op();
        }
        if batch > 0 {
            samples.push(t.elapsed().as_nanos() as f64 / reps as f64);
        }
    }
    samples
}

fn time_ns(reps: usize, op: impl FnMut()) -> f64 {
    median(&batches(reps, op))
}

/// Run `body` on every node of a fresh cluster; node `who`'s samples
/// are the result.
fn on_cluster(nprocs: usize, who: usize, body: impl Fn(&Node) -> Vec<f64> + Sync) -> f64 {
    median(&Cluster::run(cluster(nprocs), body).results[who])
}

/// One round trip of `words`-word messages between nodes 0 and 1.
fn pingpong_ns(words: usize) -> f64 {
    on_cluster(2, 0, |node| {
        let peer = 1 - node.id();
        batches(200, || {
            if node.id() == 0 {
                node.send(peer, 1, MsgKind::Data, vec![7; words]);
                black_box(node.recv_from(peer, 1));
            } else {
                black_box(node.recv_from(peer, 1));
                node.send(peer, 1, MsgKind::Data, vec![7; words]);
            }
        })
    })
}

fn diff_pages() -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let old = vec![0u64; PAGE_WORDS];
    let mut sparse = old.clone();
    for w in sparse.iter_mut().step_by(16) {
        *w = 1;
    }
    let dense = (1..=PAGE_WORDS as u64).collect();
    (old, sparse, dense)
}

/// `Tmk::read` / `Tmk::write` over [`PAGES`] valid, already-twinned
/// pages of a 1-node cluster: (read, write) ns per kword.
fn view_ns_per_kword() -> (f64, f64) {
    let out = Cluster::run(cluster(1), |node| {
        let tmk = Tmk::new(node, TmkConfig::default());
        let len = PAGES * PAGE_WORDS;
        let a = tmk.malloc_f64(len);
        tmk.write(a, 0..len)[0] = 1.0;
        let read = batches(8, || {
            black_box(tmk.read(a, 0..len));
        });
        let write = batches(8, || {
            let mut w = tmk.write(a, 0..len);
            w[1] = 2.0;
        });
        tmk.finish();
        (median(&read), median(&write))
    });
    let kwords = (PAGES * PAGE_WORDS) as f64 / KWORD;
    let (read, write) = out.results[0];
    (read / kwords, write / kwords)
}

/// Host µs per page of a read that misses on [`PAGES`] pages one writer
/// dirtied (every 8th word) in the previous epoch: request, the
/// writer's service work and the apply, all on the one OS thread. Under
/// HLRC the writer is made the home of every page, so each miss is a
/// remote whole-page fetch.
fn fault_fetch_us(protocol: ProtocolMode) -> f64 {
    let ns = on_cluster(2, 1, |node| {
        let tmk = Tmk::new(node, TmkConfig::default().with_protocol(protocol));
        let len = PAGES * PAGE_WORDS;
        let a = tmk.malloc_f64(len);
        if protocol == ProtocolMode::Hlrc {
            for p in 0..PAGES {
                tmk.set_page_home(a.first_page() + p, 0);
            }
        }
        let mut samples = Vec::with_capacity(SAMPLES);
        for epoch in 0..=SAMPLES {
            if node.id() == 0 {
                let mut w = tmk.write(a, 0..len);
                for x in w.slice_mut().iter_mut().step_by(8) {
                    *x = epoch as f64 + 1.0;
                }
            }
            tmk.barrier(0);
            if node.id() == 1 {
                let t = Instant::now();
                black_box(tmk.read(a, 0..len));
                if epoch > 0 {
                    samples.push(t.elapsed().as_nanos() as f64);
                }
            }
            tmk.barrier(1);
        }
        tmk.finish();
        samples
    });
    ns / 1e3 / PAGES as f64
}

/// Every unit-cost probe.
pub fn run_all() -> Vec<Metric> {
    let mut out = Vec::new();

    out.push(Metric::new(
        "sp2sim.cluster_run_us",
        time_ns(4, || {
            black_box(Cluster::run(cluster(8), |node| node.id()));
        }) / 1e3,
        "us",
    ));
    let rt1 = pingpong_ns(1);
    out.push(Metric::new("sp2sim.pingpong_ns", rt1, "ns"));
    // Both directions carry 512 words: one kword per round trip.
    out.push(Metric::new(
        "sp2sim.payload_ns_per_kword",
        pingpong_ns(512) - rt1,
        "ns/kword",
    ));
    let words = vec![3u64; 1024];
    out.push(Metric::new(
        "sp2sim.codec_ns_per_kword",
        time_ns(200, || {
            let mut w = WordWriter::with_capacity(words.len() + 2);
            w.put_usize(9).put_words(black_box(&words));
            let buf = w.finish();
            let mut r = WordReader::new(&buf);
            black_box((r.get_usize(), r.get_words().iter().sum::<u64>()));
        }),
        "ns/kword",
    ));

    let (old, sparse, dense) = diff_pages();
    for (metric, new) in [
        ("treadmarks.diff_create_identical_ns", &old),
        ("treadmarks.diff_create_sparse_ns", &sparse),
        ("treadmarks.diff_create_dense_ns", &dense),
    ] {
        out.push(Metric::new(
            metric,
            time_ns(500, || {
                black_box(Diff::create(black_box(&old), black_box(new)));
            }),
            "ns",
        ));
    }
    let diff = Diff::create(&old, &dense);
    let mut page = old.clone();
    out.push(Metric::new(
        "treadmarks.diff_apply_dense_ns",
        time_ns(2000, || black_box(&diff).apply(black_box(&mut page))),
        "ns",
    ));

    let (read, write) = view_ns_per_kword();
    out.push(Metric::new(
        "treadmarks.view_read_ns_per_kword",
        read,
        "ns/kword",
    ));
    out.push(Metric::new(
        "treadmarks.view_write_ns_per_kword",
        write,
        "ns/kword",
    ));
    let src = vec![1.5f64; PAGES * PAGE_WORDS];
    let mut dst = vec![0.0f64; PAGES * PAGE_WORDS];
    out.push(Metric::new(
        "treadmarks.raw_copy_ns_per_kword",
        time_ns(8, || black_box(&mut dst).copy_from_slice(black_box(&src))) * KWORD
            / src.len() as f64,
        "ns/kword",
    ));

    out.push(Metric::new(
        "treadmarks.barrier_us",
        on_cluster(8, 0, |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let samples = batches(20, || tmk.barrier(0));
            tmk.finish();
            samples
        }) / 1e3,
        "us",
    ));
    // A 4-node ring: node i takes the lock node i-1 just released. A
    // 1-word baton message orders the ring (its cost, about half of
    // `sp2sim.pingpong_ns`, is inside the figure).
    out.push(Metric::new(
        "treadmarks.lock_handoff_us",
        on_cluster(4, 0, |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let (me, n) = (node.id(), node.nprocs());
            if me == 0 {
                node.send(1, 1, MsgKind::Sync, vec![0]);
            }
            let samples = batches(25, || {
                node.recv_from((me + n - 1) % n, 1);
                tmk.acquire(0);
                tmk.release(0);
                node.send((me + 1) % n, 1, MsgKind::Sync, vec![0]);
            });
            if me == 1 {
                node.recv_from(0, 1);
            }
            tmk.finish();
            samples
        }) / 1e3
            / 4.0,
        "us",
    ));
    out.push(Metric::new(
        "treadmarks.fault_fetch_lrc_us",
        fault_fetch_us(ProtocolMode::Lrc),
        "us",
    ));
    out.push(Metric::new(
        "treadmarks.fault_fetch_hlrc_us",
        fault_fetch_us(ProtocolMode::Hlrc),
        "us",
    ));

    out.push(Metric::new(
        "spf.forkjoin_us",
        on_cluster(8, 0, |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let spf = Spf::new(&tmk);
            let id = spf.register(|_| {});
            let samples = spf.run(|m| batches(20, || m.par_loop(id, 0..8, Schedule::Block, &[])));
            tmk.finish();
            samples.unwrap_or_default()
        }) / 1e3,
        "us",
    ));

    // A 100k-index walk shaped like IGrid's: mostly consecutive words
    // with a jump every few dozen, visited out of order.
    let indices: Vec<usize> = (0..100_000usize)
        .map(|i| (i % 50) + 97 * ((i / 50) * 7919 % 2000))
        .collect();
    out.push(Metric::new(
        "inspector.gather_ns_per_index",
        on_cluster(1, 0, |node| {
            let insp = Inspector::new(node);
            batches(1, || {
                black_box(insp.gather(black_box(&indices).iter().copied()));
            })
        }) / indices.len() as f64,
        "ns",
    ));

    out.push(Metric::new(
        "mpl.allreduce_us",
        on_cluster(8, 0, |node| {
            let comm = Comm::new(node);
            let x = [node.id() as f64; 4];
            batches(20, || {
                black_box(comm.allreduce_f64s(ReduceOp::Sum, &x));
            })
        }) / 1e3,
        "us",
    ));
    // 1024 words each way: two kwords per round trip.
    out.push(Metric::new(
        "mpl.sendrecv_ns_per_kword",
        on_cluster(2, 0, |node| {
            let comm = Comm::new(node);
            let peer = 1 - node.id();
            batches(100, || {
                if node.id() == 0 {
                    comm.send(peer, 1, &words);
                    black_box(comm.recv(peer, 1));
                } else {
                    black_box(comm.recv(peer, 1));
                    comm.send(peer, 1, &words);
                }
            })
        }) / 2.0,
        "ns/kword",
    ));

    let event = Event {
        vt_us: 1.0,
        host_ns: 1,
        kind: EventKind::Begin {
            kind: SpanKind::Compute,
            arg: 0,
        },
    };
    let mut buf = TraceBuf::new(1 << 16);
    out.push(Metric::new(
        "trace.push_ns",
        time_ns(1 << 16, || buf.push(black_box(event))),
        "ns",
    ));
    out
}
