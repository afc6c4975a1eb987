//! Regression tests for the unknown-service-opcode graceful-shutdown
//! path (`DsmStats::service_errors`): a malformed request must not
//! abort a whole parameter sweep — it is logged, counted, and shuts
//! only that node's service loop down, on both execution engines. And
//! for the arrival decoder: a damaged message fails as an over-read.

use std::sync::Arc;

use parking_lot::Mutex;
use sp2sim::{Cluster, ClusterConfig, EngineKind, MsgKind, Port};
use treadmarks::protocol::op;
use treadmarks::service::service_loop;
use treadmarks::state::DsmState;
use treadmarks::{Tmk, TmkConfig};

/// The opcode space currently ends at `REDUCE_LIST` (the windowed
/// ordered reduction): the next free opcode must take the graceful
/// error path. Pinning the boundary means a future opcode addition that
/// forgets the service dispatch arm shows up here as a counted error,
/// not as a sweep-wide `unreachable!`. `join_service` returning at all
/// *is* the graceful-exit assertion — the loop left through the error
/// path, not a panic.
#[test]
fn first_unassigned_opcode_is_rejected_gracefully() {
    // PAGE_REQ and REDUCE_LIST are the two highest assigned opcodes;
    // the boundary sits one past REDUCE_LIST.
    assert_eq!(op::REDUCE_LIST, op::PAGE_REQ + 1, "opcode map moved");
    for engine in EngineKind::ALL {
        let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
            if node.id() == 0 {
                let state = Arc::new(Mutex::new(DsmState::new(0, 2, TmkConfig::default())));
                let ep = node.take_service_endpoint();
                let h = node.spawn_service({
                    let state = Arc::clone(&state);
                    move || service_loop(ep, state)
                });
                node.join_service(h);
                let st = state.lock();
                (st.stats.service_errors, st.stats.last_bad_opcode)
            } else {
                node.endpoint().send_to_port(
                    0,
                    Port::Service,
                    0,
                    MsgKind::Control,
                    vec![op::REDUCE_LIST + 1],
                );
                (0, None)
            }
        });
        // Counted once, and the offending opcode itself is recorded for
        // the post-mortem (the shutdown log line carries it too).
        assert_eq!(
            out.results[0],
            (1, Some(op::REDUCE_LIST + 1)),
            "engine {engine}"
        );
    }
}

/// HLRC stale-flush guard at the service level, with message order
/// fully under test control: a home that already served a page keeps a
/// late-arriving duplicate flush from re-applying — re-application
/// would overwrite newer content whenever the frame is ahead of the
/// flushed range. The flush is counted and dropped; a subsequent fetch
/// returns the unchanged (newer) page.
#[test]
fn flush_arriving_after_the_home_served_the_page_is_dropped() {
    use treadmarks::diff::Diff;
    use treadmarks::protocol::{self, tag, PageReqEntries};
    use treadmarks::state::DiffRange;

    for engine in EngineKind::ALL {
        let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
            if node.id() == 0 {
                // The home: a bare service loop over HLRC state.
                let state = Arc::new(Mutex::new(DsmState::new(0, 2, TmkConfig::hlrc())));
                let ep = node.take_service_endpoint();
                let h = node.spawn_service({
                    let state = Arc::clone(&state);
                    move || service_loop(ep, state)
                });
                node.join_service(h);
                let st = state.lock();
                // The home copy lives in the page table, not in the working
                // frames: serving must never have touched a frame.
                assert!(st.frames.is_empty(), "home copy leaked into frames");
                st.stats.stale_flush_drops
            } else {
                let pw = TmkConfig::default().page_words;
                let send_flush = |hi: u32, lamport: u64, word: u64| {
                    let diff = Diff::create(&vec![0; pw], &{
                        let mut d = vec![0; pw];
                        d[0] = word;
                        d
                    });
                    let range = DiffRange {
                        lo: hi,
                        hi,
                        lamport,
                        diff,
                    };
                    node.endpoint().send_to_port(
                        0,
                        Port::Service,
                        0,
                        MsgKind::HomeFlush,
                        protocol::encode_home_flush(1, &[(3usize, range)]),
                    );
                };
                let fetch = |req_id: u32, required: u32| {
                    let mut entries = PageReqEntries::new(2);
                    entries.push(3).copy_from_slice(&[0, required]);
                    node.endpoint().send_to_port(
                        0,
                        Port::Service,
                        0,
                        MsgKind::PageReq,
                        protocol::encode_page_fetch_req(req_id, 1, entries.iter()),
                    );
                    let t = tag::PAGE_RESP | (req_id & 0xFFFF);
                    let pkt = node.recv_match(|p| p.src == 0 && p.tag == t);
                    let mut r = sp2sim::WordReader::new(&pkt.payload);
                    protocol::decode_page_resp(&mut r, 2, pw)[0].data[0]
                };
                // Interval 1 flushes, the home serves it (fold applies).
                send_flush(1, 1, 41);
                let first = fetch(7, 1);
                // Interval 2 supersedes; served again.
                send_flush(2, 2, 42);
                let second = fetch(8, 2);
                // The duplicate of interval 1 arrives *after* the home
                // already served (and folded past) it: must be dropped,
                // not re-applied over the newer word.
                send_flush(1, 1, 41);
                let third = fetch(9, 2);
                assert_eq!((first, second, third), (41, 42, 42), "engine {engine}");
                // Shut the home's service loop down.
                node.endpoint().send_to_port(
                    0,
                    Port::Service,
                    0,
                    MsgKind::Control,
                    vec![op::SHUTDOWN],
                );
                0
            }
        });
        let drops = out.results[0];
        assert_eq!(drops, 1, "engine {engine}: exactly the duplicate dropped");
    }
}

/// Sweep robustness: while node 0's service is shot down by a garbage
/// opcode, nodes 1 and 2 keep making real DSM progress between
/// themselves (lock-protected producer/consumer that never involves
/// node 0's service). Every node winds down cleanly without a global
/// barrier — `Tmk`'s drop path, the same safety net a panicking sweep
/// entry relies on.
#[test]
fn unknown_opcode_leaves_other_nodes_running() {
    const DONE: u32 = 7;
    for engine in EngineKind::ALL {
        let out = Cluster::run(ClusterConfig::sp2_on(3, engine), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let a = tmk.malloc_f64(64);
            match tmk.proc_id() {
                1 => {
                    // Poison node 0's service, then produce under the
                    // lock managed here (lock 1 % 3 == node 1).
                    node.endpoint().send_to_port(
                        0,
                        Port::Service,
                        0,
                        MsgKind::Control,
                        vec![0xDEAD_BEEF],
                    );
                    tmk.acquire(1);
                    let mut w = tmk.write(a, 0..8);
                    for i in 0..8 {
                        w[i] = 9.0;
                    }
                    drop(w);
                    tmk.release(1);
                    // Stay alive (serving diffs) until the consumer is
                    // done, then let node 0 wind down before `Tmk::drop`
                    // stops the service.
                    let _ = node.recv_from(2, DONE);
                    node.send(0, DONE, MsgKind::Data, vec![1]);
                    9.0
                }
                2 => {
                    // Consume: retry under the lock until the producer's
                    // release has propagated the interval.
                    let mut v = 0.0;
                    for _ in 0..10_000 {
                        tmk.acquire(1);
                        v = tmk.read_one(a, 3);
                        tmk.release(1);
                        if v == 9.0 {
                            break;
                        }
                    }
                    node.send(1, DONE, MsgKind::Data, vec![1]);
                    v
                }
                _ => {
                    // Wait for the producer's all-done signal, then stop
                    // our own (already-dead) service loop: the join
                    // inside `stop_service` is the happens-before edge
                    // that makes everything the service thread recorded
                    // — including the poison opcode — visible here, on
                    // both engines, with no wall-clock spinning.
                    let _ = node.recv_from(1, DONE);
                    tmk.stop_service();
                    let stats = tmk.stats_snapshot();
                    assert_eq!(stats.last_bad_opcode, Some(0xDEAD_BEEF), "engine {engine}");
                    assert_eq!(stats.service_errors, 1, "engine {engine}");
                    0.0
                }
            }
        });
        assert_eq!(out.results[1], 9.0, "engine {engine}");
        assert_eq!(out.results[2], 9.0, "engine {engine} consumer progress");
    }
}

/// A barrier arrival cut short, or with a count word that lies, fails
/// in the decoder as a bounds panic before the count sizes anything:
/// were the count trusted, the last two cases would ask the allocator
/// for terabytes (an abort, which no test survives) or overflow a
/// capacity.
#[test]
fn damaged_arrival_is_a_bounds_panic_not_an_allocation() {
    use treadmarks::interval::Interval;
    use treadmarks::protocol;

    let ivs = [Arc::new(Interval {
        node: 1,
        seq: 1,
        lamport: 1,
        pages: (0..40).collect(),
    })];
    let whole = protocol::encode_arrival(op::BARRIER_ARRIVE, 0, 1, &[0, 0], &vec![0, 1], &ivs);
    let decode = |buf: &[u64]| {
        std::panic::catch_unwind(|| {
            let mut r = sp2sim::WordReader::new(buf);
            assert_eq!(r.get(), op::BARRIER_ARRIVE);
            protocol::decode_arrival(&mut r, 2).intervals.len()
        })
        .map_err(|e| match e.downcast::<String>() {
            Ok(msg) => *msg,
            Err(_) => String::from("not a formatted panic"),
        })
    };
    assert_eq!(decode(&whole), Ok(1));
    // Layout: opcode, epoch, src, 2 push counts, 2 clock entries, the
    // interval count, then node, seq, lamport, page count, pages.
    let (n_at, npages_at) = (7, 11);
    assert_eq!((whole[n_at], whole[npages_at]), (1, 40), "layout moved");
    let truncated = &whole[..whole.len() - 7];
    let mut lying_pages = whole.clone();
    lying_pages[npages_at] = 1 << 40;
    let mut lying_count = whole.clone();
    lying_count[n_at] = 1 << 40;
    for (what, buf) in [
        ("truncated", truncated),
        ("page count", &lying_pages[..]),
        ("interval count", &lying_count[..]),
    ] {
        let msg = decode(buf).expect_err(what);
        assert!(msg.contains("out of range"), "{what}: {msg}");
    }
}
