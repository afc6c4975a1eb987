//! Regression tests for the unknown-service-opcode graceful-shutdown
//! path (`DsmStats::service_errors`): a malformed request must not
//! abort a whole parameter sweep — it is logged, counted, and shuts
//! only that node's service loop down, on every explored schedule. And
//! for the decoders: a damaged message — an arrival, a home flush, a
//! diff response, a page response, a diff request, a page request —
//! fails as an over-read, before any count in it sizes an allocation.

use std::rc::Rc;

use sp2sim::{Cluster, ClusterConfig, EngineKind, MsgKind, Port, StateCell};
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
///
/// So must a well-formed request of the protocol the node does *not*
/// run, in every build profile: each protocol's *serve* hook owns only
/// its opcodes. (Served anyway, a diff request at an HLRC node is
/// answered from a history its releases truncated, a page request at an
/// LRC node with a constructed zero page — or never — and a home flush
/// there feeds a home copy nobody prunes.)
#[test]
fn first_unassigned_opcode_is_rejected_gracefully() {
    use treadmarks::{hlrc, lrc, ProtocolMode};

    // PAGE_REQ and REDUCE_LIST are the two highest assigned opcodes;
    // the boundary sits one past REDUCE_LIST.
    assert_eq!(op::REDUCE_LIST, op::PAGE_REQ + 1, "opcode map moved");
    let diff_req = lrc::DiffReqEntry {
        page: 3,
        first_needed: 1,
    };
    let zero_watermarks = [(3usize, [0u32, 0].into_iter())];
    let bad: [(ProtocolMode, Vec<u64>); 5] = [
        (ProtocolMode::Lrc, vec![op::REDUCE_LIST + 1]),
        (ProtocolMode::Hlrc, vec![0xBAAD_F00D]),
        (
            ProtocolMode::Hlrc,
            lrc::encode_diff_req(op::DIFF_REQ, 7, 1, &[diff_req]),
        ),
        (
            ProtocolMode::Lrc,
            hlrc::encode_page_fetch_req(7, 1, 2, zero_watermarks.into_iter()),
        ),
        (ProtocolMode::Lrc, home_flush(1, &two_ranges())),
    ];
    for (protocol, request) in &bad {
        for engine in EngineKind::explore(8) {
            let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
                if node.id() == 0 {
                    let cfg = TmkConfig::default().with_protocol(*protocol);
                    let state = Rc::new(StateCell::new(node, DsmState::new(0, 2, cfg)));
                    let ep = node.take_service_endpoint();
                    let h = node.spawn_service({
                        let state = Rc::clone(&state);
                        move || service_loop(ep, state, cfg.protocol)
                    });
                    node.join_service(h);
                    let st = state.lock();
                    assert!(st.frames.is_empty() && st.pages.is_empty(), "served");
                    (st.stats.service_errors, st.stats.last_bad_opcode)
                } else {
                    node.endpoint().send_to_port(
                        0,
                        Port::Service,
                        0,
                        MsgKind::Control,
                        request.clone(),
                    );
                    (0, None)
                }
            });
            // Counted once, and the offending opcode itself is recorded for
            // the post-mortem (the shutdown log line carries it too).
            assert_eq!(
                out.results[0],
                (1, Some(request[0])),
                "opcode {} under {protocol}, engine {engine}",
                request[0]
            );
        }
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
    use treadmarks::hlrc;
    use treadmarks::protocol::{self, tag};
    use treadmarks::state::DiffRange;

    for engine in EngineKind::explore(8) {
        let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
            if node.id() == 0 {
                // The home: a bare service loop over HLRC state.
                let cfg = TmkConfig::hlrc();
                let state = Rc::new(StateCell::new(node, DsmState::new(0, 2, cfg)));
                let ep = node.take_service_endpoint();
                let h = node.spawn_service({
                    let state = Rc::clone(&state);
                    move || service_loop(ep, state, cfg.protocol)
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
                        home_flush(1, &[(3usize, range)]),
                    );
                };
                let fetch = |req_id: u32, required: u32| {
                    let rows = [(3usize, [0, required].into_iter())];
                    node.endpoint().send_to_port(
                        0,
                        Port::Service,
                        0,
                        MsgKind::PageReq,
                        hlrc::encode_page_fetch_req(req_id, 1, 2, rows.into_iter()),
                    );
                    let t = tag::PAGE_RESP | (req_id & 0xFFFF);
                    let pkt = node.recv_match(|p| p.src == 0 && p.tag == t);
                    let mut r = sp2sim::WordReader::new(&pkt.payload);
                    let first = protocol::decode_page_resp(&mut r, 2, pw).next();
                    first.expect("one page asked for").data[0]
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
    const PRODUCED: u32 = 8;
    for engine in EngineKind::explore(8) {
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
                    node.send(2, PRODUCED, MsgKind::Data, vec![1]);
                    // Stay alive (serving diffs) until the consumer is
                    // done, then let node 0 wind down before `Tmk::drop`
                    // stops the service.
                    let _ = node.recv_from(2, DONE);
                    node.send(0, DONE, MsgKind::Data, vec![1]);
                    9.0
                }
                2 => {
                    // Consume, once the producer has released: the grant
                    // carries its interval.
                    let _ = node.recv_from(1, PRODUCED);
                    tmk.acquire(1);
                    let v = tmk.read_one(a, 3);
                    tmk.release(1);
                    node.send(1, DONE, MsgKind::Data, vec![1]);
                    v
                }
                _ => {
                    // Wait for the producer's all-done signal, then stop
                    // our own (already-dead) service loop: the join
                    // inside `stop_service` is the happens-before edge
                    // that makes everything the service loop recorded
                    // — including the poison opcode — visible here, on
                    // every schedule.
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

/// Run a decoder; `Err` holds the message of the panic it ended in.
fn caught<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Result<T, String> {
    std::panic::catch_unwind(f).map_err(|e| match e.downcast::<String>() {
        Ok(msg) => *msg,
        Err(_) => String::from("not a formatted panic"),
    })
}

/// Every damaged form of a message must end its decoder in a bounds
/// panic — a count held against the words left, a slice or an index
/// past the end of the payload. Anything else (a capacity overflow, an
/// allocation failure the test would not even survive) means a count
/// was trusted.
fn assert_bounds_panics<T: std::fmt::Debug>(
    decode: impl Fn(&[u64]) -> Result<T, String>,
    damaged: &[(&str, Vec<u64>)],
) {
    for (what, buf) in damaged {
        let msg = decode(buf).expect_err(what);
        assert!(
            msg.contains("out of range") || msg.contains("out of bounds"),
            "{what}: {msg}"
        );
    }
}

/// `whole` with word `at` replaced.
fn with_word(whole: &[u64], at: usize, word: u64) -> Vec<u64> {
    let mut buf = whole.to_vec();
    buf[at] = word;
    buf
}

/// Two frozen ranges whose diffs have two runs each, for the messages
/// that carry diffs: `(page, range)`, eight-word pages.
fn two_ranges() -> Vec<(usize, treadmarks::state::DiffRange)> {
    use treadmarks::diff::Diff;
    [
        (3usize, [0, 7, 7, 0, 0, 9, 0, 0]),
        (5, [1, 0, 0, 0, 0, 0, 2, 2]),
    ]
    .into_iter()
    .map(|(page, new)| {
        let range = treadmarks::state::DiffRange {
            lo: 2,
            hi: 4,
            lamport: 11,
            diff: Diff::create(&[0; 8], &new),
        };
        (page, range)
    })
    .collect()
}

/// `ranges` as the count-prefixed diff entries of a message, behind the
/// words `head`.
fn entries_message(head: &[u64], ranges: &[(usize, treadmarks::state::DiffRange)]) -> Vec<u64> {
    let mut w = sp2sim::WordWriter::new();
    w.put_raw(head).put_usize(ranges.len());
    for (page, range) in ranges {
        treadmarks::protocol::encode_diff_entry(&mut w, *page, range);
    }
    w.finish()
}

/// A home flush of `ranges` from `writer`, word for word what a release
/// writes.
fn home_flush(writer: u64, ranges: &[(usize, treadmarks::state::DiffRange)]) -> Vec<u64> {
    entries_message(&[op::HOME_FLUSH, writer], ranges)
}

/// What a walk over diff entries saw: `(page, hi, the page the diff
/// makes of zeroes)` per entry.
type SeenDiffs = Vec<(usize, u32, [u64; 8])>;

fn seen(entries: impl Iterator<Item = treadmarks::protocol::DiffRespEntry>) -> SeenDiffs {
    entries
        .map(|e| {
            let mut page = [0; 8];
            e.range.diff.apply(&mut page);
            (e.page, e.range.hi, page)
        })
        .collect()
}

const TWO_RANGES_SEEN: [(usize, u32, [u64; 8]); 2] = [
    (3, 4, [0, 7, 7, 0, 0, 9, 0, 0]),
    (5, 4, [1, 0, 0, 0, 0, 0, 2, 2]),
];

/// A home flush is kept where it landed, so its decoder is the one that
/// must not trust it: truncated, or lying about its entry count, a run
/// count or a run length, it fails as an over-read.
#[test]
fn damaged_home_flush_is_a_bounds_panic_not_an_allocation() {
    use treadmarks::diff::Landed;
    use treadmarks::hlrc;

    let whole = home_flush(1, &two_ranges());
    let decode = |buf: &[u64]| {
        let buf = buf.to_vec();
        caught(move || {
            let msg = Landed::new(buf);
            let mut r = msg.reader();
            assert_eq!(r.get(), op::HOME_FLUSH);
            let (writer, entries) = hlrc::decode_home_flush(&msg, &mut r);
            (writer, seen(entries))
        })
    };
    assert_eq!(decode(&whole), Ok((1, TWO_RANGES_SEEN.to_vec())));
    // Layout: opcode, writer, the entry count, then per entry page, lo,
    // hi, lamport, the run count and per run a header and its words.
    let (count_at, runs_at, header_at) = (2, 7, 8);
    assert_eq!(
        (whole[count_at], whole[runs_at], whole[header_at]),
        (2, 2, 1 << 32 | 2),
        "layout moved"
    );
    assert_bounds_panics(
        decode,
        &[
            ("truncated", whole[..whole.len() - 2].to_vec()),
            ("cut inside the first entry", whole[..6].to_vec()),
            ("entry count", with_word(&whole, count_at, 1 << 40)),
            ("entry count, just too many", with_word(&whole, count_at, 5)),
            ("run count", with_word(&whole, runs_at, 1 << 40)),
            (
                "run length",
                with_word(&whole, header_at, 1 << 32 | 1 << 31),
            ),
        ],
    );
}

/// The same walk reads diff responses, validate responses and pushes:
/// the entry list without the flush's two leading words.
#[test]
fn damaged_diff_response_is_a_bounds_panic_not_an_allocation() {
    use treadmarks::diff::Landed;
    use treadmarks::protocol;

    let whole = entries_message(&[], &two_ranges());
    let entry_words = two_ranges()
        .into_iter()
        .map(|(_, r)| protocol::diff_entry_words(&r));
    assert_eq!(whole.len(), 1 + entry_words.sum::<usize>());
    let decode = |buf: &[u64]| {
        let buf = buf.to_vec();
        caught(move || {
            let msg = Landed::new(buf);
            let mut r = msg.reader();
            let entries = seen(protocol::decode_diff_entries(&msg, &mut r));
            assert!(r.is_exhausted());
            entries
        })
    };
    assert_eq!(decode(&whole), Ok(TWO_RANGES_SEEN.to_vec()));
    let (count_at, runs_at, header_at) = (0, 5, 6);
    assert_eq!(
        (whole[count_at], whole[runs_at], whole[header_at]),
        (2, 2, 1 << 32 | 2),
        "layout moved"
    );
    assert_bounds_panics(
        decode,
        &[
            ("truncated", whole[..whole.len() - 1].to_vec()),
            ("entry count", with_word(&whole, count_at, u64::MAX)),
            ("run count", with_word(&whole, runs_at, 1 << 40)),
            (
                "run length",
                with_word(&whole, header_at, 1 << 32 | 0xFFFF_FFFF),
            ),
        ],
    );
}

/// A page response is walked in place and each page copied once into
/// its frame; the walk holds the count against the words left.
#[test]
fn damaged_page_response_is_a_bounds_panic_not_an_allocation() {
    use treadmarks::protocol;

    let (n, pw) = (3, 4);
    let mut w = sp2sim::WordWriter::with_capacity(protocol::page_resp_words(2, n, pw));
    w.put_usize(2);
    protocol::encode_page_entry(&mut w, 6, &[0, 2, 1], &[7, 8, 9, 10]);
    protocol::encode_page_entry(&mut w, 9, &[1, 0, 0], &[0, 0, 5, 0]);
    let whole = w.finish();
    let decode = |buf: &[u64]| {
        caught(|| {
            let mut r = sp2sim::WordReader::new(buf);
            protocol::decode_page_resp(&mut r, n, pw)
                .map(|e| (e.page, e.applied().collect::<Vec<u32>>(), e.data.to_vec()))
                .collect::<Vec<_>>()
        })
    };
    assert_eq!(
        decode(&whole),
        Ok(vec![
            (6, vec![0, 2, 1], vec![7, 8, 9, 10]),
            (9, vec![1, 0, 0], vec![0, 0, 5, 0]),
        ])
    );
    assert_bounds_panics(
        decode,
        &[
            ("truncated", whole[..whole.len() - 1].to_vec()),
            ("entry count", with_word(&whole, 0, 1 << 40)),
            ("entry count, one too many", with_word(&whole, 0, 3)),
        ],
    );
}

/// A diff (or validate) request: the server walks its entries where
/// they landed, twice; the count is checked once, before either walk.
#[test]
fn damaged_diff_request_is_a_bounds_panic_not_an_allocation() {
    use treadmarks::lrc::{self, DiffReqEntry};

    let entries: Vec<DiffReqEntry> = (0..5)
        .map(|i| DiffReqEntry {
            page: 10 + i,
            first_needed: i as u32,
        })
        .collect();
    let whole = lrc::encode_diff_req(op::DIFF_REQ, 33, 2, &entries);
    let decode = |buf: &[u64]| {
        caught(|| {
            let mut r = sp2sim::WordReader::new(buf);
            assert_eq!(r.get(), op::DIFF_REQ);
            let (req_id, requester, got) = lrc::decode_diff_req(&mut r);
            (req_id, requester, got.collect::<Vec<_>>())
        })
    };
    assert_eq!(decode(&whole), Ok((33, 2, entries)));
    // Layout: opcode, request id, requester, the entry count, entries.
    let count_at = 3;
    assert_eq!(whole[count_at], 5, "layout moved");
    assert_bounds_panics(
        decode,
        &[
            ("truncated", whole[..whole.len() - 1].to_vec()),
            ("cut before the count", whole[..3].to_vec()),
            ("entry count", with_word(&whole, count_at, 1 << 40)),
            (
                "entry count past the sign bit",
                with_word(&whole, count_at, u64::MAX),
            ),
        ],
    );
}

/// A page request: the home walks its rows where they landed — to check
/// coverage, to serve, and again at every retry of a deferred request —
/// after the count was held against the words left.
#[test]
fn damaged_page_request_is_a_bounds_panic_not_an_allocation() {
    use treadmarks::hlrc;

    let rows = [(6usize, [0u32, 2, 1]), (9, [1, 0, 0])];
    let whole =
        hlrc::encode_page_fetch_req(17, 2, 3, rows.iter().map(|(p, r)| (*p, r.iter().copied())));
    let decode = |buf: &[u64]| {
        caught(|| {
            let mut r = sp2sim::WordReader::new(buf);
            assert_eq!(r.get(), op::PAGE_REQ);
            let (req_id, requester, rows) = hlrc::decode_page_fetch_req(&mut r, 3);
            let rows: Vec<(usize, Vec<u64>)> = rows.map(|(p, r)| (p, r.to_vec())).collect();
            (req_id, requester, rows)
        })
    };
    assert_eq!(
        decode(&whole),
        Ok((17, 2, vec![(6, vec![0, 2, 1]), (9, vec![1, 0, 0])]))
    );
    // Layout: opcode, request id, requester, the row count, rows.
    let count_at = 3;
    assert_eq!(whole[count_at], 2, "layout moved");
    assert_bounds_panics(
        decode,
        &[
            ("truncated", whole[..whole.len() - 1].to_vec()),
            ("row count", with_word(&whole, count_at, 1 << 40)),
            ("row count, one too many", with_word(&whole, count_at, 3)),
        ],
    );
}

/// A barrier arrival cut short, or with a count word that lies, fails
/// in the decoder as a bounds panic — when the message is taken in,
/// before the manager keeps it or integrates one interval of it. Nothing
/// in it sizes an allocation: its intervals are windows onto it.
#[test]
fn damaged_arrival_is_a_bounds_panic_not_an_allocation() {
    use treadmarks::diff::Landed;
    use treadmarks::interval::Interval;
    use treadmarks::protocol;

    let pages: Vec<usize> = (0..40).collect();
    let ivs = [Interval::seal(1, 1, 1, &pages)];
    let whole = protocol::encode_arrival(op::BARRIER_ARRIVE, 0, 1, &[0, 0], &[0, 1], &ivs);
    let decode = |buf: &[u64]| {
        let buf = buf.to_vec();
        caught(move || {
            assert_eq!(buf[0], op::BARRIER_ARRIVE);
            let a = protocol::decode_arrival(Landed::new(buf), 2);
            (a.src, a.vc().collect(), a.intervals.collect::<Vec<_>>())
        })
    };
    assert_eq!(decode(&whole), Ok((1, vec![0, 1], ivs.to_vec())));
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
