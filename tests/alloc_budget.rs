//! Allocation budgets of the HLRC release → home → fetch path, per diff,
//! of an LRC interval, and of an access fault under both protocols.
//!
//! A diff used to cost about twelve heap allocations on its way from
//! the twin to the home and back out in a page response (a vector per
//! run, an `Arc` around the diff, a cloned range list per served page,
//! per-page watermark vectors, two page clones per home construction).
//! With the diff as one shared buffer and the per-page containers gone
//! it cost about three, two of them private copies of the diff itself:
//! the writer's exact-size buffer and the home's decode. Now a diff is
//! a window: the pages of a release are frozen straight into one flush
//! message per home, which the writer and the home both keep windows
//! onto, and a fetched page is copied from its payload into the frame,
//! so a diff costs less than one allocation — its share of the flush
//! messages and of the dirty list, plus the fetches it causes. This
//! test keeps it from creeping back: it runs Jacobi SPF under HLRC for
//! `k` and `2k` iterations on the sequential engine under a counting
//! allocator and bounds the *extra* allocations per *extra* diff
//! created, which cancels everything a run allocates once (stacks,
//! frames, tables, the reference arrays). The same pair of runs bounds
//! the extra heap *bytes* per extra diff *word* created: a flushed word
//! is allocated once, in its message (8 bytes), where a sealed release
//! buffer beside the flushes used to hold it a second time.
//!
//! Under LRC the same pair of runs bounds the extra allocations per
//! extra *interval* created. Every node integrates every interval, and
//! a write notice used to be a `push` onto a per-page, per-writer list:
//! an interval cost each of the other seven nodes a share of those
//! lists' growth on top of its decode. With notices as watermarks in a
//! dense table, and an interval a window onto its wire words — sealed
//! once by its creator, read by everybody else in the message that
//! carried it, which the interval log keeps alive — an interval
//! allocates only the messages that carry it (each one's payload and
//! the handle its windows share) and the diffs its boundary pages are
//! asked for, frozen straight into the response that carries them and
//! read at the requester as windows onto it. The arrival that reports it and the
//! departures that spread it are encoded from the clock and the log
//! where they live, and read where they land.
//!
//! The same pair of runs, under each protocol, bounds the extra
//! allocations per extra access *fault*. The fault, fetch and publish
//! planners fill containers the `Tmk` keeps (per writer, per home,
//! outstanding requests, fetched entries, responses), and a home reads
//! a page request's rows where they landed, so what a steady-state
//! fault allocates is its messages: under LRC the request, the response
//! the served diffs are frozen into and the handle its windows share; under
//! HLRC only the request, plus its share of the releases' flushes — the
//! response is the home's memoized construction, which is laid out as
//! the one-page response and sent as a second handle on it. A `BTreeMap`
//! of entry vectors per fault, as the planners used to build, would
//! show here at once. The same HLRC pair bounds the extra heap bytes per
//! extra page fetch, net of the diff words' 8 bytes: a home that copied
//! every page it serves into a reply buffer of its own would add a page
//! per fetch.
//!
//! The message-passing versions get the same treatment, per message:
//! Jacobi and Shallow, XHPF and PVMe, for `k` and `2k` iterations. A
//! message is packed from the arrays into the payload `Vec` its packet
//! owns and unpacked from there into the arrays, and every buffer a
//! node computes on lives across iterations — so the extra heap bytes
//! are the extra payload bytes (plus slack for queue growth) and the
//! extra allocation calls at most two per extra message. Before the
//! pack/unpack rework Jacobi XHPF allocated about nine times the bytes
//! it sent, 116 KB per allocation: fresh slabs and copies every sweep.
//! IGrid and NBF under XHPF broadcast whole partitions to seven peers
//! every iteration; a broadcast's words are packed once, into a payload
//! its seven packets share, so those cells allocate about a seventh of
//! the bytes they send (a copy per destination allocated all of them).
//!
//! The hinted path gets a budget per *dispatch*: Shallow SPF+CRI for `k`
//! and `2k` iterations. Its loops come back with the same range every
//! iteration, so every hint is a plan replay — three flat lists, no
//! descriptor evaluated, no page set built — and what an extra dispatch
//! allocates is what its messages, intervals and diffs allocate. Before
//! hint plans each dispatch evaluated its loop's descriptor once per
//! consumer and peer and built a `BTreeSet` of pages for each: fifteen
//! times the allocations, nearly all of them hint-side.
//!
//! Hinted NBF gets a budget per *window word*: its force merge is a
//! windowed ordered reduction, in which every node contributes its
//! buffer window and gets back the range of the sum it owns. The
//! denominator is the window words the nodes contribute — every node's
//! window, every iteration — which do not depend on how the words
//! travel. A window is drained once, straight into the messages that
//! carry its parts to the nodes that need them, and every node folds
//! its range from the messages where they landed and keeps only that
//! range. When every node also collected its window into a vector of
//! its own and got a full-length result vector back, and a gather root
//! decoded every window twice and re-encoded them all for its own
//! application, it cost 5.5 times the bytes.
//!
//! The budgets are one test: the counters are process-wide. They count
//! the measuring thread only — every measured run is on the sequential
//! engine, i.e. on the thread that calls it — so what libtest's own
//! thread, or the twin-arena test beside it, allocates is not in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use apps::jacobi::{self, Params};
use apps::{igrid, mgs, nbf, shallow, AppId, RunResult, RunSpec, Version};
use mpl::Comm;
use sp2sim::{Cluster, ClusterConfig, EngineKind};
use treadmarks::TmkConfig;

/// Allocation calls so far (`realloc` counts as one).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for so far (a `realloc` counts its whole new size).
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the thread whose allocations count. `const`-initialized
    /// and without a destructor, so reading it inside the allocator
    /// neither allocates nor recurses.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if MEASURED.get() {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counter is a side
// effect that never touches the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the `(allocation calls, bytes)` of this thread
/// while it ran.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    MEASURED.set(true);
    let r = f();
    MEASURED.set(false);
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    (r, allocs - before.0, bytes - before.1)
}

/// Allocation budget per diff created (measured: 0.36; with a sealed
/// release buffer beside the flush messages: 0.37; with a rebuilt
/// entry list per page request and the planners' maps: 1.02; with a
/// private buffer per diff at the writer and another at the home: 3.14; with
/// per-writer notice lists: about 4.5; before the flat diff and the
/// dense page table: about 12).
const ALLOCS_PER_DIFF: f64 = 1.0;

/// Allocation budget per interval created under LRC (measured: 8.69;
/// with a sealed buffer beside each diff response and a copy of every
/// dispatch's control words: 10.4; with an owned
/// page list and an `Arc` per interval per receiver and
/// `BTreeMap` planners: 32.3; before diffs were windows and arrivals
/// encoded in place: 49.3; with per-writer notice lists: about 134).
const ALLOCS_PER_INTERVAL: f64 = 15.0;

/// Allocation budgets per fault, `DsmStats::faults`: access misses and
/// write faults alike. Everything the extra iterations allocate is
/// counted against their faults, the releases' and rendezvous' share
/// included. Under LRC a twin outlives the release, so most faults are
/// misses with their round trips (measured: 4.96; with a sealed buffer
/// beside each diff response and a copy of every dispatch's control
/// words: 5.96; with the planners' maps and owned
/// intervals: 18.5). Under HLRC every release freezes
/// the page and the next iteration's store faults again, which
/// allocates nothing — the twin comes from the arena — so the misses
/// are a small share of the faults (measured: 0.341; with a reply buffer
/// per served page: 0.355; earlier: 1.01).
const ALLOCS_PER_FAULT_LRC: f64 = 9.0;
const ALLOCS_PER_FAULT_HLRC: f64 = 0.55;

/// Heap bytes budget per diff word created on the HLRC release path
/// (measured: 11.5, each flushed word in one message that the writer's
/// and the home's windows share; with a reply buffer per served page:
/// 12.9; with the release's sealed buffer beside each home's flush,
/// every flushed word allocated twice: 20.8).
const HEAP_PER_DIFF_WORD: f64 = 16.0;

/// Heap bytes budget per HLRC page fetch, net of 8 bytes per diff word
/// created (measured: 10 609, the fault's request and its share of the
/// releases and rendezvous, the response being a second handle on the
/// home's construction; with a reply buffer the home copied each served
/// page into: 14 785).
const HEAP_PER_PAGE_FETCH: f64 = 12_000.0;

/// `[allocations, heap bytes, diffs created, diff words created,
/// intervals created, access faults, page fetches]` of one 8-node Jacobi
/// SPF run on a 512 x 512 grid (one page per column, so every node's
/// block has boundary pages its neighbours fetch every iteration).
fn jacobi_spf(iters: usize, cfg: TmkConfig) -> [u64; 7] {
    let spec = RunSpec::new(AppId::Jacobi, Version::Spf, 8, 0.25);
    let p = Params { n: 512, iters };
    let (r, allocs, bytes) = counted(|| RunSpec { cfg, ..spec }.launch(&p, jacobi::node));
    [
        allocs,
        bytes,
        r.dsm.diffs_created,
        r.dsm.diff_words_created,
        r.dsm.intervals_created,
        r.dsm.faults,
        r.dsm.page_fetches,
    ]
}

/// An 8-node run on the sequential engine, by version and iteration
/// count.
type Run = fn(Version, usize) -> RunResult;

fn jacobi_run(version: Version, iters: usize) -> RunResult {
    let p = Params { n: 512, iters };
    RunSpec::new(AppId::Jacobi, version, 8, 0.25).launch(&p, jacobi::node)
}

fn shallow_run(version: Version, iters: usize) -> RunResult {
    let p = shallow::Params { n: 256, iters };
    RunSpec::new(AppId::Shallow, version, 8, 0.25).launch(&p, shallow::node)
}

/// `[allocation calls, bytes allocated, messages, payload bytes]` of one
/// run; the last two cover the timed iterations.
fn measure(run: impl FnOnce() -> RunResult) -> [u64; 4] {
    let (r, allocs, bytes) = counted(run);
    [
        allocs,
        bytes,
        r.stats.total_messages(),
        r.stats.total_bytes(),
    ]
}

/// Allocation budget per dispatch of hinted Shallow, cluster-wide
/// (measured: 129.9 in release and in the profile `cargo test` runs
/// since pushes carry meets — a sealed batch per rendezvous for the
/// ranges they are cut from, each receiver's hole list and holes; 106.6
/// before, 189.2 with debug assertions while the view fence allocated
/// per body; the protocol's own, with a row wrap fused into
/// each step loop's dispatch; about 112 per loop before fusion; with a sealed buffer beside
/// each diff response and push and a copy of the control words: about
/// 133; with owned intervals and
/// the planners' maps: about 317; with a buffer per pushed and per
/// received diff: about 545; before hint plans: about 8100).
const ALLOCS_PER_HINTED_DISPATCH: f64 = 200.0;

/// `(allocations, loops dispatched)` of one 8-node Shallow SPF+CRI run
/// on a 256 x 256 grid.
fn shallow_cri(iters: usize) -> (u64, u64) {
    let (r, allocs, _) = counted(|| shallow_run(Version::SpfCri, iters));
    (allocs, r.dsm.forks)
}

fn hinted_dispatches_replay_their_plans() {
    shallow_cri(2);
    let k = 6;
    let (allocs_k, forks_k) = shallow_cri(k);
    let (allocs_2k, forks_2k) = shallow_cri(2 * k);
    let forks = forks_2k - forks_k;
    // Three dispatches per iteration: each step loop shares one with its
    // row wrap.
    assert!(
        forks >= 3 * k as u64,
        "the longer run dispatches more loops"
    );
    let per_dispatch = (allocs_2k - allocs_k) as f64 / forks as f64;
    eprintln!(
        "Shallow SPF+CRI allocations: {allocs_k} for {k} iterations, {allocs_2k} for {}; \
         loops dispatched: {forks_k}, {forks_2k}; {per_dispatch:.1} allocations per extra dispatch",
        2 * k
    );
    assert!(
        per_dispatch <= ALLOCS_PER_HINTED_DISPATCH,
        "{per_dispatch:.1} allocations per hinted dispatch exceed the budget of \
         {ALLOCS_PER_HINTED_DISPATCH}"
    );
}

/// Allocation budget per link of hinted MGS's chained pivot loop,
/// cluster-wide (measured: 52.9 in release, 87.3 with debug
/// assertions; 539.2 and 645.6 while every node built each link's hint
/// plans afresh from an access list its descriptor derived, and the
/// prelude's touches came as a list; 601.9 and 708.3 while each link
/// filled a writer's runs, pushed words and readers of its own; about
/// 611 and 733 while its walks did too; about 633 and 714 per pivot
/// when every pivot had a fork-join of its own). Split by where they
/// happen, as a per-phase counter in a copy of this test read them,
/// release / debug: the link push and its take and the rest of the
/// protocol and the run-time, 52.3 / 54.3; the debug view fence of each
/// link's body, 0 / 32.4; every node's hint plans, refilled for each
/// link's new range, 0.50 / 0.50 (their lists growing with the longer
/// run's longer columns); deriving the link on every node and on the
/// master as it forms the run, 0.12 / 0.12. The plans took 477.7 /
/// 549.7 while they were built afresh, and the prelude's touch lists
/// 9.2.
const ALLOCS_PER_CHAINED_LINK: f64 = 150.0;

/// `(allocations, links, forks)` of one 8-node MGS SPF+CRI run on `n`
/// vectors of `n` words: its pivot loop is one chain of `n` links.
fn mgs_cri(n: usize) -> (u64, u64, u64) {
    let p = mgs::Params { n };
    let run = || RunSpec::new(AppId::Mgs, Version::SpfCri, 8, 0.25).launch(&p, mgs::node);
    let (r, allocs, _) = counted(run);
    (allocs, n as u64, r.dsm.forks)
}

/// Hinted MGS for chains of `n` and `2n` links: the extra allocations
/// per extra link. A link is what every node derives from its walks —
/// its writer and readers, from every node's footprints of the link
/// and the loop before, walked again — the writer's interval and link
/// push, and the forwarders' copies on the way down the tree; the chain
/// adds no fork.
fn chained_links_allocate_their_messages() {
    mgs_cri(16);
    let (allocs_n, links_n, forks_n) = mgs_cri(64);
    let (allocs_2n, links_2n, forks_2n) = mgs_cri(128);
    assert_eq!(forks_n, forks_2n, "the pivot loop is one fork however long");
    let per_link = (allocs_2n - allocs_n) as f64 / (links_2n - links_n) as f64;
    eprintln!(
        "MGS SPF+CRI allocations: {allocs_n} for {links_n} links, {allocs_2n} for {links_2n}; \
         {per_link:.1} allocations per extra chained link"
    );
    assert!(
        per_link <= ALLOCS_PER_CHAINED_LINK,
        "{per_link:.1} allocations per chained link exceed the budget of \
         {ALLOCS_PER_CHAINED_LINK}"
    );
}

/// Heap bytes budget per window word of hinted NBF (measured: 20.2,
/// each part of a window in the message that carries it and each node's
/// result its own range).
const HEAP_PER_WINDOW_WORD: f64 = 24.0;

/// `(heap bytes, window words)` of one 8-node NBF SPF+CRI run. Its
/// window words are what the nodes hand its windowed reductions: every
/// node's buffer window, three words per molecule, once per iteration.
fn nbf_cri(iters: usize) -> (u64, u64) {
    let p = nbf::params(0.25);
    let window = |q: usize| {
        let block = spf::block_range(q, 8, 0..p.m);
        match block.is_empty() {
            true => 0,
            false => (block.end + p.w).min(p.m) - block.start.saturating_sub(p.w),
        }
    };
    let words = 3 * (0..8).map(window).sum::<usize>() * iters;
    let (_, _, bytes) = counted(|| nbf_run(Version::SpfCri, iters));
    (bytes, words as u64)
}

fn hinted_reductions_allocate_their_windows_once() {
    nbf_cri(2);
    let k = 6;
    let (bytes_k, words_k) = nbf_cri(k);
    let (bytes_2k, words_2k) = nbf_cri(2 * k);
    let per_word = (bytes_2k - bytes_k) as f64 / (words_2k - words_k) as f64;
    eprintln!(
        "NBF SPF+CRI heap bytes: {bytes_k} for {k} iterations, {bytes_2k} for {}; window \
         words: {words_k}, {words_2k}; {per_word:.1} heap bytes per extra window word",
        2 * k
    );
    assert!(
        per_word <= HEAP_PER_WINDOW_WORD,
        "{per_word:.1} heap bytes per window word exceed the budget of {HEAP_PER_WINDOW_WORD}"
    );
}

/// Extra heap bytes allowed per extra payload byte sent.
const HEAP_PER_PAYLOAD_BYTE: f64 = 1.25;
/// Extra allocation calls allowed per extra message.
const ALLOCS_PER_MESSAGE: f64 = 2.0;

/// Allocation calls of a 2-node run in which rank 0 sends `msgs`
/// 64-word messages that rank 1 takes with the owned `recv_f64s`, each
/// acknowledged by an empty signal.
fn owned_receives(msgs: usize) -> u64 {
    let run = || {
        Cluster::run(ClusterConfig::sp2_on(2, EngineKind::Sequential), |node| {
            let comm = Comm::new(node);
            for i in 0..msgs {
                if comm.rank() == 0 {
                    comm.send_f64s(1, 7, &[i as f64; 64]);
                    comm.recv_signal(1, 8);
                } else {
                    assert_eq!(comm.recv_f64s(0, 7)[63], i as f64);
                    comm.send_signal(0, 8);
                }
            }
        })
    };
    counted(run).1
}

fn message_passing_iterations_allocate_only_their_payloads() {
    // `recv_f64s` hands over the buffer the packet owns: the sender's
    // payload is the one allocation of a message, the `u64 -> f64`
    // collect reuses it.
    owned_receives(10);
    let extra = owned_receives(300) - owned_receives(100);
    assert!(extra <= 200, "{extra} allocations for 200 more messages");

    let point_to_point: [(&str, Run); 2] = [("Jacobi", jacobi_run), ("Shallow", shallow_run)];
    for (app, run) in point_to_point {
        for version in [Version::Xhpf, Version::Pvme] {
            within_message_budget(app, version, run, HEAP_PER_PAYLOAD_BYTE);
        }
    }
    let broadcasts: [(&str, Run); 2] = [("IGrid", igrid_run), ("NBF", nbf_run)];
    for (app, run) in broadcasts {
        within_message_budget(app, Version::Xhpf, run, HEAP_PER_BROADCAST_BYTE);
    }
}

/// Extra heap bytes allowed per extra payload byte of the broadcast-heavy
/// XHPF cells (measured: 0.14 for IGrid and NBF, a fragment packed once
/// for its seven destinations; packed once per destination: 1.00).
const HEAP_PER_BROADCAST_BYTE: f64 = 0.25;

fn igrid_run(version: Version, iters: usize) -> RunResult {
    let p = igrid::Params {
        iters,
        ..igrid::params(0.25)
    };
    RunSpec::new(AppId::IGrid, version, 8, 0.25).launch(&p, igrid::node)
}

fn nbf_run(version: Version, iters: usize) -> RunResult {
    let p = nbf::Params {
        iters,
        ..nbf::params(0.25)
    };
    RunSpec::new(AppId::Nbf, version, 8, 0.25).launch(&p, nbf::node)
}

/// `run` of `app` in `version` for `k` and `2k` iterations: the extra
/// heap bytes per extra payload byte within `heap_per_byte`, the extra
/// allocations per extra message within [`ALLOCS_PER_MESSAGE`].
fn within_message_budget(app: &str, version: Version, run: Run, heap_per_byte: f64) {
    let k = 6;
    run(version, 2);
    let short = measure(|| run(version, k));
    let long = measure(|| run(version, 2 * k));
    let [allocs, heap, msgs, payload] = [0, 1, 2, 3].map(|i| long[i] - short[i]);
    assert!(msgs > 0 && payload > 0, "the longer run sends more");
    let (per_byte, per_msg) = (heap as f64 / payload as f64, allocs as f64 / msgs as f64);
    eprintln!(
        "{app} {version:?}: {k} more iterations send {msgs} messages, {payload} payload \
         bytes; they allocate {allocs} times, {heap} bytes: {per_byte:.2} heap bytes \
         per payload byte, {per_msg:.2} allocations per message"
    );
    assert!(
        per_byte <= heap_per_byte,
        "{app} {version:?}: {per_byte:.2} heap bytes per payload byte exceed the budget of \
         {heap_per_byte}"
    );
    assert!(
        per_msg <= ALLOCS_PER_MESSAGE,
        "{app} {version:?}: {per_msg:.2} allocations per message"
    );
}

#[test]
fn release_paths_stay_within_their_allocation_budgets() {
    message_passing_iterations_allocate_only_their_payloads();
    hinted_dispatches_replay_their_plans();
    chained_links_allocate_their_messages();
    hinted_reductions_allocate_their_windows_once();

    // Warm-up: one-time allocations (the fiber stacks this thread
    // parks, lazily initialized statics) land outside the measurement.
    jacobi_spf(2, TmkConfig::hlrc());
    let k = 6;
    let [allocs_k, bytes_k, diffs_k, words_k, _, faults_k, fetches_k] =
        jacobi_spf(k, TmkConfig::hlrc());
    let [allocs_2k, bytes_2k, diffs_2k, words_2k, _, faults_2k, fetches_2k] =
        jacobi_spf(2 * k, TmkConfig::hlrc());
    let diffs = diffs_2k - diffs_k;
    assert!(
        diffs > 1000,
        "the longer run creates more diffs ({diffs_k} -> {diffs_2k})"
    );
    let per_diff = (allocs_2k - allocs_k) as f64 / diffs as f64;
    eprintln!(
        "allocations: {allocs_k} for {k} iterations, {allocs_2k} for {}; \
         diffs created: {diffs_k}, {diffs_2k}; {per_diff:.2} allocations per extra diff",
        2 * k
    );
    assert!(
        per_diff <= ALLOCS_PER_DIFF,
        "{per_diff:.2} allocations per diff created exceed the budget of {ALLOCS_PER_DIFF}"
    );
    let per_word = (bytes_2k - bytes_k) as f64 / (words_2k - words_k) as f64;
    eprintln!(
        "heap bytes: {bytes_k} for {k} iterations, {bytes_2k} for {}; diff words created: \
         {words_k}, {words_2k}; {per_word:.1} heap bytes per extra diff word",
        2 * k
    );
    assert!(
        per_word <= HEAP_PER_DIFF_WORD,
        "{per_word:.1} heap bytes per diff word created exceed the budget of {HEAP_PER_DIFF_WORD}"
    );
    let fetches = fetches_2k - fetches_k;
    assert!(fetches >= 8 * k as u64, "the longer run fetches more pages");
    let net = (bytes_2k - bytes_k) as f64 - 8.0 * (words_2k - words_k) as f64;
    let per_fetch = net / fetches as f64;
    eprintln!(
        "page fetches: {fetches_k} for {k} iterations, {fetches_2k} for {}; {per_fetch:.0} \
         heap bytes per extra page fetch, net of the diff words' 8 bytes",
        2 * k
    );
    assert!(
        per_fetch <= HEAP_PER_PAGE_FETCH,
        "{per_fetch:.0} heap bytes per page fetch exceed the budget of {HEAP_PER_PAGE_FETCH}"
    );
    within_fault_budget(
        "HLRC",
        allocs_2k - allocs_k,
        faults_2k - faults_k,
        ALLOCS_PER_FAULT_HLRC,
    );

    let [allocs_k, _, _, _, intervals_k, faults_k, _] = jacobi_spf(k, TmkConfig::default());
    let [allocs_2k, _, _, _, intervals_2k, faults_2k, _] = jacobi_spf(2 * k, TmkConfig::default());
    let intervals = intervals_2k - intervals_k;
    assert!(
        intervals >= 8 * k as u64,
        "the longer run creates more intervals ({intervals_k} -> {intervals_2k})"
    );
    let per_interval = (allocs_2k - allocs_k) as f64 / intervals as f64;
    eprintln!(
        "LRC allocations: {allocs_k} for {k} iterations, {allocs_2k} for {}; intervals \
         created: {intervals_k}, {intervals_2k}; {per_interval:.2} allocations per extra interval",
        2 * k
    );
    assert!(
        per_interval <= ALLOCS_PER_INTERVAL,
        "{per_interval:.2} allocations per interval created exceed the budget of \
         {ALLOCS_PER_INTERVAL}"
    );
    within_fault_budget(
        "LRC",
        allocs_2k - allocs_k,
        faults_2k - faults_k,
        ALLOCS_PER_FAULT_LRC,
    );
}

/// The scratch arena's point: misses are bounded by the peak number of
/// concurrently-live twins (they only happen while the pool is still
/// warming), while hits grow with every epoch after that. A multi-epoch
/// Jacobi run must therefore recycle more twins than it allocates.
#[test]
fn arena_recycles_at_steady_state() {
    let dsm = RunSpec::new(AppId::Jacobi, Version::Spf, 8, 0.1).run().dsm;
    assert!(
        dsm.arena_hits > dsm.arena_misses,
        "recycling should dominate allocation: {} hits vs {} misses",
        dsm.arena_hits,
        dsm.arena_misses
    );
    assert!(dsm.arena_peak_bytes > 0, "arena parked at least one twin");
}

/// The extra iterations' `allocs` over their access `faults`, held
/// against `budget`.
fn within_fault_budget(protocol: &str, allocs: u64, faults: u64, budget: f64) {
    assert!(faults > 100, "{protocol}: the longer run faults more");
    let per_fault = allocs as f64 / faults as f64;
    eprintln!(
        "{protocol}: {allocs} more allocations, {faults} more faults; {per_fault:.2} \
         allocations per extra fault"
    );
    assert!(
        per_fault <= budget,
        "{protocol}: {per_fault:.2} allocations per access fault exceed the budget of {budget}"
    );
}
