//! Diffs: run-length encodings of page modifications.
//!
//! A diff is produced by comparing a page word-by-word against its twin
//! (the copy saved before the first modification). TreadMarks created
//! byte-granularity runs; all shared data in this reproduction is 64-bit
//! words, so runs are word-granular — the same encoding at the granularity
//! the applications actually write.
//!
//! A [`Diff`] is a **window**, not a copy: `(shared word buffer, offset,
//! len)` over the wire encoding
//! `[nruns, (start << 32 | len), words…, (start << 32 | len), words…]`,
//! in a buffer it shares with its neighbours. Cloning one — into a
//! response, a home copy, a push — is a reference-count bump; the words
//! are written once where they are made and read where they land.
//!
//! ## Life cycle
//!
//! *twin → the message that carries it → a window at the writer and one
//! at every receiver that keeps it → folded into the base at prune.*
//!
//! 1. **Twin → batch.** A site that freezes pages opens a [`DiffBatch`]
//!    and [`DiffBatch::push`]es each page against its twin. A batch is a
//!    [`WordWriter`]: the encodings are written side by side with
//!    whatever else the buffer carries.
//! 2. **A sent batch is its message.** Every batch of frozen diffs that
//!    leaves a node is built inside the message that carries it — an
//!    HLRC release's `HOME_FLUSH` per home, a diff or validate response
//!    (`lrc::serve`), a push group (`Tmk::do_pushes`).
//!    [`DiffBatch::message`] opens the batch on the per-thread scratch;
//!    the caller writes the message's own words around the diffs —
//!    opcode, entry headers, copies of ranges frozen earlier — and
//!    [`DiffBatch::into_message`] copies it out at its exact size as a
//!    shared payload, keeping the scratch for the next batch. A sent
//!    diff's words then exist once, in the message: [`Sealed::window`]
//!    makes each frozen page's `Diff` a window onto it. (An unchanged
//!    page is on the wire as the one word `[0]`; its window is the
//!    process-wide empty diff, which pins nothing.) A message that also
//!    carries copies — older ranges, whole pages — is not what its diffs
//!    pin: they are gathered into an exact-size buffer of their own
//!    (see "What a window retains").
//! 3. **A batch that stays seals.** The pages of an HLRC release homed
//!    at their writer, a page frozen to retire its twin (`freeze_all`),
//!    the ranges an LRC rendezvous pushes by meet and [`Diff::create`]
//!    never leave: [`DiffBatch::seal`] copies them into **one**
//!    exact-size shared allocation and hands the scratch back. An
//!    unchanged page is the process-wide empty diff, and a batch of
//!    unchanged pages seals into nothing. A push by meet carries a cut
//!    copy of such a range ([`Diff::encode_meet`]): the words its target
//!    reads with their values, the others as bare run headers — the
//!    holes of `crate::hole`, which keep no words anywhere.
//! 4. **Message → window.** The receiver wraps the payload it was handed
//!    in a [`Landed`] — an owned payload moves in, a shared one is the
//!    sender's buffer itself: no copy either way — and [`Diff::window`]
//!    measures each diff in place — every header hop bounds-checked
//!    against the message — yielding windows onto the payload. A diff
//!    response, a validate response and a push apply them straight from
//!    there and drop the message (a push by meet records its holes'
//!    runs beside the frame, and a later fault fills them from a diff
//!    response); a home keeps a flush's windows in `HomePage::ranges`.
//! 5. **Folded at prune.** `prune_home_copies` applies a range onto the
//!    page's base image and drops the window; the last window gone frees
//!    the message.
//!
//! ## What a window retains
//!
//! A window pins its **whole** buffer, so who holds windows for how long
//! bounds memory:
//!
//! * an HLRC writer keeps one range per page, the newest, and it is a
//!   window onto the `HOME_FLUSH` that carried it — the message the home
//!   keeps its own windows onto. A flush lives until the writer's later
//!   releases have replaced the newest range of every page in it *and*
//!   the home's prune has folded them: for pages written at every
//!   release, one flush per home and writer beyond what the home buffers
//!   anyway. (A page homed at its writer pins a sealed buffer instead.)
//! * the ranges of one home flush come from one interval of one writer:
//!   they share one `hi`, so the rendezvous minimum clock that folds one
//!   folds them all;
//! * an LRC response dies at apply at its requester (`apply_range`
//!   copies the words into the frame), but an LRC writer keeps every
//!   range it froze, as it always did, for the rest of the run. A range
//!   frozen into a response or push that carries nothing else is a
//!   window onto it (the message's own words are its entry headers). One
//!   that also carries copies of older ranges — a reader that lags, an
//!   aggregated validate — or whole pages (an HLRC push) would pin those
//!   copies for as long as the history lives, growing with every lagging
//!   request: its fresh diffs are gathered into an exact-size buffer
//!   beside the message, which then dies at its receiver.
//!
//! ## Fibers
//!
//! The scratch is per OS thread, and all fibers of the sequential engine
//! run on one: **seal or send before anything that can switch fibers**
//! (a blocking receive, a rendezvous, a service join — sends do not
//! switch). Every freeze site builds and finishes its batch inside one
//! critical section of the state lock, which contains none of those.
//! Breaking the rule costs speed, never words: an open batch *owns* the
//! scratch vector (it took it out of the thread-local), so a second
//! batch opened meanwhile starts on a fresh one.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut, Range};
use std::sync::{Arc, OnceLock};

use sp2sim::{Payload, WordReader, WordWriter};

/// A message's payload, shared by the windows into it: at a receiver,
/// the windows decoded out of it; at a sender that built diffs into it
/// ([`DiffBatch::into_message`]), the windows onto those. Nothing is
/// copied.
#[derive(Clone, Debug)]
pub struct Landed(Arc<Vec<u64>>);

impl Landed {
    /// Take over `payload` (a packet's, handed over by value): an owned
    /// one moves into the handle, a shared one already is one.
    pub fn new(payload: impl Into<Payload>) -> Landed {
        let words = payload.into().into_shared();
        assert!(words.len() <= u32::MAX as usize, "message too large");
        Landed(words)
    }

    /// A reader at the start of the payload.
    pub fn reader(&self) -> WordReader<'_> {
        WordReader::new(&self.0)
    }

    /// The payload.
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// Where `r` stands in the payload, which it must be reading: a
    /// window measured through the reader of another message would look
    /// at other words.
    pub(crate) fn offset_of(&self, r: &mut WordReader) -> usize {
        let off = self.0.len() - r.remaining();
        assert!(
            std::ptr::eq(r.take(0).as_ptr(), self.0[off..].as_ptr()),
            "the reader reads another message"
        );
        off
    }

    /// Handles on the payload: this one, its clones and every window.
    #[cfg(test)]
    pub(crate) fn refs(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

/// The buffer a window looks into — a [`Diff`]'s or an
/// [`Interval`](crate::interval::Interval)'s.
#[derive(Clone)]
pub(crate) enum Words {
    /// Words that never left their node: the diffs of one batch sealed
    /// side by side into one exact-size allocation, or an interval.
    Sealed(Arc<[u64]>),
    /// A message: where it landed, or the one its sender built.
    Landed(Landed),
}

impl Deref for Words {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Words::Sealed(words) => words,
            Words::Landed(msg) => &msg.0,
        }
    }
}

/// A run-length encoding of the modifications made to one page: runs of
/// consecutive modified words in increasing `start` order, non-adjacent.
/// A window onto a buffer shared with the diffs made or received beside
/// it (see the module docs).
#[derive(Clone)]
pub struct Diff {
    words: Words,
    /// The window `words[off..off + len]` is the wire encoding. Always
    /// well formed: `enc[0]` run headers follow, each with its `len`
    /// data words, and nothing else.
    off: u32,
    len: u32,
}

impl Default for Diff {
    /// The empty diff (`[0]`): one process-wide buffer, so an unchanged
    /// page allocates nothing.
    fn default() -> Diff {
        static EMPTY: OnceLock<Diff> = OnceLock::new();
        EMPTY
            .get_or_init(|| Diff {
                words: Words::Sealed(Arc::from([0u64])),
                off: 0,
                len: 1,
            })
            .clone()
    }
}

/// Diffs are equal when their encodings are, whatever buffers hold them.
impl PartialEq for Diff {
    fn eq(&self, other: &Diff) -> bool {
        self.enc() == other.enc()
    }
}

/// The window's own words, not the buffer around them.
impl fmt::Debug for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Diff").field("enc", &self.enc()).finish()
    }
}

thread_local! {
    /// The buffer a [`DiffBatch`] writes into. An open batch holds the
    /// vector; finishing the batch returns it.
    static SCRATCH: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

fn header(start: usize, len: usize) -> u64 {
    (start as u64) << 32 | len as u64
}

/// The next run of changed words at or after word `from`, as
/// `start..end`.
///
/// The scan is chunked: 8-word blocks are XOR-accumulated so fully
/// unchanged blocks (the common case when comparing a page against its
/// twin) are skipped with one branch, and fully changed blocks extend
/// the run without per-word branching. The blocks come from
/// `chunks_exact` over equal-length slices, which is what lets the
/// compiler drop the bounds checks and vectorize the block bodies
/// (indexing `old[i + k]` cost four times as much on an unchanged page).
fn next_run(old: &[u64], new: &[u64], from: usize) -> Option<Range<usize>> {
    const BLOCK: usize = 8;
    let n = new.len().min(old.len());
    let (old, new) = (&old[..n], &new[..n]);
    let blocks = |i: usize| {
        old[i..]
            .chunks_exact(BLOCK)
            .zip(new[i..].chunks_exact(BLOCK))
    };
    let mut i = from;
    // Skip unchanged blocks: OR together the XOR of each pair; zero
    // means the whole block matches.
    for (a, b) in blocks(i) {
        let mut acc = 0u64;
        for k in 0..BLOCK {
            acc |= a[k] ^ b[k];
        }
        if acc != 0 {
            break;
        }
        i += BLOCK;
    }
    // Word-wise skip through the partially changed block (or tail).
    while i < n && old[i] == new[i] {
        i += 1;
    }
    if i >= n {
        return None;
    }
    let start = i;
    // Extend the run a block at a time while every word differs.
    for (a, b) in blocks(i) {
        let mut all = true;
        for k in 0..BLOCK {
            all &= a[k] != b[k];
        }
        if !all {
            break;
        }
        i += BLOCK;
    }
    while i < n && old[i] != new[i] {
        i += 1;
    }
    Some(start..i)
}

/// Diffs under construction, in the buffer that will hold them: the
/// write half of the life cycle in the module docs. A batch is a
/// [`WordWriter`] (it dereferences to one) that
/// [`push`](DiffBatch::push) appends a page's diff to. Open one per
/// freeze site and [`into_message`](DiffBatch::into_message) or
/// [`seal`](DiffBatch::seal) it before anything that can switch fibers.
pub struct DiffBatch {
    w: WordWriter,
    /// A message carries every diff, an unchanged page's as the one word
    /// `[0]`; a sealed batch leaves those out.
    message: bool,
    /// The message also carries words kept elsewhere
    /// ([`DiffBatch::note_copies`]).
    copies: bool,
}

/// Where one pushed diff sits in its batch; [`Sealed::window`] of the
/// same batch turns it into the [`Diff`].
#[derive(Clone, Copy, Debug)]
pub struct Pending {
    off: u32,
    /// Encoded words; 0 for an unchanged page, whose window is the
    /// shared empty diff.
    len: u32,
    changed: u32,
}

impl Pending {
    /// Total number of modified words ([`Diff::changed_words`] of the
    /// diff this will be).
    pub fn changed_words(&self) -> usize {
        self.changed as usize
    }
}

impl Default for DiffBatch {
    fn default() -> DiffBatch {
        DiffBatch::new()
    }
}

impl DiffBatch {
    /// An empty batch over this thread's scratch vector, for diffs that
    /// stay on this node ([`DiffBatch::seal`]).
    pub fn new() -> DiffBatch {
        DiffBatch {
            w: WordWriter::reuse(SCRATCH.take()),
            message: false,
            copies: false,
        }
    }

    /// An empty batch over this thread's scratch vector, for a message
    /// ([`DiffBatch::into_message`]).
    pub fn message() -> DiffBatch {
        let mut batch = DiffBatch::new();
        batch.message = true;
        batch
    }

    /// Note that the message also carries words kept elsewhere — copies
    /// of ranges frozen earlier, whole pages — which the windows onto its
    /// diffs must not keep alive ([`DiffBatch::into_message`]).
    pub fn note_copies(&mut self) {
        self.copies = true;
    }

    /// Compare `new` against its twin `old` and encode the changed words
    /// behind what the batch already holds — in a message, an unchanged
    /// page too, as the empty diff's one word.
    ///
    /// Both slices must be the same length (one page). The run structure
    /// produced by the chunked scan (`next_run`) is identical to a
    /// word-by-word scan — disjoint, ordered, non-adjacent runs — which
    /// the property tests below pin. Runs need a word between them, so a
    /// page's encoding is at most `page words + 2` words (every other
    /// word changed).
    pub fn push(&mut self, old: &[u64], new: &[u64]) -> Pending {
        debug_assert_eq!(old.len(), new.len());
        let w = &mut self.w;
        let at = w.len();
        let (mut runs, mut changed) = (0, 0);
        let mut next = next_run(old, new, 0);
        if next.is_some() || self.message {
            w.put(0); // the run count, known at the end
        }
        while let Some(run) = next {
            runs += 1;
            changed += run.len();
            w.put(header(run.start, run.len()));
            w.put_raw(&new[run.clone()]);
            next = next_run(old, new, run.end);
        }
        if runs > 0 {
            w.set(at, runs);
        }
        assert!(w.len() <= u32::MAX as usize, "diff batch too large");
        Pending {
            off: at as u32,
            len: if runs > 0 { (w.len() - at) as u32 } else { 0 },
            changed: changed as u32,
        }
    }

    /// Copy the batch into one exact-size shared allocation (none if it
    /// is empty: no page changed) and hand the scratch back to the
    /// thread.
    pub fn seal(self) -> Sealed {
        let words = self.w.words();
        Sealed((!words.is_empty()).then(|| Words::Sealed(Arc::from(words))))
    }

    /// The batch as the message that carries it: the payload to send, its
    /// words copied out at their exact size (the buffer stays this
    /// thread's scratch), and the buffer that the diffs of `pending` —
    /// this batch's pushes, in push order — are windows onto. That buffer
    /// is the message itself, unless the message carries copies
    /// ([`DiffBatch::note_copies`]): a window would keep those alive as
    /// long as its diff, so the diffs are gathered into one exact-size
    /// buffer of their own, as [`DiffBatch::seal`] makes, and every
    /// `pending` is re-pointed into it.
    pub fn into_message<'p>(
        mut self,
        pending: impl IntoIterator<Item = &'p mut Pending>,
    ) -> (Sealed, Payload) {
        let msg = Landed::new(self.w.words().to_vec());
        if !self.copies {
            return (
                Sealed(Some(Words::Landed(msg.clone()))),
                Payload::Shared(msg.0),
            );
        }
        // The message is out: gather the diffs at the front of the scratch.
        let mut words = std::mem::take(&mut self.w).finish();
        let mut at = 0;
        for p in pending {
            let off = p.off as usize;
            debug_assert!(at <= off, "pending out of push order");
            words.copy_within(off..off + p.len as usize, at);
            p.off = at as u32;
            at += p.len as usize;
        }
        let sealed = Sealed((at > 0).then(|| Words::Sealed(Arc::from(&words[..at]))));
        self.w = WordWriter::reuse(words);
        (sealed, Payload::Shared(msg.0))
    }
}

impl Drop for DiffBatch {
    /// The buffer goes back to the thread, for the next batch.
    fn drop(&mut self) {
        SCRATCH.set(std::mem::take(&mut self.w).finish());
    }
}

impl Deref for DiffBatch {
    type Target = WordWriter;

    fn deref(&self) -> &WordWriter {
        &self.w
    }
}

impl DerefMut for DiffBatch {
    fn deref_mut(&mut self) -> &mut WordWriter {
        &mut self.w
    }
}

/// A finished batch: the buffer its diffs are windows onto — the message
/// that carried them, or the exact-size copy of a batch that stayed.
pub struct Sealed(Option<Words>);

impl Sealed {
    /// The diff `pending` stood for, which must come from the batch that
    /// was finished into `self`.
    pub fn window(&self, pending: Pending) -> Diff {
        match &self.0 {
            Some(words) if pending.len > 0 => Diff {
                words: words.clone(),
                off: pending.off,
                len: pending.len,
            },
            _ => Diff::default(),
        }
    }
}

impl Diff {
    /// Compare `new` against its twin `old` and encode the changed
    /// words: a [`DiffBatch`] of one.
    pub fn create(old: &[u64], new: &[u64]) -> Diff {
        let mut batch = DiffBatch::new();
        let pending = batch.push(old, new);
        // The only window there will be takes the buffer over.
        match batch.seal().0 {
            Some(words) => Diff {
                words,
                off: pending.off,
                len: pending.len,
            },
            None => Diff::default(),
        }
    }

    /// The window onto the next diff of `msg`, which `r` must be reading
    /// (the inverse of [`Diff::encode`], without the copy). The encoding
    /// says where it ends only through its headers, so the decoder hops
    /// them on a second cursor — every hop bounds-checked against the
    /// message, so a truncated or lying payload panics there like any
    /// over-read — and then steps `r` over the measured words.
    pub fn window(msg: &Landed, r: &mut WordReader) -> Diff {
        let off = msg.offset_of(r);
        let mut ahead = r.clone();
        let nruns = ahead.get();
        for _ in 0..nruns {
            let len = (ahead.get() & 0xFFFF_FFFF) as usize;
            ahead.take(len);
        }
        let enc = r.take(r.remaining() - ahead.remaining());
        if nruns == 0 {
            return Diff::default();
        }
        Diff {
            words: Words::Landed(msg.clone()),
            off: off as u32,
            len: enc.len() as u32,
        }
    }

    /// Do the two windows look into one buffer?
    #[cfg(test)]
    pub(crate) fn shares_buffer_with(&self, other: &Diff) -> bool {
        std::ptr::eq(self.words.as_ptr(), other.words.as_ptr())
    }

    /// The wire encoding.
    fn enc(&self) -> &[u64] {
        &self.words[self.off as usize..][..self.len as usize]
    }

    /// The runs, in order: `(start, new values)`.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (usize, &[u64])> {
        let mut rest = &self.enc()[1..];
        std::iter::from_fn(move || {
            let (&header, tail) = rest.split_first()?;
            let (words, tail) = tail.split_at((header & 0xFFFF_FFFF) as usize);
            rest = tail;
            Some(((header >> 32) as usize, words))
        })
    }

    /// Apply the diff to a page buffer.
    pub fn apply(&self, page: &mut [u64]) {
        for (start, words) in self.runs() {
            page[start..start + words.len()].copy_from_slice(words);
        }
    }

    /// Total number of modified words.
    pub fn changed_words(&self) -> usize {
        self.len as usize - 1 - self.enc()[0] as usize
    }

    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.enc()[0] == 0
    }

    /// Ascending page-relative indices of every modified word — the
    /// per-word write provenance the race detector records at each flush
    /// (see `crate::race`).
    pub fn changed_positions(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.changed_words());
        for (start, words) in self.runs() {
            out.extend(start as u32..(start + words.len()) as u32);
        }
        out
    }

    /// Size of the wire encoding in words: one count word plus, per run,
    /// a header word and the data words.
    pub fn encoded_words(&self) -> usize {
        self.len as usize
    }

    /// Serialize into a word stream. The encoding packs `(start, len)`
    /// into the run header word.
    pub fn encode(&self, w: &mut WordWriter) {
        w.put_raw(self.enc());
    }

    /// How many changed words lie in `keep` — sorted, disjoint
    /// page-relative word runs: the diff's **meet** with them.
    pub fn meet_words(&self, keep: &[Range<usize>]) -> usize {
        let mut words = 0;
        for (start, values) in self.runs() {
            split(start..start + values.len(), keep, |run, inside| {
                if inside {
                    words += run.len();
                }
            });
        }
        words
    }

    /// Serialize the meet of the diff with `keep` ([`Diff::meet_words`])
    /// as a diff of its own, then the rest of the diff's words as bare
    /// run headers behind their count (the holes of `crate::hole`).
    pub fn encode_meet(&self, keep: &[Range<usize>], w: &mut WordWriter) {
        let mut count = 0;
        let at = w.len();
        w.put(0);
        for (start, values) in self.runs() {
            split(start..start + values.len(), keep, |run, inside| {
                if inside {
                    count += 1;
                    w.put(header(run.start, run.len()));
                    w.put_raw(&values[run.start - start..run.end - start]);
                }
            });
        }
        w.set(at, count);
        let at = w.len();
        let mut holes = 0;
        w.put(0);
        for (start, values) in self.runs() {
            split(start..start + values.len(), keep, |run, inside| {
                if !inside {
                    holes += 1;
                    w.put(header(run.start, run.len()));
                }
            });
        }
        w.set(at, holes);
    }
}

/// Cut `run` at the edges of `keep` (sorted, disjoint runs) and hand
/// each piece to `f`, ascending, with whether it lies inside `keep`.
fn split(run: Range<usize>, keep: &[Range<usize>], mut f: impl FnMut(Range<usize>, bool)) {
    let mut at = run.start;
    let first = keep.partition_point(|k| k.end <= run.start);
    for k in keep[first..].iter().take_while(|k| k.start < run.end) {
        if k.start > at {
            f(at..k.start, false);
        }
        let end = k.end.min(run.end);
        f(at.max(k.start)..end, true);
        at = end;
    }
    if at < run.end {
        f(at..run.end, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The representation this module had before the flat buffer — a
    /// vector of runs, each owning its words, built, serialized and
    /// parsed a run and a word at a time. Kept as the reference the
    /// flat [`Diff`] must agree with word for word.
    mod reference {
        use sp2sim::{WordReader, WordWriter};

        #[derive(Clone, Debug, PartialEq)]
        pub struct Run {
            pub start: u32,
            pub words: Vec<u64>,
        }

        #[derive(Clone, Debug, PartialEq, Default)]
        pub struct RunDiff {
            pub runs: Vec<Run>,
        }

        impl RunDiff {
            /// Plain word-by-word scan.
            pub fn create(old: &[u64], new: &[u64]) -> RunDiff {
                let mut runs = Vec::new();
                let mut i = 0;
                while i < new.len() {
                    if old[i] == new[i] {
                        i += 1;
                        continue;
                    }
                    let start = i;
                    while i < new.len() && old[i] != new[i] {
                        i += 1;
                    }
                    runs.push(Run {
                        start: start as u32,
                        words: new[start..i].to_vec(),
                    });
                }
                RunDiff { runs }
            }

            pub fn apply(&self, page: &mut [u64]) {
                for run in &self.runs {
                    let s = run.start as usize;
                    page[s..s + run.words.len()].copy_from_slice(&run.words);
                }
            }

            pub fn changed_words(&self) -> usize {
                self.runs.iter().map(|r| r.words.len()).sum()
            }

            pub fn changed_positions(&self) -> Vec<u32> {
                let mut out = Vec::new();
                for run in &self.runs {
                    out.extend(run.start..run.start + run.words.len() as u32);
                }
                out
            }

            pub fn encode(&self, w: &mut WordWriter) {
                w.put_usize(self.runs.len());
                for run in &self.runs {
                    w.put((run.start as u64) << 32 | run.words.len() as u64);
                    for &x in &run.words {
                        w.put(x);
                    }
                }
            }

            pub fn decode(r: &mut WordReader) -> RunDiff {
                let nruns = r.get_usize();
                let mut runs = Vec::new();
                for _ in 0..nruns {
                    let header = r.get();
                    let start = (header >> 32) as u32;
                    let len = (header & 0xFFFF_FFFF) as usize;
                    let mut words = Vec::with_capacity(len);
                    for _ in 0..len {
                        words.push(r.get());
                    }
                    runs.push(Run { start, words });
                }
                RunDiff { runs }
            }
        }
    }
    use reference::RunDiff;

    fn encoded(d: &Diff) -> Vec<u64> {
        let mut w = WordWriter::new();
        d.encode(&mut w);
        w.finish()
    }

    /// `buf` as a received message.
    fn landed(buf: &[u64]) -> Landed {
        Landed::new(buf.to_vec())
    }

    /// The first diff of the message `buf`, as a window onto it.
    fn first_window(buf: &[u64]) -> Diff {
        let msg = landed(buf);
        let mut r = msg.reader();
        Diff::window(&msg, &mut r)
    }

    fn share_a_buffer(a: &Diff, b: &Diff) -> bool {
        a.shares_buffer_with(b)
    }

    /// Everything the flat diff must share with the reference for one
    /// `(old, new)` pair.
    fn assert_matches_reference(old: &[u64], new: &[u64]) {
        let d = Diff::create(old, new);
        let want = RunDiff::create(old, new);
        let mut w = WordWriter::new();
        want.encode(&mut w);
        let stream = w.finish();
        assert_eq!(encoded(&d), stream, "identical word stream");
        assert_eq!(d.encoded_words(), stream.len());
        assert_eq!(d.changed_words(), want.changed_words());
        assert_eq!(d.changed_positions(), want.changed_positions());
        assert_eq!(d.is_empty(), want.runs.is_empty());
        // Either decoder reads the other's stream; window(encode(d)) == d.
        let msg = landed(&stream);
        let mut r = msg.reader();
        assert_eq!(Diff::window(&msg, &mut r), d);
        assert!(r.is_exhausted());
        assert_eq!(RunDiff::decode(&mut WordReader::new(&encoded(&d))), want);
        // And both turn `old` into `new`.
        let (mut a, mut b) = (old.to_vec(), old.to_vec());
        d.apply(&mut a);
        want.apply(&mut b);
        assert_eq!(a, new);
        assert_eq!(b, new);
    }

    #[test]
    fn create_apply_roundtrip_basic() {
        let old = vec![0u64; 16];
        let mut new = old.clone();
        new[3] = 7;
        new[4] = 8;
        new[10] = 9;
        let d = Diff::create(&old, &new);
        assert_eq!(d.runs().count(), 2);
        assert_eq!(d.changed_words(), 3);
        assert_eq!(d.changed_positions(), vec![3, 4, 10]);
        let mut page = old.clone();
        d.apply(&mut page);
        assert_eq!(page, new);
    }

    /// The encoding's exact words: a change to the wire format (and with
    /// it to every simulated byte count) must show up here.
    #[test]
    fn encoding_golden_vector() {
        let old = vec![0u64; 16];
        let mut new = old.clone();
        new[3] = 7;
        new[4] = 8;
        new[10] = 9;
        new[15] = 1;
        assert_eq!(
            encoded(&Diff::create(&old, &new)),
            vec![3, 3 << 32 | 2, 7, 8, 10 << 32 | 1, 9, 15 << 32 | 1, 1]
        );
        assert_eq!(encoded(&Diff::create(&old, &old)), vec![0]);
        assert_eq!(encoded(&Diff::default()), vec![0]);
    }

    #[test]
    fn empty_diff_for_identical_pages() {
        let p = vec![5u64; 8];
        let d = Diff::create(&p, &p);
        assert!(d.is_empty());
        assert_eq!(d.encoded_words(), 1);
        assert_eq!(d.changed_words(), 0);
        assert_eq!(d, Diff::default());
        assert!(
            share_a_buffer(&d, &Diff::default()),
            "every empty diff is the one shared buffer"
        );
        assert!(
            share_a_buffer(&first_window(&[0, 9]), &d),
            "a received one too: it pins no message"
        );
    }

    #[test]
    fn full_page_diff() {
        let old = vec![0u64; 8];
        let new = vec![1u64; 8];
        let d = Diff::create(&old, &new);
        assert_eq!(d.runs().count(), 1);
        assert_eq!(d.changed_words(), 8);
        // 1 count + 1 header + 8 words.
        assert_eq!(d.encoded_words(), 10);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let old = vec![0u64; 32];
        let mut new = old.clone();
        for i in [0usize, 1, 5, 6, 7, 31] {
            new[i] = i as u64 + 100;
        }
        let d = Diff::create(&old, &new);
        let buf = encoded(&d);
        assert_eq!(buf.len(), d.encoded_words());
        assert_eq!(d, first_window(&buf));
    }

    #[test]
    fn a_window_covers_exactly_one_diff() {
        let a = Diff::create(&[0, 0, 0], &[1, 0, 2]);
        let mut w = WordWriter::new();
        a.encode(&mut w);
        Diff::default().encode(&mut w);
        a.encode(&mut w);
        w.put(77);
        let msg = Landed::new(w.finish());
        let mut r = msg.reader();
        let first = Diff::window(&msg, &mut r);
        assert_eq!(first, a);
        assert!(Diff::window(&msg, &mut r).is_empty());
        let third = Diff::window(&msg, &mut r);
        assert_eq!(third, a);
        assert_eq!(r.get(), 77);
        assert!(share_a_buffer(&first, &third) && !share_a_buffer(&first, &a));
        assert_eq!((first.off, third.off), (0, first.len + 1));
    }

    #[test]
    #[should_panic(expected = "another message")]
    fn a_window_through_a_reader_of_another_message_panics() {
        let buf = encoded(&Diff::create(&[0, 0], &[1, 0]));
        Diff::window(&landed(&buf), &mut landed(&buf).reader());
    }

    #[test]
    fn flat_diff_matches_reference_on_edge_shapes() {
        let page = 512;
        let old = vec![0u64; page];
        // Empty.
        assert_matches_reference(&old, &old);
        // One word.
        let mut one = old.clone();
        one[200] = 5;
        assert_matches_reference(&old, &one);
        // Full page.
        assert_matches_reference(&old, &vec![9u64; page]);
        // A run touching the last word.
        let mut tail = old.clone();
        for x in &mut tail[page - 11..] {
            *x = 3;
        }
        assert_matches_reference(&old, &tail);
        // 64 alternating runs.
        let mut alt = old.clone();
        for x in alt.iter_mut().step_by(2).take(64) {
            *x = 1;
        }
        assert_matches_reference(&old, &alt);
        assert_eq!(Diff::create(&old, &alt).runs().count(), 64);
        // A one-word page.
        assert_matches_reference(&[4], &[4]);
        assert_matches_reference(&[4], &[5]);
    }

    /// Alternating words are the worst case: a run per changed word, a
    /// header per run, and an odd page's extra run — `page words + 2`.
    #[test]
    fn the_longest_encoding_is_the_page_plus_two_words() {
        for page in [1usize, 2, 7, 8, 511, 512] {
            let old = vec![0u64; page];
            let mut alt = old.clone();
            for x in alt.iter_mut().step_by(2) {
                *x = 1;
            }
            let d = Diff::create(&old, &alt);
            assert_eq!(
                d.encoded_words(),
                1 + 2 * page.div_ceil(2),
                "page of {page}"
            );
            assert!(d.encoded_words() <= page + 2);
            let full = Diff::create(&old, &vec![1u64; page]);
            assert_eq!(full.encoded_words(), page + 2);
            // Equality is of encodings, not of buffers or places in them.
            let mut batch = DiffBatch::new();
            batch.push(&old, &alt);
            let pending = batch.push(&old, &vec![1u64; page]);
            let batched = batch.seal().window(pending);
            assert!(batched == full && !share_a_buffer(&batched, &full));
            assert_ne!(batched.off, full.off);
            assert!(page == 1 || batched != d, "page of {page}");
        }
    }

    /// An open batch owns the scratch: one opened meanwhile (another
    /// fiber of the thread, were the seal-before-switching rule broken)
    /// builds on a vector of its own, and neither sees the other's words.
    #[test]
    fn interleaved_batches_keep_their_words_apart() {
        let (old, a, b) = ([0u64; 4], [1u64, 0, 0, 0], [0u64, 0, 2, 2]);
        let mut first = DiffBatch::new();
        let pa = first.push(&old, &a);
        let mut second = DiffBatch::new();
        let pb = second.push(&old, &b);
        let pa2 = first.push(&old, &b);
        let (first, second) = (first.seal(), second.seal());
        assert_eq!(first.window(pa), Diff::create(&old, &a));
        assert_eq!(first.window(pa2), Diff::create(&old, &b));
        assert_eq!(second.window(pb), Diff::create(&old, &b));
        // A batch of unchanged pages seals into nothing at all.
        let mut idle = DiffBatch::new();
        let p = idle.push(&old, &old);
        assert_eq!(p.changed_words(), 0);
        let sealed = idle.seal();
        assert!(sealed.0.is_none());
        assert!(share_a_buffer(&sealed.window(p), &Diff::default()));
    }

    /// A sent batch is its message: copied out of the scratch at its
    /// exact size, it is the one buffer of the sender's windows, the
    /// payload and the receiver's windows, and the scratch stays this
    /// thread's. A message that also carries copies is not what its diffs
    /// pin: they are gathered apart.
    #[test]
    fn a_sent_batch_is_its_message() {
        let old = [0u64; 8];
        let (sparse, full) = ([0u64, 1, 1, 0, 0, 0, 0, 2], [1u64; 8]);
        let mut msg = DiffBatch::message();
        msg.put(77);
        let mut p = [msg.push(&old, &sparse), msg.push(&old, &old)];
        let scratch = msg.words().as_ptr();
        let (sealed, payload) = msg.into_message(&mut p);
        // The opcode; two runs (count, two headers, three words); the
        // unchanged page.
        assert_eq!(payload.len(), 1 + 6 + 1);
        assert_eq!(payload[7], 0, "an unchanged page is on the wire too");
        assert!(matches!(payload, Payload::Shared(_)));
        assert_ne!(payload.as_ptr(), scratch, "an exact-size copy");
        let mine = sealed.window(p[0]);
        assert_eq!(mine, Diff::create(&old, &sparse));
        let empty = sealed.window(p[1]);
        assert!(empty.is_empty() && share_a_buffer(&empty, &Diff::default()));
        let landed = Landed::new(payload);
        let mut r = landed.reader();
        assert_eq!(r.get(), 77);
        let theirs = Diff::window(&landed, &mut r);
        assert!(share_a_buffer(&mine, &theirs) && mine == theirs);
        assert_eq!(DiffBatch::new().words().as_ptr(), scratch, "kept");

        // An older diff copied in ahead of the fresh ones.
        let mut msg = DiffBatch::message();
        let copied = Diff::create(&old, &full);
        copied.encode(&mut msg);
        msg.note_copies();
        let mut p = [msg.push(&old, &old), msg.push(&old, &sparse)];
        let (sealed, payload) = msg.into_message(&mut p);
        let landed = Landed::new(payload);
        let mut r = landed.reader();
        assert_eq!(Diff::window(&landed, &mut r), copied);
        assert!(Diff::window(&landed, &mut r).is_empty());
        let theirs = Diff::window(&landed, &mut r);
        let mine = sealed.window(p[1]);
        assert!(mine == theirs && !share_a_buffer(&mine, &theirs));
        assert!(sealed.window(p[0]).is_empty());
        let apart = match &sealed.0 {
            Some(Words::Sealed(words)) => words.len(),
            _ => panic!("the fresh diffs are sealed apart"),
        };
        assert_eq!(apart, mine.encoded_words(), "at their exact size");
    }

    #[test]
    #[should_panic]
    fn a_window_onto_a_truncated_payload_panics() {
        let mut buf = encoded(&Diff::create(&[0; 8], &[0, 1, 1, 0, 0, 0, 2, 2]));
        buf.pop();
        first_window(&buf);
    }

    #[test]
    #[should_panic]
    fn a_run_length_past_the_message_panics() {
        // One run claiming five words; two follow.
        first_window(&[1, 5, 11, 12]);
    }

    #[test]
    #[should_panic]
    fn a_run_count_past_the_message_panics() {
        // Three runs claimed; the message ends after the first.
        first_window(&[3, 2 << 32 | 1, 7]);
    }

    #[test]
    #[should_panic]
    fn reference_decoder_panics_on_the_same_truncation() {
        RunDiff::decode(&mut WordReader::new(&[1, 5, 11, 12]));
    }

    fn flipped(old: &[u64], flips: Vec<(usize, u64)>) -> Vec<u64> {
        let mut new = old.to_vec();
        for (i, v) in flips {
            let i = i % new.len();
            new[i] = new[i].wrapping_add(v);
        }
        new
    }

    proptest! {
        /// apply(create(old, new), old) == new, for arbitrary pages.
        #[test]
        fn prop_diff_roundtrip(
            old in prop::collection::vec(0u64..4, 1..128),
            flips in prop::collection::vec((0usize..128, 1u64..4), 0..64),
        ) {
            let new = flipped(&old, flips);
            let d = Diff::create(&old, &new);
            let mut page = old.clone();
            d.apply(&mut page);
            prop_assert_eq!(&page, &new);
            // Encoding round-trips too.
            let buf = encoded(&d);
            prop_assert_eq!(buf.len(), d.encoded_words());
            prop_assert_eq!(d, first_window(&buf));
        }

        /// The flat diff and the run-by-run reference agree on the word
        /// stream, the counts, the positions and the result of `apply`.
        #[test]
        fn prop_flat_diff_matches_reference(
            old in prop::collection::vec(0u64..4, 1..600),
            flips in prop::collection::vec((0usize..600, 1u64..4), 0..200),
        ) {
            let new = flipped(&old, flips);
            assert_matches_reference(&old, &new);
        }

        /// The encoding never exceeds page size + 2 * runs + 1, and runs
        /// are disjoint, ordered, and non-adjacent.
        #[test]
        fn prop_diff_runs_canonical(
            old in prop::collection::vec(0u64..4, 1..128),
            flips in prop::collection::vec((0usize..128, 1u64..4), 0..64),
        ) {
            let new = flipped(&old, flips);
            let d = Diff::create(&old, &new);
            prop_assert!(d.changed_words() <= old.len());
            let mut prev_end: Option<usize> = None;
            for (start, words) in d.runs() {
                prop_assert!(!words.is_empty());
                if let Some(e) = prev_end {
                    // Non-adjacent: a gap of at least one unchanged word.
                    prop_assert!(start > e);
                }
                prev_end = Some(start + words.len());
            }
        }

        /// A batch of pages frozen side by side: every window equals the
        /// diff made on its own — and the reference — word for word;
        /// the windows share one exact-size buffer; the same diffs
        /// decoded as windows out of one message equal the originals;
        /// and a window that outlives its neighbours keeps its words.
        #[test]
        fn prop_batched_and_landed_windows_match_standalone_diffs(
            pages in prop::collection::vec(
                (
                    prop::collection::vec(0u64..4, 1..200),
                    prop::collection::vec((0usize..200, 1u64..4), 0..80),
                ),
                1..8,
            ),
            keep in 0usize..8,
        ) {
            let pages: Vec<(Vec<u64>, Vec<u64>)> = pages
                .into_iter()
                .map(|(old, flips)| {
                    let new = flipped(&old, flips);
                    (old, new)
                })
                .collect();
            let mut batch = DiffBatch::new();
            let pending: Vec<Pending> =
                pages.iter().map(|(old, new)| batch.push(old, new)).collect();
            let sealed = batch.seal();
            let mut windows: Vec<Diff> = pending.iter().map(|&p| sealed.window(p)).collect();
            drop(sealed);
            let mut message = WordWriter::new();
            for (((old, new), d), p) in pages.iter().zip(&windows).zip(&pending) {
                let alone = Diff::create(old, new);
                let want = RunDiff::create(old, new);
                let mut w = WordWriter::new();
                want.encode(&mut w);
                prop_assert_eq!(encoded(d), w.finish());
                prop_assert_eq!(d, &alone);
                prop_assert_eq!(d.encoded_words(), alone.encoded_words());
                prop_assert!(d.encoded_words() <= old.len() + 2);
                prop_assert_eq!(d.changed_words(), want.changed_words());
                prop_assert_eq!(p.changed_words(), want.changed_words());
                prop_assert_eq!(d.changed_positions(), want.changed_positions());
                prop_assert_eq!(d.is_empty(), want.runs.is_empty());
                let mut page = old.clone();
                d.apply(&mut page);
                prop_assert_eq!(&page, new);
                d.encode(&mut message);
            }
            // One buffer for the batch, exactly as long as its diffs (an
            // unchanged page is the shared empty diff and takes no room).
            let changed: Vec<&Diff> = windows.iter().filter(|d| !d.is_empty()).collect();
            for d in &changed {
                prop_assert!(share_a_buffer(d, changed[0]));
                prop_assert_eq!(
                    d.words.len(),
                    changed.iter().map(|d| d.encoded_words()).sum::<usize>()
                );
            }
            for d in windows.iter().filter(|d| d.is_empty()) {
                prop_assert!(share_a_buffer(d, &Diff::default()));
            }
            // The same diffs, read where one message landed.
            let msg = Landed::new(message.finish());
            let mut r = msg.reader();
            let landed: Vec<Diff> = pages.iter().map(|_| Diff::window(&msg, &mut r)).collect();
            prop_assert!(r.is_exhausted());
            drop(msg);
            prop_assert_eq!(&landed, &windows);
            // Drop every window but one, on both sides: its words stay.
            let keep = keep % windows.len();
            let (kept, kept_landed) = (windows.swap_remove(keep), landed[keep].clone());
            drop((windows, landed));
            let (old, new) = &pages[keep];
            for d in [kept, kept_landed] {
                let mut page = old.clone();
                d.apply(&mut page);
                prop_assert_eq!(&page, new);
            }
        }
    }
}
