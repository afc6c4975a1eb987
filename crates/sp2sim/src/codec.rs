//! Word-level encoding helpers for protocol messages.
//!
//! Every payload in the simulator is a word vector. Protocol layers encode
//! structured messages with [`WordWriter`]/[`WordReader`]; numeric data
//! is packed from and unpacked into the arrays it lives in through the
//! bit-exact `f64 <-> u64` conversions ([`WordWriter::put_f64s`],
//! [`WordReader::take_f64s_into`]: one pass each way, fully safe Rust —
//! the element-wise loops compile to a `memcpy`).

/// Append-only writer of word-encoded messages.
#[derive(Default)]
pub struct WordWriter {
    buf: Vec<u64>,
}

impl WordWriter {
    /// Fresh empty writer.
    pub fn new() -> WordWriter {
        WordWriter::default()
    }

    /// Writer with pre-reserved capacity (in words).
    pub fn with_capacity(words: usize) -> WordWriter {
        WordWriter {
            buf: Vec::with_capacity(words),
        }
    }

    /// Writer into `buf`, emptied first: a kept buffer's capacity is
    /// reused instead of allocated again.
    pub fn reuse(mut buf: Vec<u64>) -> WordWriter {
        buf.clear();
        WordWriter { buf }
    }

    /// Overwrite word `at`, already written: a count known only once
    /// what it counts is behind it.
    #[inline]
    pub fn set(&mut self, at: usize, w: u64) {
        self.buf[at] = w;
    }

    /// Append a raw word.
    #[inline]
    pub fn put(&mut self, w: u64) -> &mut Self {
        self.buf.push(w);
        self
    }

    /// Append a `usize`.
    #[inline]
    pub fn put_usize(&mut self, x: usize) -> &mut Self {
        self.put(x as u64)
    }

    /// Append an `f64` bit pattern.
    #[inline]
    pub fn put_f64(&mut self, x: f64) -> &mut Self {
        self.put(x.to_bits())
    }

    /// Append a length-prefixed word slice.
    pub fn put_words(&mut self, ws: &[u64]) -> &mut Self {
        self.put_usize(ws.len());
        self.buf.extend_from_slice(ws);
        self
    }

    /// Append a word slice as is (no length prefix): for payloads whose
    /// own framing says where they end.
    pub fn put_raw(&mut self, ws: &[u64]) -> &mut Self {
        self.buf.extend_from_slice(ws);
        self
    }

    /// Append the bit patterns of a slice of `f64`s (no length prefix):
    /// packs an array section straight into the payload.
    pub fn put_f64s(&mut self, xs: &[f64]) -> &mut Self {
        self.buf.extend(xs.iter().map(|x| x.to_bits()));
        self
    }

    /// Number of words written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The words written so far.
    pub fn words(&self) -> &[u64] {
        &self.buf
    }

    /// Finish and take the payload.
    pub fn finish(self) -> Vec<u64> {
        self.buf
    }
}

/// Sequential reader over a word-encoded message. Cloning it gives a
/// second cursor at the same position (a decoder can scan ahead on the
/// clone and then consume what it measured).
#[derive(Clone)]
pub struct WordReader<'a> {
    buf: &'a [u64],
    pos: usize,
}

impl<'a> WordReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u64]) -> WordReader<'a> {
        WordReader { buf, pos: 0 }
    }

    /// Next raw word. Panics if the message is exhausted (protocol bug).
    #[inline]
    pub fn get(&mut self) -> u64 {
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    /// Next word as `usize`.
    #[inline]
    pub fn get_usize(&mut self) -> usize {
        self.get() as usize
    }

    /// Next word as `f64`.
    #[inline]
    pub fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get())
    }

    /// Next word as the count of a count-prefixed list whose items take
    /// at least `min_words` words each. A count is the one word of a
    /// message that sizes an allocation, so it is held against what the
    /// message can still carry before anything is reserved: a damaged
    /// count panics here, like any over-read, instead of asking the
    /// allocator for terabytes.
    pub fn get_count(&mut self, min_words: usize) -> usize {
        let k = self.get();
        let left = self.remaining();
        assert!(
            k <= (left / min_words.max(1)) as u64,
            "count {k} out of range for the {left} words left ({min_words} a piece)"
        );
        k as usize
    }

    /// Next length-prefixed word slice (borrowed, zero-copy).
    pub fn get_words(&mut self) -> &'a [u64] {
        let n = self.get_usize();
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// The next `n` words (borrowed, zero-copy): the inverse of
    /// [`WordWriter::put_raw`]. Panics if fewer remain, like
    /// [`WordReader::get`] on an exhausted message.
    pub fn take(&mut self, n: usize) -> &'a [u64] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Unpack the next `out.len()` words into `out` as `f64`s: the
    /// inverse of [`WordWriter::put_f64s`], straight into the array
    /// section the data belongs in. Panics if fewer words remain (naming
    /// both lengths), before anything is copied.
    pub fn take_f64s_into(&mut self, out: &mut [f64]) {
        let words = self.take(out.len());
        for (o, &w) in out.iter_mut().zip(words) {
            *o = f64::from_bits(w);
        }
    }

    /// Words remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole message has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_sections_roundtrip_bit_exactly() {
        // A NaN with payload bits, -0.0 and subnormals must survive.
        let odd_nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let xs = [
            0.0,
            -0.0,
            -1.5,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            -5e-324,
            odd_nan,
            f64::NEG_INFINITY,
        ];
        let mut w = WordWriter::with_capacity(xs.len() + 1);
        w.put(7).put_f64s(&xs[..4]).put_f64s(&xs[4..]);
        let buf = w.finish();
        assert_eq!(buf.len(), xs.len() + 1);
        let mut r = WordReader::new(&buf);
        assert_eq!(r.get(), 7);
        let mut out = [1.0; 9];
        let (a, b) = out.split_at_mut(6);
        r.take_f64s_into(a);
        r.take_f64s_into(b);
        assert!(r.is_exhausted());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&xs));
        r.take_f64s_into(&mut []);
    }

    #[test]
    #[should_panic(expected = "3 out of range for slice of length 2")]
    fn unpacking_into_a_longer_destination_panics() {
        let buf = vec![1u64, 2];
        let mut out = [0.0; 3];
        WordReader::new(&buf).take_f64s_into(&mut out);
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = WordWriter::new();
        w.put(7).put_usize(42).put_f64(2.5).put_words(&[9, 8, 7]);
        let buf = w.finish();
        let mut r = WordReader::new(&buf);
        assert_eq!(r.get(), 7);
        assert_eq!(r.get_usize(), 42);
        assert_eq!(r.get_f64(), 2.5);
        assert_eq!(r.get_words(), &[9, 8, 7]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn a_reused_writer_keeps_its_capacity_and_patches_in_place() {
        let mut w = WordWriter::reuse(Vec::with_capacity(8));
        w.put(0).put(7);
        w.set(0, 1);
        assert_eq!(w.words(), [1, 7]);
        let w = WordWriter::reuse(w.finish());
        assert!(w.is_empty());
        assert_eq!(w.finish().capacity(), 8);
    }

    #[test]
    fn raw_words_roundtrip_without_a_prefix() {
        let mut w = WordWriter::new();
        w.put(1).put_raw(&[9, 8]).put_raw(&[7]).put(2);
        let buf = w.finish();
        assert_eq!(buf, vec![1, 9, 8, 7, 2]);
        let mut r = WordReader::new(&buf);
        assert_eq!(r.get(), 1);
        let mut ahead = r.clone();
        assert_eq!(ahead.take(3), &[9, 8, 7]);
        assert_eq!(r.remaining(), 4, "the clone is its own cursor");
        assert_eq!(r.take(3), &[9, 8, 7]);
        assert_eq!(r.get(), 2);
        assert!(r.take(0).is_empty());
    }

    #[test]
    fn a_count_is_held_against_the_words_left() {
        let buf = vec![2u64, 10, 11, 12, 13, 0];
        let mut r = WordReader::new(&buf);
        assert_eq!(r.get_count(2), 2, "two items of two words fit in five");
        r.take(4);
        assert_eq!(r.get_count(3), 0, "an empty list at the end of a message");
        // Three items of two words do not fit in five.
        let buf = vec![3u64, 10, 11, 12, 13, 14];
        assert_eq!(WordReader::new(&buf).get_count(1), 3);
        let lying = std::panic::catch_unwind(|| WordReader::new(&buf).get_count(2));
        let msg = *lying.unwrap_err().downcast::<String>().unwrap();
        assert!(
            msg.contains("count 3 out of range for the 5 words"),
            "{msg}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_count_no_message_could_hold_panics_before_it_sizes_anything() {
        WordReader::new(&[1 << 40, 7]).get_count(1);
    }

    #[test]
    #[should_panic]
    fn take_past_the_end_panics() {
        let buf = vec![1u64, 2];
        WordReader::new(&buf).take(3);
    }

    #[test]
    #[should_panic]
    fn overread_panics() {
        let buf = vec![1u64];
        let mut r = WordReader::new(&buf);
        r.get();
        r.get();
    }
}
