//! Fixed-width encoding of elements into machine words.
//!
//! The external-memory model is word-oriented: the paper assumes every vertex
//! and every edge occupies one memory word (its lower-bound argument relies
//! on this "indivisibility"-style assumption). The [`Record`] trait captures
//! exactly that: a record knows how many words it occupies and how to encode
//! itself into / decode itself from `u64` words on the simulated disk.

// Every truncating or sign-changing cast in the `decode` impls below is the
// exact inverse of the corresponding `encode` packing (masked or shifted
// sub-words of values that were themselves encoded from the target type), so
// the crate's pedantic cast lints are relaxed for this codec module only.
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

/// A fixed-width element that can be stored in an [`crate::ExtVec`].
pub trait Record: Copy {
    /// Number of machine words this record occupies on disk.
    const WORDS: usize;

    /// Encodes the record into exactly [`Record::WORDS`] words.
    fn encode(&self, out: &mut [u64]);

    /// Decodes a record from exactly [`Record::WORDS`] words.
    fn decode(words: &[u64]) -> Self;
}

impl Record for u64 {
    const WORDS: usize = 1;

    fn encode(&self, out: &mut [u64]) {
        out[0] = *self;
    }

    fn decode(words: &[u64]) -> Self {
        words[0]
    }
}

impl Record for u32 {
    const WORDS: usize = 1;

    fn encode(&self, out: &mut [u64]) {
        out[0] = u64::from(*self);
    }

    fn decode(words: &[u64]) -> Self {
        words[0] as u32
    }
}

impl Record for i64 {
    const WORDS: usize = 1;

    fn encode(&self, out: &mut [u64]) {
        out[0] = *self as u64;
    }

    fn decode(words: &[u64]) -> Self {
        words[0] as i64
    }
}

/// A pair of `u32`s packed into a single word — the natural representation of
/// an edge `(u, v)`, matching the paper's "one word per edge" assumption.
impl Record for (u32, u32) {
    const WORDS: usize = 1;

    fn encode(&self, out: &mut [u64]) {
        out[0] = (u64::from(self.0) << 32) | u64::from(self.1);
    }

    fn decode(words: &[u64]) -> Self {
        (
            ((words[0] >> 32) & 0xffff_ffff) as u32,
            (words[0] & 0xffff_ffff) as u32,
        )
    }
}

/// A pair of words; used for (key, payload) intermediate files such as the
/// wedge lists of the sort-based baseline.
impl Record for (u64, u64) {
    const WORDS: usize = 2;

    fn encode(&self, out: &mut [u64]) {
        out[0] = self.0;
        out[1] = self.1;
    }

    fn decode(words: &[u64]) -> Self {
        (words[0], words[1])
    }
}

/// A triple of `u32`s (e.g. a wedge `(v, w, u)` awaiting its closing edge),
/// packed into two words.
impl Record for (u32, u32, u32) {
    const WORDS: usize = 2;

    fn encode(&self, out: &mut [u64]) {
        out[0] = (u64::from(self.0) << 32) | u64::from(self.1);
        out[1] = u64::from(self.2);
    }

    fn decode(words: &[u64]) -> Self {
        (
            ((words[0] >> 32) & 0xffff_ffff) as u32,
            (words[0] & 0xffff_ffff) as u32,
            words[1] as u32,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = vec![0u64; T::WORDS];
        v.encode(&mut buf);
        assert_eq!(T::decode(&buf), v);
    }

    #[test]
    fn roundtrips() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip(12345u32);
        roundtrip(-77i64);
        roundtrip((7u32, 9u32));
        roundtrip((u32::MAX, 0u32));
        roundtrip((1u64, u64::MAX));
        roundtrip((1u32, 2u32, 3u32));
        roundtrip((u32::MAX, u32::MAX, u32::MAX));
    }

    #[test]
    fn edge_packing_orders_by_word_value() {
        // Lexicographic order on (u, v) must agree with integer order on the
        // packed word — the external sorts rely on this.
        let mut a = [0u64];
        let mut b = [0u64];
        (1u32, 500u32).encode(&mut a);
        (2u32, 3u32).encode(&mut b);
        assert!(a[0] < b[0]);
        (2u32, 2u32).encode(&mut a);
        assert!(a[0] < b[0]);
    }
}
