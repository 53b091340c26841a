//! A compact fixed-capacity bit set used for activation overlays.
//!
//! [`NetState`](crate::netstate::NetState) tracks which switches and circuits
//! are currently active with two of these. The set is sized once at creation
//! and never grows, matching the immutable union-graph design: during a
//! migration the element universe is fixed, only activation flips.

use serde::{Deserialize, Serialize};

const WORD_BITS: usize = 64;

/// A fixed-capacity bit set backed by `u64` words.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates a bit set with `len` bits, all cleared.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a bit set with `len` bits, all set.
    pub fn new_all_set(len: usize) -> Self {
        let mut s = Self::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.clear_tail();
        s
    }

    /// Number of bits this set holds (set or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the set holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the value of bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// The backing words, least-significant bit first. Bits past `len` in
    /// the final word are always zero, so word-level intersection tests
    /// (e.g. footprint prefilters) need no tail masking.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi * WORD_BITS;
            BitIter { word: w, base }
        })
    }

    /// Iterates over the indices where `self` and `other` differ, in
    /// ascending order: one XOR per word, set bits only.
    ///
    /// # Panics
    /// Panics if the sets have different lengths.
    pub fn iter_diff<'a>(&'a self, other: &'a BitSet) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "BitSet length mismatch");
        (self.words.iter().zip(&other.words).enumerate()).flat_map(|(wi, (a, b))| BitIter {
            word: a ^ b,
            base: wi * WORD_BITS,
        })
    }

    /// Clears all bits.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Masks out bits beyond `len` in the last word so equality and popcount
    /// stay canonical.
    fn clear_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_all_clear() {
        let s = BitSet::new(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 0);
        assert!(!s.get(0));
        assert!(!s.get(129));
    }

    #[test]
    fn new_all_set_counts_exactly_len() {
        for len in [0, 1, 63, 64, 65, 127, 128, 130] {
            let s = BitSet::new_all_set(len);
            assert_eq!(s.count_ones(), len, "len={len}");
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = BitSet::new(100);
        s.set(0, true);
        s.set(63, true);
        s.set(64, true);
        s.set(99, true);
        assert!(s.get(0) && s.get(63) && s.get(64) && s.get(99));
        assert!(!s.get(1) && !s.get(65));
        s.set(63, false);
        assert!(!s.get(63));
        assert_eq!(s.count_ones(), 3);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut s = BitSet::new(200);
        for i in [3, 64, 65, 199] {
            s.set(i, true);
        }
        let ones: Vec<usize> = s.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 199]);
    }

    #[test]
    fn iter_diff_names_the_differing_bits() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(130);
        for i in [1, 64, 129] {
            a.set(i, true);
        }
        for i in [2, 64, 128] {
            b.set(i, true);
        }
        assert_eq!(a.iter_diff(&b).collect::<Vec<_>>(), vec![1, 2, 128, 129]);
        assert_eq!(a.iter_diff(&a).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let s = BitSet::new(8);
        let _ = s.get(8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn diff_length_mismatch_panics() {
        let a = BitSet::new(8);
        let b = BitSet::new(9);
        let _ = a.iter_diff(&b).count();
    }

    #[test]
    fn equality_is_canonical_after_clear_all() {
        let mut a = BitSet::new_all_set(70);
        a.clear_all();
        assert_eq!(a, BitSet::new(70));
    }

    proptest! {
        #[test]
        fn prop_set_then_get(indices in proptest::collection::vec(0usize..500, 0..64)) {
            let mut s = BitSet::new(500);
            for &i in &indices {
                s.set(i, true);
            }
            for &i in &indices {
                prop_assert!(s.get(i));
            }
            let mut expect: Vec<usize> = indices.clone();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(s.count_ones(), expect.len());
            prop_assert_eq!(s.iter_ones().collect::<Vec<_>>(), expect);
        }
    }
}
