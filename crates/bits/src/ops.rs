//! Bulk logical operations: the paper's `∧`, `∨`, `¬`, `d`-intersection and
//! Hamming distance (Definitions 2 and 5, Section 1.5).

use crate::BitVec;
use std::ops::{BitAnd, BitOr, BitXor, Not};

impl BitVec {
    /// In-place bitwise OR (`self ∨= other`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn or_assign(&mut self, other: &BitVec) {
        self.assert_same_len(other, "or_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place bitwise AND (`self ∧= other`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn and_assign(&mut self, other: &BitVec) {
        self.assert_same_len(other, "and_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn xor_assign(&mut self, other: &BitVec) {
        self.assert_same_len(other, "xor_assign");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// In-place bitwise complement (`¬self`).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// `1(self ∧ other)` without allocating — the size of the intersection
    /// of the two strings' 1-positions.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn intersection_count(&self, other: &BitVec) -> usize {
        self.assert_same_len(other, "intersection_count");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `1(self ∧ ¬other)` without allocating: how many 1s of `self` fall in
    /// positions where `other` has a 0. This is exactly the quantity the
    /// paper's phase-1 decoder thresholds (Lemma 9 tests whether `C(r)`
    /// `d`-intersects `¬x̃ᵥ`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn and_not_count(&self, other: &BitVec) -> usize {
        self.assert_same_len(other, "and_not_count");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Whether [`and_not_count`](Self::and_not_count) is at least `limit`,
    /// counting eight words at a time and stopping at the first group after
    /// which the count has reached `limit`.
    ///
    /// The phase-1 decoder rejects a codeword once `limit` (the Lemma 9
    /// threshold) of its 1s fall where the heard string is 0; a codeword a
    /// node did not hear crosses it long before the last word, so most set
    /// tests stop early.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn and_not_count_reaches(&self, other: &BitVec, limit: usize) -> bool {
        self.assert_same_len(other, "and_not_count_reaches");
        let and_not = |a: &[u64], b: &[u64]| -> usize {
            a.iter()
                .zip(b)
                .map(|(a, b)| (a & !b).count_ones() as usize)
                .sum()
        };
        // The stop test runs once per 8 words: a per-word test keeps the
        // compiler from vectorizing the popcounts and costs more than the
        // words it skips.
        let mut ours = self.words.chunks_exact(8);
        let mut theirs = other.words.chunks_exact(8);
        let mut count = 0usize;
        for (a, b) in (&mut ours).zip(&mut theirs) {
            count += and_not(a, b);
            if count >= limit {
                return true;
            }
        }
        count + and_not(ours.remainder(), theirs.remainder()) >= limit
    }

    /// Whether `self` `d`-intersects `other`: `1(self ∧ other) ≥ d`
    /// (Definition 2).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn d_intersects(&self, other: &BitVec, d: usize) -> bool {
        self.intersection_count(other) >= d
    }

    /// Hamming distance `d_H(self, other)` (used by distance codes,
    /// Definition 5).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        self.assert_same_len(other, "hamming_distance");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Whether `self ∧ other ≠ 0`, i.e. the two strings share at least one
    /// 1-position — `d_intersects(other, 1)` with word-level early exit.
    ///
    /// The lower-bound transcript projection asks this question once per
    /// recorded round; answering it a word at a time (instead of testing
    /// observed positions one by one) is what keeps that path on the fast
    /// side.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn intersects(&self, other: &BitVec) -> bool {
        self.assert_same_len(other, "intersects");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Whether `self ∧ other == self`, i.e. every 1 of `self` is also a 1 of
    /// `other`. A codeword is subsumed by a superimposition containing it.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        self.assert_same_len(other, "is_subset_of");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Extracts the subsequence of `self` at the given positions, in order.
    ///
    /// The paper's phase-2 decoder reads `y_{v,w}`, the subsequence of the
    /// heard string at the 1-positions of a neighbor's beep codeword
    /// (Lemma 10); this method is that projection.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of range.
    #[must_use]
    pub fn extract(&self, positions: impl IntoIterator<Item = usize>) -> BitVec {
        // Accumulate output words directly — no intermediate `Vec<bool>`.
        let mut words = Vec::new();
        let mut acc = 0u64;
        let mut len = 0usize;
        for p in positions {
            if self.get(p) {
                acc |= 1u64 << (len % 64);
            }
            len += 1;
            if len.is_multiple_of(64) {
                words.push(acc);
                acc = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(acc);
        }
        BitVec { words, len }
    }

    /// Extracts the subsequence of `self` at the 1-positions of `mask`
    /// (ascending) — `extract(mask.iter_ones())`, but computed a word at a
    /// time: zero mask words are skipped outright and set bits are peeled
    /// with bit tricks instead of per-position bounds-checked `get` calls.
    ///
    /// This is the paper's phase-2 projection `y_{v,w}` (Lemma 10): the
    /// received string restricted to a carrier codeword's 1-positions. It
    /// sits on the decode hot path, executed once per (node, candidate)
    /// pair per simulated round.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn extract_mask(&self, mask: &BitVec) -> BitVec {
        self.assert_same_len(mask, "extract_mask");
        let mut out = BitVec::zeros(mask.count_ones());
        let mut out_word = 0usize;
        let mut out_bit = 0usize;
        let mut acc = 0u64;
        for (&src, &m) in self.words.iter().zip(&mask.words) {
            let mut m = m;
            while m != 0 {
                let low = m & m.wrapping_neg();
                if src & low != 0 {
                    acc |= 1u64 << out_bit;
                }
                out_bit += 1;
                if out_bit == 64 {
                    out.words[out_word] = acc;
                    out_word += 1;
                    out_bit = 0;
                    acc = 0;
                }
                m &= m - 1;
            }
        }
        if out_bit > 0 {
            out.words[out_word] = acc;
        }
        out
    }
}

/// Superimposition `∨(S)` of a non-empty collection of equal-length strings
/// (the paper's Definition 2 shorthand).
///
/// Returns `None` for an empty iterator (there is no length to give the
/// identity element).
///
/// # Panics
///
/// Panics if the strings have unequal lengths.
pub fn superimpose<'a>(strings: impl IntoIterator<Item = &'a BitVec>) -> Option<BitVec> {
    let mut iter = strings.into_iter();
    let mut acc = iter.next()?.clone();
    for s in iter {
        acc.or_assign(s);
    }
    Some(acc)
}

/// Transposes a 64×64 bit matrix in place: bit `j` of word `i` trades
/// places with bit `i` of word `j`.
///
/// Frames are stored node-major (one string per node, bit `i` = round `i`)
/// while the round kernel takes round-major beeper bitmaps (bit `v` = node
/// `v`); transposing 64-node × 64-round word blocks converts between the
/// two a word at a time. This is the recursive block swap (Hacker's
/// Delight §7-3): six passes, for `w` = 32, 16, …, 1, each exchanging the
/// off-diagonal `w×w` quadrants of every `2w×2w` diagonal sub-block.
///
/// ```
/// let mut block = [0u64; 64];
/// block[3] = 1 << 40; // row 3, column 40
/// beep_bits::transpose64(&mut block);
/// assert_eq!(block[40], 1 << 3);
/// assert_eq!(block.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
/// ```
pub fn transpose64(block: &mut [u64; 64]) {
    let mut width = 32;
    // Selects the low `width` columns of every `2·width`-column group.
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while width != 0 {
        for pair in block.chunks_exact_mut(2 * width) {
            // Each row of the top half swaps its high columns with the low
            // columns of the row `width` below it.
            let (top, bottom) = pair.split_at_mut(width);
            for (a, b) in top.iter_mut().zip(bottom) {
                let t = ((*a >> width) ^ *b) & mask;
                *a ^= t << width;
                *b ^= t;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

macro_rules! owned_binop {
    ($trait:ident, $method:ident, $assign:ident) => {
        impl $trait for &BitVec {
            type Output = BitVec;
            fn $method(self, rhs: &BitVec) -> BitVec {
                let mut out = self.clone();
                out.$assign(rhs);
                out
            }
        }
        impl $trait for BitVec {
            type Output = BitVec;
            fn $method(mut self, rhs: BitVec) -> BitVec {
                self.$assign(&rhs);
                self
            }
        }
    };
}

owned_binop!(BitOr, bitor, or_assign);
owned_binop!(BitAnd, bitand, and_assign);
owned_binop!(BitXor, bitxor, xor_assign);

impl Not for &BitVec {
    type Output = BitVec;
    fn not(self) -> BitVec {
        let mut out = self.clone();
        out.not_assign();
        out
    }
}

impl Not for BitVec {
    type Output = BitVec;
    fn not(mut self) -> BitVec {
        self.not_assign();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bv(s: &str) -> BitVec {
        BitVec::from_str_01(s).unwrap()
    }

    #[test]
    fn or_and_xor_not() {
        let a = bv("1100");
        let b = bv("1010");
        assert_eq!(&a | &b, bv("1110"));
        assert_eq!(&a & &b, bv("1000"));
        assert_eq!(&a ^ &b, bv("0110"));
        assert_eq!(!&a, bv("0011"));
    }

    #[test]
    fn not_preserves_tail_invariant() {
        let a = BitVec::zeros(70);
        let n = !&a;
        assert_eq!(n.count_ones(), 70);
        // Double complement is identity.
        assert_eq!(!&n, a);
    }

    #[test]
    fn counting_matches_materialized_ops() {
        let a = bv("110101110010");
        let b = bv("011100101011");
        assert_eq!(a.intersection_count(&b), (&a & &b).count_ones());
        assert_eq!(a.and_not_count(&b), (&a & &!&b).count_ones());
        assert_eq!(a.hamming_distance(&b), (&a ^ &b).count_ones());
    }

    #[test]
    fn d_intersects_threshold() {
        let a = bv("1110");
        let b = bv("0111");
        // intersection = 2
        assert!(a.d_intersects(&b, 0));
        assert!(a.d_intersects(&b, 2));
        assert!(!a.d_intersects(&b, 3));
    }

    #[test]
    fn subset_semantics() {
        let small = bv("0100_0010".replace('_', "").as_str());
        let big = bv("0110_0011".replace('_', "").as_str());
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
    }

    #[test]
    fn extract_projection() {
        let y = bv("10110100");
        let sub = y.extract([0, 2, 3, 7]);
        assert_eq!(sub, bv("1110"));
        let empty = y.extract(std::iter::empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn extract_mask_matches_extract() {
        let y = bv("10110100");
        let mask = bv("10110001");
        assert_eq!(y.extract_mask(&mask), y.extract(mask.iter_ones()));
        // Cross word boundaries and straddle the 64-bit output packing.
        let wide = BitVec::from_indices(300, (0..300).filter(|i| i % 3 == 0));
        let mask = BitVec::from_indices(300, (0..300).filter(|i| i % 2 == 0));
        let sub = wide.extract_mask(&mask);
        assert_eq!(sub.len(), 150);
        assert_eq!(sub, wide.extract(mask.iter_ones()));
        // Empty mask gives the empty string.
        assert!(wide.extract_mask(&BitVec::zeros(300)).is_empty());
        // Full mask is the identity.
        assert_eq!(wide.extract_mask(&BitVec::ones(300)), wide);
    }

    #[test]
    fn intersects_matches_counting() {
        let a = bv("110101110010");
        let b = bv("011100101011");
        assert_eq!(a.intersects(&b), a.intersection_count(&b) > 0);
        let disjoint = BitVec::from_indices(200, [0, 64, 128]);
        let other = BitVec::from_indices(200, [1, 65, 129]);
        assert!(!disjoint.intersects(&other));
        assert!(disjoint.intersects(&disjoint));
        assert!(!BitVec::zeros(200).intersects(&other));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_extract_mask_panics() {
        let _ = bv("10").extract_mask(&bv("100"));
    }

    #[test]
    fn superimpose_matches_fold() {
        let strings = [bv("1000"), bv("0100"), bv("0101")];
        assert_eq!(superimpose(&strings), Some(bv("1101")));
        assert_eq!(superimpose(std::iter::empty()), None);
        assert_eq!(superimpose([&strings[0]]), Some(strings[0].clone()));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_or_panics() {
        let _ = &bv("10") | &bv("100");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_hamming_panics() {
        let _ = bv("10").hamming_distance(&bv("100"));
    }
}
