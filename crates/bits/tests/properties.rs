//! Property-based tests for `BitVec`: algebraic laws of the paper's string
//! operations (Section 1.5) and metric axioms of Hamming distance.

use beep_bits::{superimpose, transpose64, BitVec};
use proptest::prelude::*;

/// Strategy: a pair (length, Vec<bool>) describing an arbitrary bit string.
fn bitvec(max_len: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), 0..=max_len).prop_map(|bools| BitVec::from_bools(&bools))
}

/// Strategy: two bit strings of the same (arbitrary) length.
fn bitvec_pair(max_len: usize) -> impl Strategy<Value = (BitVec, BitVec)> {
    (0..=max_len).prop_flat_map(|len| {
        (
            prop::collection::vec(any::<bool>(), len),
            prop::collection::vec(any::<bool>(), len),
        )
            .prop_map(|(a, b)| (BitVec::from_bools(&a), BitVec::from_bools(&b)))
    })
}

fn bitvec_triple(max_len: usize) -> impl Strategy<Value = (BitVec, BitVec, BitVec)> {
    (0..=max_len).prop_flat_map(|len| {
        (
            prop::collection::vec(any::<bool>(), len),
            prop::collection::vec(any::<bool>(), len),
            prop::collection::vec(any::<bool>(), len),
        )
            .prop_map(|(a, b, c)| {
                (
                    BitVec::from_bools(&a),
                    BitVec::from_bools(&b),
                    BitVec::from_bools(&c),
                )
            })
    })
}

proptest! {
    #[test]
    fn or_is_commutative_and_idempotent((a, b) in bitvec_pair(300)) {
        prop_assert_eq!(&a | &b, &b | &a);
        prop_assert_eq!(&a | &a, a.clone());
    }

    #[test]
    fn and_is_commutative_and_idempotent((a, b) in bitvec_pair(300)) {
        prop_assert_eq!(&a & &b, &b & &a);
        prop_assert_eq!(&a & &a, a.clone());
    }

    #[test]
    fn de_morgan((a, b) in bitvec_pair(300)) {
        prop_assert_eq!(!&(&a | &b), &!&a & &!&b);
        prop_assert_eq!(!&(&a & &b), &!&a | &!&b);
    }

    #[test]
    fn or_distributes_over_and((a, b, c) in bitvec_triple(300)) {
        prop_assert_eq!(&a | &(&b & &c), &(&a | &b) & &(&a | &c));
    }

    #[test]
    fn double_complement_is_identity(a in bitvec(300)) {
        prop_assert_eq!(!&!&a, a);
    }

    #[test]
    fn popcount_inclusion_exclusion((a, b) in bitvec_pair(300)) {
        let union = (&a | &b).count_ones();
        let inter = a.intersection_count(&b);
        prop_assert_eq!(union + inter, a.count_ones() + b.count_ones());
    }

    #[test]
    fn hamming_is_a_metric((a, b, c) in bitvec_triple(300)) {
        // Identity of indiscernibles.
        prop_assert_eq!(a.hamming_distance(&a), 0);
        prop_assert_eq!(a.hamming_distance(&b) == 0, a == b);
        // Symmetry.
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        // Triangle inequality.
        prop_assert!(a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c));
    }

    #[test]
    fn hamming_equals_xor_weight((a, b) in bitvec_pair(300)) {
        prop_assert_eq!(a.hamming_distance(&b), (&a ^ &b).count_ones());
    }

    #[test]
    fn and_not_count_decomposes_ones((a, b) in bitvec_pair(300)) {
        // 1(a) = 1(a ∧ b) + 1(a ∧ ¬b)
        prop_assert_eq!(
            a.count_ones(),
            a.intersection_count(&b) + a.and_not_count(&b)
        );
    }

    #[test]
    fn and_not_count_reaches_is_the_threshold_of_and_not_count(
        (a, b) in bitvec_pair(300),
        extra in 0usize..70,
    ) {
        // Exact at every limit: below, at and above the count, the word
        // boundaries the early stop checks at, and past the string's weight.
        let count = a.and_not_count(&b);
        let weight = a.count_ones();
        for limit in [
            0,
            1,
            count.saturating_sub(1),
            count,
            count + 1,
            extra,
            weight,
            weight + 1,
        ] {
            prop_assert_eq!(a.and_not_count_reaches(&b, limit), count >= limit);
        }
    }

    #[test]
    fn transpose64_is_the_bitwise_transpose_and_an_involution(
        words in prop::collection::vec(any::<u64>(), 64),
        sparsity in prop::collection::vec(any::<u64>(), 64),
    ) {
        // AND-ing two draws gives a sparser matrix as well as a dense one.
        for matrix in [words.clone(), words.iter().zip(&sparsity).map(|(w, s)| w & s).collect()] {
            let original: [u64; 64] = matrix.try_into().unwrap();
            let mut block = original;
            transpose64(&mut block);
            for (i, row) in original.iter().enumerate() {
                for (j, column) in block.iter().enumerate() {
                    prop_assert_eq!((column >> i) & 1, (row >> j) & 1);
                }
            }
            transpose64(&mut block);
            prop_assert_eq!(block, original);
        }
    }

    #[test]
    fn superimpose_contains_each_operand((a, b, c) in bitvec_triple(200)) {
        let sup = superimpose([&a, &b, &c]).unwrap();
        prop_assert!(a.is_subset_of(&sup));
        prop_assert!(b.is_subset_of(&sup));
        prop_assert!(c.is_subset_of(&sup));
        prop_assert_eq!(&sup, &(&(&a | &b) | &c));
    }

    #[test]
    fn ones_iterator_matches_get(a in bitvec(400)) {
        let from_iter: Vec<usize> = a.iter_ones().collect();
        let from_get: Vec<usize> = (0..a.len()).filter(|&i| a.get(i)).collect();
        prop_assert_eq!(from_iter, from_get);
    }

    #[test]
    fn nth_one_agrees_with_positions(a in bitvec(400)) {
        let positions = a.one_positions();
        for (idx, &pos) in positions.iter().enumerate() {
            prop_assert_eq!(a.position_of_nth_one(idx + 1), Some(pos));
        }
        prop_assert_eq!(a.position_of_nth_one(positions.len() + 1), None);
    }

    #[test]
    fn extract_then_length(a in bitvec(400)) {
        let positions = a.one_positions();
        let extracted = a.extract(positions.iter().copied());
        // Extracting at 1-positions yields an all-ones string.
        prop_assert_eq!(extracted.count_ones(), extracted.len());
        prop_assert_eq!(extracted.len(), a.count_ones());
    }

    #[test]
    fn display_parse_roundtrip(a in bitvec(400)) {
        let s = a.to_string();
        let parsed: BitVec = s.parse().unwrap();
        prop_assert_eq!(parsed, a);
    }

    #[test]
    fn random_with_weight_is_exact(
        (len, w) in (1usize..400).prop_flat_map(|len| (Just(len), 0..=len)),
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let v = BitVec::random_with_weight(len, w, &mut rng);
        prop_assert_eq!(v.len(), len);
        prop_assert_eq!(v.count_ones(), w);
    }

    #[test]
    fn u64_roundtrip(value in any::<u64>()) {
        let v = BitVec::from_u64_lsb(value, 64);
        prop_assert_eq!(v.to_u64_lsb(), value);
        let wide = BitVec::from_u64_lsb(value, 128);
        prop_assert_eq!(wide.to_u64_lsb(), value);
    }
}
