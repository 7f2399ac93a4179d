//! Property-based tests for the code constructions: structural invariants
//! that must hold for *every* input, not just sampled ones.

use beep_bits::BitVec;
use beep_codes::{
    BeepCode, BeepCodeParams, CombinedCode, DistanceCode, DistanceCodeParams, KautzSingleton,
    MessageDecoder, SetDecoder,
};
use proptest::prelude::*;

fn input_bits(bits: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), bits).prop_map(|b| BitVec::from_bools(&b))
}

proptest! {
    #[test]
    fn beep_codewords_always_have_design_weight(
        r in input_bits(12),
        seed in any::<u64>(),
        k in 1usize..10,
        c in 3usize..10,
    ) {
        let params = BeepCodeParams::new(12, k, c).unwrap();
        let code = BeepCode::with_seed(params, seed);
        let cw = code.encode(&r);
        prop_assert_eq!(cw.len(), params.length());
        prop_assert_eq!(cw.count_ones(), params.weight());
    }

    #[test]
    fn beep_encoding_is_a_function(r in input_bits(12), seed in any::<u64>()) {
        let params = BeepCodeParams::new(12, 4, 7).unwrap();
        let c1 = BeepCode::with_seed(params, seed);
        let c2 = BeepCode::with_seed(params, seed);
        prop_assert_eq!(c1.encode(&r), c2.encode(&r));
    }

    #[test]
    fn distance_codewords_have_design_length(m in input_bits(10), seed in any::<u64>()) {
        let params = DistanceCodeParams::new(10, 20).unwrap();
        let code = DistanceCode::with_seed(params, seed);
        prop_assert_eq!(code.encode(&m).len(), 200);
    }

    #[test]
    fn combined_code_figure1_structure(r in input_bits(8), m in input_bits(10), seed in any::<u64>()) {
        // beep: a=8, k=3, c=5 → weight 40; distance: len 40.
        let beep = BeepCode::with_seed(BeepCodeParams::new(8, 3, 5).unwrap(), seed);
        let dist = DistanceCode::with_seed(DistanceCodeParams::with_length(10, 40).unwrap(), seed);
        let cc = CombinedCode::new(beep, dist).unwrap();
        let cd = cc.encode(&r, &m);
        let carrier = cc.beep_code().encode(&r);
        let payload = cc.distance_code().encode(&m);
        // CD(r,m) ⊆ C(r), zero outside, payload readable back at 1-positions.
        prop_assert!(cd.is_subset_of(&carrier));
        prop_assert_eq!(cd.count_ones(), payload.count_ones());
        prop_assert_eq!(CombinedCode::project(&cd, &carrier).unwrap(), payload);
    }

    #[test]
    fn noiseless_set_decode_accepts_every_transmitted_word(
        inputs in prop::collection::hash_set(0u64..4096, 1..=5),
        seed in any::<u64>(),
    ) {
        let params = BeepCodeParams::new(12, 5, 7).unwrap();
        let code = BeepCode::with_seed(params, seed);
        let decoder = SetDecoder::new(&code, 0.0);
        let words: Vec<BitVec> = inputs
            .iter()
            .map(|&v| code.encode(&BitVec::from_u64_lsb(v, 12)))
            .collect();
        let sup = beep_bits::superimpose(&words).unwrap();
        // Completeness is unconditional: a transmitted codeword has zero
        // ones outside the superimposition, so it is always accepted.
        for &v in &inputs {
            prop_assert!(decoder.accepts(&BitVec::from_u64_lsb(v, 12), &sup));
        }
    }

    #[test]
    fn message_decoder_identifies_exact_codeword(
        m in 0u64..1024,
        decoys in prop::collection::hash_set(0u64..1024, 1..8),
        seed in any::<u64>(),
    ) {
        let params = DistanceCodeParams::new(10, 20).unwrap();
        let code = DistanceCode::with_seed(params, seed);
        let decoder = MessageDecoder::new(&code);
        let message = BitVec::from_u64_lsb(m, 10);
        let received = code.encode(&message);
        let mut candidates: Vec<BitVec> = decoys
            .into_iter()
            .map(|v| BitVec::from_u64_lsb(v, 10))
            .collect();
        candidates.push(message.clone());
        let decoded = decoder.decode_candidates(&received, &candidates).unwrap();
        // Distance 0 to the true codeword; any other candidate is at
        // positive distance (codewords are distinct w.o.p.), so the true
        // message wins.
        prop_assert_eq!(decoded.message, message);
        prop_assert_eq!(decoded.distance, 0);
    }

    #[test]
    fn threshold_stopped_set_test_equals_the_full_count(
        r in input_bits(8),
        others in prop::collection::vec(0u64..256, 0..4),
        flips in prop::collection::vec(0usize..600, 0..40),
        include in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // a=8, k=3, c=5: length 600 (ten words, so past the 8-word stop
        // test), weight 40. The received string superimposes a few
        // codewords, with or without the tested one, and flips bits.
        let code = BeepCode::with_seed(BeepCodeParams::new(8, 3, 5).unwrap(), seed);
        let codeword = code.encode(&r);
        let mut received = BitVec::zeros(code.params().length());
        if include {
            received.or_assign(&codeword);
        }
        for v in others {
            received.or_assign(&code.encode(&BitVec::from_u64_lsb(v, 8)));
        }
        for i in flips {
            received.flip(i);
        }
        let count = codeword.and_not_count(&received);
        let weight = code.params().weight();
        let lemma9 = SetDecoder::new(&code, 0.1).threshold();
        for threshold in [0, 1, weight, weight + 1, count, count + 1, lemma9] {
            let decoder = SetDecoder::with_threshold(&code, threshold);
            prop_assert_eq!(
                decoder.accepts_codeword(&codeword, &received),
                count < threshold,
                "threshold {}", threshold
            );
        }
    }

    #[test]
    fn pre_encoded_decode_equals_candidate_decode(
        pool in prop::collection::vec(0u64..64, 1..12),
        received in input_bits(12),
        seed in any::<u64>(),
    ) {
        // 6-bit messages at length 12: distances fall in 0..=12, so equal
        // distances between distinct candidates are common, and a pool of
        // up to 11 draws from 64 messages often repeats one.
        let code = DistanceCode::with_seed(DistanceCodeParams::new(6, 2).unwrap(), seed);
        let decoder = MessageDecoder::new(&code);
        let candidates: Vec<BitVec> = pool.iter().map(|&v| BitVec::from_u64_lsb(v, 6)).collect();
        let codewords: Vec<BitVec> = candidates.iter().map(|m| code.encode(m)).collect();
        let by_candidates = decoder.decode_candidates(&received, &candidates).unwrap();
        let by_codewords = decoder
            .decode_encoded(&received, candidates.iter().zip(&codewords))
            .unwrap();
        prop_assert_eq!(&by_codewords, &by_candidates);
        // Reference: the first candidate at minimum distance wins, and the
        // margin is the nearest other candidate's distance minus the
        // winner's (0 when a duplicate or a tie follows it).
        let distances: Vec<usize> = codewords.iter().map(|c| c.hamming_distance(&received)).collect();
        let winner = (0..distances.len()).min_by_key(|&i| distances[i]).unwrap();
        let runner_up = distances
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != winner)
            .map(|(_, &d)| d)
            .min();
        prop_assert_eq!(&by_codewords.message, &candidates[winner]);
        prop_assert_eq!(by_codewords.distance, distances[winner]);
        prop_assert_eq!(by_codewords.margin, runner_up.map(|d| d - distances[winner]));
    }

    #[test]
    fn kautz_singleton_subset_structure(m in 0u64..4096, k in 1usize..6) {
        let code = KautzSingleton::new(12, k).unwrap();
        let cw = code.encode(&BitVec::from_u64_lsb(m, 12));
        let q = code.params().field_size() as usize;
        prop_assert_eq!(cw.len(), q * q);
        prop_assert_eq!(cw.count_ones(), q);
        // Self-covering always holds.
        prop_assert!(code.covered(&BitVec::from_u64_lsb(m, 12), &cw));
    }
}
