//! Decoders for the paper's two phases (Section 4).
//!
//! * [`SetDecoder`] implements the Lemma 9 rule: from a noisy superimposition
//!   `x̃_v`, recover the *set* of beep codewords transmitted by the
//!   neighborhood — accept candidate `r` iff `C(r)` does **not**
//!   `τ`-intersect `¬x̃_v`, with `τ = (2ε+1)/4 · weight`.
//! * [`MessageDecoder`] implements the Lemma 10 rule: decode a projected
//!   phase-2 string `ỹ_{v,w}` to the message whose distance codeword is
//!   nearest in Hamming distance.
//!
//! Both decoders come in two flavors:
//!
//! * **candidate decoding** — test or score explicit candidates. This is
//!   what the network simulator uses: testing every node's codeword plus
//!   random decoys measures exactly the error events Lemmas 8–10 bound,
//!   without the `2^a` enumeration the paper's information-theoretic
//!   decoder performs (see ARCHITECTURE.md, *Candidate-and-decoy
//!   decoding*). The set decoder tests one candidate at a time; the
//!   message decoder scores a list. The simulator hands both decoders
//!   codewords it has already computed ([`SetDecoder::accepts_codeword`],
//!   [`MessageDecoder::decode_encoded`]), so each is encoded once per
//!   round; [`SetDecoder::accepts`] and
//!   [`MessageDecoder::decode_candidates`] encode their inputs first.
//! * **exhaustive decoding** — enumerate the full input space; exact but
//!   exponential, intended for validating the candidate decoder at small
//!   sizes and for tests.

use crate::error::CodeError;
use crate::{BeepCode, DistanceCode};
use beep_bits::BitVec;
use std::borrow::Borrow;

/// Upper limit on input bits for exhaustive decoding (2^24 codeword
/// evaluations is the largest that stays interactive in debug builds).
const EXHAUSTIVE_LIMIT_BITS: usize = 24;

/// Phase-1 set decoder (Lemma 9).
#[derive(Debug, Clone)]
pub struct SetDecoder<'a> {
    code: &'a BeepCode,
    threshold: usize,
}

impl<'a> SetDecoder<'a> {
    /// Creates the decoder with the paper's threshold
    /// `(2ε+1)/4 · weight` for noise rate `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `[0, 0.5)`.
    #[must_use]
    pub fn new(code: &'a BeepCode, epsilon: f64) -> Self {
        let threshold = code.params().decode_threshold(epsilon);
        SetDecoder { code, threshold }
    }

    /// Creates the decoder with an explicit acceptance threshold (used by
    /// calibration sweeps).
    #[must_use]
    pub fn with_threshold(code: &'a BeepCode, threshold: usize) -> Self {
        SetDecoder { code, threshold }
    }

    /// The acceptance threshold in use.
    #[must_use]
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Whether a given codeword is accepted as "present" in the received
    /// string: fewer than `threshold` of its 1s fall where `received` is 0.
    /// Counting stops once it reaches the threshold, so a rejected
    /// codeword is usually decided well before its last word.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ (callers hold strings from the same code).
    #[must_use]
    pub fn accepts_codeword(&self, codeword: &BitVec, received: &BitVec) -> bool {
        !codeword.and_not_count_reaches(received, self.threshold)
    }

    /// Whether the codeword of input `r` is accepted as present.
    #[must_use]
    pub fn accepts(&self, r: &BitVec, received: &BitVec) -> bool {
        self.accepts_codeword(&self.code.encode(r), received)
    }

    /// Exhaustively decodes by enumerating all `2^a` inputs — the paper's
    /// information-theoretic decoder, exact but exponential.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if `a >` 24 bits, and
    /// [`CodeError::ReceivedLength`] on a length mismatch.
    pub fn decode_exhaustive(&self, received: &BitVec) -> Result<Vec<BitVec>, CodeError> {
        let a = self.code.params().input_bits();
        if a > EXHAUSTIVE_LIMIT_BITS {
            return Err(CodeError::InvalidParams {
                what: "input_bits",
                detail: format!(
                    "exhaustive decoding caps at {EXHAUSTIVE_LIMIT_BITS} bits, code has {a}"
                ),
            });
        }
        if received.len() != self.code.params().length() {
            return Err(CodeError::ReceivedLength {
                expected: self.code.params().length(),
                actual: received.len(),
            });
        }
        let mut out = Vec::new();
        for v in 0..(1u64 << a) {
            let r = BitVec::from_u64_lsb(v, a);
            if self.accepts(&r, received) {
                out.push(r);
            }
        }
        Ok(out)
    }
}

/// A decoded phase-2 message with its decoding evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedMessage {
    /// The recovered message (the candidate with minimum Hamming distance).
    pub message: BitVec,
    /// Hamming distance between the received projection and the winner's
    /// distance codeword.
    pub distance: usize,
    /// Distance of the runner-up minus distance of the winner — the decoding
    /// margin. `None` when only one candidate was scored. Lemma 10's
    /// analysis corresponds to this margin staying positive.
    pub margin: Option<usize>,
}

/// Phase-2 message decoder (Lemma 10): nearest-codeword decoding of the
/// projected string `ỹ_{v,w}` against the distance code.
#[derive(Debug, Clone)]
pub struct MessageDecoder<'a> {
    code: &'a DistanceCode,
}

impl<'a> MessageDecoder<'a> {
    /// Creates a decoder over the given distance code.
    #[must_use]
    pub fn new(code: &'a DistanceCode) -> Self {
        MessageDecoder { code }
    }

    /// Decodes by scoring an explicit candidate message list, returning the
    /// nearest. Ties break toward the earlier candidate (deterministic).
    ///
    /// Encodes each candidate, then scores it as
    /// [`decode_encoded`](Self::decode_encoded) does.
    ///
    /// # Errors
    ///
    /// * [`CodeError::NoCandidates`] if the list is empty.
    /// * [`CodeError::ReceivedLength`] if `received` is not one distance
    ///   codeword long.
    pub fn decode_candidates<'b>(
        &self,
        received: &BitVec,
        candidates: impl IntoIterator<Item = &'b BitVec>,
    ) -> Result<DecodedMessage, CodeError> {
        self.decode_encoded(
            received,
            candidates.into_iter().map(|m| (m, self.code.encode(m))),
        )
    }

    /// [`decode_candidates`](Self::decode_candidates) over candidates that
    /// are already encoded: each item is a message `m` paired with its
    /// codeword `D(m)`. A caller that decodes many received strings
    /// against one candidate pool encodes the pool once and passes it
    /// here. Same winner, distance, margin and first-wins tie-break.
    ///
    /// # Errors
    ///
    /// * [`CodeError::NoCandidates`] if the list is empty.
    /// * [`CodeError::ReceivedLength`] if `received` is not one distance
    ///   codeword long.
    ///
    /// # Panics
    ///
    /// Panics if a codeword is not one distance codeword long.
    pub fn decode_encoded<'b, C: Borrow<BitVec>>(
        &self,
        received: &BitVec,
        candidates: impl IntoIterator<Item = (&'b BitVec, C)>,
    ) -> Result<DecodedMessage, CodeError> {
        if received.len() != self.code.params().length() {
            return Err(CodeError::ReceivedLength {
                expected: self.code.params().length(),
                actual: received.len(),
            });
        }
        let mut best: Option<(usize, &BitVec)> = None;
        let mut runner_up: Option<usize> = None;
        for (m, codeword) in candidates {
            let d = codeword.borrow().hamming_distance(received);
            match best {
                None => best = Some((d, m)),
                Some((bd, _)) if d < bd => {
                    runner_up = Some(bd);
                    best = Some((d, m));
                }
                Some(_) => {
                    runner_up = Some(runner_up.map_or(d, |r| r.min(d)));
                }
            }
        }
        let (distance, message) = best.ok_or(CodeError::NoCandidates)?;
        Ok(DecodedMessage {
            message: message.clone(),
            distance,
            margin: runner_up.map(|r| r - distance),
        })
    }

    /// Exhaustively decodes over all `2^a` messages.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if the message space exceeds 24
    /// bits, and [`CodeError::ReceivedLength`] on a length mismatch.
    pub fn decode_exhaustive(&self, received: &BitVec) -> Result<DecodedMessage, CodeError> {
        let a = self.code.params().message_bits();
        if a > EXHAUSTIVE_LIMIT_BITS {
            return Err(CodeError::InvalidParams {
                what: "message_bits",
                detail: format!(
                    "exhaustive decoding caps at {EXHAUSTIVE_LIMIT_BITS} bits, code has {a}"
                ),
            });
        }
        let all: Vec<BitVec> = (0..(1u64 << a))
            .map(|v| BitVec::from_u64_lsb(v, a))
            .collect();
        self.decode_candidates(received, all.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BeepCodeParams, DistanceCodeParams};
    use beep_bits::superimpose;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn beep_code() -> BeepCode {
        BeepCode::with_seed(BeepCodeParams::new(8, 4, 7).unwrap(), 11)
    }

    fn dist_code() -> DistanceCode {
        DistanceCode::with_seed(DistanceCodeParams::new(8, 16).unwrap(), 11)
    }

    #[test]
    fn set_decoder_recovers_transmitted_set_noiseless() {
        let code = beep_code();
        let decoder = SetDecoder::new(&code, 0.0);
        let inputs: Vec<BitVec> = [3u64, 77, 200, 141]
            .iter()
            .map(|&v| BitVec::from_u64_lsb(v, 8))
            .collect();
        let codewords: Vec<BitVec> = inputs.iter().map(|r| code.encode(r)).collect();
        let received = superimpose(&codewords).unwrap();
        // All transmitted inputs accepted.
        for r in &inputs {
            assert!(decoder.accepts(r, &received), "transmitted {r:?} rejected");
        }
        // Filtering transmitted + non-transmitted candidates by acceptance
        // leaves exactly the transmitted set (w.h.p. at these parameters).
        let mut candidates = inputs.clone();
        for v in [0u64, 1, 2, 99, 255] {
            candidates.push(BitVec::from_u64_lsb(v, 8));
        }
        let decoded: Vec<BitVec> = candidates
            .into_iter()
            .filter(|r| decoder.accepts(r, &received))
            .collect();
        assert_eq!(decoded, inputs);
    }

    #[test]
    fn set_decoder_exhaustive_matches_candidates() {
        // Tiny code so exhaustive decode is fast.
        let params = BeepCodeParams::new(6, 3, 7).unwrap();
        let code = BeepCode::with_seed(params, 5);
        let decoder = SetDecoder::new(&code, 0.0);
        let inputs: Vec<BitVec> = [5u64, 33, 60]
            .iter()
            .map(|&v| BitVec::from_u64_lsb(v, 6))
            .collect();
        let received = superimpose(
            inputs
                .iter()
                .map(|r| code.encode(r))
                .collect::<Vec<_>>()
                .iter(),
        )
        .unwrap();
        let exhaustive = decoder.decode_exhaustive(&received).unwrap();
        assert_eq!(exhaustive, inputs.to_vec());
    }

    #[test]
    fn set_decoder_survives_noise() {
        let code = beep_code();
        let eps = 0.1;
        let decoder = SetDecoder::new(&code, eps);
        let mut rng = StdRng::seed_from_u64(42);
        let inputs: Vec<BitVec> = [9u64, 120, 201]
            .iter()
            .map(|&v| BitVec::from_u64_lsb(v, 8))
            .collect();
        let clean = superimpose(
            inputs
                .iter()
                .map(|r| code.encode(r))
                .collect::<Vec<_>>()
                .iter(),
        )
        .unwrap();
        let mut successes = 0;
        for _ in 0..50 {
            let noisy = clean.flipped_with_noise(eps, &mut rng);
            if inputs.iter().all(|r| decoder.accepts(r, &noisy)) {
                successes += 1;
            }
        }
        assert!(
            successes >= 45,
            "only {successes}/50 noisy decodes succeeded"
        );
    }

    #[test]
    fn set_decoder_rejects_wrong_received_length() {
        let code = beep_code();
        let decoder = SetDecoder::new(&code, 0.0);
        let short = BitVec::zeros(code.params().length() - 1);
        assert!(matches!(
            decoder.decode_exhaustive(&short),
            Err(CodeError::ReceivedLength { .. })
        ));
    }

    #[test]
    fn exhaustive_caps_input_bits() {
        let params = BeepCodeParams::new(30, 1, 1).unwrap();
        let code = BeepCode::new(params);
        let decoder = SetDecoder::new(&code, 0.0);
        let received = BitVec::zeros(params.length());
        assert!(matches!(
            decoder.decode_exhaustive(&received),
            Err(CodeError::InvalidParams { .. })
        ));
    }

    #[test]
    fn message_decoder_roundtrip_noiseless() {
        let code = dist_code();
        let decoder = MessageDecoder::new(&code);
        let m = BitVec::from_u64_lsb(0xAB, 8);
        let received = code.encode(&m);
        let decoded = decoder.decode_exhaustive(&received).unwrap();
        assert_eq!(decoded.message, m);
        assert_eq!(decoded.distance, 0);
        assert!(decoded.margin.unwrap() > 0);
    }

    #[test]
    fn message_decoder_roundtrip_under_noise() {
        let code = dist_code();
        let decoder = MessageDecoder::new(&code);
        let mut rng = StdRng::seed_from_u64(7);
        let m = BitVec::from_u64_lsb(0x5C, 8);
        let clean = code.encode(&m);
        let mut correct = 0;
        for _ in 0..50 {
            let noisy = clean.flipped_with_noise(0.15, &mut rng);
            if decoder.decode_exhaustive(&noisy).unwrap().message == m {
                correct += 1;
            }
        }
        assert!(correct >= 48, "only {correct}/50 noisy decodes correct");
    }

    #[test]
    fn message_decoder_candidates_tie_break_is_first() {
        let code = dist_code();
        let decoder = MessageDecoder::new(&code);
        let m = BitVec::from_u64_lsb(0x11, 8);
        let received = code.encode(&m);
        // Duplicate candidate list: first instance wins; margin becomes 0.
        let candidates = vec![m.clone(), m.clone()];
        let decoded = decoder.decode_candidates(&received, &candidates).unwrap();
        assert_eq!(decoded.message, m);
        assert_eq!(decoded.margin, Some(0));
    }

    #[test]
    fn message_decoder_empty_candidates_error() {
        let code = dist_code();
        let decoder = MessageDecoder::new(&code);
        let received = BitVec::zeros(code.params().length());
        assert_eq!(
            decoder.decode_candidates(&received, std::iter::empty()),
            Err(CodeError::NoCandidates)
        );
    }

    #[test]
    fn message_decoder_margin_reflects_second_best() {
        let code = dist_code();
        let decoder = MessageDecoder::new(&code);
        let m0 = BitVec::from_u64_lsb(0, 8);
        let m1 = BitVec::from_u64_lsb(1, 8);
        let received = code.encode(&m0);
        let d1 = code.encode(&m1).hamming_distance(&received);
        let decoded = decoder.decode_candidates(&received, [&m0, &m1]).unwrap();
        assert_eq!(decoded.message, m0);
        assert_eq!(decoded.margin, Some(d1));
    }
}
