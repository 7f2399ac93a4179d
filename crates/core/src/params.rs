//! Simulation constants: the paper's `c_ε`, in theory and calibrated
//! profiles, and the per-round code bundle they induce.

use crate::error::SimError;
use beep_codes::{BeepCode, BeepCodeParams, CombinedCode, DistanceCode, DistanceCodeParams};

/// The paper's Section 3 requirement on `c_ε`, as the maximum of every
/// constraint collected across Lemmas 8–10:
///
/// * Lemma 9: `c_ε ≥ 60/(1−2ε)`, `c_ε ≥ 54/((1−2ε)²ε) + 5`,
///   `c_ε ≥ (6/ε)·(1/(4ε) − 1/2)⁻²`;
/// * Lemma 10: `c_ε ≥ 30/(ε(1−2ε))`,
///   `c_ε ≥ 6·((1−ε)(1−2ε)/(ε(7−2ε)))⁻²`;
/// * Lemma 6 (distance code at rate `c_ε²` and `δ = 1/3`):
///   `c_ε² ≥ 12(1−2·1/3)⁻² = 108`.
///
/// These constants come from closing Chernoff/union bounds for *all* `n`
/// simultaneously; they are intentionally conservative. For `ε = 0.05` the
/// bound is ≈ 16,667 — correct, and unusable for actual simulation, which
/// is why [`SimulationParams::calibrated`] exists (ARCHITECTURE.md,
/// *Candidate-and-decoy decoding*).
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 0.5)`.
#[must_use]
pub fn theory_expansion(epsilon: f64) -> usize {
    assert!(
        epsilon > 0.0 && epsilon < 0.5,
        "theory constants are defined for ε ∈ (0, 1/2), got {epsilon}"
    );
    let e = epsilon;
    let one_minus = 1.0 - 2.0 * e;
    let candidates = [
        60.0 / one_minus,
        54.0 / (one_minus * one_minus * e) + 5.0,
        (6.0 / e) * (1.0 / (4.0 * e) - 0.5).powi(-2),
        30.0 / (e * one_minus),
        6.0 * ((1.0 - e) * one_minus / (e * (7.0 - 2.0 * e))).powi(-2),
        108.0f64.sqrt(),
    ];
    candidates.into_iter().fold(0.0f64, f64::max).ceil() as usize
}

/// All constants of one simulation configuration.
///
/// The construction is parameterized by a single expansion constant
/// `c_ε` exactly as in the paper (Section 3):
///
/// * beep code: `a = c_ε·B` input bits, `k = Δ+1`, expansion `c_ε`
///   → length `c_ε³·(Δ+1)·B`, weight `c_ε²·B`;
/// * distance code: `B`-bit messages at length `c_ε²·B` (= beep weight);
/// * decoding thresholds: `(2ε+1)/4 · weight` (phase 1) and
///   nearest-codeword (phase 2),
///
/// where `B` is the model's message width (the paper's `γ·log n`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationParams {
    /// Channel noise rate the thresholds are derived for (0 = noiseless).
    pub epsilon: f64,
    /// The expansion constant `c_ε`.
    pub expansion: usize,
    /// Seed of the shared public codes (all nodes must agree on it).
    pub code_seed: u64,
    /// Random decoy codewords scored per decode, estimating the
    /// false-positive events of Lemmas 8–9 on the fly (see ARCHITECTURE.md,
    /// *Candidate-and-decoy decoding*). 0 disables decoys.
    pub decoys: usize,
}

impl SimulationParams {
    /// The paper's proof-faithful constants for noise rate `epsilon`.
    /// Astronomically conservative — use only at toy scales (tests do).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 0.5)`.
    #[must_use]
    pub fn theory(epsilon: f64) -> Self {
        SimulationParams {
            epsilon,
            expansion: theory_expansion(epsilon),
            code_seed: 0,
            decoys: 4,
        }
    }

    /// Empirically calibrated constants: `c_ε = 3` for `ε ≤ 0.1`, growing
    /// with noise (experiment E3 sweeps the working region; these sit
    /// safely inside it at the scales the workspace simulates, failing at
    /// rates ≪ 1 per simulated round).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `[0, 0.5)`.
    #[must_use]
    pub fn calibrated(epsilon: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&epsilon),
            "ε = {epsilon} outside [0, 1/2)"
        );
        let expansion = if epsilon <= 0.1 {
            3
        } else if epsilon <= 0.25 {
            4
        } else if epsilon <= 0.35 {
            6
        } else {
            10
        };
        SimulationParams {
            epsilon,
            expansion,
            code_seed: 0,
            decoys: 4,
        }
    }

    /// Sets the shared code seed (builder style).
    #[must_use]
    pub fn with_code_seed(mut self, seed: u64) -> Self {
        self.code_seed = seed;
        self
    }

    /// Sets the decoy count (builder style).
    #[must_use]
    pub fn with_decoys(mut self, decoys: usize) -> Self {
        self.decoys = decoys;
        self
    }

    /// Builds the code bundle for message width `B` and maximum degree `Δ`.
    ///
    /// # Errors
    ///
    /// Propagates [`beep_codes::CodeError`] if the implied parameters are
    /// invalid (e.g. overflowing lengths).
    pub fn codes_for(
        &self,
        message_bits: usize,
        max_degree: usize,
    ) -> Result<RoundCodes, SimError> {
        let c = self.expansion;
        let beep_params = BeepCodeParams::new(c * message_bits, max_degree + 1, c)?;
        let beep = BeepCode::with_seed(beep_params, self.code_seed);
        let dist_params = DistanceCodeParams::with_length(message_bits, beep_params.weight())?;
        let distance = DistanceCode::with_seed(dist_params, self.code_seed);
        let combined = CombinedCode::new(beep.clone(), distance.clone())?;
        Ok(RoundCodes {
            beep,
            distance,
            combined,
        })
    }

    /// Beep rounds per simulated Broadcast CONGEST round:
    /// `2·c_ε³·(Δ+1)·B` (two phases of one beep-code length each).
    /// This is the paper's `O(Δ log n)` overhead with the constant spelled
    /// out.
    #[must_use]
    pub fn rounds_per_broadcast_round(&self, message_bits: usize, max_degree: usize) -> usize {
        let c = self.expansion;
        2 * c * c * c * (max_degree + 1) * message_bits
    }
}

/// The shared public codes of one configuration: the beep code `C`, the
/// distance code `D`, and their combination `CD` (Notation 7).
#[derive(Debug, Clone)]
pub struct RoundCodes {
    /// The `(c_ε·B, Δ+1, 1/c_ε)`-beep code `C`.
    pub beep: BeepCode,
    /// The `(B, 1/3)`-distance code `D` of length = beep weight.
    pub distance: DistanceCode,
    /// The combined code `CD`.
    pub combined: CombinedCode,
}

impl RoundCodes {
    /// The number of beep rounds one phase occupies (= beep-code length).
    #[must_use]
    pub fn phase_len(&self) -> usize {
        self.beep.params().length()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theory_expansion_is_monotone_extreme() {
        // Mid-range noise has the mildest constants; both extremes blow up.
        let mid = theory_expansion(0.25);
        assert!(mid >= 108f64.sqrt() as usize);
        assert!(theory_expansion(0.01) > mid);
        assert!(theory_expansion(0.49) > mid);
        // ε = 0.05 is in the hundreds-to-thousands range — the reason the
        // calibrated profile exists.
        assert!(theory_expansion(0.05) > 500);
    }

    #[test]
    #[should_panic(expected = "ε ∈ (0, 1/2)")]
    fn theory_rejects_zero_noise() {
        let _ = theory_expansion(0.0);
    }

    #[test]
    fn calibrated_grows_with_noise() {
        let c1 = SimulationParams::calibrated(0.0).expansion;
        let c2 = SimulationParams::calibrated(0.2).expansion;
        let c3 = SimulationParams::calibrated(0.4).expansion;
        assert!(c1 <= c2 && c2 <= c3);
        assert!(c1 >= 3, "phase-1 decoding needs real expansion");
    }

    #[test]
    fn codes_have_paper_shapes() {
        // B = 16, Δ = 4, c = 3: a = 48, length = 27·5·16 = 2160,
        // weight = 9·16 = 144, distance code length 144.
        let p = SimulationParams::calibrated(0.05);
        let codes = p.codes_for(16, 4).unwrap();
        assert_eq!(codes.beep.params().input_bits(), 48);
        assert_eq!(codes.beep.params().length(), 2160);
        assert_eq!(codes.beep.params().weight(), 144);
        assert_eq!(codes.distance.params().length(), 144);
        assert_eq!(codes.distance.params().message_bits(), 16);
        assert_eq!(codes.phase_len(), 2160);
        assert_eq!(p.rounds_per_broadcast_round(16, 4), 2 * 2160);
    }

    #[test]
    fn builders_apply() {
        let p = SimulationParams::calibrated(0.1)
            .with_code_seed(9)
            .with_decoys(12);
        assert_eq!(p.code_seed, 9);
        assert_eq!(p.decoys, 12);
    }

    #[test]
    fn overhead_is_linear_in_delta_and_message_bits() {
        let p = SimulationParams::calibrated(0.05);
        let base = p.rounds_per_broadcast_round(16, 4);
        assert_eq!(p.rounds_per_broadcast_round(32, 4), 2 * base);
        // (Δ+1) scaling: 9+1 vs 4+1.
        assert_eq!(p.rounds_per_broadcast_round(16, 9), 2 * base);
    }
}
