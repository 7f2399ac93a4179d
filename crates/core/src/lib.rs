#![warn(missing_docs)]

//! The primary contribution of "Optimal Message-Passing with Noisy Beeps"
//! (Davies, PODC 2023): simulating message-passing models in the noisy
//! beeping model at optimal overhead.
//!
//! # What this crate provides
//!
//! * [`SimulationParams`] — the constants of the construction, in two
//!   profiles: the paper's proof-driven values
//!   ([`SimulationParams::theory`]) and an empirically calibrated profile
//!   ([`SimulationParams::calibrated`]) usable at laptop scale (see
//!   ARCHITECTURE.md, *Candidate-and-decoy decoding*, on why both exist).
//! * [`BroadcastSimulator`] — **Algorithm 1**: one Broadcast CONGEST round
//!   executed in `2·c_ε³·(Δ+1)·B` rounds of the (noisy or noiseless)
//!   beeping model, i.e. `O(Δ log n)` for `B = γ log n`-bit messages, with
//!   no setup phase.
//! * [`SimulatedBroadcastRunner`] — **Theorem 11**: runs any
//!   [`beep_congest::BroadcastAlgorithm`] end-to-end over a
//!   [`beep_net::BeepNetwork`], round by round.
//! * [`CongestAdapter`] — **Corollary 12**: lifts any
//!   [`beep_congest::CongestAlgorithm`] to Broadcast CONGEST at a `Δ`
//!   factor, for `O(Δ² log n)` total overhead over beeps.
//! * [`baseline`] — the prior-work comparison points: a distance-2-coloring
//!   TDMA simulator in the style of Beauquier et al. \[7\] and
//!   Ashkenazi–Gelles–Leshem \[4\], plus closed-form cost models.
//! * [`lower_bound`] — the Section 5 apparatus: the B-bit Local Broadcast
//!   hard instance and the transcript-counting argument of Lemma 14 /
//!   Theorem 22, run as experiments.
//!
//! # How Algorithm 1 works (one simulated round)
//!
//! 1. Every broadcasting node `v` draws a fresh random string `r_v` and
//!    transmits the beep codeword `C(r_v)` bitwise (beep = 1). Every node
//!    hears the noisy superimposition `x̃_v` of its neighborhood's
//!    codewords and decodes the *set* `R_v = {r_u}` (Lemmas 8–9).
//! 2. Every broadcasting node retransmits, now sending the combined
//!    codeword `CD(r_v, m_v)` — its message `m_v`, protected by a distance
//!    code, written into the 1-positions of `C(r_v)`. Since each neighbor
//!    knows `C(r_u)` from phase 1, it projects what it heard onto those
//!    positions and nearest-codeword-decodes `m_u` (Lemma 10).
//!
//! Nodes with nothing to send stay silent in both phases; their codewords
//! simply never appear in the superimposition.
//!
//! # Example
//!
//! ```
//! use beep_congest::{algorithms::LubyMis, BroadcastAlgorithm};
//! use beep_core::{SimulatedBroadcastRunner, SimulationParams};
//! use beep_net::{topology, Noise};
//!
//! let graph = topology::cycle(8).unwrap();
//! let params = SimulationParams::calibrated(0.05);
//! let bits = LubyMis::required_message_bits(8);
//! let iters = LubyMis::suggested_iterations(8);
//! let runner = SimulatedBroadcastRunner::new(&graph, bits, 42, params, Noise::bernoulli(0.05));
//! let mut nodes: Vec<Box<LubyMis>> = (0..8).map(|_| Box::new(LubyMis::new(iters))).collect();
//! let report = runner.run_to_completion(&mut nodes, LubyMis::rounds_for(iters)).unwrap();
//! // Every Broadcast CONGEST round cost Θ(Δ log n) noisy beep rounds:
//! assert_eq!(report.beep_rounds, report.congest_rounds * report.beep_rounds_per_congest_round);
//! assert!(beep_congest::validate::check_mis(
//!     &graph,
//!     &nodes.iter().map(|a| a.output().unwrap()).collect::<Vec<_>>(),
//! ).is_empty());
//! ```

pub mod baseline;
mod congest_wrap;
mod error;
pub mod lower_bound;
mod params;
mod round_sim;
mod runner;
mod stats;

pub use congest_wrap::CongestAdapter;
pub use error::SimError;
pub use params::{theory_expansion, RoundCodes, SimulationParams};
pub use round_sim::{BroadcastSimulator, RoundOutcome};
pub use runner::{SimReport, SimulatedBroadcastRunner, SimulatedCongestRunner};
pub use stats::RoundStats;
