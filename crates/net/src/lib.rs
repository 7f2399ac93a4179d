#![warn(missing_docs)]

//! A synchronous beeping-model network simulator.
//!
//! Implements the execution models of "Optimal Message-Passing with Noisy
//! Beeps" (Davies, PODC 2023), Section 1.1:
//!
//! * a network is an undirected graph over `n` nodes with maximum degree
//!   `Δ` ([`Graph`], with generators in [`topology`]);
//! * time proceeds in synchronous rounds with a shared global clock;
//! * in each round every node either **beeps** or **listens**
//!   ([`Action`]);
//! * a listening node hears a beep iff at least one neighbor beeped
//!   (carrier sensing: no sender identity, no multiplicity);
//! * in the **noisy** model the bit each node receives is flipped
//!   independently with probability `ε ∈ (0, ½)` ([`Noise`]).
//!
//! Beyond the paper's iid channel, the [`channel`] module generalizes
//! corruption into pluggable [`NoiseModel`]s — bursty
//! ([`GilbertElliott`]), heterogeneous ([`PerNodeEps`]) and adversarial
//! ([`AdversarialErasure`]) — all under the same counter-keyed
//! determinism contract. The [`faults`] module drops the assumption that
//! every node behaves: a deterministic [`FaultPlan`] (crash / Byzantine
//! spam / Byzantine mute) overrides faulty nodes' actions between
//! submission and the channel, in every kernel.
//!
//! Following the paper's Section 1.5 convention, a node that beeps
//! "receives" a 1 in that round (and, per the paper's footnote 2, that bit
//! is also subject to noise by default so the analysis carries over
//! verbatim; [`BeepNetwork::set_self_hearing_noisy`] turns the more
//! realistic noise-free self-hearing on).
//!
//! The engine is deterministic given a seed: every experiment in the
//! workspace is exactly reproducible.
//!
//! Rounds run on one of three equivalent kernels: the scalar reference
//! [`BeepNetwork::run_round`] (kept as a differential-testing oracle), the
//! bit-parallel [`BeepNetwork::run_round_bitset`] /
//! [`BeepNetwork::run_frame`] that the simulators and protocols in the
//! workspace use, and — inside the bitset kernel — a sharded
//! multi-threaded execution path ([`BeepNetwork::set_parallelism`]). All
//! three produce bit-identical noisy transcripts at every thread count
//! because channel noise is keyed by `(seed, round, shard)`
//! ([`noise_stream_seed`]). See ARCHITECTURE.md at the repository root for
//! the full determinism contract.
//!
//! # Example
//!
//! ```
//! use beep_net::{topology, Action, BeepNetwork, Noise};
//!
//! // A 4-cycle; node 0 beeps once, everyone else listens.
//! let graph = topology::cycle(4).unwrap();
//! let mut net = BeepNetwork::new(graph, Noise::Noiseless, 7);
//! let heard = net.run_round(&[Action::Beep, Action::Listen, Action::Listen, Action::Listen]);
//! assert_eq!(heard.unwrap(), vec![true, true, false, true]); // neighbors 1 and 3 hear it
//! ```

pub mod channel;
mod engine;
mod error;
pub mod faults;
mod graph;
mod node;
mod noise;
pub mod topology;
mod trace;

pub use channel::{
    AdversarialErasure, ChannelCtx, ChannelModel, GilbertElliott, NoiseModel, PerNodeEps,
    ROUND_STATE_STREAM,
};
pub use engine::BeepNetwork;
pub use error::{GraphError, NetError};
pub use faults::{
    AdaptiveAdversary, AdaptivePolicy, AdversaryView, FaultKind, FaultPlan, RoundFaults,
    ADAPTIVE_POLICY_STREAM, FAULT_PLAN_STREAM,
};
pub use graph::{AdjacencyRepr, Graph, NodeId};
pub use node::{Action, BeepProtocol};
pub use noise::{noise_stream_seed, protocol_coin, Noise, PROTOCOL_COIN_STREAM};
pub use trace::{NetStats, Transcript};

/// Every reserved shard index in the workspace, by stable name.
///
/// Real shard indices are `0..S` for small constant shard counts; reserved
/// indices sit at the top of the `u64` range so counter-keyed draws that
/// are *not* per-shard channel noise (per-round channel state, fault-plan
/// realization, adaptive-adversary decisions, protocol coins) can never
/// collide with any shard's flip stream — or with each other. The
/// registry exists so the collision test in `faults.rs` enumerates *all*
/// reserved indices: adding a stream without registering it here fails
/// that test's count check.
pub const RESERVED_STREAMS: [(&str, u64); 4] = [
    ("round-state", ROUND_STATE_STREAM),
    ("fault-plan", FAULT_PLAN_STREAM),
    ("adaptive-policy", ADAPTIVE_POLICY_STREAM),
    ("protocol-coin", PROTOCOL_COIN_STREAM),
];
