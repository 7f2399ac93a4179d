#![warn(missing_docs)]

//! Turn-key beeping-network applications.
//!
//! This crate is the "what you actually call" layer: one function per task,
//! each wiring a reference algorithm from `beep-congest` through the
//! paper's simulation (`beep-core`) onto a beeping network (`beep-net`) —
//! plus two *native* beeping primitives (beep-wave broadcast and
//! wave-based leader election) that work directly in the beeping model
//! without simulation, for contrast and for the sensor-network examples.
//!
//! | Task | Function | Model | Rounds |
//! |------|----------|-------|--------|
//! | Maximal matching | [`maximal_matching`] | noisy beeps (Thm 21) | `O(Δ log² n)` |
//! | Maximal independent set | [`maximal_independent_set`] | noisy beeps | `O(Δ log² n)` |
//! | (Δ+1)-coloring | [`coloring`] | noisy beeps | `O(Δ log² n)` |
//! | Single-source broadcast | [`beep_wave_broadcast`] | noiseless beeps | `O(D + b)` |
//! | Multi-source broadcast | [`multi_source_broadcast`] | noiseless beeps | `O(q²·D)` (superimposed codes, \[6\]) |
//! | Leader election | [`beep_leader_election`] | noiseless beeps | `O(D log n)` |
//! | Binary consensus | [`beep_consensus`] | noisy beeps **+ faults** | `O(D · log(n·D)/(½−ε)²)` |
//! | Randomized consensus | [`beep_ben_or`] | noisy beeps **+ faults** | `O(D · log(n·D)/(½−ε)²)` |
//! | Reliable broadcast | [`beep_reliable_broadcast`] | noisy beeps **+ faults** | `O(D · log(n·D)/(½−ε)²)` |
//! | Leader re-election | [`beep_leader_reelect`] | noisy beeps **+ faults** | `O(E·D·log n · log(n·D)/(½−ε)²)` |
//!
//! The three simulated tasks take the paper's iid channel by its rate `ε`
//! or, through their `*_with_channel` twins, any [`beep_net::ChannelModel`].
//! Every task (plus the round-simulation, TDMA-baseline, and
//! local-broadcast pipelines from `beep-core`) is also addressable *by
//! name* through the [`Protocol`] registry — the uniform entry point the
//! scenario-campaign layer (`beep-scenarios`) sweeps.

mod ben_or;
mod broadcast_wave;
mod consensus;
mod error;
mod leader;
mod leader_reelect;
mod multicast;
mod registry;
mod reliable_broadcast;
mod tasks;

pub use ben_or::{beep_ben_or, BenOrReport};
pub use broadcast_wave::{beep_wave_broadcast, BeepWaveReport};
pub use consensus::{beep_consensus, consensus_slots_per_phase, ConsensusReport};
pub use error::AppError;
pub use leader::{beep_leader_election, LeaderReport};
pub use leader_reelect::{beep_leader_reelect, LeaderReelectReport};
pub use multicast::{multi_source_broadcast, MulticastReport};
pub use registry::{Protocol, ProtocolOutcome};
pub use reliable_broadcast::{beep_reliable_broadcast, ReliableBroadcastReport};
pub use tasks::{
    coloring, coloring_with_channel, maximal_independent_set, maximal_independent_set_with_channel,
    maximal_matching, maximal_matching_with_channel, TaskReport,
};
