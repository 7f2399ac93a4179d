#![warn(missing_docs)]

//! Declarative scenario campaigns for the noisy-beeps workspace.
//!
//! A **campaign** sweeps `topology families × sizes × channel models ×
//! fault plans × protocols × seeds` as one declarative spec
//! ([`CampaignSpec`], parsed from a checked-in file or built in code),
//! expands it into a cell matrix, executes every cell on the sharded
//! bitset engine (in parallel across worker threads), and emits both a
//! human table and a stable, schema-versioned JSON report
//! ([`CampaignReport`]) that CI checks and archives. The
//! channel axis covers the paper's iid `ε` sweep plus the richer
//! [`ChannelSpec`] families (bursty Gilbert–Elliott, per-node rates,
//! adversarial erasure); the fault axis ([`FaultSpec`], `[[faults]]`
//! tables) sweeps deterministic crash/spam/mute plans over a fraction of
//! each cell's nodes, with fault-intolerant protocols recorded as
//! skipped cells.
//!
//! The scenario layer is the workspace's front door for new workloads:
//! instead of writing a bespoke experiment module per sweep, describe
//! the grid and let [`run_campaign`] drive the
//! [`beep_apps::Protocol`] registry.
//!
//! # Determinism
//!
//! With timing excluded ([`CampaignReport::to_json`] with
//! `include_timing = false`), a report is a byte-for-byte pure function
//! of its spec: cell seeds derive from cell *ids* (not positions), the
//! topology instance is shared across the (ε, protocol) cells of one
//! family × size × sweep-seed, fault plans realize from cell seeds, and
//! results land in matrix order at every thread count. `wall_ms` fields
//! are the only nondeterministic output. Fault-free cell ids carry no
//! fault segment, so adding `[[faults]]` tables to an existing spec
//! leaves every pre-existing cell's id — and seed — untouched.
//!
//! # Executor, sinks, checkpoints
//!
//! [`run_campaign`] is a thin wrapper over the engine-agnostic executor
//! ([`run_campaign_with_sink`]): completed cells stream into a pluggable
//! [`ResultSink`], of which the in-memory report assembly
//! ([`MemorySink`]) is one implementation and the incremental JSONL
//! checkpoint journal ([`CheckpointSink`]) another.
//! [`run_campaign_resumable`] replays a journal's completed cells,
//! executes only the remainder, and — because cell seeds are pure
//! functions of cell ids — produces a final timing-free report
//! byte-identical to an uninterrupted run.
//!
//! # Example
//!
//! ```
//! use beep_scenarios::{run_campaign, CampaignSpec, RunOptions};
//!
//! let spec = CampaignSpec::parse(r#"
//!     name = "doc"
//!     protocols = ["wave"]
//!     [[topology]]
//!     family = "cycle"
//!     sizes = [6]
//! "#).unwrap();
//! let report = run_campaign(&spec, &RunOptions::default()).unwrap();
//! assert_eq!(report.cells.len(), 1);
//! assert!(report.cells[0].success);
//! ```

pub mod checkpoint;
pub mod json;
pub mod sink;

mod error;
mod report;
mod run;
mod spec;

pub use checkpoint::{
    load_checkpoint, spec_fingerprint, Checkpoint, CheckpointSink, CHECKPOINT_SCHEMA,
    CHECKPOINT_VERSION,
};
pub use error::ScenarioError;
pub use report::{
    validate_report, CampaignReport, CellResult, CellStatus, Summary, SCHEMA_NAME, SCHEMA_VERSION,
};
pub use run::{
    run_campaign, run_campaign_resumable, run_campaign_with_sink, InstanceCache, ResumeOutcome,
    RunOptions,
};
pub use sink::{FnSink, MemorySink, ResultSink, TeeSink};
pub use spec::{
    cell_seed, CampaignSpec, CellSpec, ChannelSpec, FaultSpec, PolicySpec, TopologyFamily,
    TopologySpec,
};
