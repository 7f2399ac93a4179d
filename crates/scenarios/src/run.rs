//! Campaign execution: the engine-agnostic executor behind every
//! campaign entry point.
//!
//! The executor expands the spec, runs cells on the engine in parallel
//! across worker threads, and hands each completed [`CellResult`] to a
//! pluggable [`ResultSink`] — the in-memory report assembly
//! ([`MemorySink`]) is just one sink, the incremental JSONL checkpoint
//! journal ([`CheckpointSink`](crate::checkpoint::CheckpointSink)) is
//! another, and they compose ([`TeeSink`](crate::sink::TeeSink)). Three
//! entry points share it:
//!
//! * [`run_campaign`] — the classic one-shot: every cell, report out.
//! * [`run_campaign_with_sink`] — bring your own sink (and optionally a
//!   shared [`InstanceCache`]).
//! * [`run_campaign_resumable`] — checkpointed execution: replay the
//!   journal's completed cells, run only the remainder, stream new
//!   completions back to the journal.
//!
//! Cell results are recorded under their matrix index regardless of
//! which worker ran them, so the report is identical at every thread
//! count; only the `wall_ms` fields vary. Topology instances build
//! **lazily, once per group, from the worker pool**: the first worker to
//! reach a `family × size × sweep-seed` group builds the instance inside
//! its [`std::sync::OnceLock`] (the build is seeded by the group key, so
//! *which* worker builds it cannot matter), later workers share it, and
//! groups whose every cell is replayed from a checkpoint never build at
//! all. An [`InstanceCache`] handed to [`run_campaign_with_sink`]
//! carries those instances across campaigns.
//!
//! Builds and protocol runs are both panic-guarded: a panicking topology
//! generator fails that group's cells, and a panicking protocol fails
//! its cell, without aborting the campaign or poisoning the worker pool.
//!
//! Each cell instantiates its channel against the realized node count
//! (the adversary's budget scales with `n`), realizes its fault plan (if
//! any) from the cell seed, and dispatches through
//! [`beep_apps::Protocol::run_with_faults`]; noiseless-only protocols
//! under a noisy channel — and fault-intolerant protocols under a
//! non-empty fault plan — become skipped cells.

use crate::checkpoint::{load_checkpoint, CheckpointSink};
use crate::error::ScenarioError;
use crate::report::{CampaignReport, CellResult, CellStatus};
use crate::sink::{MemorySink, ResultSink, TeeSink};
use crate::spec::{cell_seed, CampaignSpec, CellSpec};
use beep_apps::AppError;
use beep_net::{FaultPlan, Graph};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Why a topology instance is unusable, and how its cells report it:
/// generator *errors* (unrealizable sizes) are structural — skipped —
/// while generator *panics* are failures, mirroring protocol panics.
#[derive(Debug)]
struct BuildFailure {
    status: CellStatus,
    detail: String,
}

/// A built (or unbuildable) topology instance, shared by all the cells
/// of one family × size × sweep-seed group.
type BuiltInstance = Result<(Graph, Vec<(String, f64)>), BuildFailure>;

/// Lazily built topology instances, keyed by the cell group
/// (`family/n{size}/s{seed}/topology`). Safe to share across campaigns
/// and threads: instance seeds derive from the group key alone, so a
/// cache hit is byte-equivalent to a rebuild.
#[derive(Debug, Default)]
pub struct InstanceCache {
    inner: Mutex<HashMap<String, Arc<OnceLock<BuiltInstance>>>>,
}

impl InstanceCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> InstanceCache {
        InstanceCache::default()
    }

    /// Instance groups resident in the cache (built or building).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").len()
    }

    /// Whether the cache holds no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The group's `OnceLock` slot, inserted empty on first touch. The
    /// map lock is held only for the lookup — builds happen outside it,
    /// serialized per group by the `OnceLock` itself.
    fn slot(&self, key: String) -> Arc<OnceLock<BuiltInstance>> {
        self.inner
            .lock()
            .expect("cache lock")
            .entry(key)
            .or_default()
            .clone()
    }
}

/// Execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Worker threads; 0 = one per core (capped at the cell count).
    pub threads: usize,
    /// Stop dispatching after this many cells complete (taken from the
    /// front of the pending list in matrix order) — the deterministic
    /// "interrupted campaign" used by the checkpoint/resume tests and
    /// the CI resume smoke. `None` runs everything.
    pub max_cells: Option<usize>,
}

/// What a resumable run did.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The assembled report, or `None` when a `max_cells` cut stopped
    /// the run before every cell completed (the checkpoint holds the
    /// progress; resume to finish).
    pub report: Option<CampaignReport>,
    /// Cells in the expanded matrix.
    pub total: usize,
    /// Cells replayed from the checkpoint journal.
    pub replayed: usize,
    /// Cells executed fresh this run.
    pub executed: usize,
}

/// Runs a campaign to completion and assembles the in-memory report.
///
/// # Errors
///
/// [`ScenarioError::EmptyMatrix`] if the spec expands to zero cells;
/// [`ScenarioError::Incomplete`] if `options.max_cells` stopped the run
/// early (use [`run_campaign_resumable`] for interruptible runs).
/// Individual cell failures never abort the campaign — they are recorded
/// as `failed`/`skipped` cells.
pub fn run_campaign(
    spec: &CampaignSpec,
    options: &RunOptions,
) -> Result<CampaignReport, ScenarioError> {
    let start = Instant::now();
    let cells = spec.expand()?;
    let mut memory = MemorySink::new(spec.name.clone(), cells.len());
    let pending: Vec<usize> = (0..cells.len()).collect();
    let completed = execute(
        &cells,
        &pending,
        options,
        &InstanceCache::new(),
        &mut memory,
    )?;
    memory
        .try_into_report(start.elapsed().as_secs_f64() * 1e3)
        .ok_or(ScenarioError::Incomplete {
            completed,
            total: cells.len(),
        })
}

/// Runs a campaign through a caller-supplied sink — the engine-agnostic
/// executor surface. `cache` may be shared across campaigns; pass a
/// fresh [`InstanceCache`] when reuse is unwanted. Returns the number of cells completed (all of them, unless
/// `options.max_cells` cut the run short).
///
/// # Errors
///
/// [`ScenarioError::EmptyMatrix`] on an empty expansion; any error a
/// sink returns from [`ResultSink::record`] (the executor stops
/// dispatching and surfaces the first one).
pub fn run_campaign_with_sink(
    spec: &CampaignSpec,
    options: &RunOptions,
    cache: &InstanceCache,
    sink: &mut dyn ResultSink,
) -> Result<usize, ScenarioError> {
    let cells = spec.expand()?;
    let pending: Vec<usize> = (0..cells.len()).collect();
    execute(&cells, &pending, options, cache, sink)
}

/// Checkpointed execution: load `checkpoint` (if it exists), verify its
/// spec fingerprint, replay its completed cells, execute only the
/// remainder (streaming each completion back to the journal), and
/// assemble the final report.
///
/// The resume contract — pinned by `tests/checkpoint_resume.rs` and the
/// CI resume smoke — is that the final `--no-timing` report is
/// byte-identical to an uninterrupted [`run_campaign`] of the same spec:
/// cell seeds are pure functions of cell ids, so a replayed cell and a
/// re-executed cell are the same cell.
///
/// # Errors
///
/// [`ScenarioError::EmptyMatrix`] on an empty expansion;
/// [`ScenarioError::Checkpoint`] if the journal is unreadable, corrupt,
/// or fingerprint-mismatched (it belongs to a different campaign).
pub fn run_campaign_resumable(
    spec: &CampaignSpec,
    options: &RunOptions,
    checkpoint: &Path,
) -> Result<ResumeOutcome, ScenarioError> {
    let start = Instant::now();
    let cells = spec.expand()?;
    let mut memory = MemorySink::new(spec.name.clone(), cells.len());
    let mut done = vec![false; cells.len()];
    let mut replayed = 0usize;
    let mut journal = match load_checkpoint(checkpoint, spec, &cells)? {
        Some(loaded) => {
            for (index, cell) in &loaded.completed {
                memory.record(*index, cell)?;
                done[*index] = true;
            }
            replayed = loaded.completed.len();
            CheckpointSink::append(checkpoint)?
        }
        None => CheckpointSink::create(checkpoint, spec, &cells)?,
    };
    let pending: Vec<usize> = (0..cells.len()).filter(|&i| !done[i]).collect();
    let executed = {
        let mut tee = TeeSink(&mut memory, &mut journal);
        execute(&cells, &pending, options, &InstanceCache::new(), &mut tee)?
    };
    Ok(ResumeOutcome {
        report: memory.try_into_report(start.elapsed().as_secs_f64() * 1e3),
        total: cells.len(),
        replayed,
        executed,
    })
}

/// The executor core: run `pending` (indices into `cells`, truncated by
/// `options.max_cells`) across the worker pool, recording each
/// completion into `sink` under one lock.
fn execute(
    cells: &[CellSpec],
    pending: &[usize],
    options: &RunOptions,
    cache: &InstanceCache,
    sink: &mut dyn ResultSink,
) -> Result<usize, ScenarioError> {
    let limit = options
        .max_cells
        .unwrap_or(pending.len())
        .min(pending.len());
    let pending = &pending[..limit];
    struct SinkState<'a> {
        sink: &'a mut dyn ResultSink,
        error: Option<ScenarioError>,
        completed: usize,
    }
    let shared = Mutex::new(SinkState {
        sink,
        error: None,
        completed: 0,
    });
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let work = || loop {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        let k = next.fetch_add(1, Ordering::Relaxed);
        let Some(&index) = pending.get(k) else { break };
        let cell = &cells[index];
        // Lazy, once-per-group, from the worker pool: the OnceLock
        // serializes concurrent initializers of one group while other
        // groups build in parallel.
        let slot = cache.slot(instance_key(cell));
        let built = slot.get_or_init(|| build_instance(cell));
        let result = run_cell(cell, built);
        let mut state = shared.lock().expect("no poisoned workers");
        if state.error.is_some() {
            break;
        }
        match state.sink.record(index, &result) {
            Ok(()) => state.completed += 1,
            Err(e) => {
                state.error = Some(e);
                abort.store(true, Ordering::Relaxed);
                break;
            }
        }
    };

    let workers = if options.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        options.threads
    }
    .min(pending.len())
    .max(1);
    if workers == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(work);
            }
        });
    }

    let state = shared.into_inner().expect("workers joined");
    match state.error {
        Some(e) => Err(e),
        None => Ok(state.completed),
    }
}

/// The key grouping cells that share one topology instance: every
/// (ε, protocol) cell of a family × size within one sweep seed.
fn instance_key(cell: &CellSpec) -> String {
    format!(
        "{}/n{}/s{}/topology",
        cell.family.label(),
        cell.requested_n,
        cell.sweep_seed
    )
}

/// The topology instance seed, derived from the group key.
fn topology_seed(cell: &CellSpec) -> u64 {
    cell_seed(&instance_key(cell))
}

/// The requested size the test-only build hook panics on — a seam for
/// proving the executor survives a panicking topology generator (every
/// shipped generator is total over its error type, so there is no
/// organic input that unwinds).
#[cfg(test)]
const PANICKING_BUILD_N: usize = 0x0BAD_BEEF;

/// Renders a caught panic payload (`&str` / `String` are the common
/// shapes; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Builds one group's topology instance, panic-guarded: a panicking
/// generator must fail that group's cells, not abort the campaign (or
/// poison a `OnceLock` mid-init).
fn build_instance(cell: &CellSpec) -> BuiltInstance {
    let seed = topology_seed(cell);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        assert_ne!(
            cell.requested_n, PANICKING_BUILD_N,
            "injected topology-build panic"
        );
        cell.family.build(cell.requested_n, seed)
    }));
    match attempt {
        Ok(Ok(instance)) => Ok(instance),
        // Generator errors (unrealizable sizes) are structural: skipped.
        Ok(Err(e)) => Err(BuildFailure {
            status: CellStatus::Skipped,
            detail: e.to_string(),
        }),
        // Generator panics are bugs surfacing: failed, like protocol
        // panics.
        Err(payload) => Err(BuildFailure {
            status: CellStatus::Failed,
            detail: format!("topology build panicked: {}", panic_message(&*payload)),
        }),
    }
}

fn run_cell(cell: &CellSpec, built: &BuiltInstance) -> CellResult {
    let start = Instant::now();
    let mut result = CellResult {
        id: cell.id.clone(),
        family: cell.family.label(),
        requested_n: cell.requested_n,
        n: 0,
        edges: 0,
        max_degree: 0,
        topology_params: Vec::new(),
        epsilon: cell.epsilon,
        channel: cell.channel.label(),
        faults: cell
            .fault
            .as_ref()
            .map_or_else(|| "none".into(), super::spec::FaultSpec::label),
        protocol: cell.protocol.name().into(),
        seed: cell.sweep_seed,
        cell_seed: cell.cell_seed,
        status: CellStatus::Skipped,
        success: false,
        rounds: 0,
        beeps: 0,
        metrics: Vec::new(),
        detail: String::new(),
        wall_ms: 0.0,
    };
    match built {
        Err(failure) => {
            result.status = failure.status;
            result.detail = failure.detail.clone();
        }
        Ok((graph, params)) => {
            result.n = graph.node_count();
            result.edges = graph.edge_count();
            result.max_degree = graph.max_degree();
            result.topology_params = params.clone();
            // The channel instantiates against the realized size (the
            // adversary's budget is a fraction of n), and the fault plan
            // realizes against it too (the faulty *count* is a fraction
            // of n, the set drawn from the cell seed's reserved stream).
            // Parse-time range checks make build failures unreachable
            // for file-parsed specs, but programmatic ones record a
            // failed cell.
            let built_channel =
                cell.channel
                    .build(graph.node_count())
                    .map_err(|e| AppError::InvalidOutput {
                        detail: e.to_string(),
                    });
            let plan = cell.fault.as_ref().map_or_else(
                || Ok(FaultPlan::none()),
                |f| {
                    f.realize(graph.node_count(), cell.cell_seed)
                        .map_err(AppError::Net)
                },
            );
            let run = match (built_channel, plan) {
                (Err(e), _) | (_, Err(e)) => Err(e),
                // A panicking protocol (e.g. an assert on a degenerate
                // graph) must not take down the campaign — or, worse,
                // poison the worker pool: it becomes a failed cell like
                // any other error.
                (Ok(channel), Ok(plan)) => catch_unwind(AssertUnwindSafe(|| {
                    cell.protocol
                        .run_with_faults(graph, &channel, &plan, cell.cell_seed)
                }))
                .unwrap_or_else(|payload| {
                    Err(AppError::InvalidOutput {
                        detail: format!("protocol panicked: {}", panic_message(&*payload)),
                    })
                }),
            };
            match run {
                Ok(outcome) => {
                    result.status = CellStatus::Ok;
                    result.success = outcome.success;
                    result.rounds = outcome.rounds;
                    result.beeps = outcome.beeps;
                    result.metrics = outcome
                        .metrics
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect();
                }
                Err(
                    e @ (AppError::NoiseUnsupported { .. } | AppError::FaultsUnsupported { .. }),
                ) => {
                    result.status = CellStatus::Skipped;
                    result.detail = e.to_string();
                }
                Err(e) => {
                    result.status = CellStatus::Failed;
                    result.detail = e.to_string();
                }
            }
        }
    }
    result.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelSpec, TopologyFamily, TopologySpec};
    use beep_apps::Protocol;

    fn threads(n: usize) -> RunOptions {
        RunOptions {
            threads: n,
            ..RunOptions::default()
        }
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec {
            name: "unit".into(),
            topologies: vec![
                TopologySpec {
                    family: TopologyFamily::Cycle,
                    sizes: vec![6],
                },
                TopologySpec {
                    family: TopologyFamily::Torus,
                    sizes: vec![9],
                },
            ],
            epsilons: vec![0.0, 0.05],
            channels: vec![],
            faults: vec![],
            protocols: vec![Protocol::Wave, Protocol::RoundSim],
            seeds: vec![1],
        }
    }

    #[test]
    fn campaign_runs_and_classifies_cells() {
        let report = run_campaign(&small_spec(), &RunOptions::default()).unwrap();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        let s = report.summary();
        // Wave at ε > 0 is skipped; everything else runs and succeeds.
        assert_eq!(s.skipped, 2);
        assert_eq!(s.ok, 6);
        assert_eq!(s.failed, 0);
        assert_eq!(s.successes, 6, "{}", report.render_table());
    }

    #[test]
    fn reports_are_thread_count_invariant_modulo_timing() {
        let spec = small_spec();
        let serial = run_campaign(&spec, &threads(1)).unwrap();
        let parallel = run_campaign(&spec, &threads(4)).unwrap();
        assert_eq!(
            serial.to_json(false).to_pretty(),
            parallel.to_json(false).to_pretty()
        );
    }

    #[test]
    fn shared_topology_instance_across_protocols() {
        let report = run_campaign(&small_spec(), &threads(1)).unwrap();
        // Same family/size/seed ⇒ same realized graph facts across ε and
        // protocol cells.
        let torus: Vec<&CellResult> = report
            .cells
            .iter()
            .filter(|c| c.family == "torus")
            .collect();
        assert!(torus.len() > 1);
        assert!(torus.iter().all(|c| c.n == torus[0].n));
        assert!(torus.iter().all(|c| c.edges == torus[0].edges));
    }

    #[test]
    fn instance_cache_is_lazy_and_reusable_across_campaigns() {
        let spec = small_spec();
        let cache = InstanceCache::new();
        assert!(cache.is_empty());
        let mut first = MemorySink::new(spec.name.clone(), 8);
        run_campaign_with_sink(&spec, &threads(2), &cache, &mut first).unwrap();
        // One lazily built instance per family × size × sweep-seed group.
        assert_eq!(cache.len(), 2);
        // A second campaign over the same grid reuses the cache (no new
        // groups) and reproduces the report byte for byte.
        let mut second = MemorySink::new(spec.name.clone(), 8);
        run_campaign_with_sink(&spec, &threads(1), &cache, &mut second).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(
            first
                .try_into_report(0.0)
                .unwrap()
                .to_json(false)
                .to_pretty(),
            second
                .try_into_report(0.0)
                .unwrap()
                .to_json(false)
                .to_pretty()
        );
    }

    #[test]
    fn max_cells_stops_early_and_run_campaign_reports_incomplete() {
        let spec = small_spec();
        let options = RunOptions {
            threads: 1,
            max_cells: Some(3),
        };
        let err = run_campaign(&spec, &options).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Incomplete {
                completed: 3,
                total: 8
            }
        );
    }

    #[test]
    fn sink_errors_abort_the_campaign() {
        use crate::sink::FnSink;
        let spec = small_spec();
        let mut calls = 0usize;
        let mut sink = FnSink(|_, _: &CellResult| {
            calls += 1;
            Err(ScenarioError::Report {
                detail: "sink refused".into(),
            })
        });
        let err = run_campaign_with_sink(&spec, &threads(1), &InstanceCache::new(), &mut sink)
            .unwrap_err();
        assert!(err.to_string().contains("sink refused"), "{err}");
        assert_eq!(calls, 1, "executor stops dispatching after a sink error");
    }

    #[test]
    fn panicking_protocol_becomes_a_failed_cell() {
        // grid at size 0 builds a 0-node graph; leader election asserts
        // on it. The campaign must record a failed cell, not abort —
        // including on the threaded path.
        let spec = CampaignSpec {
            name: "panic".into(),
            topologies: vec![TopologySpec {
                family: TopologyFamily::Grid,
                sizes: vec![0],
            }],
            epsilons: vec![0.0],
            channels: vec![],
            faults: vec![],
            protocols: vec![Protocol::Leader, Protocol::Wave],
            seeds: vec![1],
        };
        let report = run_campaign(&spec, &threads(2)).unwrap();
        let leader = report
            .cells
            .iter()
            .find(|c| c.protocol == "leader")
            .unwrap();
        assert_eq!(leader.status, CellStatus::Failed);
        assert!(leader.detail.contains("panicked"), "{}", leader.detail);
    }

    #[test]
    fn panicking_topology_build_becomes_failed_cells() {
        // The mirror of `panicking_protocol_becomes_a_failed_cell` for
        // the *build* side: instance builds run on the worker pool, so a
        // panicking generator must fail its group's cells — with the
        // panic surfaced in the detail — while every other group still
        // runs. Injected via the test-only sentinel size (all shipped
        // generators are total).
        let spec = CampaignSpec {
            name: "build-panic".into(),
            topologies: vec![
                TopologySpec {
                    family: TopologyFamily::Grid,
                    sizes: vec![PANICKING_BUILD_N],
                },
                TopologySpec {
                    family: TopologyFamily::Cycle,
                    sizes: vec![6],
                },
            ],
            epsilons: vec![0.0],
            channels: vec![],
            faults: vec![],
            protocols: vec![Protocol::Wave, Protocol::RoundSim],
            seeds: vec![1],
        };
        let report = run_campaign(&spec, &threads(2)).unwrap();
        assert_eq!(report.cells.len(), 4);
        for cell in &report.cells {
            if cell.family == "grid" {
                assert_eq!(cell.status, CellStatus::Failed, "{}", cell.id);
                assert!(
                    cell.detail.contains("topology build panicked"),
                    "{}: {}",
                    cell.id,
                    cell.detail
                );
            } else {
                assert_eq!(cell.status, CellStatus::Ok, "{}: {}", cell.id, cell.detail);
            }
        }
        // And the threaded/serial reports agree, panics included.
        let serial = run_campaign(&spec, &threads(1)).unwrap();
        assert_eq!(
            serial.to_json(false).to_pretty(),
            report.to_json(false).to_pretty()
        );
    }

    #[test]
    fn channel_axis_cells_run_skip_and_stay_thread_invariant() {
        let spec = CampaignSpec {
            name: "channels".into(),
            topologies: vec![TopologySpec {
                family: TopologyFamily::Cycle,
                sizes: vec![6],
            }],
            epsilons: vec![0.05],
            channels: vec![
                ChannelSpec::GilbertElliott {
                    eps_good: 0.01,
                    eps_bad: 0.2,
                    p_good_to_bad: 0.1,
                    p_bad_to_good: 0.5,
                },
                ChannelSpec::PerNode {
                    pattern: vec![0.0, 0.05],
                },
                ChannelSpec::Adversarial {
                    budget_frac: 0.2,
                    design_epsilon: 0.05,
                },
            ],
            faults: vec![],
            protocols: vec![Protocol::RoundSim, Protocol::Wave],
            seeds: vec![1],
        };
        let report = run_campaign(&spec, &threads(1)).unwrap();
        assert_eq!(report.cells.len(), 4 * 2);
        for cell in &report.cells {
            match cell.protocol.as_str() {
                // The flood pipeline must run under every channel family.
                "round_sim" => {
                    assert_eq!(cell.status, CellStatus::Ok, "{}: {}", cell.id, cell.detail);
                    assert!(cell.rounds > 0, "{}", cell.id);
                }
                // The noiseless-only wave is skipped under every noisy
                // channel (the detail carries the *instantiated* channel
                // label, e.g. `adv-b2-…` for the budget realized on n=6).
                _ => {
                    assert_eq!(cell.status, CellStatus::Skipped, "{}", cell.id);
                    assert!(cell.detail.contains("noiseless-only"), "{}", cell.detail);
                }
            }
        }
        let labels: Vec<&str> = report.cells.iter().map(|c| c.channel.as_str()).collect();
        assert!(labels.contains(&"eps0.05"));
        assert!(labels.contains(&"ge-g0.01-b0.2-pgb0.1-pbg0.5"));
        assert!(labels.contains(&"pernode-0-0.05"));
        assert!(labels.contains(&"adv-f0.2-e0.05"));
        // The report stays byte-identical across worker counts.
        let parallel = run_campaign(&spec, &threads(4)).unwrap();
        assert_eq!(
            report.to_json(false).to_pretty(),
            parallel.to_json(false).to_pretty()
        );
    }

    #[test]
    fn fault_axis_cells_run_skip_and_stay_thread_invariant() {
        use crate::spec::FaultSpec;
        use beep_net::FaultKind;
        let spec = CampaignSpec {
            name: "faults".into(),
            topologies: vec![TopologySpec {
                family: TopologyFamily::Complete,
                sizes: vec![8],
            }],
            epsilons: vec![0.1],
            channels: vec![],
            faults: vec![
                FaultSpec {
                    kind: Some(FaultKind::Crash { round: 4 }),
                    fraction: 0.25,
                    policy: None,
                },
                FaultSpec {
                    kind: Some(FaultKind::ByzantineSpam),
                    fraction: 0.125,
                    policy: None,
                },
            ],
            protocols: vec![Protocol::BeepConsensus, Protocol::Matching],
            seeds: vec![1],
        };
        let report = run_campaign(&spec, &threads(1)).unwrap();
        // (1 channel) × (fault-free + 2 faults) × 2 protocols × 1 seed.
        assert_eq!(report.cells.len(), 3 * 2);
        for cell in &report.cells {
            match (cell.protocol.as_str(), cell.faults.as_str()) {
                // Consensus runs everywhere, faulted or not.
                ("beep_consensus", _) => {
                    assert_eq!(cell.status, CellStatus::Ok, "{}: {}", cell.id, cell.detail);
                    assert!(cell.success, "{}: {}", cell.id, cell.detail);
                }
                // Matching runs fault-free but has no fault story: a
                // non-empty plan makes it a skipped cell, not a failure.
                ("matching", "none") => {
                    assert_eq!(cell.status, CellStatus::Ok, "{}: {}", cell.id, cell.detail);
                }
                ("matching", _) => {
                    assert_eq!(cell.status, CellStatus::Skipped, "{}", cell.id);
                    assert!(
                        cell.detail.contains("fault-tolerance"),
                        "{}: {}",
                        cell.id,
                        cell.detail
                    );
                }
                other => panic!("unexpected cell {other:?}"),
            }
        }
        let labels: Vec<&str> = report.cells.iter().map(|c| c.faults.as_str()).collect();
        assert!(labels.contains(&"none"));
        assert!(labels.contains(&"crash-f0.25-r4"));
        assert!(labels.contains(&"spam-f0.125"));
        // Faulted cells carry the six-segment id and report their label.
        let faulted = report
            .cells
            .iter()
            .find(|c| c.faults == "spam-f0.125" && c.protocol == "beep_consensus")
            .unwrap();
        assert_eq!(
            faulted.id,
            "complete/n8/eps0.1/spam-f0.125/beep_consensus/s1"
        );
        // The report stays byte-identical across worker counts.
        let parallel = run_campaign(&spec, &threads(4)).unwrap();
        assert_eq!(
            report.to_json(false).to_pretty(),
            parallel.to_json(false).to_pretty()
        );
    }

    #[test]
    fn adaptive_policy_cells_run_the_new_protocols_and_stay_thread_invariant() {
        use crate::spec::{FaultSpec, PolicySpec};
        use beep_net::FaultKind;
        let spec = CampaignSpec {
            name: "adaptive".into(),
            topologies: vec![TopologySpec {
                family: TopologyFamily::Complete,
                sizes: vec![8],
            }],
            epsilons: vec![0.1],
            channels: vec![],
            faults: vec![
                FaultSpec {
                    kind: None,
                    fraction: 0.0,
                    policy: Some(PolicySpec::TargetLoudest { budget_frac: 0.125 }),
                },
                FaultSpec {
                    kind: Some(FaultKind::ByzantineMute),
                    fraction: 0.125,
                    policy: Some(PolicySpec::RushingSpam {
                        budget_frac: 0.125,
                        window: 2,
                    }),
                },
            ],
            protocols: vec![
                Protocol::BeepBenOr,
                Protocol::BeepReliableBroadcast,
                Protocol::BeepLeaderReelect,
            ],
            seeds: vec![1],
        };
        let report = run_campaign(&spec, &threads(1)).unwrap();
        // (1 channel) × (fault-free + 2 adaptive) × 3 protocols × 1 seed.
        assert_eq!(report.cells.len(), 3 * 3);
        for cell in &report.cells {
            // Adaptive cells may honestly report success = false (the
            // adversary jams *correct* nodes), but they must run.
            assert_eq!(cell.status, CellStatus::Ok, "{}: {}", cell.id, cell.detail);
            if cell.faults == "none" {
                assert!(cell.success, "{}: {}", cell.id, cell.detail);
            }
        }
        let labels: Vec<&str> = report.cells.iter().map(|c| c.faults.as_str()).collect();
        assert!(labels.contains(&"loudest-f0.125"));
        assert!(labels.contains(&"mute-f0.125+rushing-f0.125-w2"));
        let adaptive = report
            .cells
            .iter()
            .find(|c| c.faults == "loudest-f0.125" && c.protocol == "beep_ben_or")
            .unwrap();
        assert_eq!(
            adaptive.id,
            "complete/n8/eps0.1/loudest-f0.125/beep_ben_or/s1"
        );
        // The report stays byte-identical across worker counts.
        let parallel = run_campaign(&spec, &threads(4)).unwrap();
        assert_eq!(
            report.to_json(false).to_pretty(),
            parallel.to_json(false).to_pretty()
        );
    }

    #[test]
    fn unrealizable_topology_is_skipped_not_fatal() {
        let spec = CampaignSpec {
            name: "bad-torus".into(),
            topologies: vec![TopologySpec {
                family: TopologyFamily::Torus,
                sizes: vec![4], // below the 3×3 minimum
            }],
            epsilons: vec![0.0],
            channels: vec![],
            faults: vec![],
            protocols: vec![Protocol::Wave],
            seeds: vec![1],
        };
        let report = run_campaign(&spec, &RunOptions::default()).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].status, CellStatus::Skipped);
        assert!(report.cells[0].detail.contains("torus"));
    }
}
