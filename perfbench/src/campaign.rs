//! `ft_campaign`: one pass of a 96-cell campaign (`ft_campaign.toml`)
//! through `beep_scenarios::run_campaign_with_sink` with two workers. It
//! drives the engine round at a time with dense beeper sets, the fault
//! overlay and the adaptive adversary, plus the executor, its instance
//! cache and the fault-tolerant protocols' own logic. Each cell is one
//! piece of work of [`Timed::pieces`], timed by the executor.

use crate::drive::finish_ratios;
use crate::host::Reference;
use crate::meta::peak_rss_mb;
use crate::report::{Layers, Timed};
use crate::stats::{median, quantile, sorted};
use crate::{done, enough, fnv1a, Output, SetupClock};
use beep_net::Graph;
use beep_scenarios::{
    cell_seed, run_campaign_with_sink, CampaignReport, CampaignSpec, CellResult, CellSpec,
    CellStatus, InstanceCache, MemorySink, RunOptions,
};
use std::time::Instant;

/// The campaign spec (its `seeds` are replaced per run).
const SPEC: &str = include_str!("../ft_campaign.toml");

/// Executor workers.
pub const WORKERS: usize = 2;

/// Campaign seeds per pass. How long a cell runs depends on its seed (a
/// protocol's coins, the adversary's targets), so a pass over more seeds
/// varies less from one workload seed to the next.
pub const SEEDS: u64 = 4;

/// The spec for workload seed `seed`: the committed spec with seeds
/// `seed, seed + 1, …` ([`SEEDS`] of them), and its expanded cells.
///
/// # Errors
///
/// If the committed spec does not parse or expands to nothing.
pub fn spec(seed: u64) -> Result<(CampaignSpec, Vec<CellSpec>), String> {
    let mut spec = CampaignSpec::parse(SPEC).map_err(|e| e.to_string())?;
    spec.seeds = (0..SEEDS).map(|k| seed.wrapping_add(k)).collect();
    let cells = spec.expand().map_err(|e| e.to_string())?;
    Ok((spec, cells))
}

/// One campaign pass: every cell through the executor, the report
/// assembled, and its timing-free JSON rendered and hashed.
struct Pass {
    wall_s: f64,
    report: CampaignReport,
    report_s: f64,
    report_fnv: u64,
}

fn pass(spec: &CampaignSpec, total: usize) -> Result<Pass, String> {
    let start = Instant::now();
    let options = RunOptions {
        threads: WORKERS,
        max_cells: None,
    };
    let mut sink = MemorySink::new(spec.name.clone(), total);
    run_campaign_with_sink(spec, &options, &InstanceCache::new(), &mut sink)
        .map_err(|e| e.to_string())?;
    let cells_done = start.elapsed().as_secs_f64();
    let report = sink
        .try_into_report(cells_done * 1e3)
        .ok_or("the campaign stopped before every cell completed")?;
    let json = report.to_json(false).to_compact();
    let report_fnv = fnv1a(json.as_bytes());
    let wall_s = start.elapsed().as_secs_f64();
    Ok(Pass {
        wall_s,
        report,
        report_s: wall_s - cells_done,
        report_fnv,
    })
}

/// Cells whose run failed. A protocol that ran but whose verdict was
/// false (the adversary won) is not a failure.
fn failed_cells(report: &CampaignReport) -> Vec<&CellResult> {
    report
        .cells
        .iter()
        .filter(|c| c.status != CellStatus::Ok)
        .collect()
}

fn fingerprint_line(report: &CampaignReport, fnv: u64) -> String {
    let s = report.summary();
    format!(
        "fingerprint: {{\"cells\": {}, \"ok\": {}, \"failed\": {}, \"skipped\": {}, \
         \"successes\": {}, \"beep_rounds\": {}, \"beeps\": {}, \"no_timing_report_fnv\": \"{fnv:016x}\"}}",
        s.cells, s.ok, s.failed, s.skipped, s.successes, s.total_rounds, s.total_beeps
    )
}

/// Records one pass into the run totals; false if its report differs
/// from the run's first.
fn tally(
    timed: &mut Timed,
    first: &mut Option<(u64, String)>,
    p: &Pass,
    lines: &mut Vec<String>,
) -> bool {
    let failed = failed_cells(&p.report);
    for c in &failed {
        lines.push(format!("cell {} {}: {}", c.id, c.status.as_str(), c.detail));
    }
    timed.attempted += p.report.cells.len() as u64;
    timed.failed += failed.len() as u64;
    match first {
        Some((fnv, _)) => *fnv == p.report_fnv,
        None => {
            *first = Some((p.report_fnv, fingerprint_line(&p.report, p.report_fnv)));
            true
        }
    }
}

/// An untraced run: campaign passes, each timed, every cell's time kept.
///
/// # Errors
///
/// If the spec does not parse or the executor fails.
pub fn run(seed: u64, seconds: f64) -> Result<Output, String> {
    let mut clock = SetupClock::new(seed, spec);
    let (spec, cells) = clock.inputs()?;
    let mut timed = Timed::default();
    let mut first = None;
    let mut lines = Vec::new();
    let mut deterministic = true;
    let mut host = Reference::new(WORKERS);
    let started = Instant::now();
    while !enough(started, &timed.reps, seconds) {
        let p = pass(&spec, cells.len())?;
        let scale = host.scale();
        timed.reps.push(p.wall_s);
        for (i, cell) in p.report.cells.iter().enumerate() {
            timed.record(i, cell.wall_ms / 1e3 * scale);
        }
        if first.is_none() {
            let summary = p.report.summary();
            timed.beep_rounds = summary.total_rounds;
            timed.cells = summary.cells as u64;
        }
        deterministic &= tally(&mut timed, &mut first, &p, &mut lines);
        clock.burst(scale);
    }
    timed.setup = clock.times;
    timed.reference = host.seconds;
    if !deterministic {
        lines.push("passes of the same campaign produced different reports".into());
    }
    lines.extend(first.map(|(_, line)| line));
    timed.peak_rss_mb = peak_rss_mb();
    lines.push("end-to-end (ft_campaign):".into());
    lines.extend(timed.lines());
    Ok(Output {
        correct: deterministic && timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: timed.metrics(),
        lines,
    })
}

/// Replays the one call into `beep-net` a cell's protocol makes outside
/// its network — `Graph::diameter` on the cell's graph — and returns its
/// seconds, or `None` when the rebuilt graph is not the cell's (other
/// node count, edge count or maximum degree). The protocols' rounds run
/// on a network `beep-apps` owns and are not replayed: the cell report
/// gives only their totals, and the engine's cost is not linear in the
/// beepers per round, so no replay from totals reproduces them.
fn replay_diameter(cell: &CellSpec, result: &CellResult) -> Result<Option<f64>, String> {
    let key = format!(
        "{}/n{}/s{}/topology",
        cell.family.label(),
        cell.requested_n,
        cell.sweep_seed
    );
    let (graph, _): (Graph, _) = cell
        .family
        .build(cell.requested_n, cell_seed(&key))
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    let diameter = std::hint::black_box(graph.diameter());
    let seconds = t.elapsed().as_secs_f64();
    let same = graph.node_count() == result.n
        && graph.edge_count() == result.edges
        && graph.max_degree() == result.max_degree;
    Ok((same && diameter.is_some()).then_some(seconds))
}

/// The traced run: untraced and traced passes alternate; every cell's
/// diameter call is replayed once, and each traced pass is split into
/// executor, report and diameter time. Reports the per-layer metrics.
///
/// # Errors
///
/// If the spec does not parse, the executor fails, or a cell's graph
/// cannot be rebuilt.
pub fn trace(seed: u64, seconds: f64) -> Result<Output, String> {
    let mut clock = SetupClock::new(seed, spec);
    let (spec, cells) = clock.inputs()?;
    clock.burst(1.0);
    let expand_times = clock.times;
    let mut timed = Timed::default();
    let mut first = None;
    let mut lines = Vec::new();
    let mut consistent = true;
    let mut layers = Layers::default();
    let mut replays: Vec<Option<f64>> = Vec::new();
    let mut traced_walls = Vec::new();
    let mut cell_times = Vec::new();
    let started = Instant::now();
    while !done(started, traced_walls.len(), seconds) {
        let p = pass(&spec, cells.len())?;
        timed.reps.push(p.wall_s);
        consistent &= tally(&mut timed, &mut first, &p, &mut lines);
        let traced = pass(&spec, cells.len())?;
        consistent &= tally(&mut timed, &mut first, &traced, &mut lines);
        if replays.is_empty() {
            for (cell, result) in cells.iter().zip(&traced.report.cells) {
                replays.push(replay_diameter(cell, result)?);
            }
        }
        let mut cells_s = 0.0;
        for (result, diameter_s) in traced.report.cells.iter().zip(&replays) {
            let cell_s = result.wall_ms / 1e3;
            cells_s += cell_s;
            cell_times.push(cell_s);
            layers.add("net.beep_rounds", result.rounds as f64);
            layers.add("net.beeps", result.beeps as f64);
            // The rounds are never replayed (see `replay_diameter`), so
            // every cell counts one invalid replay, and its time beyond
            // the diameter stays unattributed.
            layers.add("trace.replays_invalid", 1.0);
            match diameter_s {
                Some(s) => layers.add("net.diameter_s", *s),
                None => layers.add("trace.replays_invalid", 1.0),
            }
        }
        let workers_s = WORKERS as f64 * traced.wall_s;
        layers.add("trace.op_s", workers_s);
        layers.add("scenarios.report_s", traced.report_s);
        layers.add("scenarios.worker_busy_frac", cells_s / workers_s);
        traced_walls.push(traced.wall_s);
    }
    let passes = traced_walls.len();
    layers.per_op(passes);
    finish_ratios(&mut layers, 0.0);
    layers.set("scenarios.expand_s", median(&expand_times).unwrap_or(0.0));
    let s = sorted(&cell_times);
    layers.set("scenarios.cell_s_p50", quantile(&s, 0.5).unwrap_or(0.0));
    layers.set("scenarios.cell_s_p90", quantile(&s, 0.9).unwrap_or(0.0));
    let overhead = median(&traced_walls).unwrap_or(0.0) - median(&timed.reps).unwrap_or(0.0);
    layers.set("trace.overhead_s", overhead);
    layers.close_accounts();
    if !consistent {
        lines.push("passes of the same campaign produced different reports".into());
    }
    lines.extend(first.map(|(_, line)| line));
    lines.push(
        "(ft_campaign: self times are worker-seconds per pass; trace.op_s is workers × pass wall, \
         so trace.unaccounted_s is the protocols' rounds and own logic, which are not replayed, \
         idle worker time and executor overhead)"
            .into(),
    );
    lines.extend(layers.table("ft_campaign"));
    Ok(Output {
        correct: consistent && timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: layers.metrics(),
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_spec_expands_to_the_documented_cells() {
        let (spec, cells) = spec(5).unwrap();
        assert_eq!(spec.seeds, vec![5, 6, 7, 8]);
        assert_eq!(cells.len(), 96);
        let (_, again) = super::spec(5).unwrap();
        assert_eq!(cells, again);
        let (_, other) = super::spec(6).unwrap();
        assert_ne!(cells, other);
    }
}
