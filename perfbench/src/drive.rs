//! The run loops shared by the workloads whose op is one protocol run on
//! one instance (`alg1_matching`, `tdma_flood`).
//!
//! A run builds `instances()` from the seed and repeats ops on them in
//! turn; one op is the timed repetition, and each instance is one piece
//! of work of [`Timed::pieces`]. The traced run alternates an untraced
//! and a traced op on each instance instead.

use crate::host::Reference;
use crate::meta::peak_rss_mb;
use crate::report::{Layers, Timed, PER_LAYER};
use crate::stats::median;
use crate::{done, enough, Output, SetupClock};
use std::time::Instant;

/// What one op simulated: compared across repeated ops on one instance,
/// and summed over the instances for the end-to-end rates.
pub trait Fingerprint: Clone + PartialEq {
    /// Beep rounds simulated.
    fn beep_rounds(&self) -> u64;
    /// Broadcast CONGEST rounds simulated.
    fn congest_rounds(&self) -> u64;
    /// The `fingerprint:` line for one fingerprint per instance.
    fn line(pass: &[Self]) -> String;
}

/// A workload whose op is one protocol run on one instance.
pub trait Workload {
    /// One op's input.
    type Instance;
    /// One op's simulated-statistics fingerprint.
    type Fp: Fingerprint;
    /// The name in `BENCHMARK.json`.
    const NAME: &'static str;

    /// The run's instances for `seed` (the set-up that `setup_s` times).
    ///
    /// # Errors
    ///
    /// If an instance cannot be built.
    fn instances(seed: u64) -> Result<Vec<Self::Instance>, String>;

    /// One op through the public entry point, with its output checked.
    ///
    /// # Errors
    ///
    /// When the op fails or its output check fails.
    fn op(instance: &Self::Instance) -> Result<Self::Fp, String>;

    /// The same op driven call by call with spans, then replayed layer by
    /// layer into `layers`.
    ///
    /// # Errors
    ///
    /// As [`Workload::op`].
    fn traced_op(instance: &Self::Instance, layers: &mut Layers) -> Result<Self::Fp, String>;

    /// Nodes of the instance's graph.
    fn nodes(instance: &Self::Instance) -> usize;
}

/// Counts one op into the totals; false if its fingerprint differs from
/// the one its instance produced before.
fn tally<F: Fingerprint>(
    timed: &mut Timed,
    seen: &mut Option<F>,
    lines: &mut Vec<String>,
    outcome: Result<F, String>,
) -> bool {
    timed.attempted += 1;
    match outcome {
        Ok(fp) => {
            let same = seen.as_ref().is_none_or(|s| *s == fp);
            *seen = Some(fp);
            same
        }
        Err(e) => {
            timed.failed += 1;
            lines.push(format!("op failed: {e}"));
            true
        }
    }
}

/// An untraced run: ops on the instances in turn, each timed.
///
/// # Errors
///
/// If the instances cannot be built.
pub fn run<W: Workload>(seed: u64, seconds: f64) -> Result<Output, String> {
    let mut clock = SetupClock::new(seed, W::instances);
    let instances = clock.inputs()?;
    let mut timed = Timed::default();
    let mut seen: Vec<Option<W::Fp>> = vec![None; instances.len()];
    let mut lines = Vec::new();
    let mut deterministic = true;
    let mut host = Reference::new(1);
    let started = Instant::now();
    for i in (0..instances.len()).cycle() {
        if enough(started, &timed.reps, seconds) {
            break;
        }
        let t = Instant::now();
        let outcome = W::op(&instances[i]);
        let wall = t.elapsed().as_secs_f64();
        let scale = host.scale();
        timed.reps.push(wall);
        timed.record(i, wall * scale);
        deterministic &= tally(&mut timed, &mut seen[i], &mut lines, outcome);
        clock.burst(scale);
    }
    timed.setup = clock.times;
    timed.reference = host.seconds;
    if !deterministic {
        lines.push("repeated ops on one instance simulated different executions".into());
    }
    let fps: Vec<W::Fp> = seen.into_iter().flatten().collect();
    timed.beep_rounds = fps.iter().map(Fingerprint::beep_rounds).sum();
    timed.congest_rounds = fps.iter().map(Fingerprint::congest_rounds).sum();
    timed.cells = fps.len() as u64;
    lines.push(W::Fp::line(&fps));
    timed.peak_rss_mb = peak_rss_mb();
    lines.push(format!("end-to-end ({}):", W::NAME));
    lines.extend(timed.lines());
    Ok(Output {
        correct: deterministic && timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: timed.metrics(),
        lines,
    })
}

/// The traced run: on each instance in turn an untraced op, then a traced
/// one that must simulate the same execution. Per-layer metrics are per
/// op, averaged over the traced ops; `trace.overhead_s` is the median of
/// traced minus untraced op time over those pairs.
///
/// # Errors
///
/// If the instances cannot be built.
pub fn trace<W: Workload>(seed: u64, seconds: f64) -> Result<Output, String> {
    let instances = W::instances(seed)?;
    let mut timed = Timed::default();
    let mut seen: Vec<Option<W::Fp>> = vec![None; instances.len()];
    let mut lines = Vec::new();
    let mut consistent = true;
    let mut layers = Layers::default();
    let mut overheads = Vec::new();
    let mut node_rounds = 0.0;
    let started = Instant::now();
    let mut k = 0;
    while !done(started, overheads.len(), seconds) {
        let i = k % instances.len();
        k += 1;
        let t = Instant::now();
        let outcome = W::op(&instances[i]);
        let untraced = t.elapsed().as_secs_f64();
        consistent &= tally(&mut timed, &mut seen[i], &mut lines, outcome);
        let mut op_layers = Layers::default();
        let outcome = W::traced_op(&instances[i], &mut op_layers);
        consistent &= tally(&mut timed, &mut seen[i], &mut lines, outcome);
        overheads.push(op_layers.get("trace.op_s") - untraced);
        node_rounds += op_layers.get("net.beep_rounds") * W::nodes(&instances[i]) as f64;
        for (name, _) in PER_LAYER {
            layers.add(name, op_layers.get(name));
        }
    }
    let ops = overheads.len();
    layers.per_op(ops);
    finish_ratios(&mut layers, node_rounds / ops as f64);
    layers.set("trace.overhead_s", median(&overheads).unwrap_or(0.0));
    layers.close_accounts();
    if !consistent {
        lines.push("traced and untraced ops simulated different executions".into());
    }
    let fps: Vec<W::Fp> = seen.into_iter().flatten().collect();
    lines.push(W::Fp::line(&fps));
    lines.extend(layers.table(W::NAME));
    Ok(Output {
        correct: consistent && timed.failed == 0,
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: layers.metrics(),
        lines,
    })
}

/// Forms the per-op ratios of a traced run from its per-op totals;
/// `node_rounds` is the op's beep rounds times the nodes each ran on.
pub fn finish_ratios(layers: &mut Layers, node_rounds: f64) {
    let rounds = layers.get("net.beep_rounds");
    if rounds > 0.0 {
        layers.set("net.beepers_per_round", layers.get("net.beeps") / rounds);
    }
    if node_rounds > 0.0 {
        let engine = layers.get("net.frame_s");
        layers.set("net.ns_per_node_round", engine * 1e9 / node_rounds);
    }
    // Until here `codes.useful_test_frac` holds the neighbor-test count.
    let tests = layers.get("codes.set_tests");
    let useful = layers.get("codes.useful_test_frac");
    layers.set(
        "codes.useful_test_frac",
        if tests > 0.0 { useful / tests } else { 0.0 },
    );
}
