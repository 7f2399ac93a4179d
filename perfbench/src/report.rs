//! The benchmark's outputs: the metric catalogue, the end-to-end figures
//! every workload derives from its timed repetitions, the per-layer table
//! of a traced run, and the one-line JSON result.

use crate::meta;
use crate::stats::{median, Summary};
use std::collections::BTreeMap;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Per-layer metrics of a traced run, in report order, with units.
/// Every workload reports every name; a layer the workload never calls
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("codes.encode_s", "s"),
    ("codes.set_decode_s", "s"),
    ("codes.msg_decode_s", "s"),
    ("codes.set_tests", "count"),
    ("codes.msg_decodes", "count"),
    ("codes.pool_encodes", "count"),
    ("codes.useful_test_frac", "ratio"),
    ("net.frame_s", "s"),
    ("net.ns_per_node_round", "ns"),
    ("net.beepers_per_round", "count"),
    ("net.diameter_s", "s"),
    ("net.beep_rounds", "count"),
    ("net.beeps", "count"),
    ("core.alg1_self_s", "s"),
    ("core.tdma_self_s", "s"),
    ("core.setup_s", "s"),
    ("congest.algo_s", "s"),
    ("apps.self_s", "s"),
    ("scenarios.expand_s", "s"),
    ("scenarios.cell_s_p50", "s"),
    ("scenarios.cell_s_p90", "s"),
    ("scenarios.worker_busy_frac", "ratio"),
    ("scenarios.report_s", "s"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.replays_invalid", "count"),
];

/// The self-time metrics whose sum should account for a traced op, with
/// the layer each belongs to.
const SELF_TIMES: &[(&str, &str)] = &[
    ("codes.encode_s", "beep-codes"),
    ("codes.set_decode_s", "beep-codes"),
    ("codes.msg_decode_s", "beep-codes"),
    ("net.frame_s", "beep-net"),
    ("net.diameter_s", "beep-net"),
    ("core.alg1_self_s", "beep-core"),
    ("core.tdma_self_s", "beep-core"),
    ("core.setup_s", "beep-core"),
    ("congest.algo_s", "beep-congest"),
    ("apps.self_s", "beep-apps"),
    ("scenarios.report_s", "beep-scenarios"),
];

/// Per-layer figures accumulated over a traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to a metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        *self.0.entry(name).or_default() += value;
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// A metric's value (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Divides every metric by `ops`, turning run totals into per-op
    /// figures (ratios and per-round figures must be set afterwards).
    pub fn per_op(&mut self, ops: usize) {
        let ops = ops.max(1) as f64;
        for v in self.0.values_mut() {
            *v /= ops;
        }
    }

    /// Sets `trace.unaccounted_s`: the traced op time the self times do
    /// not cover (negative when the replays overestimate a layer).
    pub fn close_accounts(&mut self) {
        let covered: f64 = SELF_TIMES.iter().map(|(name, _)| self.get(name)).sum();
        self.set("trace.unaccounted_s", self.get("trace.op_s") - covered);
    }

    /// Every per-layer metric, in catalogue order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.get(name),
                unit,
            })
            .collect()
    }

    /// The per-layer table: self time per op and share of the traced op
    /// for each layer metric the workload exercised, then the counts.
    pub fn table(&self, workload: &str) -> Vec<String> {
        let op = self.get("trace.op_s");
        let mut lines = vec![
            format!("per-layer table ({workload}, per op; self times sum to the traced op):"),
            format!(
                "  {:<16} {:<24} {:>12} {:>8}",
                "layer", "metric", "value", "share"
            ),
        ];
        for &(name, layer) in SELF_TIMES {
            let v = self.get(name);
            if v != 0.0 {
                let share = if op > 0.0 { 100.0 * v / op } else { 0.0 };
                lines.push(format!("  {layer:<16} {name:<24} {v:>11.4}s {share:>7.1}%"));
            }
        }
        for &(name, unit) in PER_LAYER {
            let v = self.get(name);
            if v != 0.0 && !SELF_TIMES.iter().any(|(n, _)| *n == name) {
                lines.push(format!("  {:<16} {name:<24} {v:>12.4} {unit}", ""));
            }
        }
        lines
    }
}

/// What a workload's timed repetitions produced, from which the
/// end-to-end metrics follow.
///
/// A run repeats a fixed set of pieces of work — the instances of
/// `alg1_matching` and `tdma_flood`, the cells of `ft_campaign` — each
/// of which simulates the same execution every time. Every time is
/// rescaled to the nominal host (see [`crate::host`]); a piece's time is
/// the median of its rescaled repetitions, and the gated timing is the
/// sum over the pieces: one repetition of every piece.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Timed {
    /// Wall seconds of each timed repetition (one op, or one campaign
    /// pass for `ft_campaign`), as measured.
    pub reps: Vec<f64>,
    /// Rescaled seconds of each piece of work, one per repetition.
    pub pieces: Vec<Vec<f64>>,
    /// Rescaled seconds per set-up (see [`crate::SetupClock`]).
    pub setup: Vec<f64>,
    /// Wall seconds of every reference measurement.
    pub reference: Vec<f64>,
    /// Simulated beep rounds of one repetition of every piece.
    pub beep_rounds: u64,
    /// Simulated Broadcast CONGEST rounds of one repetition of every
    /// piece (0 where the workload has none).
    pub congest_rounds: u64,
    /// Protocol runs (campaign cells) in one repetition of every piece.
    pub cells: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Peak resident memory of the run, MiB.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// Records one repetition of `piece`, in rescaled seconds.
    pub fn record(&mut self, piece: usize, seconds: f64) {
        if self.pieces.len() <= piece {
            self.pieces.resize(piece + 1, Vec::new());
        }
        self.pieces[piece].push(seconds);
    }

    /// One repetition of every piece on the nominal host: the sum of the
    /// pieces' median rescaled times.
    pub fn nominal_s(&self) -> f64 {
        self.pieces.iter().filter_map(|p| median(p)).sum()
    }

    /// The end-to-end metrics of the result line, in `BENCHMARK.json`
    /// order.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric {
                name: "beep_rounds_per_s",
                value: self.beep_rounds as f64 / self.nominal_s(),
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: median(&self.setup).unwrap_or(f64::NAN),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: self.peak_rss_mb,
                unit: "MB",
            },
        ]
    }

    /// Human-readable lines: every end-to-end metric by name and unit,
    /// the ones that are not in the JSON result, and the timing
    /// distributions.
    pub fn lines(&self) -> Vec<String> {
        let metric =
            |name: &str, value: f64, unit: &str| format!("  {name:<22} {value:>14.6} {unit}");
        let mut lines: Vec<String> = self
            .metrics()
            .iter()
            .map(|m| metric(m.name, m.value, m.unit))
            .collect();
        lines.push(metric("nominal_s", self.nominal_s(), "s"));
        lines.push(metric(
            "wall_s",
            median(&self.reps).unwrap_or(f64::NAN),
            "s",
        ));
        // The campaign protocols simulate no CONGEST rounds; the other
        // workloads run one protocol per op, so their cell rate is their
        // op rate.
        let (rate, count) = if self.congest_rounds > 0 {
            ("congest_rounds_per_s", self.congest_rounds)
        } else {
            ("cells_per_s", self.cells)
        };
        lines.push(metric(rate, count as f64 / self.nominal_s(), "1/s"));
        let failed = self.failed as f64 / self.attempted.max(1) as f64;
        lines.push(format!(
            "{} ({} of {} ops)",
            metric("failed_op_frac", failed, "ratio"),
            self.failed,
            self.attempted
        ));
        for (name, samples, scale, unit) in [
            ("wall_s", &self.reps, 1.0, "s"),
            ("setup_s", &self.setup, 1e3, "ms"),
            ("reference loop", &self.reference, 1e3, "ms"),
        ] {
            if let Some(s) = Summary::of(samples) {
                lines.push(format!("  {name} per sample: {}", s.render(scale, unit)));
            }
        }
        lines
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite figure is a bug
            // upstream, reported as 0 rather than as invalid JSON.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                meta::quote(m.name),
                meta::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "wall_s",
                value: 1.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn the_rate_is_one_cycle_over_each_piece_s_median_time() {
        let mut timed = Timed {
            beep_rounds: 300,
            ..Timed::default()
        };
        for (piece, seconds) in [(0, 2.0), (1, 1.5), (0, 1.0), (1, 3.0), (0, 4.0)] {
            timed.record(piece, seconds);
        }
        assert_eq!(timed.pieces, vec![vec![2.0, 1.0, 4.0], vec![1.5, 3.0]]);
        assert_eq!(timed.nominal_s(), 2.0 + 2.25);
        assert_eq!(timed.metrics()[0].value, 300.0 / 4.25);
    }

    #[test]
    fn layers_report_every_catalogued_metric() {
        let mut layers = Layers::default();
        layers.add("net.frame_s", 1.0);
        layers.add("net.frame_s", 2.0);
        layers.set("trace.op_s", 8.0);
        layers.per_op(2);
        layers.close_accounts();
        let metrics = layers.metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(layers.get("net.frame_s"), 1.5);
        assert_eq!(layers.get("trace.unaccounted_s"), 4.0 - 1.5);
    }
}
