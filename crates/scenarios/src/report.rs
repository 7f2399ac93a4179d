//! Campaign results: per-cell records, the campaign summary, the
//! schema-versioned JSON report, and a human-readable table.
//!
//! # Report schema (`beep-campaign-report`, version 4)
//!
//! ```json
//! {
//!   "schema": "beep-campaign-report",
//!   "version": 4,
//!   "campaign": "<name>",
//!   "cells": [ { …one object per cell, in matrix order… } ],
//!   "summary": { "cells": N, "ok": …, "failed": …, "skipped": …,
//!                 "successes": …, "success_rate": …,
//!                 "total_rounds": …, "total_beeps": … },
//!   "wall_ms": 12.3
//! }
//! ```
//!
//! Version 2 added the per-cell `"channel"` string (the channel-axis
//! label, `eps{ε}` for iid cells) alongside the calibration `"epsilon"`.
//! Version 3 added the per-cell `"faults"` string — the fault-axis label
//! (`crash-f{fraction}-r{round}`, `spam-f{fraction}`, `mute-f{fraction}`)
//! or `"none"` for fault-free cells. Version 4 extended the `"faults"`
//! label vocabulary with adaptive-policy segments (`loudest-f{frac}`,
//! `rushing-f{frac}-w{window}`, and `{static}+{policy}` compositions) —
//! the field shapes are unchanged, but a v3 consumer would misparse the
//! new labels, so the version gates them.
//!
//! Everything except the `wall_ms` fields (one per cell plus the
//! campaign-level one) is a pure function of the spec — re-running the
//! same spec yields a byte-identical report when timing is excluded
//! ([`CampaignReport::to_json`] with `include_timing = false`), which is
//! what the golden-report test pins. Bump [`SCHEMA_VERSION`] on any
//! structural change.

use crate::error::ScenarioError;
use crate::json::Json;

/// Schema identifier carried by every report.
pub const SCHEMA_NAME: &str = "beep-campaign-report";
/// Current schema version. Bump on structural change and record the
/// break in CHANGES.md. Version 2 added the per-cell `channel` label;
/// version 3 added the per-cell `faults` label; version 4 extended the
/// `faults` label vocabulary with adaptive-policy segments.
pub const SCHEMA_VERSION: i64 = 4;

/// How a cell's execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The protocol ran to completion (its verdict is in `success`).
    Ok,
    /// The protocol errored (budget exhausted, validation failed, …).
    Failed,
    /// The cell is structurally inapplicable (noiseless-only protocol at
    /// ε > 0, unrealizable topology size) and was skipped.
    Skipped,
}

impl CellStatus {
    /// The schema string.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            CellStatus::Ok => "ok",
            CellStatus::Failed => "failed",
            CellStatus::Skipped => "skipped",
        }
    }

    /// Parses the schema string back.
    #[must_use]
    pub fn from_str_opt(s: &str) -> Option<CellStatus> {
        match s {
            "ok" => Some(CellStatus::Ok),
            "failed" => Some(CellStatus::Failed),
            "skipped" => Some(CellStatus::Skipped),
            _ => None,
        }
    }
}

/// The outcome of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Stable cell id (`family/n{size}/{channel}/protocol/s{seed}`).
    pub id: String,
    /// Topology family label (with parameters).
    pub family: String,
    /// Requested node count.
    pub requested_n: usize,
    /// Realized node count (grid/torus round to their shape).
    pub n: usize,
    /// Realized edge count.
    pub edges: usize,
    /// Realized maximum degree Δ.
    pub max_degree: usize,
    /// Resolved generation parameters (auto radius, degree, …).
    pub topology_params: Vec<(String, f64)>,
    /// Calibration noise rate ε (the channel's worst-case iid-equivalent
    /// rate; the iid channel's own ε).
    pub epsilon: f64,
    /// Channel-axis label (`eps{ε}` for iid cells, `ge-…`/`pernode-…`/
    /// `adv-…` for the richer models).
    pub channel: String,
    /// Fault-axis label (`crash-f{fraction}-r{round}`/`spam-f{fraction}`/
    /// `mute-f{fraction}` for static entries, `loudest-f{frac}`/
    /// `rushing-f{frac}-w{window}` for adaptive policies,
    /// `{static}+{policy}` for compositions; `"none"` for fault-free
    /// cells).
    pub faults: String,
    /// Protocol registry name.
    pub protocol: String,
    /// Sweep seed.
    pub seed: u64,
    /// Derived per-cell seed (hex, for reproduction outside a campaign).
    pub cell_seed: u64,
    /// Execution status.
    pub status: CellStatus,
    /// The protocol's own correctness verdict (only meaningful when
    /// `status` is [`CellStatus::Ok`]).
    pub success: bool,
    /// Beep rounds executed.
    pub rounds: usize,
    /// Beeps emitted (energy).
    pub beeps: u64,
    /// Protocol-specific metrics.
    pub metrics: Vec<(String, f64)>,
    /// Error detail for failed/skipped cells (empty otherwise).
    pub detail: String,
    /// Cell wall-clock in milliseconds (excluded from golden output).
    pub wall_ms: f64,
}

impl CellResult {
    /// Serializes the cell as its report-`cells`-array element. The
    /// checkpoint journal writes exactly this shape (with timing) per
    /// completed cell; [`CellResult::from_json`] is the inverse.
    #[must_use]
    pub fn to_json(&self, include_timing: bool) -> Json {
        let mut pairs = vec![
            ("id", Json::Str(self.id.clone())),
            ("family", Json::Str(self.family.clone())),
            ("requested_n", int(self.requested_n)),
            ("n", int(self.n)),
            ("edges", int(self.edges)),
            ("max_degree", int(self.max_degree)),
            (
                "topology_params",
                Json::Obj(
                    self.topology_params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
            ("epsilon", Json::Float(self.epsilon)),
            ("channel", Json::Str(self.channel.clone())),
            ("faults", Json::Str(self.faults.clone())),
            ("protocol", Json::Str(self.protocol.clone())),
            ("seed", int_u64(self.seed)),
            ("cell_seed", Json::Str(format!("{:#018x}", self.cell_seed))),
            ("status", Json::Str(self.status.as_str().into())),
            ("success", Json::Bool(self.success)),
            ("rounds", int(self.rounds)),
            ("beeps", int_u64(self.beeps)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
            ("detail", Json::Str(self.detail.clone())),
        ];
        if include_timing {
            pairs.push(("wall_ms", Json::Float(self.wall_ms)));
        }
        Json::obj(pairs)
    }

    /// Parses a per-cell JSON object (the element shape of a report's
    /// `cells` array) back into a [`CellResult`] — the replay half of the
    /// checkpoint journal's round-trip contract. Every non-timing field
    /// survives the trip bit for bit (floats render shortest-roundtrip
    /// and parse back exactly); a missing `wall_ms` reads as `0.0`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Report`] naming the first missing or ill-typed
    /// field.
    pub fn from_json(json: &Json) -> Result<CellResult, ScenarioError> {
        let fail = |what: &str| ScenarioError::Report {
            detail: format!("cell record: {what}"),
        };
        let s = |key: &'static str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(ToString::to_string)
                .ok_or_else(|| fail(&format!("missing string {key}")))
        };
        let u = |key: &'static str| {
            json.get(key)
                .and_then(Json::as_i64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| fail(&format!("missing or negative {key}")))
        };
        let pairs = |key: &'static str| -> Result<Vec<(String, f64)>, ScenarioError> {
            match json.get(key) {
                Some(Json::Obj(entries)) => entries
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|v| (k.clone(), v))
                            .ok_or_else(|| fail(&format!("non-numeric {key} entry {k:?}")))
                    })
                    .collect(),
                _ => Err(fail(&format!("missing object {key}"))),
            }
        };
        let seed_hex = s("cell_seed")?;
        let cell_seed = seed_hex
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| fail(&format!("malformed cell_seed {seed_hex:?}")))?;
        Ok(CellResult {
            id: s("id")?,
            family: s("family")?,
            requested_n: u("requested_n")?,
            n: u("n")?,
            edges: u("edges")?,
            max_degree: u("max_degree")?,
            topology_params: pairs("topology_params")?,
            epsilon: json
                .get("epsilon")
                .and_then(Json::as_f64)
                .ok_or_else(|| fail("missing epsilon"))?,
            channel: s("channel")?,
            faults: s("faults")?,
            protocol: s("protocol")?,
            seed: json
                .get("seed")
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| fail("missing or negative seed"))?,
            cell_seed,
            status: s("status").and_then(|raw| {
                CellStatus::from_str_opt(&raw).ok_or_else(|| fail(&format!("bad status {raw:?}")))
            })?,
            success: json
                .get("success")
                .and_then(Json::as_bool)
                .ok_or_else(|| fail("missing success"))?,
            rounds: u("rounds")?,
            beeps: json
                .get("beeps")
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| fail("missing or negative beeps"))?,
            metrics: pairs("metrics")?,
            detail: s("detail")?,
            wall_ms: json.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
        })
    }
}

fn int(v: usize) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Saturating, never wrapping: a wrapped negative would make the report
/// fail its own schema validation (`validate_report` requires these
/// fields non-negative). Counts can't realistically reach `i64::MAX`;
/// seeds above it are rejected at spec-parse/CLI time.
fn int_u64(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Campaign-level aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Total cells in the matrix.
    pub cells: usize,
    /// Cells that ran to completion.
    pub ok: usize,
    /// Cells whose protocol errored.
    pub failed: usize,
    /// Structurally inapplicable cells.
    pub skipped: usize,
    /// Ok cells whose correctness verdict was positive.
    pub successes: usize,
    /// `successes / ok` (0 when nothing ran).
    pub success_rate: f64,
    /// Sum of beep rounds over ok cells.
    pub total_rounds: u64,
    /// Sum of beeps over ok cells.
    pub total_beeps: u64,
}

/// A completed campaign: cells in matrix order plus the wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub campaign: String,
    /// Per-cell results, in matrix order.
    pub cells: Vec<CellResult>,
    /// End-to-end wall-clock in milliseconds.
    pub wall_ms: f64,
}

impl CampaignReport {
    /// Computes the campaign-level aggregates.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn summary(&self) -> Summary {
        let mut s = Summary {
            cells: self.cells.len(),
            ok: 0,
            failed: 0,
            skipped: 0,
            successes: 0,
            success_rate: 0.0,
            total_rounds: 0,
            total_beeps: 0,
        };
        for cell in &self.cells {
            match cell.status {
                CellStatus::Ok => {
                    s.ok += 1;
                    if cell.success {
                        s.successes += 1;
                    }
                    s.total_rounds += cell.rounds as u64;
                    s.total_beeps += cell.beeps;
                }
                CellStatus::Failed => s.failed += 1,
                CellStatus::Skipped => s.skipped += 1,
            }
        }
        if s.ok > 0 {
            s.success_rate = s.successes as f64 / s.ok as f64;
        }
        s
    }

    /// Serializes the report. With `include_timing = false` the output is
    /// a pure function of the spec (the golden-test form); with `true` it
    /// additionally carries per-cell and campaign `wall_ms`.
    #[must_use]
    pub fn to_json(&self, include_timing: bool) -> Json {
        let mut pairs = vec![
            ("schema", Json::Str(SCHEMA_NAME.into())),
            ("version", Json::Int(SCHEMA_VERSION)),
            ("campaign", Json::Str(self.campaign.clone())),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| c.to_json(include_timing))
                        .collect(),
                ),
            ),
            ("summary", Json::obj(summary_fields(&self.summary()))),
        ];
        if include_timing {
            pairs.push(("wall_ms", Json::Float(self.wall_ms)));
        }
        Json::obj(pairs)
    }

    /// Renders the human-readable cell table plus a summary footer.
    #[must_use]
    pub fn render_table(&self) -> String {
        let header = [
            "cell", "n", "edges", "Δ", "status", "ok?", "rounds", "beeps", "ms",
        ];
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.cells.len());
        for c in &self.cells {
            rows.push(vec![
                c.id.clone(),
                c.n.to_string(),
                c.edges.to_string(),
                c.max_degree.to_string(),
                c.status.as_str().into(),
                if c.status == CellStatus::Ok {
                    c.success.to_string()
                } else {
                    "-".into()
                },
                c.rounds.to_string(),
                c.beeps.to_string(),
                format!("{:.1}", c.wall_ms),
            ]);
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = format!("== campaign {} ==\n", self.campaign);
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, (w, cell)) in widths.iter().zip(cells).enumerate() {
                let pad = w - cell.chars().count();
                if i == 0 {
                    // Left-align the id column.
                    out.push(' ');
                    out.push_str(cell);
                    out.push_str(&" ".repeat(pad + 1));
                } else {
                    out.push(' ');
                    out.push_str(&" ".repeat(pad));
                    out.push_str(cell);
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        let header: Vec<String> = header.iter().map(ToString::to_string).collect();
        render_row(&mut out, &header);
        out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum::<usize>()));
        out.push('\n');
        for row in &rows {
            render_row(&mut out, row);
        }
        let s = self.summary();
        out.push_str(&format!(
            "{} cells: {} ok ({} successful, rate {:.2}), {} failed, {} skipped; \
             {} rounds, {} beeps, {:.0} ms\n",
            s.cells,
            s.ok,
            s.successes,
            s.success_rate,
            s.failed,
            s.skipped,
            s.total_rounds,
            s.total_beeps,
            self.wall_ms,
        ));
        out
    }
}

/// The summary's fields in report order: what [`CampaignReport::to_json`]
/// writes and [`validate_report`] compares.
fn summary_fields(s: &Summary) -> Vec<(&'static str, Json)> {
    vec![
        ("cells", int(s.cells)),
        ("ok", int(s.ok)),
        ("failed", int(s.failed)),
        ("skipped", int(s.skipped)),
        ("successes", int(s.successes)),
        ("success_rate", Json::Float(s.success_rate)),
        ("total_rounds", int_u64(s.total_rounds)),
        ("total_beeps", int_u64(s.total_beeps)),
    ]
}

/// Parses a report against the version-4 schema: identifier and version
/// match, the cell set is non-empty, every cell reads through
/// [`CellResult::from_json`] (the checkpoint journal's reader), and every
/// summary field equals the one [`CampaignReport::summary`] computes from
/// the cells. A missing `wall_ms` reads as `0.0`.
///
/// # Errors
///
/// [`ScenarioError::Report`] naming the first violation, with the index
/// of the cell it is in.
pub fn validate_report(json: &Json) -> Result<CampaignReport, ScenarioError> {
    let fail = |detail: String| ScenarioError::Report { detail };
    match json.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA_NAME => {}
        other => {
            return Err(fail(format!(
                "schema is {other:?}, expected {SCHEMA_NAME:?}"
            )))
        }
    }
    match json.get("version").and_then(Json::as_i64) {
        Some(v) if v == SCHEMA_VERSION => {}
        other => {
            return Err(fail(format!(
                "version is {other:?}, expected {SCHEMA_VERSION}"
            )))
        }
    }
    let campaign = json
        .get("campaign")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing campaign name".into()))?;
    let cells = json
        .get("cells")
        .and_then(Json::as_array)
        .ok_or_else(|| fail("missing cells array".into()))?;
    if cells.is_empty() {
        return Err(fail("cell set is empty".into()));
    }
    let cells = cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            CellResult::from_json(cell).map_err(|e| match e {
                ScenarioError::Report { detail } => fail(format!("cell {i}: {detail}")),
                other => other,
            })
        })
        .collect::<Result<Vec<CellResult>, _>>()?;
    let report = CampaignReport {
        campaign: campaign.to_string(),
        cells,
        wall_ms: json.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
    };
    let summary = json
        .get("summary")
        .ok_or_else(|| fail("missing summary".into()))?;
    for (key, expected) in summary_fields(&report.summary()) {
        if summary.get(key) != Some(&expected) {
            return Err(fail(format!(
                "summary.{key} disagrees with the cells array"
            )));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_cell(id: &str, status: CellStatus, success: bool) -> CellResult {
        CellResult {
            id: id.into(),
            family: "cycle".into(),
            requested_n: 8,
            n: 8,
            edges: 8,
            max_degree: 2,
            topology_params: vec![],
            epsilon: 0.05,
            channel: "eps0.05".into(),
            faults: "none".into(),
            protocol: "matching".into(),
            seed: 1,
            cell_seed: 0xABCD,
            status,
            success,
            rounds: 100,
            beeps: 42,
            metrics: vec![("congest_rounds".into(), 5.0)],
            detail: String::new(),
            wall_ms: 1.5,
        }
    }

    fn demo_report() -> CampaignReport {
        CampaignReport {
            campaign: "demo".into(),
            cells: vec![
                demo_cell("a", CellStatus::Ok, true),
                demo_cell("b", CellStatus::Ok, false),
                demo_cell("c", CellStatus::Failed, false),
                demo_cell("d", CellStatus::Skipped, false),
            ],
            wall_ms: 10.0,
        }
    }

    #[test]
    fn cell_results_round_trip_through_json() {
        // The checkpoint journal's replay contract: to_json → from_json
        // is the identity, timing included.
        let cell = demo_cell("cycle/n8/eps0.05/matching/s1", CellStatus::Ok, true);
        let back = CellResult::from_json(&cell.to_json(true)).unwrap();
        assert_eq!(back, cell);
        // Without timing the wall clock reads back as zero; everything
        // else is untouched.
        let back = CellResult::from_json(&cell.to_json(false)).unwrap();
        assert_eq!(
            back,
            CellResult {
                wall_ms: 0.0,
                ..cell
            }
        );
    }

    #[test]
    fn cell_from_json_rejects_malformed_records() {
        let good = demo_cell("a", CellStatus::Failed, false).to_json(true);
        for (from, to, needle) in [
            (
                "\"status\": \"failed\"",
                "\"status\": \"gone\"",
                "bad status",
            ),
            ("\"id\": \"a\"", "\"ident\": \"a\"", "missing string id"),
            ("\"rounds\": 100", "\"rounds\": -1", "negative rounds"),
            (
                "\"cell_seed\": \"0x000000000000abcd\"",
                "\"cell_seed\": \"zz\"",
                "malformed cell_seed",
            ),
        ] {
            let text = good.to_pretty().replacen(from, to, 1);
            assert_ne!(text, good.to_pretty(), "{from} not found");
            let err = CellResult::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn summary_aggregates_by_status() {
        let s = demo_report().summary();
        assert_eq!((s.cells, s.ok, s.failed, s.skipped), (4, 2, 1, 1));
        assert_eq!(s.successes, 1);
        assert!((s.success_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.total_rounds, 200);
        assert_eq!(s.total_beeps, 84);
    }

    #[test]
    fn json_without_timing_has_no_wall_fields() {
        let j = demo_report().to_json(false).to_pretty();
        assert!(!j.contains("wall_ms"));
        let j = demo_report().to_json(true).to_pretty();
        assert!(j.contains("wall_ms"));
    }

    #[test]
    fn own_reports_validate() {
        let j = demo_report().to_json(true);
        validate_report(&j).unwrap();
        let j = demo_report().to_json(false);
        validate_report(&j).unwrap();
    }

    #[test]
    fn validation_rejects_corruption() {
        let good = demo_report().to_json(false).to_pretty();
        for (from, to, needle) in [
            ("beep-campaign-report", "other-schema", "schema"),
            ("\"version\": 4", "\"version\": 5", "version"),
            (
                "\"status\": \"failed\"",
                "\"status\": \"exploded\"",
                "bad status",
            ),
            (
                "\"channel\": \"eps0.05\"",
                "\"chan\": \"eps0.05\"",
                "channel",
            ),
            ("\"faults\": \"none\"", "\"fault\": \"none\"", "faults"),
            ("\"ok\": 2", "\"ok\": 3", "summary.ok"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from} not found");
            let err = validate_report(&Json::parse(&bad).unwrap()).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn validation_returns_the_report_and_checks_every_summary_field() {
        let report = demo_report();
        assert_eq!(validate_report(&report.to_json(true)).unwrap(), report);
        let good = report.to_json(false).to_pretty();
        for (from, to, needle) in [
            ("\"failed\": 1", "\"failed\": 0", "summary.failed"),
            (
                "\"success_rate\": 0.5",
                "\"success_rate\": 1.0",
                "summary.success_rate",
            ),
            (
                "\"total_rounds\": 200",
                "\"total_rounds\": 201",
                "summary.total_rounds",
            ),
            (
                "\"total_beeps\": 84",
                "\"total_beeps\": 85",
                "summary.total_beeps",
            ),
            // Cell errors name the cell's index.
            (
                "\"status\": \"skipped\"",
                "\"status\": \"gone\"",
                "cell 3: cell record: bad status",
            ),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from} not found");
            let err = validate_report(&Json::parse(&bad).unwrap()).unwrap_err();
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn empty_cell_set_fails_validation() {
        let report = CampaignReport {
            campaign: "empty".into(),
            cells: vec![],
            wall_ms: 0.0,
        };
        let err = validate_report(&report.to_json(false)).unwrap_err();
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn table_renders_all_cells() {
        let table = demo_report().render_table();
        assert!(table.contains("== campaign demo =="));
        assert!(table.contains("skipped"));
        assert!(table.contains("4 cells: 2 ok"));
    }
}
