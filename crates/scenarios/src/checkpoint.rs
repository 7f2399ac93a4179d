//! The incremental checkpoint journal: resumable campaigns on disk.
//!
//! A checkpoint is a JSONL file. Line 1 is the header:
//!
//! ```json
//! {"schema": "beep-campaign-checkpoint", "version": 1,
//!  "campaign": "smoke", "fingerprint": "0x8d4e…", "cells": 12}
//! ```
//!
//! and every following line is one completed cell, written (and flushed)
//! the moment it finishes:
//!
//! ```json
//! {"index": 3, "cell": { …the report's cells-array element, with wall_ms… }}
//! ```
//!
//! `index` is the cell's position in the expanded matrix; line order is
//! completion order and varies with the worker-thread count, which is
//! why replay keys on the index, never the line number.
//!
//! # The resume contract
//!
//! The `fingerprint` pins the *expanded matrix*: an FNV-1a hash over the
//! campaign name and every cell id in matrix order (cell ids already
//! encode the topology family with its parameters, the realized channel
//! and fault labels, the protocol, and the sweep seed — the complete
//! identity of a run). Because cell seeds are themselves pure functions
//! of cell ids, a journal whose fingerprint matches can be replayed
//! verbatim and the remaining cells executed fresh, and the merged
//! report is byte-identical (timing excluded) to an uninterrupted run —
//! the property `crates/scenarios/tests/checkpoint_resume.rs` pins.
//! A fingerprint mismatch (the spec changed underneath the journal) is
//! rejected as [`ScenarioError::Checkpoint`] instead of silently mixing
//! two different campaigns.
//!
//! # Crash tolerance
//!
//! Records are appended line-at-a-time with an explicit flush, so a
//! killed campaign loses at most the cell in flight. A torn final line
//! (the kill landed mid-write) is detected and dropped on load; a
//! corrupt line anywhere *else* is an error — that journal was not
//! produced by this writer.

use crate::error::ScenarioError;
use crate::json::Json;
use crate::report::CellResult;
use crate::sink::ResultSink;
use crate::spec::{cell_seed, CampaignSpec, CellSpec};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Schema identifier on the journal's header line.
pub const CHECKPOINT_SCHEMA: &str = "beep-campaign-checkpoint";
/// Journal format version.
pub const CHECKPOINT_VERSION: i64 = 1;

/// The spec fingerprint: FNV-1a over the campaign name and the expanded
/// cell ids in matrix order. Reuses the cell-seed hash so the checkpoint
/// layer adds no second hashing contract to the workspace.
#[must_use]
pub fn spec_fingerprint(spec: &CampaignSpec, cells: &[CellSpec]) -> u64 {
    let mut canon = String::with_capacity(64 * (cells.len() + 1));
    canon.push_str(&spec.name);
    for cell in cells {
        canon.push('\n');
        canon.push_str(&cell.id);
    }
    cell_seed(&canon)
}

fn io_err(path: &Path, what: &str, e: &std::io::Error) -> ScenarioError {
    ScenarioError::Checkpoint {
        detail: format!("{}: {what}: {e}", path.display()),
    }
}

/// A sink that streams each completed cell to the journal as one JSONL
/// record, flushed immediately (the crash-tolerance contract).
pub struct CheckpointSink {
    writer: BufWriter<File>,
    path: std::path::PathBuf,
}

impl CheckpointSink {
    /// Creates (truncating) a fresh journal for `spec` and writes the
    /// header line.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Checkpoint`] on any I/O failure.
    pub fn create(
        path: &Path,
        spec: &CampaignSpec,
        cells: &[CellSpec],
    ) -> Result<CheckpointSink, ScenarioError> {
        let file = File::create(path).map_err(|e| io_err(path, "create", &e))?;
        let mut sink = CheckpointSink {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
        };
        let header = Json::obj(vec![
            ("schema", Json::Str(CHECKPOINT_SCHEMA.into())),
            ("version", Json::Int(CHECKPOINT_VERSION)),
            ("campaign", Json::Str(spec.name.clone())),
            (
                "fingerprint",
                Json::Str(format!("{:#018x}", spec_fingerprint(spec, cells))),
            ),
            (
                "cells",
                Json::Int(i64::try_from(cells.len()).expect("cell count fits")),
            ),
        ]);
        sink.write_line(&header)?;
        Ok(sink)
    }

    /// Reopens an existing journal for appending (after
    /// [`load_checkpoint`] verified its header).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Checkpoint`] on any I/O failure.
    pub fn append(path: &Path) -> Result<CheckpointSink, ScenarioError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, "open for append", &e))?;
        Ok(CheckpointSink {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
        })
    }

    fn write_line(&mut self, value: &Json) -> Result<(), ScenarioError> {
        let mut line = value.to_compact();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| io_err(&self.path, "write", &e))
    }
}

impl ResultSink for CheckpointSink {
    fn record(&mut self, index: usize, result: &CellResult) -> Result<(), ScenarioError> {
        self.write_line(&Json::obj(vec![
            (
                "index",
                Json::Int(i64::try_from(index).expect("index fits")),
            ),
            ("cell", result.to_json(true)),
        ]))
    }
}

/// A loaded journal: the completed cells, keyed by matrix index.
#[derive(Debug)]
pub struct Checkpoint {
    /// `(matrix index, replayed result)` pairs, deduplicated, in journal
    /// order.
    pub completed: Vec<(usize, CellResult)>,
}

/// Loads and verifies a journal against the campaign about to run.
///
/// Returns `Ok(None)` when `path` does not exist or is empty — a fresh
/// start, not an error. A torn final line is dropped (see the module
/// docs); duplicate indices keep the later record (they are identical by
/// construction — cell runs are deterministic).
///
/// # Errors
///
/// [`ScenarioError::Checkpoint`] on I/O failure, a malformed header or
/// non-final record, a schema/version mismatch, a fingerprint mismatch
/// against `spec`/`cells`, or a record whose cell id disagrees with the
/// matrix at its index.
pub fn load_checkpoint(
    path: &Path,
    spec: &CampaignSpec,
    cells: &[CellSpec],
) -> Result<Option<Checkpoint>, ScenarioError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(path, "read", &e)),
    };
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .peekable();
    let Some((_, header_line)) = lines.next() else {
        return Ok(None);
    };
    let bad = |detail: String| ScenarioError::Checkpoint {
        detail: format!("{}: {detail}", path.display()),
    };
    let header = Json::parse(header_line).map_err(|e| bad(format!("malformed header: {e}")))?;
    match header.get("schema").and_then(Json::as_str) {
        Some(s) if s == CHECKPOINT_SCHEMA => {}
        other => {
            return Err(bad(format!(
                "schema {other:?}, expected {CHECKPOINT_SCHEMA:?}"
            )))
        }
    }
    match header.get("version").and_then(Json::as_i64) {
        Some(v) if v == CHECKPOINT_VERSION => {}
        other => {
            return Err(bad(format!(
                "journal version {other:?}, expected {CHECKPOINT_VERSION}"
            )))
        }
    }
    let expected = format!("{:#018x}", spec_fingerprint(spec, cells));
    match header.get("fingerprint").and_then(Json::as_str) {
        Some(fp) if fp == expected => {}
        other => {
            return Err(bad(format!(
                "spec fingerprint mismatch: journal has {other:?}, this spec expands to \
                 {expected} — the checkpoint belongs to a different campaign"
            )))
        }
    }
    match header.get("cells").and_then(Json::as_i64) {
        Some(n) if n == i64::try_from(cells.len()).expect("fits") => {}
        other => {
            return Err(bad(format!(
                "journal expects {other:?} cells, this spec expands to {}",
                cells.len()
            )))
        }
    }

    let mut slots: Vec<Option<CellResult>> = vec![None; cells.len()];
    while let Some((line_no, line)) = lines.next() {
        let is_last = lines.peek().is_none();
        let parse = || -> Result<(usize, CellResult), ScenarioError> {
            let record =
                Json::parse(line).map_err(|e| bad(format!("line {}: {e}", line_no + 1)))?;
            let index = record
                .get("index")
                .and_then(Json::as_i64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| bad(format!("line {}: missing index", line_no + 1)))?;
            let cell = record
                .get("cell")
                .ok_or_else(|| bad(format!("line {}: missing cell", line_no + 1)))?;
            let cell = CellResult::from_json(cell)
                .map_err(|e| bad(format!("line {}: {e}", line_no + 1)))?;
            Ok((index, cell))
        };
        match parse() {
            Ok((index, cell)) => {
                let spec_cell = cells.get(index).ok_or_else(|| {
                    bad(format!(
                        "line {}: index {index} outside the matrix",
                        line_no + 1
                    ))
                })?;
                if cell.id != spec_cell.id {
                    return Err(bad(format!(
                        "line {}: cell id {:?} disagrees with the matrix ({:?} at index \
                         {index}) despite a matching fingerprint — corrupt journal",
                        line_no + 1,
                        cell.id,
                        spec_cell.id
                    )));
                }
                slots[index] = Some(cell);
            }
            // A torn final line is the expected kill-mid-write shape.
            Err(_) if is_last => break,
            Err(e) => return Err(e),
        }
    }
    let completed: Vec<(usize, CellResult)> = slots
        .into_iter()
        .enumerate()
        .filter_map(|(i, c)| c.map(|c| (i, c)))
        .collect();
    Ok(Some(Checkpoint { completed }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn spec() -> CampaignSpec {
        CampaignSpec::parse(
            "name = \"ck\"\nprotocols = [\"wave\", \"round_sim\"]\n\
             [[topology]]\nfamily = \"cycle\"\nsizes = [6]\n",
        )
        .unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("beep-ckpt-unit-{}-{name}", std::process::id()))
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let spec_a = spec();
        let cells = spec_a.expand().unwrap();
        assert_eq!(
            spec_fingerprint(&spec_a, &cells),
            spec_fingerprint(&spec_a, &cells)
        );
        let mut spec_b = spec_a.clone();
        spec_b.epsilons = vec![0.1];
        let cells_b = spec_b.expand().unwrap();
        assert_ne!(
            spec_fingerprint(&spec_a, &cells),
            spec_fingerprint(&spec_b, &cells_b)
        );
        // The name participates too (two same-grid campaigns are still
        // different reports).
        let mut spec_c = spec_a.clone();
        spec_c.name = "other".into();
        assert_ne!(
            spec_fingerprint(&spec_a, &cells),
            spec_fingerprint(&spec_c, &cells)
        );
    }

    #[test]
    fn missing_journal_loads_as_fresh_start() {
        let spec = spec();
        let cells = spec.expand().unwrap();
        let path = tmp("missing.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(load_checkpoint(&path, &spec, &cells).unwrap().is_none());
    }

    #[test]
    fn header_only_journal_replays_zero_cells() {
        let spec = spec();
        let cells = spec.expand().unwrap();
        let path = tmp("header-only.jsonl");
        drop(CheckpointSink::create(&path, &spec, &cells).unwrap());
        let loaded = load_checkpoint(&path, &spec, &cells).unwrap().unwrap();
        assert!(loaded.completed.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_spec_is_rejected() {
        let spec_a = spec();
        let cells = spec_a.expand().unwrap();
        let path = tmp("mismatch.jsonl");
        drop(CheckpointSink::create(&path, &spec_a, &cells).unwrap());
        let mut spec_b = spec_a.clone();
        spec_b.epsilons = vec![0.2];
        let cells_b = spec_b.expand().unwrap();
        let err = load_checkpoint(&path, &spec_b, &cells_b).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_middle_line_is_an_error_torn_final_line_is_not() {
        let spec = spec();
        let cells = spec.expand().unwrap();
        let path = tmp("torn.jsonl");
        drop(CheckpointSink::create(&path, &spec, &cells).unwrap());
        let header = std::fs::read_to_string(&path).unwrap();
        // Torn final line: tolerated, replays zero cells.
        std::fs::write(&path, format!("{header}{{\"index\": 0, \"ce")).unwrap();
        let loaded = load_checkpoint(&path, &spec, &cells).unwrap().unwrap();
        assert!(loaded.completed.is_empty());
        // The same garbage *before* a valid-looking line: hard error. So
        // is a record that is JSON but not a cell; both name the journal
        // and the line.
        for record in [
            "{\"index\": 0, \"ce",
            "{\"index\": 0, \"cell\": {\"status\": \"gone\"}}",
        ] {
            std::fs::write(&path, format!("{header}{record}\n{{\"index\": 1}}")).unwrap();
            let err = load_checkpoint(&path, &spec, &cells)
                .unwrap_err()
                .to_string();
            assert!(err.contains(&path.display().to_string()), "{err}");
            assert!(err.contains("line 2: "), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
