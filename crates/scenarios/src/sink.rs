//! Pluggable result sinks: where completed cells go.
//!
//! The executor ([`run_campaign_with_sink`]) is engine-agnostic about
//! what happens to a finished [`CellResult`]: it calls
//! [`ResultSink::record`] exactly once per completed cell (under a lock,
//! so implementations need no internal synchronization) and leaves the
//! rest to the sink. The classic in-memory report assembly is one sink
//! ([`MemorySink`]); the incremental JSONL checkpoint journal is another
//! ([`CheckpointSink`](crate::checkpoint::CheckpointSink)); sinks
//! compose with [`TeeSink`] and adapt from closures with [`FnSink`]
//! (e.g. a per-cell progress counter).
//!
//! # Ordering
//!
//! `record` is called in *completion* order, which varies with the
//! worker-thread count. Sinks that care about matrix order must key on
//! the `index` argument (the cell's position in the expanded matrix),
//! exactly as [`MemorySink`] does — that indexing is what keeps the
//! final report byte-identical at every thread count.
//!
//! [`run_campaign_with_sink`]: crate::run_campaign_with_sink

use crate::error::ScenarioError;
use crate::report::{CampaignReport, CellResult};

/// A consumer of completed campaign cells.
///
/// `Send` because the executor invokes sinks from its worker scope; the
/// executor serializes calls, so `&mut self` is never aliased.
pub trait ResultSink: Send {
    /// Consumes one completed cell. `index` is the cell's position in
    /// the expanded matrix (not the completion order).
    ///
    /// # Errors
    ///
    /// A sink error (e.g. a failed journal write) aborts the campaign:
    /// the executor stops dispatching cells and surfaces the error.
    fn record(&mut self, index: usize, result: &CellResult) -> Result<(), ScenarioError>;
}

impl<S: ResultSink + ?Sized> ResultSink for &mut S {
    fn record(&mut self, index: usize, result: &CellResult) -> Result<(), ScenarioError> {
        (**self).record(index, result)
    }
}

/// The in-memory sink: collects cells into their matrix slots and
/// assembles the classic [`CampaignReport`]. This is what
/// [`run_campaign`](crate::run_campaign) plugs into the executor.
#[derive(Debug)]
pub struct MemorySink {
    campaign: String,
    cells: Vec<Option<CellResult>>,
}

impl MemorySink {
    /// An empty sink for a campaign of `total` cells.
    #[must_use]
    pub fn new(campaign: String, total: usize) -> MemorySink {
        MemorySink {
            campaign,
            cells: vec![None; total],
        }
    }

    /// How many slots are filled.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Assembles the report, or `None` while any cell is still missing
    /// (an interrupted / `max_cells`-cut run).
    #[must_use]
    pub fn try_into_report(self, wall_ms: f64) -> Option<CampaignReport> {
        let cells: Option<Vec<CellResult>> = self.cells.into_iter().collect();
        Some(CampaignReport {
            campaign: self.campaign,
            cells: cells?,
            wall_ms,
        })
    }
}

impl ResultSink for MemorySink {
    fn record(&mut self, index: usize, result: &CellResult) -> Result<(), ScenarioError> {
        let slot = self
            .cells
            .get_mut(index)
            .ok_or_else(|| ScenarioError::Report {
                detail: format!("cell index {index} outside the matrix"),
            })?;
        *slot = Some(result.clone());
        Ok(())
    }
}

/// Fans each cell out to two sinks, first `0` then `1` — e.g. the
/// in-memory report plus the on-disk checkpoint journal.
#[derive(Debug)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: ResultSink, B: ResultSink> ResultSink for TeeSink<A, B> {
    fn record(&mut self, index: usize, result: &CellResult) -> Result<(), ScenarioError> {
        self.0.record(index, result)?;
        self.1.record(index, result)
    }
}

/// Adapts a closure into a sink — progress counters, log lines, tests.
pub struct FnSink<F>(pub F);

impl<F> ResultSink for FnSink<F>
where
    F: FnMut(usize, &CellResult) -> Result<(), ScenarioError> + Send,
{
    fn record(&mut self, index: usize, result: &CellResult) -> Result<(), ScenarioError> {
        (self.0)(index, result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CellStatus;

    fn cell(id: &str) -> CellResult {
        CellResult {
            id: id.into(),
            family: "cycle".into(),
            requested_n: 4,
            n: 4,
            edges: 4,
            max_degree: 2,
            topology_params: vec![],
            epsilon: 0.0,
            channel: "eps0".into(),
            faults: "none".into(),
            protocol: "wave".into(),
            seed: 1,
            cell_seed: 7,
            status: CellStatus::Ok,
            success: true,
            rounds: 3,
            beeps: 9,
            metrics: vec![],
            detail: String::new(),
            wall_ms: 0.5,
        }
    }

    #[test]
    fn memory_sink_fills_slots_in_matrix_order() {
        let mut sink = MemorySink::new("m".into(), 2);
        assert_eq!(sink.completed(), 0);
        // Completion order 1 then 0: the report still lands in matrix
        // order because slots key on the index.
        sink.record(1, &cell("b")).unwrap();
        sink.record(0, &cell("a")).unwrap();
        let report = sink.try_into_report(1.0).unwrap();
        assert_eq!(report.cells[0].id, "a");
        assert_eq!(report.cells[1].id, "b");
    }

    #[test]
    fn incomplete_memory_sink_yields_no_report() {
        let mut sink = MemorySink::new("m".into(), 3);
        sink.record(0, &cell("a")).unwrap();
        assert_eq!(sink.completed(), 1);
        assert!(sink.try_into_report(0.0).is_none());
    }

    #[test]
    fn memory_sink_rejects_out_of_range_indices() {
        let mut sink = MemorySink::new("m".into(), 1);
        assert!(sink.record(5, &cell("x")).is_err());
    }

    #[test]
    fn tee_and_fn_sinks_compose() {
        let mut seen = Vec::new();
        {
            let mut memory = MemorySink::new("m".into(), 1);
            let mut tee = TeeSink(
                &mut memory,
                FnSink(|i, c: &CellResult| {
                    seen.push((i, c.id.clone()));
                    Ok(())
                }),
            );
            tee.record(0, &cell("a")).unwrap();
        }
        assert_eq!(seen, vec![(0, "a".to_string())]);
    }

    #[test]
    fn tee_propagates_the_first_error() {
        let mut fails = FnSink(|_, _: &CellResult| {
            Err(ScenarioError::Report {
                detail: "sink broke".into(),
            })
        });
        let mut memory = MemorySink::new("m".into(), 1);
        let mut tee = TeeSink(&mut fails, &mut memory);
        assert!(tee.record(0, &cell("a")).is_err());
        // The failing first leg short-circuits the second.
        assert_eq!(memory.completed(), 0);
    }
}
