//! The experiments, one function per table.
//!
//! Every function is deterministic given its seed and scaled to finish in
//! seconds on a laptop; the `tables` binary prints their reference output,
//! and each function's doc names the paper claim its table checks.

mod codes;
mod decoding;
mod lower;
mod matching;
mod overhead;

pub use codes::{e1_beep_code_vs_classical, e2_distance_code, e9_combined_code_figure};
pub use decoding::{e3_phase1_decoding, e4_phase2_decoding};
pub use lower::e8_lower_bound_census;
pub use matching::{e11_matching_cost_crossover, e7_matching_scaling, e7b_matching_lower_bound};
pub use overhead::{
    e10_noise_independence, e5_broadcast_overhead, e5b_setup_cost, e6_congest_overhead,
};

use crate::Table;

/// Runs every experiment in order, returning all tables.
#[must_use]
pub fn all(seed: u64) -> Vec<Table> {
    vec![
        e1_beep_code_vs_classical(seed),
        e2_distance_code(seed),
        e3_phase1_decoding(seed),
        e4_phase2_decoding(seed),
        e5_broadcast_overhead(seed),
        e5b_setup_cost(seed),
        e6_congest_overhead(seed),
        e7_matching_scaling(seed),
        e7b_matching_lower_bound(seed),
        e8_lower_bound_census(seed),
        e9_combined_code_figure(seed),
        e10_noise_independence(seed),
        e11_matching_cost_crossover(),
    ]
}

/// Looks an experiment up by id (`"e1"` … `"e11"` or `"all"`).
#[must_use]
pub fn by_name(name: &str, seed: u64) -> Option<Vec<Table>> {
    Some(match name {
        "all" => all(seed),
        "e1" => vec![e1_beep_code_vs_classical(seed)],
        "e2" => vec![e2_distance_code(seed)],
        "e3" => vec![e3_phase1_decoding(seed)],
        "e4" => vec![e4_phase2_decoding(seed)],
        "e5" => vec![e5_broadcast_overhead(seed), e5b_setup_cost(seed)],
        "e6" => vec![e6_congest_overhead(seed)],
        "e7" => vec![e7_matching_scaling(seed), e7b_matching_lower_bound(seed)],
        "e8" => vec![e8_lower_bound_census(seed)],
        "e9" => vec![e9_combined_code_figure(seed)],
        "e10" => vec![e10_noise_independence(seed)],
        "e11" => vec![e11_matching_cost_crossover()],
        _ => return None,
    })
}

/// Runs a single-seed campaign for an experiment table and asserts every
/// cell executed — experiments are reference output, so a failed or
/// skipped cell is a bug, not data. The ported experiments (E6, E7) are
/// *thin specs*: they declare the sweep and let the scenario layer drive
/// the engine.
pub(crate) fn run_thin_campaign(
    name: &str,
    topologies: Vec<beep_scenarios::TopologySpec>,
    epsilons: Vec<f64>,
    protocols: Vec<beep_apps::Protocol>,
    seed: u64,
) -> beep_scenarios::CampaignReport {
    let spec = beep_scenarios::CampaignSpec {
        name: name.into(),
        topologies,
        epsilons,
        channels: vec![],
        faults: vec![],
        protocols,
        seeds: vec![seed],
    };
    let report = beep_scenarios::run_campaign(&spec, &beep_scenarios::RunOptions::default())
        .expect("experiment sweeps are non-empty");
    for cell in &report.cells {
        assert_eq!(
            cell.status,
            beep_scenarios::CellStatus::Ok,
            "cell {} did not run: {}",
            cell.id,
            cell.detail
        );
    }
    report
}

/// Looks a protocol metric up on a campaign cell (0 when absent).
pub(crate) fn campaign_metric(cell: &beep_scenarios::CellResult, key: &str) -> f64 {
    cell.metrics
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0.0, |(_, v)| *v)
}

pub(crate) fn fmt_f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.3e}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}
