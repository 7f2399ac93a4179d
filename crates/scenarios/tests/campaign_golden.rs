//! Golden pin for the campaign report format, mirroring
//! `beep-net`'s `noise_stream_golden.rs`.
//!
//! A campaign report with timing excluded is a pure function of its spec:
//! topology instances, protocol runs, cell ordering, the JSON field set,
//! and the JSON rendering itself are all part of the reproducibility
//! contract. This test runs a fixed small campaign (fixed seeds) and
//! compares the serialized report byte for byte against the checked-in
//! fixture, so *any* drift — an engine RNG-stream change, a protocol
//! tweak, a schema or formatter edit — fails loudly here instead of
//! silently shifting every recorded report.
//!
//! If you change the format or the underlying streams *deliberately*,
//! regenerate the fixture from its spec, `fixtures/golden.toml` (and bump
//! `SCHEMA_VERSION` for structural changes; document either break in
//! CHANGES.md):
//!
//! ```sh
//! cargo run --release -p beep-bench --bin campaign -- \
//!     --spec crates/scenarios/tests/fixtures/golden.toml \
//!     --no-timing --quiet \
//!     --out crates/scenarios/tests/fixtures/golden_report.json
//! ```

use beep_scenarios::{run_campaign, validate_report, CampaignSpec, CellStatus, RunOptions};

const GOLDEN: &str = include_str!("fixtures/golden_report.json");

/// The fixture's spec, the file the regeneration command above runs.
fn golden_spec() -> CampaignSpec {
    CampaignSpec::parse(include_str!("fixtures/golden.toml")).expect("the golden spec parses")
}

#[test]
fn golden_campaign_report_is_bit_stable_modulo_timing() {
    let report = run_campaign(&golden_spec(), &RunOptions::default()).unwrap();
    let rendered = report.to_json(false).to_pretty();
    if rendered != GOLDEN {
        // Print the computed report so a deliberate break can be
        // regenerated straight from the failure output.
        println!("computed report:\n{rendered}");
    }
    assert_eq!(
        rendered, GOLDEN,
        "campaign report drifted from the golden fixture (see module docs to regenerate)"
    );
}

#[test]
fn golden_fixture_passes_schema_validation() {
    let json = beep_scenarios::json::Json::parse(GOLDEN).unwrap();
    validate_report(&json).unwrap();
}

#[test]
fn golden_report_is_thread_count_invariant() {
    let spec = golden_spec();
    let serial = run_campaign(
        &spec,
        &RunOptions {
            threads: 1,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let threaded = run_campaign(
        &spec,
        &RunOptions {
            threads: 4,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        serial.to_json(false).to_pretty(),
        threaded.to_json(false).to_pretty()
    );
    assert_eq!(serial.to_json(false).to_pretty(), GOLDEN);
}

#[test]
fn golden_campaign_has_the_expected_shape() {
    let report = run_campaign(&golden_spec(), &RunOptions::default()).unwrap();
    // 2 families × 1 size × 2 ε × 2 protocols × 1 seed.
    assert_eq!(report.cells.len(), 8);
    let s = report.summary();
    // The noiseless primitives skip at ε > 0: one wave cell per family.
    assert_eq!(s.skipped, 2);
    assert_eq!(s.ok, 6);
    assert_eq!(s.failed, 0);
    assert!(report
        .cells
        .iter()
        .filter(|c| c.protocol == "wave" && c.epsilon > 0.0)
        .all(|c| c.status == CellStatus::Skipped));
}
