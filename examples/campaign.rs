//! Scenario-campaign quickstart: declare a sweep, run it, read the
//! report.
//!
//! ```sh
//! cargo run --release --example campaign
//! ```
//!
//! A campaign is the cartesian product `topology families × sizes ×
//! noise levels × protocols × seeds`, executed cell by cell on the
//! sharded bitset engine. This example sweeps three families at two
//! noise levels over two protocols, prints the human table, and pulls
//! one number back out of the structured report — the same report the
//! `campaign` binary writes as schema-versioned JSON, which CI checks and
//! archives.

use noisy_beeps::prelude::*;

fn main() {
    // The same spec format as scenarios/smoke.toml; specs can also be
    // assembled directly as plain data (see beep_scenarios::CampaignSpec).
    let spec = CampaignSpec::parse(
        r#"
        name = "quickstart"
        seeds = [1]
        epsilons = [0.0, 0.05]
        protocols = ["matching", "round_sim"]

        [[topology]]
        family = "cycle"
        sizes = [12]

        [[topology]]
        family = "torus"
        sizes = [9]

        [[topology]]
        family = "random_regular"
        sizes = [12]
        degree = 4
    "#,
    )
    .expect("spec parses");

    let report = run_campaign(&spec, &RunOptions::default()).expect("campaign runs");
    print!("{}", report.render_table());

    // The report is structured data, not just a table: aggregate and
    // per-cell numbers are directly addressable.
    let summary = report.summary();
    assert_eq!(summary.failed, 0, "all cells ran");
    let noisy_matching_rounds: usize = report
        .cells
        .iter()
        .filter(|c| c.protocol == "matching" && c.epsilon > 0.0)
        .map(|c| c.rounds)
        .sum();
    println!(
        "\nnoisy matching spent {noisy_matching_rounds} beep rounds across \
         {} families; campaign success rate {:.2}",
        spec.topologies.len(),
        summary.success_rate,
    );
    println!(
        "JSON report (first 3 lines):\n{}",
        report
            .to_json(false)
            .to_pretty()
            .lines()
            .take(3)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
