//! Property tests for the fault layer: `FaultPlan::realize` respects its
//! fraction budget, is seed-deterministic, and never samples out-of-range
//! nodes; `try_from_assignments` rejects duplicates regardless of input
//! order; `AdaptivePolicy` decisions are deterministic, in-range, and
//! within budget for every policy; and `TargetLoudest` picks exactly the
//! nodes its definition names.

use beep_bits::BitVec;
use beep_net::{AdaptivePolicy, AdversaryView, FaultKind, FaultPlan, NetError};
use proptest::prelude::*;

/// The three fault kinds, indexed for the integer-only proptest shim.
fn kind(ix: usize) -> FaultKind {
    match ix % 3 {
        0 => FaultKind::Crash { round: 4 },
        1 => FaultKind::ByzantineSpam,
        _ => FaultKind::ByzantineMute,
    }
}

/// The policy under test for an integer case index, at the given budget.
fn policy(ix: usize, budget: usize) -> AdaptivePolicy {
    if ix.is_multiple_of(2) {
        AdaptivePolicy::TargetLoudest { budget }
    } else {
        AdaptivePolicy::RushingSpam { budget, window: 2 }
    }
}

/// `TargetLoudest`'s targets by definition: the nodes that have beeped,
/// ordered by (count descending, id ascending), cut to `budget`, listed by
/// id.
fn loudest_by_definition(counts: &[u64], budget: usize) -> Vec<usize> {
    let mut loud: Vec<usize> = (0..counts.len()).filter(|&v| counts[v] > 0).collect();
    loud.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
    loud.truncate(budget);
    loud.sort_unstable();
    loud
}

/// Per-node beep counts and a budget from 1 to `n + 2`. Counts come from
/// `0..6`, so zeros and ties are common; about one in sixteen is lifted
/// far above the rest.
fn counts_and_budget() -> impl Strategy<Value = (Vec<u64>, usize)> {
    (1usize..300).prop_flat_map(|n| {
        (
            prop::collection::vec(
                (0u64..6, 0usize..16).prop_map(|(c, lift)| if lift == 0 { c + 1000 } else { c }),
                n,
            ),
            1usize..=n + 2,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- FaultPlan::realize invariants.

    #[test]
    fn realize_respects_the_fraction_budget(
        n in 1usize..200,
        frac_ticks in 0usize..=20,
        kind_ix in 0usize..3,
        seed in 0u64..1000,
    ) {
        // The shim has integer strategies only; quantize the fraction.
        let fraction = frac_ticks as f64 * 0.05;
        let plan = FaultPlan::realize(n, fraction, kind(kind_ix), seed).unwrap();
        let expected = ((fraction * n as f64).floor() as usize).min(n);
        prop_assert_eq!(plan.len(), expected);
    }

    #[test]
    fn realize_is_seed_deterministic(
        n in 1usize..200,
        frac_ticks in 0usize..=20,
        kind_ix in 0usize..3,
        seed in 0u64..1000,
    ) {
        let fraction = frac_ticks as f64 * 0.05;
        let a = FaultPlan::realize(n, fraction, kind(kind_ix), seed).unwrap();
        let b = FaultPlan::realize(n, fraction, kind(kind_ix), seed).unwrap();
        prop_assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn realize_never_samples_out_of_range_or_duplicate_nodes(
        n in 1usize..200,
        frac_ticks in 1usize..=20,
        kind_ix in 0usize..3,
        seed in 0u64..1000,
    ) {
        let fraction = frac_ticks as f64 * 0.05;
        let plan = FaultPlan::realize(n, fraction, kind(kind_ix), seed).unwrap();
        let nodes: Vec<usize> = plan.assignments().iter().map(|&(v, _)| v).collect();
        for &v in &nodes {
            prop_assert!(v < n, "node {} out of range {}", v, n);
        }
        // Assignments are sorted and duplicate-free by construction.
        for w in nodes.windows(2) {
            prop_assert!(w[0] < w[1], "unsorted or duplicate: {:?}", w);
        }
    }

    #[test]
    fn realize_rejects_invalid_fractions(n in 1usize..50, seed in 0u64..100) {
        for bad in [-0.25, 1.5, f64::NAN] {
            let err = FaultPlan::realize(n, bad, FaultKind::ByzantineSpam, seed).unwrap_err();
            prop_assert!(matches!(err, NetError::InvalidFaultPlan { .. }));
        }
    }

    // --- try_from_assignments rejects duplicates in any order.

    #[test]
    fn duplicate_assignments_are_rejected_regardless_of_order(
        node in 0usize..64,
        other in 0usize..64,
        kind_a in 0usize..3,
        kind_b in 0usize..3,
        swap in 0usize..2,
    ) {
        // Build [dup, dup, other(≠dup)] and optionally reverse it: the
        // constructor sorts internally, so the duplicate must be caught
        // wherever it sits in the input.
        let other = if other == node { (other + 1) % 64 } else { other };
        let mut assignments = vec![
            (node, kind(kind_a)),
            (node, kind(kind_b)),
            (other, FaultKind::ByzantineMute),
        ];
        if swap == 1 {
            assignments.reverse();
        }
        let err = FaultPlan::try_from_assignments(assignments).unwrap_err();
        prop_assert!(matches!(err, NetError::InvalidFaultPlan { .. }));
        let msg = err.to_string();
        prop_assert!(msg.contains(&node.to_string()), "{}", msg);
    }

    #[test]
    fn distinct_assignments_are_accepted_in_any_order(
        base in 0usize..40,
        stride in 1usize..7,
        swap in 0usize..2,
    ) {
        let mut assignments = vec![
            (base, FaultKind::ByzantineSpam),
            (base + stride, FaultKind::ByzantineMute),
            (base + 2 * stride, FaultKind::Crash { round: 1 }),
        ];
        if swap == 1 {
            assignments.reverse();
        }
        let plan = FaultPlan::try_from_assignments(assignments).unwrap();
        prop_assert_eq!(plan.len(), 3);
        // Output order is canonical (sorted) whatever the input order.
        let nodes: Vec<usize> = plan.assignments().iter().map(|&(v, _)| v).collect();
        prop_assert_eq!(nodes, vec![base, base + stride, base + 2 * stride]);
    }

    // --- AdaptivePolicy decision invariants.

    #[test]
    fn adaptive_decisions_are_deterministic_in_the_view(
        n in 1usize..100,
        seed in 0u64..500,
        round in 0u64..16,
        policy_ix in 0usize..2,
        budget in 0usize..20,
        salt in 0u64..64,
    ) {
        let beepers = BitVec::from_fn(n, |v| (v as u64).wrapping_mul(salt + 1).is_multiple_of(3));
        let energy: Vec<u64> = (0..n as u64).map(|v| (v ^ salt) % 7).collect();
        let p = policy(policy_ix, budget);
        let last_activity = if round > 2 { Some(round - 2) } else { None };
        let make_view = || AdversaryView {
            seed,
            round,
            beepers: &beepers,
            beeps_per_node: &energy,
            last_activity,
        };
        prop_assert_eq!(p.decide(&make_view()), p.decide(&make_view()));
    }

    #[test]
    fn adaptive_decisions_stay_in_range_and_within_budget(
        n in 1usize..100,
        seed in 0u64..500,
        round in 0u64..16,
        policy_ix in 0usize..2,
        budget in 0usize..20,
        salt in 0u64..64,
    ) {
        let beepers = BitVec::from_fn(n, |v| (v as u64 ^ salt) % 4 == 1);
        let energy: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(salt) % 5).collect();
        let p = policy(policy_ix, budget);
        let decision = p.decide(&AdversaryView {
            seed,
            round,
            beepers: &beepers,
            beeps_per_node: &energy,
            last_activity: Some(round),
        });
        for list in [decision.spam(), decision.mute(), decision.deafen()] {
            prop_assert!(list.len() <= budget, "{} faults > budget {}", list.len(), budget);
            for &v in list {
                prop_assert!(v < n, "node {} out of range {}", v, n);
            }
            for w in list.windows(2) {
                prop_assert!(w[0] < w[1], "unsorted or duplicate: {:?}", w);
            }
        }
    }

    #[test]
    fn zero_budget_policies_never_act(
        n in 1usize..100,
        seed in 0u64..500,
        round in 0u64..16,
        policy_ix in 0usize..2,
        salt in 0u64..64,
    ) {
        let beepers = BitVec::from_fn(n, |v| (v as u64 ^ salt).is_multiple_of(2));
        let p = policy(policy_ix, 0);
        prop_assert!(p.is_noop());
        prop_assert!(!FaultPlan::from_policy(p).is_adaptive());
        prop_assert!(FaultPlan::from_policy(p).is_empty());
        let decision = p.decide(&AdversaryView {
            seed,
            round,
            beepers: &beepers,
            beeps_per_node: &[],
            last_activity: None,
        });
        prop_assert!(decision.is_empty());
    }

    #[test]
    fn target_loudest_only_jams_nodes_that_have_beeped(
        n in 2usize..100,
        budget in 1usize..20,
        quiet_stride in 2usize..6,
    ) {
        // Nodes at multiples of the stride never beeped; the policy must
        // leave them alone no matter the budget.
        let energy: Vec<u64> = (0..n)
            .map(|v| if v % quiet_stride == 0 { 0 } else { v as u64 + 1 })
            .collect();
        let beepers = BitVec::zeros(n);
        let decision = AdaptivePolicy::TargetLoudest { budget }.decide(&AdversaryView {
            seed: 1,
            round: 3,
            beepers: &beepers,
            beeps_per_node: &energy,
            last_activity: None,
        });
        for &v in decision.mute() {
            prop_assert!(energy[v] > 0, "jammed silent node {}", v);
        }
        prop_assert_eq!(decision.mute(), decision.deafen());
        prop_assert!(decision.spam().is_empty());
    }

    #[test]
    fn rushing_spam_only_targets_silent_nodes_while_active(
        n in 2usize..100,
        budget in 1usize..20,
        seed in 0u64..200,
        round in 0u64..16,
    ) {
        let beepers = BitVec::from_fn(n, |v| v % 3 == 0);
        let decision = AdaptivePolicy::RushingSpam { budget, window: 2 }.decide(&AdversaryView {
            seed,
            round,
            beepers: &beepers,
            beeps_per_node: &[],
            last_activity: Some(round),
        });
        prop_assert!(!decision.spam().is_empty(), "active round, nonzero budget");
        for &v in decision.spam() {
            prop_assert!(!beepers.get(v), "spammed a node already beeping: {}", v);
        }
        prop_assert!(decision.mute().is_empty());
        prop_assert!(decision.deafen().is_empty());
    }

    #[test]
    fn target_loudest_jams_exactly_its_definition(
        (counts, budget) in counts_and_budget(),
        round in 0u64..16,
    ) {
        let n = counts.len();
        let beepers = BitVec::from_fn(n, |v| counts[v] % 2 == 1);
        let decision = AdaptivePolicy::TargetLoudest { budget }.decide(&AdversaryView {
            seed: 7,
            round,
            beepers: &beepers,
            beeps_per_node: &counts,
            last_activity: None,
        });
        let expected = loudest_by_definition(&counts, budget);
        prop_assert_eq!(
            decision.mute(),
            expected.as_slice(),
            "counts {:?} budget {}",
            counts,
            budget
        );
        prop_assert_eq!(decision.deafen(), expected.as_slice());
        prop_assert!(decision.spam().is_empty());
    }
}
