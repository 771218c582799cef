//! Differential property test for the medium layer: a
//! [`PhysicalUnderlay`] whose physical network *is* the overlay (every
//! overlay arc rides its own dedicated physical arc, the identity
//! mapping) must behave exactly like the [`Ideal`] medium — the same
//! schedule move-for-move, zero rejections — across random graphs and
//! all five paper strategies.
//!
//! This pins the refactored single step loop: admission control that
//! never binds must be invisible, including to the RNG stream the
//! strategies consume.

use ocd_core::scenario::single_file;
use ocd_graph::underlay::Underlay;
use ocd_graph::NodeId;
use ocd_heuristics::{simulate, simulate_with, PhysicalUnderlay, SimConfig, StrategyKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identity_underlay_matches_ideal_move_for_move(
        seed in 0u64..10_000,
        n in 4usize..14,
        m in 2usize..10,
        kind_idx in 0usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topology = ocd_graph::generate::paper_random(n, &mut rng);
        let instance = single_file(topology.clone(), m, 0);
        let kind = StrategyKind::paper_five()[kind_idx];
        let config = SimConfig {
            max_steps: 200,
            ..Default::default()
        };

        let ideal = {
            let mut strategy = kind.build();
            let mut run_rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
            simulate(&instance, strategy.as_mut(), &config, &mut run_rng)
        };

        // Physical = overlay, hosts = all nodes: the mapping is the
        // identity, so every admission budget equals the overlay
        // capacity the strategy already respects.
        let hosts: Vec<NodeId> = topology.nodes().collect();
        let underlay = Underlay::new(topology.clone(), hosts).unwrap();
        let mapping = underlay.map_overlay(&topology).unwrap();
        let constrained = {
            let mut strategy = kind.build();
            let mut run_rng = StdRng::seed_from_u64(seed ^ 0xDEAD);
            simulate_with(
                &instance,
                strategy.as_mut(),
                &mut PhysicalUnderlay::new(&topology, &mapping),
                &config,
                &mut run_rng,
            )
        };

        prop_assert_eq!(
            &constrained.report.schedule,
            &ideal.schedule,
            "{} on seed {} diverged under the identity underlay",
            kind.name(),
            seed
        );
        prop_assert_eq!(constrained.total_rejected(), 0);
        prop_assert_eq!(constrained.report.success, ideal.success);
        prop_assert_eq!(
            constrained.report.completion_steps.clone(),
            ideal.completion_steps.clone()
        );
    }
}
