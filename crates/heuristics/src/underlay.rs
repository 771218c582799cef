//! Physically-constrained simulation (paper §6, "realistic
//! topologies").
//!
//! Overlay links that share a physical link do not have independent
//! capacities. Running a strategy through the ordinary engine loop
//! ([`crate::simulate_with`]) under the [`PhysicalUnderlay`] medium
//! models that: the strategy plans against the overlay's own (naive)
//! capacities, each physical arc has its capacity as
//! a per-step budget, and a token is admitted on an overlay arc only if
//! every physical arc on that overlay arc's path still has budget.
//! Admission is round-robin across overlay arcs (one token per arc per
//! round) so no overlay link starves, and the recorded schedule is
//! valid for the overlay instance *and* physically realizable.
//!
//! The interesting output is the *inflation* of completion time over
//! the pure-overlay model — how optimistic the independence assumption
//! was (see the `table_underlay` experiment).

use crate::medium::{Medium, PhysicalUnderlay};
use ocd_core::TokenSet;
use ocd_graph::underlay::OverlayMapping;
use ocd_graph::{DiGraph, EdgeId};

/// Clips one proposed timestep to physical feasibility. Returns the
/// admitted sends and the number of rejected token-moves.
///
/// This is [`PhysicalUnderlay::admit`] exposed as a standalone
/// function for analysis code and tests; the engine path goes through
/// the medium directly.
pub fn admit_physical(
    physical: &DiGraph,
    mapping: &OverlayMapping,
    proposed: &[(EdgeId, TokenSet)],
) -> (Vec<(EdgeId, TokenSet)>, u64) {
    let mut medium = PhysicalUnderlay::new(physical, mapping);
    let mut admitted = proposed.to_vec();
    let rejected = medium.admit(&mut admitted);
    (admitted, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, simulate_with, SimConfig, StrategyKind};
    use ocd_core::scenario::single_file;
    use ocd_core::validate;
    use ocd_core::Instance;
    use ocd_core::Token;
    use ocd_graph::generate::classic;
    use ocd_graph::underlay::Underlay;
    use ocd_graph::NodeId;
    use rand::prelude::*;

    /// Physical star: hub router 0, hosts 1..=4 with symmetric cap 2.
    /// Overlay: complete graph on the 4 hosts, each overlay link
    /// believing it has capacity 2.
    fn star_setup() -> (Instance, DiGraph, OverlayMapping) {
        let physical = classic::star(5, 2, true);
        let hosts: Vec<NodeId> = (1..5).map(|i| physical.node(i)).collect();
        let overlay = classic::complete(4, 2);
        let underlay = Underlay::new(physical.clone(), hosts).unwrap();
        let mapping = underlay.map_overlay(&overlay).unwrap();
        let instance = single_file(overlay, 6, 0);
        (instance, physical, mapping)
    }

    #[test]
    fn admission_respects_physical_budgets() {
        let (instance, physical, mapping) = star_setup();
        let g = instance.graph();
        // Host 0 proposes 2 tokens to every other host: 6 proposed
        // moves, but its physical access link (cap 2) admits only 2.
        let full = TokenSet::from_tokens(6, [Token::new(0), Token::new(1)]);
        let proposed: Vec<(EdgeId, TokenSet)> =
            g.out_edges(g.node(0)).map(|e| (e, full.clone())).collect();
        let (admitted, rejected) = admit_physical(&physical, &mapping, &proposed);
        let admitted_moves: u64 = admitted.iter().map(|(_, t)| t.len() as u64).sum();
        assert_eq!(admitted_moves, 2, "access link capacity 2 caps the fan-out");
        assert_eq!(rejected, 4);
    }

    #[test]
    fn round_robin_admission_is_fair() {
        let (instance, physical, mapping) = star_setup();
        let g = instance.graph();
        let full = TokenSet::from_tokens(6, [Token::new(0), Token::new(1)]);
        let proposed: Vec<(EdgeId, TokenSet)> =
            g.out_edges(g.node(0)).map(|e| (e, full.clone())).collect();
        let (admitted, _) = admit_physical(&physical, &mapping, &proposed);
        // The 2 admitted tokens go to 2 *different* overlay arcs.
        assert_eq!(admitted.len(), 2);
        assert!(admitted.iter().all(|(_, t)| t.len() == 1));
    }

    #[test]
    fn physical_constraints_inflate_completion_time() {
        let (instance, physical, mapping) = star_setup();
        let run_overlay = || {
            let mut s = StrategyKind::Global.build();
            let mut rng = StdRng::seed_from_u64(3);
            simulate(&instance, s.as_mut(), &SimConfig::default(), &mut rng)
        };
        let run_physical = || {
            let mut s = StrategyKind::Global.build();
            let mut rng = StdRng::seed_from_u64(3);
            simulate_with(
                &instance,
                s.as_mut(),
                &mut PhysicalUnderlay::new(&physical, &mapping),
                &SimConfig::default(),
                &mut rng,
            )
        };
        let pure = run_overlay();
        let constrained = run_physical();
        assert!(pure.success && constrained.report.success);
        assert!(
            constrained.report.steps > pure.steps,
            "sharing the hub must slow things down ({} vs {})",
            constrained.report.steps,
            pure.steps
        );
        assert!(constrained.total_rejected() > 0);
        // The admitted schedule is still a valid overlay schedule.
        let replay = validate::replay(&instance, &constrained.report.schedule).unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn generous_physical_network_changes_nothing() {
        // Physical = overlay (each overlay arc rides its own dedicated
        // physical arc): admission is a no-op.
        let overlay = classic::cycle(5, 2, true);
        let hosts: Vec<NodeId> = overlay.nodes().collect();
        let underlay = Underlay::new(overlay.clone(), hosts).unwrap();
        let mapping = underlay.map_overlay(&overlay).unwrap();
        let instance = single_file(overlay.clone(), 4, 0);
        let mut s1 = StrategyKind::Local.build();
        let mut rng1 = StdRng::seed_from_u64(9);
        let pure = simulate(&instance, s1.as_mut(), &SimConfig::default(), &mut rng1);
        let mut s2 = StrategyKind::Local.build();
        let mut rng2 = StdRng::seed_from_u64(9);
        let constrained = simulate_with(
            &instance,
            s2.as_mut(),
            &mut PhysicalUnderlay::new(&overlay, &mapping),
            &SimConfig::default(),
            &mut rng2,
        );
        assert_eq!(pure.schedule, constrained.report.schedule);
        assert_eq!(constrained.total_rejected(), 0);
    }
}
