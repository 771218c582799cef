//! Distribution over an unreliable, physically-shared network — the
//! paper's §6 open problems in one scenario.
//!
//! A swarm distributes a file while (a) links suffer Markov outages,
//! (b) peers churn in and out, and (c) in a separate comparison, the
//! overlay's links are routed over a shared physical transit-stub
//! network whose capacities the overlay cannot see.
//!
//! Run with: `cargo run --release --example unreliable_network`

use ocd::core::scenario::single_file;
use ocd::graph::generate::{paper_random, transit_stub, TransitStubConfig};
use ocd::graph::underlay::Underlay;
use ocd::graph::NodeId;
use ocd::heuristics::dynamics::{Churn, LinkOutages, StaticNetwork};
use ocd::heuristics::{simulate_with, Dynamic, NetworkDynamics, PhysicalUnderlay};
use ocd::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(17);
    let topology = paper_random(40, &mut rng);
    let instance = single_file(topology, 48, 0);
    println!(
        "swarm: {} peers, {} pieces; static bounds: {} rounds / {} transfers\n",
        instance.num_vertices(),
        instance.num_tokens(),
        ocd::core::bounds::makespan_lower_bound(&instance),
        ocd::core::bounds::bandwidth_lower_bound(&instance)
    );

    // (a)+(b): dynamics sweep with the Local heuristic.
    let conditions: Vec<(&str, Box<dyn NetworkDynamics>)> = vec![
        ("static", Box::new(StaticNetwork)),
        (
            "link outages (15%/50%)",
            Box::new(LinkOutages::new(0.15, 0.5)),
        ),
        (
            "churn (8%/40%, seed pinned)",
            Box::new(Churn::new(0.08, 0.4, vec![0])),
        ),
    ];
    for (label, mut model) in conditions {
        let mut strategy = StrategyKind::Local.build();
        let mut run_rng = StdRng::seed_from_u64(5);
        let config = SimConfig {
            max_steps: 5_000,
            ..Default::default()
        };
        let outcome = simulate_with(
            &instance,
            strategy.as_mut(),
            &mut Dynamic::new(model.as_mut()),
            &config,
            &mut run_rng,
        );
        assert!(outcome.report.success);
        // Independent re-validation against the recorded conditions.
        let replay = ocd::core::validate::replay_with_capacities(
            &instance,
            &outcome.report.schedule,
            &outcome.capacity_trace,
        )
        .expect("dynamic schedule validates");
        assert!(replay.is_successful());
        println!(
            "{label:<28} {} rounds, {} transfers",
            outcome.report.steps, outcome.report.bandwidth
        );
    }

    // (c): the same logical overlay, but riding a real physical network.
    println!("\nphysical-underlay comparison (Global strategy):");
    let ts = TransitStubConfig::paper_sized(120);
    let physical = transit_stub(&ts, &mut rng);
    let backbone = ts.transit_domains * ts.transit_nodes;
    let hosts: Vec<NodeId> = (backbone..backbone + 40).map(NodeId::new).collect();
    let overlay = paper_random(40, &mut rng);
    let underlay = Underlay::new(physical.clone(), hosts).expect("hosts exist");
    let mapping = underlay
        .map_overlay(&overlay)
        .expect("physical net connected");
    let phys_instance = single_file(overlay, 48, 0);

    let mut s1 = StrategyKind::Global.build();
    let mut rng1 = StdRng::seed_from_u64(9);
    let pure = ocd::heuristics::simulate(
        &phys_instance,
        s1.as_mut(),
        &SimConfig::default(),
        &mut rng1,
    );
    let mut s2 = StrategyKind::Global.build();
    let mut rng2 = StdRng::seed_from_u64(9);
    let real = simulate_with(
        &phys_instance,
        s2.as_mut(),
        &mut PhysicalUnderlay::new(&physical, &mapping),
        &SimConfig {
            max_steps: 50_000,
            ..Default::default()
        },
        &mut rng2,
    );
    assert!(pure.success && real.report.success);
    println!(
        "  overlay model:  {} rounds\n  physical truth: {} rounds ({:.1}x, {} proposals rejected, max link stress {})",
        pure.steps,
        real.report.steps,
        real.report.steps as f64 / pure.steps as f64,
        real.total_rejected(),
        mapping.max_stress(physical.edge_count()),
    );
}
