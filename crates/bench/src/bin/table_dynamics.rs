//! Changing network conditions (paper §6): how the heuristics cope with
//! congestion, link outages, churn, and an adversary, compared to the
//! static network and to the §5.1 lower bounds computed on the static
//! topology (an optimistic "network oracle" reference).

use ocd_bench::args::ExpArgs;
use ocd_bench::stats::Summary;
use ocd_bench::table::Table;
use ocd_core::{bounds, ProvenanceTrace};
use ocd_graph::generate::paper_random;
use ocd_heuristics::dynamics::{
    AdversarialCuts, Churn, CrossTraffic, LinkOutages, NetworkDynamics, StaticNetwork,
};
use ocd_heuristics::{simulate_with, Dynamic, SimConfig, StrategyKind};
use rand::prelude::*;

/// A named factory producing a fresh dynamics model per run.
type ConditionFactory = Box<dyn FnMut() -> Box<dyn NetworkDynamics>>;

fn conditions() -> Vec<(&'static str, ConditionFactory)> {
    vec![
        ("static", Box::new(|| Box::new(StaticNetwork))),
        (
            "cross-traffic-50%",
            Box::new(|| Box::new(CrossTraffic::new(0.5))),
        ),
        (
            "outages-10/50",
            Box::new(|| Box::new(LinkOutages::new(0.10, 0.50))),
        ),
        (
            "churn-5/30",
            Box::new(|| Box::new(Churn::new(0.05, 0.30, vec![0]))),
        ),
        // A rotating adversary (cooldown 2) slows distribution;
        // a persistent one permanently blocks the last needy vertex
        // whenever its budget covers that vertex's useful in-arcs.
        (
            "adversary-2-rotating",
            Box::new(|| Box::new(AdversarialCuts::with_cooldown(2, 2))),
        ),
        (
            "adversary-2-persistent",
            Box::new(|| Box::new(AdversarialCuts::new(2))),
        ),
    ]
}

/// The most frequent bottleneck arc across runs (ties to the
/// lexicographically smallest label), or `-` when no run had one.
fn modal_arc(labels: &[String]) -> String {
    let mut counts = std::collections::BTreeMap::new();
    for label in labels {
        *counts.entry(label.as_str()).or_insert(0u32) += 1;
    }
    counts
        .into_iter()
        .max_by(|(a, ca), (b, cb)| ca.cmp(cb).then(b.cmp(a)))
        .map_or_else(|| "-".to_string(), |(label, _)| label.to_string())
}

fn main() {
    let args = ExpArgs::from_env();
    let (n, tokens) = if args.quick { (24, 24) } else { (60, 64) };
    let runs = if args.quick { 2 } else { 5 };
    let kinds = [
        StrategyKind::Random,
        StrategyKind::Local,
        StrategyKind::Global,
    ];
    let config = SimConfig {
        max_steps: 5_000,
        ..Default::default()
    };

    let mut rng = StdRng::seed_from_u64(args.seed);
    let topology = paper_random(n, &mut rng);
    let instance = ocd_core::scenario::single_file(topology, tokens, 0);
    println!(
        "single file, n = {n}, m = {tokens}; static lower bounds: {} moves, {} bandwidth\n",
        bounds::makespan_lower_bound(&instance),
        bounds::bandwidth_lower_bound(&instance)
    );

    let mut table = Table::new([
        "condition",
        "strategy",
        "success",
        "moves",
        "bandwidth",
        "duplicate_deliveries",
        "crit_len",
        "crit_arc",
    ]);
    for (label, mut make) in conditions() {
        for kind in kinds {
            let mut moves = Vec::new();
            let mut bandwidth = Vec::new();
            let mut duplicates = Vec::new();
            let mut crit_len = Vec::new();
            let mut crit_arcs = Vec::new();
            let mut successes = 0u32;
            for r in 0..runs {
                let mut strategy = kind.build();
                let mut dynamics = make();
                let mut run_rng = StdRng::seed_from_u64(args.seed ^ (r as u64) << 7);
                let outcome = simulate_with(
                    &instance,
                    strategy.as_mut(),
                    &mut Dynamic::new(dynamics.as_mut()),
                    &config,
                    &mut run_rng,
                );
                // Re-validate against the recorded capacity trace.
                let replay = ocd_core::validate::replay_with_capacities(
                    &instance,
                    &outcome.report.schedule,
                    &outcome.capacity_trace,
                )
                .expect("dynamic schedule must validate");
                if outcome.report.success {
                    assert!(replay.is_successful());
                    successes += 1;
                    moves.push(outcome.report.steps as u64);
                    bandwidth.push(outcome.report.bandwidth);
                    duplicates.push(outcome.report.duplicate_deliveries);
                    // Post-hoc causal provenance: critical-path length
                    // and the arc carrying the most critical hops.
                    let analysis =
                        ProvenanceTrace::from_schedule(&instance, &outcome.report.schedule)
                            .analyze(&instance);
                    crit_len.push(analysis.crit_len() as u64);
                    if let Some(arc) = analysis.crit_arc() {
                        let e = instance.graph().edge(arc);
                        crit_arcs.push(format!("{}->{}", e.src.index(), e.dst.index()));
                    }
                }
            }
            table.row([
                label.to_string(),
                kind.name().to_string(),
                format!("{}/{}", successes, runs),
                Summary::of_ints(&moves).to_string(),
                Summary::of_ints(&bandwidth).to_string(),
                Summary::of_ints(&duplicates).to_string(),
                Summary::of_ints(&crit_len).to_string(),
                modal_arc(&crit_arcs),
            ]);
        }
    }
    println!("{}", table.render());
    table
        .write_csv(format!("{}/table_dynamics.csv", args.out_dir))
        .expect("write csv");
}
