//! Realistic topologies (paper §6): how optimistic is the
//! overlay-capacity-independence assumption?
//!
//! A transit-stub *physical* network hosts an overlay whose links are
//! routed over physical shortest paths. The same strategy runs twice on
//! the same instance: once against the pure overlay model and once with
//! physical admission control (overlay links sharing a physical link
//! share its capacity). The table reports the completion-time inflation
//! and the physical link stress.
//!
//! Constrained runs are reported through the shared
//! [`RunRecord`](ocd_core::RunRecord) artifact: each metric column is
//! read back out of the record, every
//! record is re-certified before being quoted, and the first record per
//! strategy is written to `{out_dir}/logs/` as an exemplar JSON
//! artifact.

use ocd_bench::args::ExpArgs;
use ocd_bench::stats::Summary;
use ocd_bench::table::Table;
use ocd_core::scenario::single_file;
use ocd_core::MetricsRegistry;
use ocd_graph::generate::{gnp, transit_stub, GnpConfig, TransitStubConfig};
use ocd_graph::underlay::Underlay;
use ocd_graph::NodeId;
use ocd_heuristics::{simulate, simulate_with_observed, PhysicalUnderlay, SimConfig, StrategyKind};
use rand::prelude::*;

fn main() {
    let args = ExpArgs::from_env();
    let (phys_target, overlay_n, tokens, runs) = if args.quick {
        (40, 12, 16, 2)
    } else {
        (150, 40, 64, 5)
    };
    let kinds = [
        StrategyKind::Random,
        StrategyKind::Local,
        StrategyKind::Global,
    ];
    let config = SimConfig {
        max_steps: 50_000,
        ..Default::default()
    };
    // The trailing metrics column group (`util_max`, `util_mean`) is
    // read from the record's embedded `engine.arc_tokens` utilization
    // series — per-arc data the old ad-hoc counters threw away.
    let mut table = Table::new([
        "strategy",
        "overlay_moves",
        "physical_moves",
        "inflation",
        "rejected",
        "max_stress",
        "util_max",
        "util_mean",
        "run_ms",
    ]);
    let logs_dir = format!("{}/logs", args.out_dir);
    std::fs::create_dir_all(&logs_dir).expect("create logs dir");

    for kind in kinds {
        let mut overlay_moves = Vec::new();
        let mut physical_moves = Vec::new();
        let mut rejected = Vec::new();
        let mut stress = Vec::new();
        let mut util_max = Vec::new();
        let mut util_mean = Vec::new();
        let mut run_ms = Vec::new();
        for r in 0..runs {
            let mut rng = StdRng::seed_from_u64(args.seed ^ (r << 11));
            // Physical network: transit-stub with hosts in the stubs.
            let ts = TransitStubConfig::paper_sized(phys_target);
            let physical = transit_stub(&ts, &mut rng);
            let backbone = ts.transit_domains * ts.transit_nodes;
            let mut host_pool: Vec<NodeId> =
                (backbone..physical.node_count()).map(NodeId::new).collect();
            host_pool.shuffle(&mut rng);
            let hosts: Vec<NodeId> = host_pool.into_iter().take(overlay_n).collect();
            // Overlay among the hosts: the paper's random-graph regime.
            let overlay = gnp(&GnpConfig::paper(overlay_n), &mut rng);
            let underlay = Underlay::new(physical.clone(), hosts).expect("hosts in range");
            let mapping = underlay
                .map_overlay(&overlay)
                .expect("physical net is connected");
            let instance = single_file(overlay, tokens, 0);

            let mut s1 = kind.build();
            let mut rng1 = StdRng::seed_from_u64(args.seed ^ r);
            let pure = simulate(&instance, s1.as_mut(), &config, &mut rng1);
            assert!(pure.success, "{kind} failed on the pure overlay");
            let mut s2 = kind.build();
            let mut rng2 = StdRng::seed_from_u64(args.seed ^ r);
            let mut medium = PhysicalUnderlay::new(&physical, &mapping);
            let mut registry = MetricsRegistry::new();
            let mut constrained = simulate_with_observed(
                &instance,
                s2.as_mut(),
                &mut medium,
                &config,
                &mut rng2,
                &mut registry,
            )
            .to_record(&instance, kind.name(), "physical-underlay", args.seed ^ r);
            constrained.metrics = Some(registry.snapshot());
            assert!(constrained.success, "{kind} failed under admission");
            constrained.certify().expect("underlay record re-validates");
            if r == 0 {
                constrained
                    .write_json(format!("{logs_dir}/underlay_{kind}.json").as_ref())
                    .expect("write run record");
            }
            let arc_tokens = constrained
                .metrics
                .as_ref()
                .and_then(|snap| snap.series("engine.arc_tokens"))
                .expect("metrics-enabled record embeds the utilization series");
            util_max.push(arc_tokens.iter().copied().max().unwrap_or(0));
            util_mean.push(arc_tokens.iter().sum::<u64>() / (arc_tokens.len().max(1) as u64));
            overlay_moves.push(pure.steps as u64);
            physical_moves.push(constrained.steps as u64);
            rejected.push(constrained.total_rejected());
            stress.push(u64::from(mapping.max_stress(physical.edge_count())));
            run_ms.push(constrained.run_ms());
        }
        let om = Summary::of_ints(&overlay_moves);
        let pm = Summary::of_ints(&physical_moves);
        table.row([
            kind.name().to_string(),
            om.to_string(),
            pm.to_string(),
            format!("{:.2}x", pm.mean / om.mean.max(1.0)),
            Summary::of_ints(&rejected).to_string(),
            Summary::of_ints(&stress).to_string(),
            Summary::of_ints(&util_max).to_string(),
            Summary::of_ints(&util_mean).to_string(),
            Summary::of(&run_ms).to_string(),
        ]);
    }
    println!("{}", table.render());
    table
        .write_csv(format!("{}/table_underlay.csv", args.out_dir))
        .expect("write csv");
}
