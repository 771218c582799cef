//! Beyond the paper: the §5.1 heuristics as asynchronous swarm
//! protocols (`ocd-net`) under degrading link conditions — latency,
//! jitter, and loss — with a mid-run crash/restart thrown in at the
//! harshest setting.
//!
//! Expected shape: completion time degrades *gracefully* with loss —
//! retransmits and duplicate deliveries rise, but the swarm keeps
//! finishing (success stays at the full run count) rather than
//! stalling. The `latency=1, loss=0` row is the lockstep-equivalent
//! ideal mode: its makespan matches `fig2`-style synchronized rounds.

use ocd_bench::args::ExpArgs;
use ocd_bench::stats::Summary;
use ocd_bench::table::Table;
use ocd_core::{validate, ProvenanceTrace};
use ocd_graph::generate::paper_random;
use ocd_net::{run_swarm_observed, FaultPlan, NetConfig, NetPolicy};
use rand::prelude::*;

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
    let (n, tokens) = if args.quick { (20, 16) } else { (40, 48) };
    let runs = if args.quick { 2 } else { 5 };

    let mut rng = StdRng::seed_from_u64(args.seed);
    let topology = paper_random(n, &mut rng);
    let instance = ocd_core::scenario::single_file(topology, tokens, 0);
    println!("single file, n = {n}, m = {tokens}, asynchronous runtime\n");

    // (label, latency, jitter, loss, crash a vertex mid-run?)
    let conditions: [(&str, u32, u32, f64, bool); 5] = [
        ("ideal (lockstep)", 1, 0, 0.00, false),
        ("latency-3", 3, 0, 0.00, false),
        ("jitter-2", 3, 2, 0.00, false),
        ("loss-10%", 3, 2, 0.10, false),
        ("loss-25%+crash", 3, 2, 0.25, true),
    ];

    // The trailing metrics column group is read from the unified
    // `net.*` metrics snapshot rather than ad-hoc report fields;
    // `crit_len`/`crit_arc` come from the runtime-recorded causal
    // provenance (the trace survives loss, crashes, and retries).
    let mut table = Table::new([
        "condition",
        "policy",
        "success",
        "ticks",
        "bandwidth",
        "retransmits",
        "duplicate_deliveries",
        "timeouts",
        "ctrl_msgs",
        "max_queue",
        "crit_len",
        "crit_arc",
    ]);
    for (label, latency, jitter, loss, with_crash) in conditions {
        for policy in [NetPolicy::Random, NetPolicy::Local] {
            let config = NetConfig {
                policy,
                latency,
                jitter,
                loss,
                control_latency: 1.min(latency - 1),
                control_loss: loss / 2.0,
                have_refresh: 6,
                ..NetConfig::default()
            };
            let faults = if with_crash {
                FaultPlan::none().crash_between(instance.graph().node(n / 2), 8, 40)
            } else {
                FaultPlan::none()
            };
            let mut ticks = Vec::new();
            let mut bandwidth = Vec::new();
            let mut retransmits = Vec::new();
            let mut duplicates = Vec::new();
            let mut timeouts = Vec::new();
            let mut ctrl_msgs = Vec::new();
            let mut max_queue = Vec::new();
            let mut crit_len = Vec::new();
            let mut crit_arcs = Vec::new();
            let mut successes = 0u32;
            for r in 0..runs {
                let mut run_rng = StdRng::seed_from_u64(args.seed ^ ((r as u64) << 7));
                let mut prov = ProvenanceTrace::new(instance.num_vertices(), instance.num_tokens());
                let report =
                    run_swarm_observed(&instance, &config, &faults, &mut run_rng, &mut prov);
                // Every extracted schedule is a certified legal sequence.
                let replay = validate::replay(&instance, &report.schedule)
                    .expect("extracted schedule must validate");
                assert!(report.accounts_for_every_token());
                if report.success {
                    assert!(replay.is_successful());
                    successes += 1;
                    let snap = report.metrics_snapshot();
                    ticks.push(report.ticks);
                    bandwidth.push(report.bandwidth());
                    retransmits.push(report.retransmits);
                    duplicates.push(report.duplicate_deliveries);
                    timeouts.push(snap.counter("net.request_timeouts").unwrap_or(0));
                    ctrl_msgs.push(
                        snap.counter("net.msgs_sent.have").unwrap_or(0)
                            + snap.counter("net.msgs_sent.request").unwrap_or(0)
                            + snap.counter("net.msgs_sent.cancel").unwrap_or(0),
                    );
                    max_queue.push(
                        snap.series("net.arc_max_queue_depth")
                            .map_or(0, |s| s.iter().copied().max().unwrap_or(0)),
                    );
                    let analysis = prov.analyze(&instance);
                    crit_len.push(analysis.crit_len() as u64);
                    if let Some(arc) = analysis.crit_arc() {
                        let e = instance.graph().edge(arc);
                        crit_arcs.push(format!("{}->{}", e.src.index(), e.dst.index()));
                    }
                }
            }
            table.row([
                label.to_string(),
                policy.name().to_string(),
                format!("{}/{}", successes, runs),
                Summary::of_ints(&ticks).to_string(),
                Summary::of_ints(&bandwidth).to_string(),
                Summary::of_ints(&retransmits).to_string(),
                Summary::of_ints(&duplicates).to_string(),
                Summary::of_ints(&timeouts).to_string(),
                Summary::of_ints(&ctrl_msgs).to_string(),
                Summary::of_ints(&max_queue).to_string(),
                Summary::of_ints(&crit_len).to_string(),
                modal_arc(&crit_arcs),
            ]);
        }
    }
    println!("{}", table.render());
    table
        .write_csv(format!("{}/table_async.csv", args.out_dir))
        .expect("write csv");
}
