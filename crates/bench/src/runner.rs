//! Multi-seed, multi-strategy evaluation of a single instance.
//!
//! The paper repeats each heuristic 3 times per graph (§5.2, noting the
//! variance is tiny); [`evaluate`] generalizes that: it runs every
//! requested strategy across a seed list — in parallel across runs via
//! [`std::thread::scope`] — and reports summary statistics of the
//! paper's metrics: **moves** (timesteps, the figures' y-axis name for
//! makespan), **bandwidth** (token transfers), and **pruned bandwidth**
//! (after the §5.1 post-processing).

use crate::stats::Summary;
use ocd_core::{bounds, prune, Instance, RunRecord};
use ocd_heuristics::{simulate_with, Ideal, SimConfig, StrategyKind};
use ocd_solver::steiner;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Aggregated metrics of one strategy over several seeded runs.
#[derive(Debug, Clone)]
pub struct StrategyStats {
    /// Which strategy.
    pub kind: StrategyKind,
    /// Fraction of runs that satisfied every want within the step cap.
    pub success_rate: f64,
    /// Timesteps to completion (the figures' "moves").
    pub moves: Summary,
    /// Token transfers (the figures' "bandwidth").
    pub bandwidth: Summary,
    /// Bandwidth after §5.1 pruning.
    pub pruned_bandwidth: Summary,
    /// Wall-clock milliseconds per run (successful runs only), from the
    /// engine's [`ocd_heuristics::SimReport::wall_nanos`] instrumentation.
    pub wall_ms: Summary,
}

/// Instance-level bounds quoted alongside the heuristics in the figures.
#[derive(Debug, Clone, Copy)]
pub struct BoundsReport {
    /// `Σ_v |w(v) \ h(v)|` — the §5.1 remaining-bandwidth lower bound.
    pub bandwidth_lower: u64,
    /// The §5.1 radius/capacity makespan lower bound.
    pub makespan_lower: usize,
    /// The §3.3 per-token Steiner bandwidth upper bound (`None` if the
    /// instance is unsatisfiable).
    pub steiner_upper: Option<u64>,
}

/// Computes the bound lines for an instance.
#[must_use]
pub fn bounds_of(instance: &Instance) -> BoundsReport {
    BoundsReport {
        bandwidth_lower: bounds::bandwidth_lower_bound(instance),
        makespan_lower: bounds::makespan_lower_bound(instance),
        steiner_upper: steiner::bandwidth_upper_bound(instance).ok(),
    }
}

/// One seeded run of `kind` on `instance` under the ideal medium,
/// reported as the shared [`RunRecord`] artifact (the same JSON schema
/// the CLI's `run --record` emits). Every metric the table pipeline
/// quotes is read back out of the record, so a saved artifact
/// reproduces the tables exactly.
#[must_use]
pub fn record_run(
    instance: &Instance,
    kind: StrategyKind,
    config: &SimConfig,
    seed: u64,
) -> RunRecord {
    let mut strategy = kind.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let outcome = simulate_with(instance, strategy.as_mut(), &mut Ideal, config, &mut rng);
    outcome.to_record(instance, kind.name(), "ideal", seed)
}

/// Runs each strategy once per seed (in parallel across runs) and
/// aggregates the metrics. Failed runs (step cap) are excluded from the
/// metric summaries but reflected in `success_rate`.
#[must_use]
pub fn evaluate(
    instance: &Instance,
    kinds: &[StrategyKind],
    seeds: &[u64],
    config: &SimConfig,
) -> Vec<StrategyStats> {
    struct RunOutcome {
        seed: u64,
        success: bool,
        moves: u64,
        bandwidth: u64,
        pruned: u64,
        wall_ms: f64,
    }
    let run_one = |kind: StrategyKind, seed: u64| -> RunOutcome {
        let record = record_run(instance, kind, config, seed);
        let (pruned, _) = prune::prune(instance, &record.schedule);
        RunOutcome {
            seed,
            success: record.success,
            moves: record.steps as u64,
            bandwidth: record.bandwidth,
            pruned: pruned.bandwidth(),
            wall_ms: record.run_ms(),
        }
    };

    // Fan out across (kind, seed) with scoped threads, bounded by the
    // CPU count to avoid oversubscription on big sweeps.
    let jobs: Vec<(usize, u64)> = kinds
        .iter()
        .enumerate()
        .flat_map(|(ki, _)| seeds.iter().map(move |&s| (ki, s)))
        .collect();
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Vec<RunOutcome>>> = kinds
        .iter()
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&(ki, seed)) = jobs.get(i) else {
                    break;
                };
                let outcome = run_one(kinds[ki], seed);
                results[ki].lock().expect("no poisoned runs").push(outcome);
            });
        }
    });

    kinds
        .iter()
        .zip(results)
        .map(|(&kind, cell)| {
            let mut outcomes = cell.into_inner().expect("no poisoned runs");
            // Threads finish in arbitrary order; aggregate in seed order
            // so the summaries are deterministic.
            outcomes.sort_by_key(|o| o.seed);
            let ok: Vec<&RunOutcome> = outcomes.iter().filter(|o| o.success).collect();
            StrategyStats {
                kind,
                success_rate: ok.len() as f64 / outcomes.len().max(1) as f64,
                moves: Summary::of_ints(&ok.iter().map(|o| o.moves).collect::<Vec<_>>()),
                bandwidth: Summary::of_ints(&ok.iter().map(|o| o.bandwidth).collect::<Vec<_>>()),
                pruned_bandwidth: Summary::of_ints(
                    &ok.iter().map(|o| o.pruned).collect::<Vec<_>>(),
                ),
                wall_ms: Summary::of(&ok.iter().map(|o| o.wall_ms).collect::<Vec<_>>()),
            }
        })
        .collect()
}

/// Builds the canonical per-figure results table: one row per
/// (sweep-value, strategy) with the paper's metrics plus the bound
/// columns.
#[must_use]
pub fn figure_table(param: &str) -> crate::table::Table {
    crate::table::Table::new([
        param,
        "strategy",
        "moves",
        "bandwidth",
        "pruned_bw",
        "success",
        "run_ms",
        "moves_lb",
        "bw_lb",
        "steiner_ub",
    ])
}

/// Appends one row per strategy for a single sweep point.
pub fn push_rows(
    table: &mut crate::table::Table,
    param_value: &str,
    stats: &[StrategyStats],
    bounds: &BoundsReport,
) {
    for s in stats {
        table.row([
            param_value.to_string(),
            s.kind.name().to_string(),
            s.moves.to_string(),
            s.bandwidth.to_string(),
            s.pruned_bandwidth.to_string(),
            format!("{:.0}%", s.success_rate * 100.0),
            s.wall_ms.to_string(),
            bounds.makespan_lower.to_string(),
            bounds.bandwidth_lower.to_string(),
            bounds
                .steiner_upper
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
        ]);
    }
}

/// Derives `count` per-run seeds from a master seed (documented so
/// experiments are reproducible from the single `--seed` flag).
#[must_use]
pub fn derive_seeds(master: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| master.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_core::scenario::single_file;
    use ocd_graph::generate::classic;

    #[test]
    fn evaluate_all_strategies_on_small_instance() {
        let instance = single_file(classic::cycle(6, 3, true), 8, 0);
        let kinds = StrategyKind::paper_five();
        let seeds = derive_seeds(7, 3);
        let stats = evaluate(&instance, &kinds, &seeds, &SimConfig::default());
        assert_eq!(stats.len(), 5);
        let bounds = bounds_of(&instance);
        for s in &stats {
            assert_eq!(s.success_rate, 1.0, "{} failed runs", s.kind);
            assert_eq!(s.moves.n, 3);
            assert_eq!(s.wall_ms.n, 3);
            assert!(s.wall_ms.min > 0.0, "{} reported a free run", s.kind);
            assert!(
                s.bandwidth.min >= bounds.bandwidth_lower as f64,
                "{} beat the lower bound",
                s.kind
            );
            assert!(
                s.pruned_bandwidth.mean <= s.bandwidth.mean,
                "{} pruning increased bandwidth",
                s.kind
            );
            assert!(s.moves.min >= bounds.makespan_lower as f64);
        }
        // The Steiner upper bound sandwiches pruned flooding heuristics'
        // bandwidth from... above is not guaranteed per-run, but it must
        // be at least the lower bound.
        assert!(bounds.steiner_upper.unwrap() >= bounds.bandwidth_lower);
    }

    #[test]
    fn record_run_artifact_is_self_certifying() {
        let instance = single_file(classic::cycle(6, 3, true), 8, 0);
        let record = record_run(&instance, StrategyKind::Local, &SimConfig::default(), 7);
        assert_eq!(record.medium, "ideal");
        assert_eq!(record.seed, 7);
        let replay = record.certify().expect("artifact re-validates standalone");
        assert!(replay.is_successful());
        // Round-trip through the wire format stays certifiable.
        let back = ocd_core::RunRecord::from_json(&record.to_json().unwrap()).unwrap();
        back.certify().unwrap();
    }

    #[test]
    fn derive_seeds_is_deterministic_and_distinct() {
        let a = derive_seeds(1, 4);
        let b = derive_seeds(1, 4);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
        assert_ne!(derive_seeds(1, 2), derive_seeds(2, 2));
    }

    #[test]
    fn failed_runs_lower_success_rate() {
        // A step cap of 0 forces failure for strategies that need steps.
        let instance = single_file(classic::path(3, 1, true), 2, 0);
        let config = SimConfig {
            max_steps: 0,
            ..Default::default()
        };
        let stats = evaluate(&instance, &[StrategyKind::Random], &[1, 2], &config);
        assert_eq!(stats[0].success_rate, 0.0);
        assert_eq!(stats[0].moves.n, 0);
    }
}
