//! Property test: the engine's incrementally-maintained aggregate
//! counters must equal [`AggregateKnowledge::compute`] rebuilt from
//! scratch at every step of a run — across random graphs, all five
//! paper strategies, and knowledge delays 0, 1, and 5.
//!
//! The check instruments a run from the inside: a wrapper strategy
//! snapshots the true possession vector each step and compares the
//! aggregates the engine exposes against a from-scratch recomputation
//! on the snapshot from `delay` steps ago (clamped to the start), which
//! is exactly the view [`DelayedAggregates`] pipelines to strategies.

use ocd_core::knowledge::AggregateKnowledge;
use ocd_core::scenario::single_file;
use ocd_core::{Instance, TokenSet};
use ocd_graph::generate::paper_random;
use ocd_graph::EdgeId;
use ocd_heuristics::{simulate, KnowledgeTier, SimConfig, Strategy, StrategyKind, WorldView};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Delegates planning to a real strategy while auditing the aggregates
/// the engine hands out. Failures are recorded, not panicked, so the
/// proptest harness can report the generating inputs.
struct AuditedStrategy {
    inner: Box<dyn Strategy>,
    delay: usize,
    /// `snapshots[i]` = possession at the start of step `i`.
    snapshots: Vec<Vec<TokenSet>>,
    checks: usize,
    mismatch: Option<String>,
}

impl AuditedStrategy {
    fn new(kind: StrategyKind, delay: usize) -> Self {
        AuditedStrategy {
            inner: kind.build(),
            delay,
            snapshots: Vec::new(),
            checks: 0,
            mismatch: None,
        }
    }
}

impl Strategy for AuditedStrategy {
    fn name(&self) -> &'static str {
        "audited"
    }
    fn tier(&self) -> KnowledgeTier {
        self.inner.tier()
    }
    fn reset(&mut self, instance: &Instance) {
        self.snapshots.clear();
        self.checks = 0;
        self.mismatch = None;
        self.inner.reset(instance);
    }
    fn plan_step(
        &mut self,
        view: &WorldView<'_>,
        rng: &mut dyn RngCore,
    ) -> Vec<(EdgeId, TokenSet)> {
        assert_eq!(
            view.step,
            self.snapshots.len(),
            "engine must call plan_step once per step, in order"
        );
        self.snapshots.push(view.possession.to_vec());
        let base = view.step.saturating_sub(self.delay);
        let expected = AggregateKnowledge::compute(
            view.instance.num_tokens(),
            &self.snapshots[base],
            view.instance.want_all(),
        );
        if *view.aggregates != expected {
            self.mismatch.get_or_insert_with(|| {
                format!(
                    "step {} (delay {}): engine aggregates diverge from \
                     compute() on the possession snapshot of step {base}",
                    view.step, self.delay
                )
            });
        }
        self.checks += 1;
        self.inner.plan_step(view, rng)
    }
    fn may_idle(&self, step: usize) -> bool {
        self.inner.may_idle(step)
    }
}

const DELAYS: [usize; 3] = [0, 1, 5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_aggregates_match_recompute_at_every_step(
        seed in 0u64..10_000,
        n in 4usize..14,
        m in 2usize..10,
        kind_idx in 0usize..5,
        delay_idx in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topology = paper_random(n, &mut rng);
        let instance = single_file(topology, m, 0);
        let delay = DELAYS[delay_idx];
        let kind = StrategyKind::paper_five()[kind_idx];
        let config = SimConfig {
            max_steps: 80,
            knowledge_delay: delay,
        };

        let mut audited = AuditedStrategy::new(kind, delay);
        let report = simulate(&instance, &mut audited, &config, &mut rng);

        prop_assert!(
            audited.mismatch.is_none(),
            "{} on seed {}: {}",
            kind.name(),
            seed,
            audited.mismatch.as_deref().unwrap_or_default()
        );
        // The audit must actually have run: one check per simulated step
        // (plan_step may be called one extra time on the aborted stall
        // step, so >= rather than ==).
        prop_assert!(
            audited.checks >= report.steps,
            "{} on seed {}: {} checks for {} steps",
            kind.name(),
            seed,
            audited.checks,
            report.steps
        );
    }
}
