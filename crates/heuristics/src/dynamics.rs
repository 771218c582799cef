//! Changing network conditions (paper §6, "open problems").
//!
//! "We can consider that the capacity of each arc, or even the set of
//! arcs themselves changes between turns. By restricting the types of
//! possible changes, this could model cross traffic, dynamic channel
//! conditions, intermittent mobility, or even denial-of-service attacks.
//! … Arrivals and departures … may be viewed as an instance of the
//! 'Changing network conditions' with capacities to and from particular
//! nodes going from zero to non-zero and back."
//!
//! A [`NetworkDynamics`] produces the *effective* per-arc capacities of
//! each timestep (0 = link down). Running a strategy through
//! [`simulate_with`](crate::simulate_with) over the
//! [`Dynamic`](crate::Dynamic) medium
//! wrapping a model records the capacity trace, which lets
//! [`ocd_core::validate::replay_with_capacities`] re-check the schedule
//! independently. Unlike the ideal medium, an idle step is *not* a
//! stall — the network may simply be down — so non-completion is only
//! declared at the step cap. Provided models:
//!
//! - [`CrossTraffic`]: every arc retains a random fraction of its
//!   capacity each step (congestion; never fully down).
//! - [`LinkOutages`]: per-link two-state Markov up/down process, with
//!   anti-parallel arc pairs failing together (a physical link dies in
//!   both directions).
//! - [`Churn`]: per-*vertex* leave/rejoin process — a departed vertex's
//!   incident arcs all drop to 0; it keeps its tokens and resumes on
//!   rejoin (the §6 "arrivals and departures" variant).
//! - [`AdversarialCuts`]: a full-knowledge adversary that each step cuts
//!   the arcs currently most useful to the protocol (the
//!   denial-of-service flavor).

use ocd_core::TokenSet;
use ocd_graph::{DiGraph, EdgeId};
use rand::{Rng, RngCore};

/// A source of per-step effective capacities.
pub trait NetworkDynamics {
    /// Human-readable model name for experiment output.
    fn name(&self) -> &'static str;

    /// Called once at simulation start.
    fn reset(&mut self, graph: &DiGraph);

    /// Writes the effective capacity of every arc for timestep `step`
    /// into `out`, indexed by [`EdgeId::index`]. 0 disables the arc for
    /// this step. Called exactly once per step, in step order, always
    /// with `out.len() == graph.edge_count()` — the engine's
    /// [`Dynamic`](crate::Dynamic) medium owns the buffer and reuses it
    /// across steps, so a model never allocates per step.
    fn capacities_into(
        &mut self,
        graph: &DiGraph,
        step: usize,
        rng: &mut dyn RngCore,
        out: &mut [u32],
    );

    /// Optional hook giving knowledge-equipped models (adversaries) the
    /// current possession state before
    /// [`capacities_into`](Self::capacities_into) is called for the same
    /// step. Default: ignored.
    fn observe(&mut self, possession: &[TokenSet]) {
        let _ = possession;
    }
}

impl std::fmt::Debug for dyn NetworkDynamics + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetworkDynamics({})", self.name())
    }
}

/// No change: the graph's static capacities every step. Useful as the
/// control arm of dynamics experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticNetwork;

impl NetworkDynamics for StaticNetwork {
    fn name(&self) -> &'static str {
        "static"
    }
    fn reset(&mut self, _graph: &DiGraph) {}
    fn capacities_into(
        &mut self,
        graph: &DiGraph,
        _step: usize,
        _rng: &mut dyn RngCore,
        out: &mut [u32],
    ) {
        for e in graph.edge_ids() {
            out[e.index()] = graph.capacity(e);
        }
    }
}

/// Congestion: each step every arc keeps a uniform random fraction of
/// its capacity in `[min_fraction, 1]`, rounded up (so never below 1).
#[derive(Debug, Clone, Copy)]
pub struct CrossTraffic {
    /// Smallest retained fraction of capacity (0.0..=1.0).
    pub min_fraction: f64,
}

impl CrossTraffic {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `min_fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn new(min_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min_fraction),
            "min_fraction {min_fraction} outside [0, 1]"
        );
        CrossTraffic { min_fraction }
    }
}

impl NetworkDynamics for CrossTraffic {
    fn name(&self) -> &'static str {
        "cross-traffic"
    }
    fn reset(&mut self, _graph: &DiGraph) {}
    fn capacities_into(
        &mut self,
        graph: &DiGraph,
        _step: usize,
        rng: &mut dyn RngCore,
        out: &mut [u32],
    ) {
        for e in graph.edge_ids() {
            let fraction = rng.random_range(self.min_fraction..=1.0);
            out[e.index()] = (f64::from(graph.capacity(e)) * fraction).ceil().max(1.0) as u32;
        }
    }
}

/// Two-state Markov link failures: an up link goes down with
/// `down_prob`, a down link recovers with `up_prob`. Anti-parallel arc
/// pairs `(u,v)/(v,u)` share fate (one physical link).
#[derive(Debug, Clone)]
pub struct LinkOutages {
    /// P(up → down) per step.
    pub down_prob: f64,
    /// P(down → up) per step.
    pub up_prob: f64,
    /// Up/down state per *link group* (see `group_of`).
    state: Vec<bool>,
    /// Arc → link-group index.
    group_of: Vec<usize>,
}

impl LinkOutages {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(down_prob: f64, up_prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&down_prob));
        assert!((0.0..=1.0).contains(&up_prob));
        LinkOutages {
            down_prob,
            up_prob,
            state: Vec::new(),
            group_of: Vec::new(),
        }
    }
}

impl NetworkDynamics for LinkOutages {
    fn name(&self) -> &'static str {
        "link-outages"
    }

    fn reset(&mut self, graph: &DiGraph) {
        // Group anti-parallel arcs: group id = the smaller arc id of the
        // pair.
        self.group_of = graph
            .edge_ids()
            .map(|e| {
                let arc = graph.edge(e);
                match graph.find_edge(arc.dst, arc.src) {
                    Some(rev) => e.index().min(rev.index()),
                    None => e.index(),
                }
            })
            .collect();
        self.state = vec![true; graph.edge_count()];
    }

    fn capacities_into(
        &mut self,
        graph: &DiGraph,
        _step: usize,
        rng: &mut dyn RngCore,
        out: &mut [u32],
    ) {
        // Advance each group exactly once (groups are identified by the
        // arcs whose group id equals their own index).
        for e in 0..self.state.len() {
            if self.group_of[e] == e {
                let up = self.state[e];
                let flip = if up {
                    rng.random_bool(self.down_prob)
                } else {
                    rng.random_bool(self.up_prob)
                };
                if flip {
                    self.state[e] = !up;
                }
            }
        }
        for e in graph.edge_ids() {
            out[e.index()] = if self.state[self.group_of[e.index()]] {
                graph.capacity(e)
            } else {
                0
            };
        }
    }
}

/// Vertex churn (§6 "arrivals and departures"): each step a present
/// vertex departs with `leave_prob` and an absent one rejoins with
/// `rejoin_prob`; a departed vertex's incident arcs all read capacity 0.
/// Vertices listed in `pinned` never depart (e.g. the origin server).
#[derive(Debug, Clone)]
pub struct Churn {
    /// P(present → departed) per step.
    pub leave_prob: f64,
    /// P(departed → present) per step.
    pub rejoin_prob: f64,
    /// Vertices that never churn.
    pub pinned: Vec<usize>,
    present: Vec<bool>,
}

impl Churn {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if a probability is outside `[0, 1]`.
    #[must_use]
    pub fn new(leave_prob: f64, rejoin_prob: f64, pinned: Vec<usize>) -> Self {
        assert!((0.0..=1.0).contains(&leave_prob));
        assert!((0.0..=1.0).contains(&rejoin_prob));
        Churn {
            leave_prob,
            rejoin_prob,
            pinned,
            present: Vec::new(),
        }
    }

    /// Which vertices are currently present (after the last step).
    #[must_use]
    pub fn present(&self) -> &[bool] {
        &self.present
    }
}

impl NetworkDynamics for Churn {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn reset(&mut self, graph: &DiGraph) {
        self.present = vec![true; graph.node_count()];
    }

    fn capacities_into(
        &mut self,
        graph: &DiGraph,
        _step: usize,
        rng: &mut dyn RngCore,
        out: &mut [u32],
    ) {
        for v in 0..self.present.len() {
            if self.pinned.contains(&v) {
                continue;
            }
            let flip = if self.present[v] {
                rng.random_bool(self.leave_prob)
            } else {
                rng.random_bool(self.rejoin_prob)
            };
            if flip {
                self.present[v] = !self.present[v];
            }
        }
        for e in graph.edge_ids() {
            let arc = graph.edge(e);
            out[e.index()] = if self.present[arc.src.index()] && self.present[arc.dst.index()] {
                graph.capacity(e)
            } else {
                0
            };
        }
    }
}

/// A denial-of-service adversary with full knowledge: each step it cuts
/// the `budget` arcs whose transfer would be most useful right now
/// (most tokens the source holds that the destination lacks).
///
/// A *persistent* adversary (cooldown 0) whose budget covers the useful
/// in-arcs of the last needy vertex blocks completion outright — a
/// finding this model makes measurable. The `cooldown` knob models
/// jamming detection/rotation: an arc cut at step `i` cannot be cut
/// again before step `i + 1 + cooldown`, so tokens eventually slip
/// through and the attack only slows distribution.
#[derive(Debug, Clone)]
pub struct AdversarialCuts {
    /// Number of arcs cut per step.
    pub budget: usize,
    /// Steps an arc is immune after being cut (0 = persistent).
    pub cooldown: usize,
    possession: Vec<TokenSet>,
    last_cut: Vec<Option<usize>>,
}

impl AdversarialCuts {
    /// Creates a persistent adversary (no cooldown).
    #[must_use]
    pub fn new(budget: usize) -> Self {
        AdversarialCuts {
            budget,
            cooldown: 0,
            possession: Vec::new(),
            last_cut: Vec::new(),
        }
    }

    /// Creates an adversary whose cuts must rotate: an arc cut at step
    /// `i` is immune until step `i + 1 + cooldown`.
    #[must_use]
    pub fn with_cooldown(budget: usize, cooldown: usize) -> Self {
        AdversarialCuts {
            cooldown,
            ..AdversarialCuts::new(budget)
        }
    }

    /// How much the protocol would gain from arc `e` this step: the
    /// number of tokens the source holds that the destination lacks.
    fn utility(&self, graph: &DiGraph, e: EdgeId) -> usize {
        let arc = graph.edge(e);
        if self.possession.is_empty() {
            return 0;
        }
        self.possession[arc.src.index()].difference_len(&self.possession[arc.dst.index()])
    }
}

impl NetworkDynamics for AdversarialCuts {
    fn name(&self) -> &'static str {
        "adversarial-cuts"
    }

    fn reset(&mut self, graph: &DiGraph) {
        self.possession.clear();
        self.last_cut = vec![None; graph.edge_count()];
    }

    fn observe(&mut self, possession: &[TokenSet]) {
        self.possession = possession.to_vec();
    }

    fn capacities_into(
        &mut self,
        graph: &DiGraph,
        step: usize,
        _rng: &mut dyn RngCore,
        out: &mut [u32],
    ) {
        let mut scored: Vec<(usize, EdgeId)> = graph
            .edge_ids()
            .filter(|e| {
                self.cooldown == 0
                    || self.last_cut[e.index()].is_none_or(|last| step > last + self.cooldown)
            })
            .map(|e| (self.utility(graph, e), e))
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        for e in graph.edge_ids() {
            out[e.index()] = graph.capacity(e);
        }
        for &(useful, e) in scored.iter().take(self.budget) {
            if useful > 0 {
                out[e.index()] = 0;
                self.last_cut[e.index()] = Some(step);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_with, Dynamic, SimConfig, SimOutcome, StrategyKind, WorldView};
    use ocd_core::scenario::single_file;
    use ocd_core::{validate, Instance};
    use ocd_graph::generate::classic;
    use rand::prelude::*;

    fn run_dynamic(
        dynamics: &mut dyn NetworkDynamics,
        kind: StrategyKind,
        max_steps: usize,
    ) -> (Instance, SimOutcome) {
        let instance = single_file(classic::cycle(8, 3, true), 8, 0);
        let mut strategy = kind.build();
        let config = SimConfig {
            max_steps,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = simulate_with(
            &instance,
            strategy.as_mut(),
            &mut Dynamic::new(dynamics),
            &config,
            &mut rng,
        );
        (instance, outcome)
    }

    #[test]
    fn static_network_matches_plain_simulation() {
        let instance = single_file(classic::cycle(8, 3, true), 8, 0);
        let run_plain = || {
            let mut strategy = StrategyKind::Local.build();
            let mut rng = StdRng::seed_from_u64(5);
            crate::simulate(
                &instance,
                strategy.as_mut(),
                &SimConfig::default(),
                &mut rng,
            )
        };
        let plain = run_plain();
        let (_, dynamic) = run_dynamic(&mut StaticNetwork, StrategyKind::Local, 10_000);
        assert!(plain.success && dynamic.report.success);
        assert_eq!(plain.schedule, dynamic.report.schedule);
        assert_eq!(dynamic.capacity_trace.len(), dynamic.report.steps);
    }

    #[test]
    fn cross_traffic_slows_but_completes() {
        let mut dynamics = CrossTraffic::new(0.1);
        let (instance, r) = run_dynamic(&mut dynamics, StrategyKind::Random, 10_000);
        assert!(r.report.success, "congestion only slows things down");
        let replay =
            validate::replay_with_capacities(&instance, &r.report.schedule, &r.capacity_trace)
                .expect("dynamic schedule valid under its capacity trace");
        assert!(replay.is_successful());
    }

    #[test]
    fn outages_respect_effective_capacities() {
        let mut dynamics = LinkOutages::new(0.3, 0.5);
        let (instance, r) = run_dynamic(&mut dynamics, StrategyKind::Global, 10_000);
        assert!(r.report.success, "Markov outages recover eventually");
        // No step ever used a down link.
        for (i, step) in r.report.schedule.steps().iter().enumerate() {
            for (edge, tokens) in step.sends() {
                assert!(
                    tokens.len() as u32 <= r.capacity_trace[i][edge.index()],
                    "step {i} used a down/over-capacity link"
                );
            }
        }
        let replay =
            validate::replay_with_capacities(&instance, &r.report.schedule, &r.capacity_trace)
                .unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn outages_fail_pairs_together() {
        let g = classic::cycle(6, 2, true);
        let mut dynamics = LinkOutages::new(0.5, 0.5);
        dynamics.reset(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let mut caps = vec![0u32; g.edge_count()];
        for step in 0..20 {
            dynamics.capacities_into(&g, step, &mut rng, &mut caps);
            for e in g.edge_ids() {
                let arc = g.edge(e);
                let rev = g.find_edge(arc.dst, arc.src).expect("symmetric cycle");
                assert_eq!(
                    caps[e.index()] == 0,
                    caps[rev.index()] == 0,
                    "anti-parallel pair diverged at step {step}"
                );
            }
        }
    }

    #[test]
    fn churn_pins_the_source_and_completes() {
        let mut dynamics = Churn::new(0.15, 0.5, vec![0]);
        let (instance, r) = run_dynamic(&mut dynamics, StrategyKind::Local, 10_000);
        assert!(r.report.success, "pinned source + rejoining peers complete");
        let replay =
            validate::replay_with_capacities(&instance, &r.report.schedule, &r.capacity_trace)
                .unwrap();
        assert!(replay.is_successful());
    }

    #[test]
    fn permanent_partition_fails_at_step_cap() {
        // leave_prob 1, rejoin 0: all unpinned vertices vanish at step 0.
        let mut dynamics = Churn::new(1.0, 0.0, vec![0]);
        let (_, r) = run_dynamic(&mut dynamics, StrategyKind::Random, 50);
        assert!(!r.report.success);
        assert_eq!(
            r.report.steps, 50,
            "ran to the step cap without stalling out"
        );
    }

    #[test]
    fn adversary_slows_distribution() {
        let measure = |budget: usize| {
            let mut dynamics = AdversarialCuts::new(budget);
            let (_, r) = run_dynamic(&mut dynamics, StrategyKind::Global, 10_000);
            assert!(r.report.success, "budget {budget} leaves enough capacity");
            r.report.steps
        };
        let free = measure(0);
        // Budget 1 cannot cover the whole useful frontier of the cycle,
        // so distribution completes — just slower.
        let harassed = measure(1);
        assert!(
            harassed >= free,
            "an adversary cutting useful links cannot speed things up"
        );
    }

    #[test]
    fn adversary_with_frontier_covering_budget_blocks_forever() {
        // On a cycle the source's useful frontier is 2 arcs; a budget of
        // 4 covers every useful arc every step: nothing ever moves.
        let mut dynamics = AdversarialCuts::new(4);
        let (_, r) = run_dynamic(&mut dynamics, StrategyKind::Global, 60);
        assert!(!r.report.success);
        assert_eq!(
            r.report.bandwidth, 0,
            "a frontier-covering adversary stops every transfer"
        );
    }

    #[test]
    fn view_capacity_falls_back_to_graph() {
        let instance = single_file(classic::path(2, 7, false), 1, 0);
        let possession = instance.have_all().to_vec();
        let aggregates =
            ocd_core::knowledge::AggregateKnowledge::compute(1, &possession, instance.want_all());
        let view = WorldView {
            instance: &instance,
            possession: &possession,
            aggregates: &aggregates,
            step: 0,
            capacities: None,
        };
        assert_eq!(view.capacity(ocd_graph::EdgeId::new(0)), 7);
        let caps = vec![3u32];
        let view = WorldView {
            capacities: Some(&caps),
            ..view
        };
        assert_eq!(view.capacity(ocd_graph::EdgeId::new(0)), 3);
    }
}
