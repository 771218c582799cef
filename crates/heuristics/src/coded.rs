//! Lockstep RLNC engine: the §3.1 store-and-forward model with random
//! linear network coding over GF(2^8) in place of token replication.
//!
//! Structure mirrors the uncoded [`engine`](crate::simulate_with)
//! exactly: a [`CodedMedium`] abstracts per-step capacities and
//! per-packet delivery (the coded counterpart of
//! [`Medium`](crate::Medium), whose admission contract is token-set
//! shaped and therefore cannot carry coefficient-vector packets), and
//! an [`Observer`] collects metrics and lineage — compiled away under
//! the `()` observer.
//!
//! The per-vertex state is a [`CodedBasis`] instead of a
//! [`TokenSet`](ocd_core::TokenSet): senders emit random combinations
//! of whatever they can already reproduce, receivers absorb a packet
//! iff it is innovative, and *duplicate delivery* becomes *redundant
//! delivery* — a packet inside the receiver's span. With the bases
//! tracking true state, same-step races are accounted against the
//! receiver's live basis (the coded analogue of diffing against the
//! arriving set rather than stale start-of-step possession).
//!
//! Coded provenance is slot-indexed: the `r`-th innovative packet a
//! vertex absorbs is recorded as the acquisition of token `r` of the
//! [`RlncInstance::slot_instance`], so the standard critical-path and
//! per-arc bottleneck analysis applies, and
//! [`ProvenanceTrace::contributing_arcs`] reads off the *set* of arcs
//! whose packets entered each decoding basis.
//!
//! [`ProvenanceTrace::contributing_arcs`]: ocd_core::ProvenanceTrace::contributing_arcs

use ocd_core::rlnc::{CodedBasis, RlncInstance};
use ocd_core::{Observer, Token, TokenSet};
use ocd_graph::{DiGraph, EdgeId};
use rand::{Rng, RngCore};

/// The transmission substrate of the coded engine: per-step arc
/// capacities plus a per-packet delivery verdict. The default
/// implementations model an ideal medium (static capacities, lossless).
pub trait CodedMedium {
    /// Medium name for reports.
    fn name(&self) -> &'static str;

    /// Called once per run before the first step.
    fn reset(&mut self, _graph: &DiGraph) {}

    /// Per-arc packet capacities for this step, indexed by edge id.
    fn capacities<'a>(
        &'a mut self,
        _graph: &DiGraph,
        static_caps: &'a [u32],
        _step: usize,
        _rng: &mut dyn RngCore,
    ) -> &'a [u32] {
        static_caps
    }

    /// Whether a packet sent on `edge` survives to delivery.
    fn deliver(&mut self, _edge: EdgeId, _rng: &mut dyn RngCore) -> bool {
        true
    }
}

/// The ideal coded medium: static capacities, every packet arrives.
/// Zero-sized, so monomorphizing over it costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealCoded;

impl CodedMedium for IdealCoded {
    fn name(&self) -> &'static str {
        "ideal"
    }
}

/// A lossy coded medium: each packet independently survives with
/// probability `1 - loss`. One RNG draw per packet, at send time, in
/// send order.
#[derive(Debug, Clone, Copy)]
pub struct LossyCoded {
    loss: f64,
}

impl LossyCoded {
    /// Creates a medium dropping each packet with probability `loss`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ loss < 1`.
    #[must_use]
    pub fn new(loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        LossyCoded { loss }
    }
}

impl CodedMedium for LossyCoded {
    fn name(&self) -> &'static str {
        "lossy"
    }
    fn deliver(&mut self, _edge: EdgeId, rng: &mut dyn RngCore) -> bool {
        !rng.random_bool(self.loss)
    }
}

/// What a coded strategy sees when planning a step: true per-vertex
/// bases (the coded engine is the full-knowledge tier, like the
/// uncoded Random baseline's possession view).
#[derive(Debug)]
pub struct CodedView<'a> {
    /// The overlay graph.
    pub graph: &'a DiGraph,
    /// This step's per-arc packet capacities, indexed by edge id.
    pub capacities: &'a [u32],
    /// Start-of-step decoding state of every vertex.
    pub bases: &'a [CodedBasis],
    /// Which vertices must decode the generation.
    pub receiver: &'a [bool],
    /// Current step number (0-based).
    pub step: usize,
}

/// A coded planning rule: how many fresh random combinations to put on
/// each arc this step. Counts must respect the view's capacities; the
/// engine asserts this and rejects duplicate arcs, mirroring the §3.1
/// checks of the uncoded engine.
pub trait CodedStrategy {
    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Called once per run before the first step.
    fn reset(&mut self, _instance: &RlncInstance) {}

    /// Plans this step's sends as `(arc, packet count)` pairs.
    fn plan_step(&mut self, view: &CodedView<'_>, rng: &mut dyn RngCore) -> Vec<(EdgeId, u32)>;
}

/// Coded Random: sender-driven useful flooding. Each arc carries
/// `min(capacity, ⌈innovative_capacity · redundancy⌉)` fresh
/// combinations whenever the sender's span exceeds the receiver's —
/// the straight RLNC translation of the paper's Random heuristic,
/// where the candidate count `|have(src) ∖ have(dst)|` becomes the
/// rank deficit `rank(dst ∪ src) − rank(dst)`. Draws no RNG during
/// planning (packet coefficients are drawn at send time).
#[derive(Debug, Clone, Copy)]
pub struct CodedRandom {
    redundancy: f64,
}

impl CodedRandom {
    /// Creates the strategy with a proactive-redundancy factor ≥ 1:
    /// how many combinations to send per innovative packet the
    /// receiver could use, to ride through loss without waiting for
    /// feedback.
    ///
    /// # Panics
    ///
    /// Panics if `redundancy < 1`.
    #[must_use]
    pub fn new(redundancy: f64) -> Self {
        assert!(redundancy >= 1.0, "redundancy is a multiplier ≥ 1");
        CodedRandom { redundancy }
    }
}

impl CodedStrategy for CodedRandom {
    fn name(&self) -> &'static str {
        "coded-random"
    }

    fn plan_step(&mut self, view: &CodedView<'_>, _rng: &mut dyn RngCore) -> Vec<(EdgeId, u32)> {
        let mut plan = Vec::new();
        for e in view.graph.edge_ids() {
            let arc = view.graph.edge(e);
            let useful =
                view.bases[arc.dst.index()].innovative_capacity_from(&view.bases[arc.src.index()]);
            if useful == 0 {
                continue;
            }
            let want = (useful as f64 * self.redundancy).ceil() as u32;
            let count = want.min(view.capacities[e.index()]);
            if count > 0 {
                plan.push((e, count));
            }
        }
        plan
    }
}

/// Coded Local: receiver-driven subdivision. Each vertex with a rank
/// deficit spreads `⌈deficit · redundancy⌉` packet requests across its
/// useful in-arcs, always assigning the next request to the least-
/// loaded eligible arc (ties by arc order) — the coded counterpart of
/// the Local heuristic's request subdivision, which avoids the
/// all-peers-flood-everyone redundancy of [`CodedRandom`]. Fully
/// deterministic at planning time.
#[derive(Debug, Clone, Copy)]
pub struct CodedLocal {
    redundancy: f64,
}

impl CodedLocal {
    /// Creates the strategy with a proactive-redundancy factor ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if `redundancy < 1`.
    #[must_use]
    pub fn new(redundancy: f64) -> Self {
        assert!(redundancy >= 1.0, "redundancy is a multiplier ≥ 1");
        CodedLocal { redundancy }
    }
}

impl CodedStrategy for CodedLocal {
    fn name(&self) -> &'static str {
        "coded-local"
    }

    fn plan_step(&mut self, view: &CodedView<'_>, _rng: &mut dyn RngCore) -> Vec<(EdgeId, u32)> {
        let mut counts = vec![0u32; view.graph.edge_count()];
        for v in view.graph.nodes() {
            let deficit = view.bases[v.index()].deficit();
            if deficit == 0 {
                continue;
            }
            // Eligible in-arcs and their per-arc budgets: capacity,
            // clamped to the redundancy-scaled useful supply.
            let arcs: Vec<(EdgeId, u32)> = view
                .graph
                .in_edges(v)
                .filter_map(|e| {
                    let src = view.graph.edge(e).src;
                    let useful =
                        view.bases[v.index()].innovative_capacity_from(&view.bases[src.index()]);
                    if useful == 0 {
                        return None;
                    }
                    let budget = ((useful as f64 * self.redundancy).ceil() as u32)
                        .min(view.capacities[e.index()]);
                    (budget > 0).then_some((e, budget))
                })
                .collect();
            let want = (deficit as f64 * self.redundancy).ceil() as usize;
            let mut load = vec![0u32; arcs.len()];
            for _ in 0..want {
                // Least-loaded eligible arc, ties by position (in-edge
                // iteration order is deterministic).
                let Some(slot) = (0..arcs.len())
                    .filter(|&i| load[i] < arcs[i].1)
                    .min_by_key(|&i| (load[i], i))
                else {
                    break;
                };
                load[slot] += 1;
            }
            for (&(e, _), &l) in arcs.iter().zip(&load) {
                counts[e.index()] += l;
            }
        }
        view.graph
            .edge_ids()
            .filter_map(|e| {
                let c = counts[e.index()].min(view.capacities[e.index()]);
                (c > 0).then_some((e, c))
            })
            .collect()
    }
}

/// Configuration of a coded run.
#[derive(Debug, Clone, Copy)]
pub struct CodedSimConfig {
    /// Hard step cap.
    pub max_steps: usize,
}

impl Default for CodedSimConfig {
    fn default() -> Self {
        CodedSimConfig { max_steps: 10_000 }
    }
}

/// Outcome counters of a coded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedSimReport {
    /// Whether every receiver reached full rank within the step cap.
    pub success: bool,
    /// Timesteps used.
    pub steps: usize,
    /// Packets put on arcs (including lost ones).
    pub packets_sent: u64,
    /// Packets that increased their receiver's rank.
    pub innovative_deliveries: u64,
    /// Packets that arrived inside the receiver's span — the coded
    /// analogue of duplicate deliveries (same-step races included,
    /// accounted against the live basis).
    pub redundant_deliveries: u64,
    /// Packets dropped by the medium.
    pub packets_lost: u64,
    /// Wire bytes sent: packets × (payload + coefficient header).
    pub bytes_sent: u64,
    /// Per-vertex step (1-based) at which the vertex reached full
    /// rank; `Some(0)` for the source, `None` if it never completed.
    pub completion_steps: Vec<Option<usize>>,
    /// Whether every completed receiver decoded the exact generation
    /// payloads (end-to-end correctness of the field arithmetic).
    pub decode_ok: bool,
}

/// A coded run's outcome.
#[derive(Debug, Clone)]
pub struct CodedOutcome {
    /// Outcome counters.
    pub report: CodedSimReport,
}

/// Runs a coded strategy on the ideal medium, unobserved.
pub fn simulate_coded(
    instance: &RlncInstance,
    strategy: &mut dyn CodedStrategy,
    config: &CodedSimConfig,
    rng: &mut dyn RngCore,
) -> CodedOutcome {
    simulate_coded_with(instance, strategy, &mut IdealCoded, config, rng, &mut ())
}

/// Runs a coded strategy over an explicit [`CodedMedium`], reporting to
/// `obs` — the same zero-cost pattern as the uncoded
/// [`simulate_with_observed`](crate::simulate_with_observed).
///
/// What `obs` sees: the `coded.*` packet counters (sent, innovative,
/// redundant, lost, bytes) as metrics, and slot-indexed provenance —
/// size the trace as
/// `ProvenanceTrace::new(instance.graph().node_count(), instance.generation())`.
/// Both are deterministic, and observing never touches the RNG stream.
///
/// # Panics
///
/// Panics if the strategy violates capacity, sends on a non-existent
/// arc, duplicates an arc within a step, or plans from an empty basis.
pub fn simulate_coded_with<M: CodedMedium, O: Observer>(
    instance: &RlncInstance,
    strategy: &mut dyn CodedStrategy,
    medium: &mut M,
    config: &CodedSimConfig,
    rng: &mut dyn RngCore,
    obs: &mut O,
) -> CodedOutcome {
    let g = instance.graph();
    let k = instance.generation();
    medium.reset(g);
    strategy.reset(instance);
    let m_sent = obs.counter("coded.packets_sent");
    let m_innovative = obs.counter("coded.innovative_deliveries");
    let m_redundant = obs.counter("coded.redundant_deliveries");
    let m_lost = obs.counter("coded.packets_lost");
    let m_bytes = obs.counter("coded.bytes_sent");
    let static_caps: Vec<u32> = g.edge_ids().map(|e| g.capacity(e)).collect();
    let receiver: Vec<bool> = g.nodes().map(|v| instance.is_receiver(v)).collect();
    let mut bases = instance.initial_bases();
    let mut completion: Vec<Option<usize>> =
        bases.iter().map(|b| b.is_complete().then_some(0)).collect();
    let mut report = CodedSimReport {
        success: false,
        steps: 0,
        packets_sent: 0,
        innovative_deliveries: 0,
        redundant_deliveries: 0,
        packets_lost: 0,
        bytes_sent: 0,
        completion_steps: Vec::new(),
        decode_ok: false,
    };
    // Duplicate-arc stamps, mirroring the uncoded engine's §3.1 check.
    let mut stamp = vec![usize::MAX; g.edge_count()];
    let all_done = |bases: &[CodedBasis]| {
        g.nodes()
            .all(|v| !receiver[v.index()] || bases[v.index()].is_complete())
    };
    for step in 0..config.max_steps {
        if all_done(&bases) {
            break;
        }
        let caps = medium.capacities(g, &static_caps, step, rng).to_vec();
        assert_eq!(caps.len(), g.edge_count(), "malformed capacity vector");
        let plan = strategy.plan_step(
            &CodedView {
                graph: g,
                capacities: &caps,
                bases: &bases,
                receiver: &receiver,
                step,
            },
            rng,
        );
        if plan.is_empty() {
            // No sender can help anyone: the run is at its fixpoint.
            break;
        }
        // Store-and-forward: packets mix start-of-step state even when
        // the sender gains rank from a parallel delivery this step.
        let snapshot = bases.clone();
        for &(e, count) in &plan {
            assert!(e.index() < g.edge_count(), "send on non-existent arc");
            assert!(stamp[e.index()] != step, "duplicate arc in step plan");
            stamp[e.index()] = step;
            assert!(count >= 1, "empty send on arc");
            assert!(count <= caps[e.index()], "capacity violated on arc");
            let arc = g.edge(e);
            for _ in 0..count {
                let packet = snapshot[arc.src.index()].random_packet(rng);
                report.packets_sent += 1;
                report.bytes_sent += packet.wire_bytes();
                obs.add(m_sent, 1);
                obs.add(m_bytes, packet.wire_bytes());
                if !medium.deliver(e, rng) {
                    report.packets_lost += 1;
                    obs.add(m_lost, 1);
                    continue;
                }
                // Innovation is judged against the receiver's *live*
                // basis, so a same-step race between two in-arcs books
                // the loser as redundant — never as progress.
                let dst = arc.dst.index();
                let slot = bases[dst].rank();
                if bases[dst].absorb(packet) {
                    report.innovative_deliveries += 1;
                    obs.add(m_innovative, 1);
                    if let Some(trace) = obs.provenance() {
                        let delta = TokenSet::from_tokens(k, [Token::new(slot)]);
                        trace.record_delivery(step as u64, e, arc.src, arc.dst, &delta);
                    }
                    if bases[dst].is_complete() && completion[dst].is_none() {
                        completion[dst] = Some(step + 1);
                    }
                } else {
                    report.redundant_deliveries += 1;
                    obs.add(m_redundant, 1);
                }
            }
        }
        report.steps = step + 1;
    }
    report.success = all_done(&bases);
    report.decode_ok = report.success
        && g.nodes()
            .all(|v| !receiver[v.index()] || instance.decodes_correctly(&bases[v.index()]));
    report.completion_steps = completion;
    CodedOutcome { report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, SimConfig, StrategyKind};
    use ocd_core::scenario::single_file;
    use ocd_core::{MetricsRegistry, ProvenanceTrace};
    use ocd_graph::generate::{classic, paper_random};
    use rand::prelude::*;

    #[test]
    fn coded_random_completes_and_decodes_on_a_ring() {
        let inst = RlncInstance::single_source(classic::cycle(6, 2, true), 8, 16, 0);
        let mut rng = StdRng::seed_from_u64(5);
        let out = simulate_coded(
            &inst,
            &mut CodedRandom::new(1.0),
            &CodedSimConfig::default(),
            &mut rng,
        );
        assert!(out.report.success);
        assert!(out.report.decode_ok, "payload arithmetic must round-trip");
        assert!(
            out.report.innovative_deliveries >= 8 * 5,
            "each of 5 receivers needs k"
        );
        assert_eq!(
            out.report.bytes_sent,
            out.report.packets_sent * inst.packet_bytes()
        );
    }

    #[test]
    fn coded_local_sends_fewer_redundant_packets_than_flooding() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = paper_random(16, &mut rng);
        let inst = RlncInstance::single_source(g, 12, 8, 0);
        let run = |strategy: &mut dyn CodedStrategy, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            simulate_coded(&inst, strategy, &CodedSimConfig::default(), &mut rng).report
        };
        let flood: u64 = (0..4)
            .map(|s| run(&mut CodedRandom::new(1.0), s).redundant_deliveries)
            .sum();
        let local: u64 = (0..4)
            .map(|s| run(&mut CodedLocal::new(1.0), s).redundant_deliveries)
            .sum();
        for s in 0..4 {
            assert!(run(&mut CodedLocal::new(1.0), s).success);
        }
        assert!(
            local <= flood,
            "subdivision must not be more redundant than flooding: {local} > {flood}"
        );
    }

    #[test]
    fn rlnc_never_loses_to_uncoded_random_at_loss_zero() {
        // The satellite differential: at loss 0 / redundancy 1, RLNC's
        // completion step is pinned against the uncoded Random
        // schedule on the same topology — the threshold end-game can
        // only help, never hurt.
        for seed in 0..5u64 {
            let mut topo_rng = StdRng::seed_from_u64(seed);
            let g = paper_random(20, &mut topo_rng);
            let k = 12;
            let uncoded_inst = single_file(g.clone(), k, 0);
            let mut strategy = StrategyKind::Random.build();
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let uncoded = simulate(
                &uncoded_inst,
                strategy.as_mut(),
                &SimConfig::default(),
                &mut rng,
            );
            assert!(uncoded.success);

            let coded_inst = RlncInstance::single_source(g, k, 32, 0);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let coded = simulate_coded(
                &coded_inst,
                &mut CodedRandom::new(1.0),
                &CodedSimConfig::default(),
                &mut rng,
            );
            assert!(coded.report.success && coded.report.decode_ok);
            assert!(
                coded.report.steps <= uncoded.steps,
                "seed {seed}: coded {} > uncoded {}",
                coded.report.steps,
                uncoded.steps
            );
        }
    }

    #[test]
    fn two_node_pipe_is_capacity_bound() {
        // One arc of capacity 2 moving a generation of 6: exactly 3
        // steps, every packet innovative (pinned by seed).
        let mut g = ocd_graph::DiGraph::with_nodes(2);
        g.add_edge(g.node(0), g.node(1), 2).unwrap();
        let inst = RlncInstance::single_source(g, 6, 4, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let out = simulate_coded(
            &inst,
            &mut CodedRandom::new(1.0),
            &CodedSimConfig::default(),
            &mut rng,
        );
        assert!(out.report.success && out.report.decode_ok);
        assert_eq!(out.report.steps, 3);
        assert_eq!(out.report.packets_sent, 6);
        assert_eq!(out.report.redundant_deliveries, 0);
        assert_eq!(
            out.report.completion_steps[0],
            Some(0),
            "source starts complete"
        );
        assert_eq!(out.report.completion_steps[1], Some(3));
    }

    #[test]
    fn lossy_medium_is_survived_by_redundancy() {
        let inst = RlncInstance::single_source(classic::cycle(5, 2, true), 6, 8, 0);
        let mut rng = StdRng::seed_from_u64(9);
        let out = simulate_coded_with(
            &inst,
            &mut CodedRandom::new(1.5),
            &mut LossyCoded::new(0.3),
            &CodedSimConfig::default(),
            &mut rng,
            &mut (),
        );
        assert!(out.report.success && out.report.decode_ok);
        assert!(out.report.packets_lost > 0, "losses actually happened");
    }

    #[test]
    fn coded_provenance_reports_lineage_sets_and_bottlenecks() {
        let inst = RlncInstance::single_source(classic::cycle(6, 2, true), 5, 8, 0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut sinks = (
            MetricsRegistry::new(),
            ProvenanceTrace::new(inst.graph().node_count(), inst.generation()),
        );
        let out = simulate_coded_with(
            &inst,
            &mut CodedRandom::new(1.0),
            &mut IdealCoded,
            &CodedSimConfig::default(),
            &mut rng,
            &mut sinks,
        );
        assert!(out.report.success);
        let (registry, trace) = sinks;
        // Every innovative delivery filled exactly one fresh slot.
        assert_eq!(trace.len() as u64, out.report.innovative_deliveries);
        let slots = inst.slot_instance();
        let analysis = trace.analyze(&slots);
        assert!(analysis.critical_path.is_some(), "someone finished last");
        let carried: u64 = analysis.arcs.iter().map(|a| a.first_deliveries).sum();
        assert_eq!(carried, out.report.innovative_deliveries);
        // Each receiver's decoded generation has a non-empty arc-set
        // lineage bounded by its in-degree.
        for v in inst.graph().nodes().filter(|&v| inst.is_receiver(v)) {
            let lineage = trace.contributing_arcs(v);
            assert!(!lineage.is_empty());
            assert!(lineage.len() <= inst.graph().in_degree(v));
            assert!(lineage.iter().all(|&e| inst.graph().edge(e).dst == v));
        }
        // Metrics agree with the report.
        let metrics = registry.snapshot();
        assert_eq!(
            metrics.counter("coded.innovative_deliveries"),
            Some(out.report.innovative_deliveries)
        );
        assert_eq!(
            metrics.counter("coded.packets_sent"),
            Some(out.report.packets_sent)
        );
    }

    #[test]
    fn unreachable_receiver_halts_at_fixpoint() {
        let mut g = ocd_graph::DiGraph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 1).unwrap();
        // Node 2 has no in-arcs: the plan dries up once node 1 is full.
        let inst = RlncInstance::single_source(g, 4, 4, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let out = simulate_coded(
            &inst,
            &mut CodedRandom::new(1.0),
            &CodedSimConfig::default(),
            &mut rng,
        );
        assert!(!out.report.success);
        assert!(out.report.steps <= 8, "fixpoint exit, not max_steps");
        assert_eq!(out.report.completion_steps[2], None);
    }
}
