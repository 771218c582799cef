//! Branch and bound for mixed-integer programs, warm-started and
//! batch-parallel.
//!
//! Nodes carry tightened variable bounds plus the parent's simplex
//! [`Basis`]; each node re-solves its LP relaxation with the sparse
//! revised simplex *warm-started from that basis* (a child differs from
//! its parent by a single bound flip, so the re-solve typically takes a
//! handful of pivots). Until the first incumbent exists nodes are
//! explored deepest-first (a dive: best-first keeps grazing the shallow
//! frontier of tight feasibility instances and can postpone the first
//! integral leaf almost indefinitely, while a plunge reaches one in
//! roughly `depth / BATCH_WIDTH` rounds); from the first incumbent on,
//! exploration is best-first by LP bound. Each node either prunes
//! (infeasible or dominated by the incumbent), accepts (integral), or
//! branches on the most fractional integer variable.
//!
//! # Deterministic parallelism
//!
//! Node evaluation is parallelized in **rounds**: each round pops up to
//! [`BATCH_WIDTH`] nodes in the strict `(bound, node id)` heap order,
//! solves their LPs concurrently under [`std::thread::scope`], then
//! applies the results *sequentially in that same order*. The round
//! width is a constant — deliberately **not** the thread count — so the
//! exploration schedule, the node ids, the incumbent updates, and every
//! reported number are a pure function of the problem. Threads only
//! change how fast a round's LPs are solved, never which nodes exist:
//! the [`MipSolution::incumbent_trace`] is byte-identical at
//! `threads = 1` and `threads = N` (CI pins this by byte-comparing
//! solver artifacts).

use crate::model::{LpError, Problem, Sense, VarId, VarKind};
use crate::sparse::{solve_standard, Basis, LpStats, StandardForm};
use ocd_core::Observer;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Nodes evaluated per parallel round. A constant (instead of the
/// thread count) so the search trajectory is identical for every
/// `threads` setting; see the module docs.
const BATCH_WIDTH: usize = 8;

/// Tuning knobs for [`Problem::solve_mip`].
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Abort with [`LpError::NodeLimit`] after this many branch-and-bound
    /// nodes.
    pub node_limit: usize,
    /// A solution within this of the best bound counts as optimal.
    pub absolute_gap: f64,
    /// Values within this of an integer count as integral.
    pub integrality_tol: f64,
    /// Worker threads for the per-round LP solves (clamped to ≥ 1).
    /// Any value produces bit-identical results; > 1 is only faster.
    pub threads: usize,
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions {
            node_limit: 200_000,
            absolute_gap: 1e-6,
            integrality_tol: 1e-6,
            threads: 1,
        }
    }
}

/// An optimal (within tolerances) solution to a mixed-integer program.
#[derive(Debug, Clone)]
pub struct MipSolution {
    /// Objective value in the problem's own sense.
    pub objective: f64,
    /// Value per variable; integer variables are exactly rounded.
    pub values: Vec<f64>,
    /// Branch-and-bound nodes explored.
    pub nodes_explored: usize,
    /// Total simplex pivots across every node's LP solve.
    pub lp_iterations: u64,
    /// Every incumbent improvement as `(node id, objective)`, in the
    /// order found. Deterministic across thread counts — the raw
    /// material for CI's determinism byte-compare.
    pub incumbent_trace: Vec<(u64, f64)>,
}

impl MipSolution {
    /// Value of `var` in this solution.
    #[must_use]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of `var` rounded to the nearest integer (convenient for
    /// binary indicator variables).
    #[must_use]
    pub fn value_int(&self, var: VarId) -> i64 {
        self.values[var.index()].round() as i64
    }
}

struct Node {
    /// Creation order; unique. The heap tie-break, and what makes the
    /// exploration order a total order.
    id: u64,
    /// LP bound of the parent (optimistic estimate for this node),
    /// sign-normalized to minimization.
    bound: f64,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Parent's optimal basis: the warm start for this node's re-solve.
    /// Shared between siblings, absent only at the root.
    basis: Option<Arc<Basis>>,
    depth: usize,
}

/// Max-heap ordered so the node with the *smallest* `(bound, id)` pops
/// first: best-first on the LP bound, strictly deterministic on ties.
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum; reverse both keys. NaNs cannot
        // occur (bounds come from finite LP optima).
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(other.id.cmp(&self.id))
    }
}

/// Heap wrapper for the pre-incumbent dive phase: the *deepest* node
/// pops first (ties: smaller bound, then smaller id). Deterministic for
/// the same reason the best-first order is — both keys are pure
/// functions of the search trajectory.
struct Dive(Node);

impl PartialEq for Dive {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl Eq for Dive {}
impl PartialOrd for Dive {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Dive {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .depth
            .cmp(&other.0.depth)
            .then(
                other
                    .0
                    .bound
                    .partial_cmp(&self.0.bound)
                    .unwrap_or(Ordering::Equal),
            )
            .then(other.0.id.cmp(&self.0.id))
    }
}

type NodeLp = Result<(Vec<f64>, Basis, LpStats), LpError>;

/// Sign-normalized objective value as non-negative milli-units, the
/// fixed-point encoding span counters use for `f64` bounds (negative
/// bounds clamp to 0; OCD objectives are counts, hence non-negative).
fn bound_millis(x: f64) -> u64 {
    (x.max(0.0) * 1000.0).round() as u64
}

/// Branch-and-bound over the LP relaxation, reporting the search
/// telemetry to `obs`. Each parallel round opens a `bnb.round` span (counter:
/// `width`); every node evaluated inside it closes a zero-width span
/// named for its fate — `bnb.node.branched`, `bnb.node.pruned`,
/// `bnb.node.incumbent`, or `bnb.node.infeasible` — carrying `id`,
/// `depth`, `lp_iterations`, and `bound_millis` counters. Incumbent
/// improvements additionally fire a `bnb.incumbent` event stream. Spans
/// are recorded in the deterministic sequential-apply order, so the
/// stream is byte-identical across thread counts and equal seeds.
pub(crate) fn solve_mip_observed<O: Observer>(
    problem: &Problem,
    options: &MipOptions,
    obs: &mut O,
) -> Result<MipSolution, LpError> {
    // Normalize to minimization internally: for maximization we compare
    // on `sign * objective`.
    let sign = match problem.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let integer_vars: Vec<usize> = problem
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| v.kind == VarKind::Integer)
        .map(|(j, _)| j)
        .collect();

    // One standard-form image shared (read-only) by every node solve on
    // every thread.
    let sf = StandardForm::new(problem);
    let threads = options.threads.max(1);

    let root_lower: Vec<f64> = problem.vars.iter().map(|v| v.lower).collect();
    let root_upper: Vec<f64> = problem.vars.iter().map(|v| v.upper).collect();

    // Two phase-specific heaps over the same live node set: `dive_heap`
    // (deepest-first) feeds the search until the first incumbent,
    // `bound_heap` (best-first) takes over for the optimality proof.
    let mut dive_heap: BinaryHeap<Dive> = BinaryHeap::new();
    let mut bound_heap: BinaryHeap<Node> = BinaryHeap::new();
    dive_heap.push(Dive(Node {
        id: 0,
        bound: f64::NEG_INFINITY,
        lower: root_lower,
        upper: root_upper,
        basis: None,
        depth: 0,
    }));
    let mut next_id = 1u64;

    let mut incumbent: Option<Vec<f64>> = None;
    let mut incumbent_cost = f64::INFINITY; // sign-normalized
    let mut incumbent_trace: Vec<(u64, f64)> = Vec::new();
    let mut nodes_explored = 0usize;
    let mut lp_iterations = 0u64;

    loop {
        // ---- Form the round: the BATCH_WIDTH best live nodes. --------
        if incumbent.is_some() && !dive_heap.is_empty() {
            // Phase switch: the dive found an incumbent; re-key the
            // survivors for best-first exploration.
            for Dive(node) in dive_heap.drain() {
                bound_heap.push(node);
            }
        }
        let diving = incumbent.is_none();
        let mut round: Vec<Node> = Vec::new();
        while round.len() < BATCH_WIDTH {
            if diving {
                match dive_heap.pop() {
                    Some(Dive(node)) => round.push(node),
                    None => break,
                }
                continue;
            }
            match bound_heap.peek() {
                Some(top) if top.bound <= incumbent_cost - options.absolute_gap => {
                    round.push(bound_heap.pop().expect("peeked"));
                }
                // The best remaining bound cannot improve the incumbent,
                // so nothing in the heap can: proven optimal.
                Some(_) => {
                    bound_heap.clear();
                    break;
                }
                None => break,
            }
        }
        if round.is_empty() {
            break;
        }
        let round_span = obs.open("bnb.round");
        obs.attach(round_span, "width", round.len() as u64);
        nodes_explored += round.len();
        if nodes_explored > options.node_limit {
            obs.close(round_span);
            return Err(LpError::NodeLimit);
        }

        // ---- Solve the round's LPs (possibly in parallel). -----------
        let mut results: Vec<Option<NodeLp>> = Vec::new();
        results.resize_with(round.len(), || None);
        let workers = threads.min(round.len());
        if workers <= 1 {
            for (node, slot) in round.iter().zip(results.iter_mut()) {
                *slot = Some(solve_standard(
                    &sf,
                    &node.lower,
                    &node.upper,
                    node.basis.as_deref(),
                ));
            }
        } else {
            let chunk = round.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for (nodes, slots) in round.chunks(chunk).zip(results.chunks_mut(chunk)) {
                    let sf = &sf;
                    scope.spawn(move || {
                        for (node, slot) in nodes.iter().zip(slots.iter_mut()) {
                            *slot = Some(solve_standard(
                                sf,
                                &node.lower,
                                &node.upper,
                                node.basis.as_deref(),
                            ));
                        }
                    });
                }
            });
        }

        // ---- Apply results sequentially, in round (= heap) order. ----
        for (node, result) in round.into_iter().zip(results) {
            let result = result.expect("every slot filled");
            let (values, basis, stats) = match result {
                Ok(r) => r,
                Err(LpError::Infeasible) => {
                    let s = obs.open("bnb.node.infeasible");
                    obs.attach(s, "id", node.id);
                    obs.attach(s, "depth", node.depth as u64);
                    obs.close(s);
                    continue;
                }
                Err(e) => {
                    obs.close(round_span);
                    return Err(e);
                }
            };
            lp_iterations += stats.iterations;
            let objective: f64 = problem
                .vars
                .iter()
                .zip(&values)
                .map(|(v, x)| v.objective * x)
                .sum();
            let cost = sign * objective;
            let node_span = |obs: &mut O, name: &'static str| {
                let s = obs.open(name);
                obs.attach(s, "id", node.id);
                obs.attach(s, "depth", node.depth as u64);
                obs.attach(s, "lp_iterations", stats.iterations);
                obs.attach(s, "bound_millis", bound_millis(cost));
                obs.close(s);
            };
            if cost > incumbent_cost - options.absolute_gap {
                node_span(obs, "bnb.node.pruned");
                continue; // dominated
            }
            // Find the most fractional integer variable.
            let mut branch_var = None;
            let mut best_frac = options.integrality_tol;
            for &j in &integer_vars {
                let v = values[j];
                let frac = (v - v.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch_var = Some(j);
                }
            }
            match branch_var {
                None => {
                    // Integral: new incumbent.
                    incumbent_cost = cost;
                    incumbent_trace.push((node.id, objective));
                    incumbent = Some(values);
                    node_span(obs, "bnb.node.incumbent");
                    obs.event("bnb.incumbent", bound_millis(objective));
                }
                Some(j) => {
                    let floor = values[j].floor();
                    let warm = Arc::new(basis);
                    let mut down = Node {
                        id: next_id,
                        bound: cost,
                        lower: node.lower.clone(),
                        upper: node.upper.clone(),
                        basis: Some(Arc::clone(&warm)),
                        depth: node.depth + 1,
                    };
                    down.upper[j] = floor;
                    let mut up = Node {
                        id: next_id + 1,
                        bound: cost,
                        lower: node.lower,
                        upper: node.upper,
                        basis: Some(warm),
                        depth: node.depth + 1,
                    };
                    up.lower[j] = floor + 1.0;
                    next_id += 2;
                    if incumbent.is_none() {
                        dive_heap.push(Dive(down));
                        dive_heap.push(Dive(up));
                    } else {
                        bound_heap.push(down);
                        bound_heap.push(up);
                    }
                    node_span(obs, "bnb.node.branched");
                }
            }
        }
        obs.close(round_span);
    }

    match incumbent {
        Some(mut values) => {
            for &j in &integer_vars {
                values[j] = values[j].round();
            }
            // Recompute the objective from the rounded values.
            let objective = problem
                .vars
                .iter()
                .zip(&values)
                .map(|(v, x)| v.objective * x)
                .sum();
            Ok(MipSolution {
                objective,
                values,
                nodes_explored,
                lp_iterations,
                incumbent_trace,
            })
        }
        None => Err(LpError::Infeasible),
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::{Problem, Relation, Sense};

    #[test]
    fn pure_lp_passes_through() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, 3.5, 1.0);
        let s = p.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.value(x) - 3.5).abs() < 1e-6);
    }

    #[test]
    fn knapsack_optimum() {
        // max 10a + 13b + 7c, 3a + 4b + 2c ≤ 6 → {a, c} = 17 vs {b, c} = 20.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a", 10.0);
        let b = p.add_binary("b", 13.0);
        let c = p.add_binary("c", 7.0);
        p.add_constraint([(a, 3.0), (b, 4.0), (c, 2.0)], Relation::Le, 6.0);
        let s = p.solve_mip(&MipOptions::default()).unwrap();
        assert_eq!(s.objective.round() as i64, 20);
        assert_eq!(s.value_int(b), 1);
        assert_eq!(s.value_int(c), 1);
        assert_eq!(s.value_int(a), 0);
        assert!(s.lp_iterations > 0);
        assert!(!s.incumbent_trace.is_empty());
    }

    #[test]
    fn integrality_changes_the_answer() {
        // max x, 2x ≤ 5 → LP: 2.5, IP: 2.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarKind::Integer, 0.0, 10.0, 1.0);
        p.add_constraint([(x, 2.0)], Relation::Le, 5.0);
        assert!((p.solve_lp().unwrap().objective - 2.5).abs() < 1e-6);
        let s = p.solve_mip(&MipOptions::default()).unwrap();
        assert_eq!(s.objective.round() as i64, 2);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 ≤ x ≤ 0.6 with x integer: LP feasible, IP infeasible.
        let mut p = Problem::new(Sense::Minimize);
        let _x = p.add_var("x", VarKind::Integer, 0.4, 0.6, 1.0);
        assert!(p.solve_lp().is_ok());
        assert_eq!(
            p.solve_mip(&MipOptions::default()).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn set_cover_exact() {
        // Universe {1..4}; sets A={1,2}, B={2,3}, C={3,4}, D={1,4},
        // E={1,2,3} with unit costs. Optimal cover size 2 (E+C or A+C or D+B...).
        let mut p = Problem::new(Sense::Minimize);
        let sets = [
            vec![0usize, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![0, 1, 2],
        ];
        let vars: Vec<_> = (0..sets.len())
            .map(|i| p.add_binary(format!("s{i}"), 1.0))
            .collect();
        for elem in 0..4 {
            let covering: Vec<_> = sets
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contains(&elem))
                .map(|(i, _)| (vars[i], 1.0))
                .collect();
            p.add_constraint(covering, Relation::Ge, 1.0);
        }
        let s = p.solve_mip(&MipOptions::default()).unwrap();
        assert_eq!(s.objective.round() as i64, 2);
    }

    #[test]
    fn assignment_problem_is_naturally_integral() {
        // 3×3 assignment: costs such that the diagonal is optimal.
        let costs = [[1.0, 5.0, 9.0], [5.0, 2.0, 7.0], [9.0, 7.0, 3.0]];
        let mut p = Problem::new(Sense::Minimize);
        let mut x = Vec::new();
        for (i, row) in costs.iter().enumerate() {
            let mut r = Vec::new();
            for (j, &c) in row.iter().enumerate() {
                r.push(p.add_binary(format!("x{i}{j}"), c));
            }
            x.push(r);
        }
        for i in 0..3 {
            p.add_constraint((0..3).map(|j| (x[i][j], 1.0)), Relation::Eq, 1.0);
            p.add_constraint((0..3).map(|j| (x[j][i], 1.0)), Relation::Eq, 1.0);
        }
        let s = p.solve_mip(&MipOptions::default()).unwrap();
        assert_eq!(s.objective.round() as i64, 6);
        for i in 0..3 {
            assert_eq!(s.value_int(x[i][i]), 1);
        }
    }

    #[test]
    fn node_limit_respected() {
        // A small hard-ish instance with a tiny node budget.
        let mut p = Problem::new(Sense::Maximize);
        let weights = [91.0, 72.0, 90.0, 46.0, 55.0, 8.0, 35.0, 75.0, 61.0, 15.0];
        let vars: Vec<_> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| p.add_binary(format!("x{i}"), w + 0.5))
            .collect();
        p.add_constraint(
            vars.iter().copied().zip(weights.iter().copied()),
            Relation::Le,
            271.0,
        );
        let tight = MipOptions {
            node_limit: 1,
            ..Default::default()
        };
        assert_eq!(p.solve_mip(&tight).unwrap_err(), LpError::NodeLimit);
        assert!(p.solve_mip(&MipOptions::default()).is_ok());
    }

    #[test]
    fn general_integers_beyond_binary() {
        // max 7x + 2y, 3x + y ≤ 10, x,y ∈ ℤ, 0 ≤ x,y ≤ 10.
        // LP: x = 10/3 → IP: x=3,y=1 → 23; or x=2,y=4 → 22. Optimal 23.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", VarKind::Integer, 0.0, 10.0, 7.0);
        let y = p.add_var("y", VarKind::Integer, 0.0, 10.0, 2.0);
        p.add_constraint([(x, 3.0), (y, 1.0)], Relation::Le, 10.0);
        let s = p.solve_mip(&MipOptions::default()).unwrap();
        assert_eq!(s.objective.round() as i64, 23);
        assert_eq!(s.value_int(x), 3);
        assert_eq!(s.value_int(y), 1);
    }

    #[test]
    fn parallel_solve_is_byte_identical() {
        // The full determinism contract: identical objective, values,
        // node count, LP pivot count, and incumbent trace at 1, 2, and
        // 4 threads.
        let mut p = Problem::new(Sense::Maximize);
        let weights = [91.0, 72.0, 90.0, 46.0, 55.0, 8.0, 35.0, 75.0, 61.0, 15.0];
        let values = [84.0, 83.0, 43.0, 4.0, 44.0, 6.0, 82.0, 92.0, 25.0, 83.0];
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| p.add_binary(format!("x{i}"), v))
            .collect();
        p.add_constraint(
            vars.iter().copied().zip(weights.iter().copied()),
            Relation::Le,
            269.0,
        );
        p.add_constraint(
            vars.iter().copied().zip(values.iter().copied()),
            Relation::Le,
            300.0,
        );
        let solve = |threads: usize| {
            p.solve_mip(&MipOptions {
                threads,
                ..Default::default()
            })
            .unwrap()
        };
        let base = solve(1);
        for threads in [2, 4] {
            let s = solve(threads);
            assert_eq!(format!("{:?}", s.values), format!("{:?}", base.values));
            assert_eq!(
                format!("{:?}", s.incumbent_trace),
                format!("{:?}", base.incumbent_trace),
                "incumbent trace diverged at {threads} threads"
            );
            assert_eq!(s.nodes_explored, base.nodes_explored);
            assert_eq!(s.lp_iterations, base.lp_iterations);
            assert!((s.objective - base.objective).abs() == 0.0);
        }
    }

    #[test]
    fn span_stream_mirrors_search_and_is_thread_invariant() {
        // Same instance as `parallel_solve_is_byte_identical`: enough
        // nodes for a non-trivial search tree.
        let mut p = Problem::new(Sense::Maximize);
        let weights = [91.0, 72.0, 90.0, 46.0, 55.0, 8.0, 35.0, 75.0, 61.0, 15.0];
        let values = [84.0, 83.0, 43.0, 4.0, 44.0, 6.0, 82.0, 92.0, 25.0, 83.0];
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| p.add_binary(format!("x{i}"), v))
            .collect();
        p.add_constraint(
            vars.iter().copied().zip(weights.iter().copied()),
            Relation::Le,
            269.0,
        );
        p.add_constraint(
            vars.iter().copied().zip(values.iter().copied()),
            Relation::Le,
            300.0,
        );
        let profile = |threads: usize| {
            let mut spans = ocd_core::FlightRecorder::logical();
            let s = p
                .solve_mip_observed(
                    &MipOptions {
                        threads,
                        ..Default::default()
                    },
                    &mut spans,
                )
                .unwrap();
            (s, spans)
        };
        let (s, spans) = profile(1);
        assert!(spans.is_balanced());
        // Exactly one `bnb.node.*` span per explored node.
        assert_eq!(spans.count("bnb.node."), s.nodes_explored);
        assert!(spans.count("bnb.round") > 0);
        // One incumbent event per incumbent-trace entry.
        let incumbents = spans
            .events()
            .iter()
            .filter(|e| e.name == "bnb.incumbent")
            .count();
        assert!(incumbents > 0);
        assert_eq!(incumbents, s.incumbent_trace.len());
        // The per-node `lp_iterations` counters sum to the solve total
        // (infeasible nodes have no LP stats and carry none).
        let iters: u64 = spans
            .spans()
            .iter()
            .filter(|sp| sp.name.starts_with("bnb.node.") && sp.name != "bnb.node.infeasible")
            .flat_map(|sp| sp.counters.iter())
            .filter(|(k, _)| *k == "lp_iterations")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(iters, s.lp_iterations);
        // Node spans nest inside their round span.
        for sp in spans.spans() {
            match sp.name {
                "bnb.round" => assert_eq!(sp.depth, 0),
                _ => assert_eq!(sp.depth, 1, "{} should nest under bnb.round", sp.name),
            }
        }
        // The search timeline is byte-identical across thread counts —
        // the span-level restatement of the determinism contract.
        let (_, spans4) = profile(4);
        assert_eq!(spans.to_chrome_json("bnb"), spans4.to_chrome_json("bnb"));
    }

    #[test]
    fn random_binary_ips_match_bruteforce() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..40 {
            let nv = rng.random_range(2..7usize);
            let nc = rng.random_range(1..4usize);
            let mut p = Problem::new(Sense::Maximize);
            let obj: Vec<f64> = (0..nv).map(|_| rng.random_range(-5.0..9.0)).collect();
            let vars: Vec<_> = obj
                .iter()
                .enumerate()
                .map(|(i, &c)| p.add_binary(format!("x{i}"), c))
                .collect();
            let mut cons = Vec::new();
            for _ in 0..nc {
                let coeffs: Vec<f64> = (0..nv)
                    .map(|_| rng.random_range(-3.0_f64..4.0).round())
                    .collect();
                let rhs = rng.random_range(0.0_f64..6.0).round();
                p.add_constraint(
                    vars.iter().copied().zip(coeffs.iter().copied()),
                    Relation::Le,
                    rhs,
                );
                cons.push((coeffs, rhs));
            }
            // Brute force over all 2^nv assignments.
            let mut best: Option<f64> = None;
            for mask in 0u32..(1 << nv) {
                let point: Vec<f64> = (0..nv)
                    .map(|j| if mask & (1 << j) != 0 { 1.0 } else { 0.0 })
                    .collect();
                let ok = cons.iter().all(|(coeffs, rhs)| {
                    coeffs.iter().zip(&point).map(|(c, v)| c * v).sum::<f64>() <= rhs + 1e-9
                });
                if ok {
                    let val: f64 = obj.iter().zip(&point).map(|(c, v)| c * v).sum();
                    best = Some(best.map_or(val, |b: f64| b.max(val)));
                }
            }
            let got = p.solve_mip(&MipOptions::default());
            match best {
                Some(b) => {
                    let s = got.unwrap_or_else(|e| panic!("trial {trial}: {e}"));
                    assert!(
                        (s.objective - b).abs() < 1e-5,
                        "trial {trial}: got {}, brute force {b}",
                        s.objective
                    );
                }
                None => assert_eq!(got.unwrap_err(), LpError::Infeasible, "trial {trial}"),
            }
        }
    }
}
