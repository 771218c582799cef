//! Exact FOCD (minimum makespan) by branch and bound.
//!
//! Iterative deepening on the makespan: for each candidate `τ` starting
//! at the admissible lower bound, a depth-first search asks whether a
//! successful schedule of exactly `τ` steps exists. Within a timestep
//! the search enumerates, arc by arc, every subset of *useful* tokens
//! (tokens the destination lacks and the source holds) of maximal size —
//! for makespan, sending fewer tokens than an arc allows can never help,
//! so only the *choice* of tokens branches. Pruning:
//!
//! - the `ocd-core::bounds::remaining_makespan` admissible bound against
//!   the remaining budget;
//! - a transposition table keyed by the full possession state,
//!   remembering the largest budget that already failed from that state.
//!
//! Practical for the paper's "small graphs with few files" regime
//! (roughly `n·m ≲ 25` with moderate capacities).

use crate::SolveError;
use ocd_core::bounds::remaining_makespan;
use ocd_core::Observer;
use ocd_core::{Instance, Schedule, Timestep, Token, TokenSet};
use ocd_graph::EdgeId;
use std::collections::HashMap;

/// Tuning for [`solve_focd`].
#[derive(Debug, Clone)]
pub struct BnbOptions {
    /// Largest makespan to try before giving up.
    pub max_makespan: usize,
    /// Search node budget (timestep-enumeration branches).
    pub node_limit: u64,
}

impl Default for BnbOptions {
    fn default() -> Self {
        BnbOptions {
            max_makespan: 64,
            node_limit: 50_000_000,
        }
    }
}

/// Result of the exact search.
#[derive(Debug, Clone)]
pub struct BnbResult {
    /// An optimal (minimum-makespan) successful schedule.
    pub schedule: Schedule,
    /// Its makespan (`schedule.makespan()`).
    pub makespan: usize,
    /// Branches explored across all deepening iterations.
    pub nodes: u64,
}

/// Decision procedure for DFOCD (§3.2): is there a successful schedule
/// of at most `tau` steps? Returns it if so.
///
/// # Errors
///
/// [`SolveError::NodeLimit`] if the budget is exhausted; unsatisfiable
/// and over-horizon cases return `Ok(None)`.
pub fn decide_focd(
    instance: &Instance,
    tau: usize,
    options: &BnbOptions,
) -> Result<Option<Schedule>, SolveError> {
    let mut search = Search::new(instance, options.node_limit);
    let mut possession = instance.have_all().to_vec();
    let result = search.dfs(&mut possession, tau)?;
    Ok(result.map(|steps| {
        let mut schedule = Schedule::new();
        for step in steps {
            schedule.push_timestep(step);
        }
        schedule
    }))
}

/// Solves FOCD exactly: the minimum makespan and a witnessing schedule.
///
/// # Errors
///
/// [`SolveError::Unsatisfiable`] if no schedule can ever succeed,
/// [`SolveError::HorizonExceeded`] past `options.max_makespan`,
/// [`SolveError::NodeLimit`] if the budget runs out.
pub fn solve_focd(instance: &Instance, options: &BnbOptions) -> Result<BnbResult, SolveError> {
    solve_focd_observed(instance, options, &mut ())
}

/// [`solve_focd`], reporting spans to an [`Observer`]: every
/// iterative-deepening horizon attempt lands as a
/// `solver.focd.horizon` span carrying `tau` and `nodes` (branches
/// explored at that horizon) counters — the search timeline of the
/// combinatorial solver. (The inner DFS visits millions of nodes and
/// is deliberately *not* per-node instrumented.)
///
/// # Errors
///
/// Same contract as [`solve_focd`].
pub fn solve_focd_observed<O: Observer>(
    instance: &Instance,
    options: &BnbOptions,
    obs: &mut O,
) -> Result<BnbResult, SolveError> {
    if !instance.is_satisfiable() {
        return Err(SolveError::Unsatisfiable);
    }
    let lower = remaining_makespan(instance.graph(), instance.have_all(), instance.want_all());
    if lower == usize::MAX {
        return Err(SolveError::Unsatisfiable);
    }
    let mut total_nodes = 0u64;
    for tau in lower..=options.max_makespan {
        let span = obs.open("solver.focd.horizon");
        obs.attach(span, "tau", tau as u64);
        let mut search = Search::new(instance, options.node_limit.saturating_sub(total_nodes));
        let mut possession = instance.have_all().to_vec();
        let found = search.dfs(&mut possession, tau);
        total_nodes += search.nodes;
        obs.attach(span, "nodes", search.nodes);
        obs.close(span);
        match found {
            Ok(Some(steps)) => {
                let mut schedule = Schedule::new();
                for step in steps {
                    schedule.push_timestep(step);
                }
                debug_assert_eq!(schedule.makespan(), tau);
                return Ok(BnbResult {
                    makespan: tau,
                    schedule,
                    nodes: total_nodes,
                });
            }
            Ok(None) => continue,
            Err(e) => return Err(e),
        }
    }
    Err(SolveError::HorizonExceeded {
        horizon: options.max_makespan,
    })
}

struct Search<'a> {
    instance: &'a Instance,
    /// For each state (possession vector), the largest remaining budget
    /// that already failed; states are keyed by their token-set blocks.
    failed: HashMap<Vec<TokenSet>, usize>,
    nodes: u64,
    node_limit: u64,
}

impl<'a> Search<'a> {
    fn new(instance: &'a Instance, node_limit: u64) -> Self {
        Search {
            instance,
            failed: HashMap::new(),
            nodes: 0,
            node_limit,
        }
    }

    fn satisfied(&self, possession: &[TokenSet]) -> bool {
        self.instance
            .want_all()
            .iter()
            .zip(possession)
            .all(|(w, p)| w.is_subset(p))
    }

    /// Is a success reachable in at most `budget` further steps?
    fn dfs(
        &mut self,
        possession: &mut Vec<TokenSet>,
        budget: usize,
    ) -> Result<Option<Vec<Timestep>>, SolveError> {
        if self.satisfied(possession) {
            return Ok(Some(Vec::new()));
        }
        if budget == 0 {
            return Ok(None);
        }
        let bound = remaining_makespan(self.instance.graph(), possession, self.instance.want_all());
        if bound > budget {
            return Ok(None);
        }
        if let Some(&failed_budget) = self.failed.get(possession.as_slice()) {
            if budget <= failed_budget {
                return Ok(None);
            }
        }
        self.nodes += 1;
        if self.nodes > self.node_limit {
            return Err(SolveError::NodeLimit);
        }

        // Enumerate maximal useful timesteps arc by arc.
        let g = self.instance.graph();
        let edges: Vec<EdgeId> = g.edge_ids().collect();
        let mut chosen: Vec<(EdgeId, TokenSet)> = Vec::new();
        let result = self.enumerate_step(&edges, 0, possession, &mut chosen, budget)?;
        if result.is_none() {
            let entry = self.failed.entry(possession.clone()).or_insert(0);
            *entry = (*entry).max(budget);
        }
        Ok(result)
    }

    /// Chooses the send set for `edges[idx..]`, then recurses one
    /// timestep deeper.
    fn enumerate_step(
        &mut self,
        edges: &[EdgeId],
        idx: usize,
        possession: &mut Vec<TokenSet>,
        chosen: &mut Vec<(EdgeId, TokenSet)>,
        budget: usize,
    ) -> Result<Option<Vec<Timestep>>, SolveError> {
        let g = self.instance.graph();
        if idx == edges.len() {
            // Apply the step and descend.
            let step = Timestep::from_sends(chosen.iter().cloned());
            if step.is_empty() {
                // A maximal step with no moves means nothing useful can
                // move; if unsatisfied this branch is dead (possession
                // can never change again).
                return Ok(None);
            }
            let mut next = possession.clone();
            for (e, tokens) in step.sends() {
                next[g.edge(e).dst.index()].union_with(tokens);
            }
            if next == *possession {
                return Ok(None);
            }
            return match self.dfs(&mut next, budget - 1)? {
                Some(mut rest) => {
                    rest.insert(0, step);
                    Ok(Some(rest))
                }
                None => Ok(None),
            };
        }
        let e = edges[idx];
        let arc = g.edge(e);
        let useful = possession[arc.src.index()].difference(&possession[arc.dst.index()]);
        let cap = arc.capacity as usize;
        if useful.is_empty() {
            return self.enumerate_step(edges, idx + 1, possession, chosen, budget);
        }
        if useful.len() <= cap {
            // Send everything useful: the unique maximal choice.
            chosen.push((e, useful));
            let r = self.enumerate_step(edges, idx + 1, possession, chosen, budget)?;
            chosen.pop();
            return Ok(r);
        }
        // Branch over all cap-subsets of the useful set.
        let tokens: Vec<Token> = useful.iter().collect();
        let mut subset: Vec<Token> = Vec::with_capacity(cap);
        self.enumerate_subsets(
            edges,
            idx,
            possession,
            chosen,
            budget,
            &tokens,
            0,
            &mut subset,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_subsets(
        &mut self,
        edges: &[EdgeId],
        idx: usize,
        possession: &mut Vec<TokenSet>,
        chosen: &mut Vec<(EdgeId, TokenSet)>,
        budget: usize,
        tokens: &[Token],
        start: usize,
        subset: &mut Vec<Token>,
    ) -> Result<Option<Vec<Timestep>>, SolveError> {
        let arc = self.instance.graph().edge(edges[idx]);
        let cap = arc.capacity as usize;
        if subset.len() == cap {
            chosen.push((
                edges[idx],
                TokenSet::from_tokens(self.instance.num_tokens(), subset.iter().copied()),
            ));
            let r = self.enumerate_step(edges, idx + 1, possession, chosen, budget)?;
            chosen.pop();
            return Ok(r);
        }
        // Not enough tokens left to fill the subset: impossible branch
        // (maximality requires exactly cap here since |useful| > cap).
        let needed = cap - subset.len();
        for pick in start..=tokens.len().saturating_sub(needed) {
            subset.push(tokens[pick]);
            let r = self.enumerate_subsets(
                edges,
                idx,
                possession,
                chosen,
                budget,
                tokens,
                pick + 1,
                subset,
            )?;
            subset.pop();
            if r.is_some() {
                return Ok(r);
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_core::bounds::makespan_lower_bound;
    use ocd_core::scenario::single_file;
    use ocd_core::validate;
    use ocd_graph::generate::classic;
    use ocd_graph::DiGraph;

    fn tok(i: usize) -> Token {
        Token::new(i)
    }

    #[test]
    fn single_hop_single_token() {
        let instance = single_file(classic::path(2, 1, false), 1, 0);
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 1);
        assert!(validate::replay(&instance, &r.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn path_relay_takes_distance_steps() {
        let instance = single_file(classic::path(4, 2, false), 1, 0);
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 3);
    }

    #[test]
    fn capacity_bottleneck() {
        // 4 tokens over a capacity-2 arc: exactly 2 steps.
        let instance = single_file(classic::path(2, 2, false), 4, 0);
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 2);
    }

    #[test]
    fn duplication_beats_flow_intuition() {
        // Star: source duplicates one token to 3 leaves in one step.
        let instance = single_file(classic::star(4, 1, false), 1, 0);
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 1);
        assert_eq!(r.schedule.bandwidth(), 3);
    }

    #[test]
    fn figure_one_minimum_time_is_two_steps() {
        // Figure 1: the minimum-time schedule takes 2 timesteps (and,
        // per the paper, spends 6 bandwidth; see the IP tests for the
        // bandwidth side of the trade-off).
        let instance = ocd_core::scenario::figure_one();
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 2);
        assert!(validate::replay(&instance, &r.schedule)
            .unwrap()
            .is_successful());
    }

    #[test]
    fn optimum_never_below_admissible_bound() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..15 {
            let n = rng.random_range(2..5usize);
            let m = rng.random_range(1..4usize);
            let mut g = DiGraph::with_nodes(n);
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.random_bool(0.7) {
                        g.add_edge(g.node(u), g.node(v), rng.random_range(1..3))
                            .unwrap();
                    }
                }
            }
            let mut builder = Instance::builder(g, m).have_set(0, TokenSet::full(m));
            for v in 1..n {
                if rng.random_bool(0.7) {
                    builder = builder.want_set(v, TokenSet::full(m));
                }
            }
            let instance = builder.build().unwrap();
            if !instance.is_satisfiable() {
                continue;
            }
            let r = match solve_focd(&instance, &BnbOptions::default()) {
                Ok(r) => r,
                Err(SolveError::Unsatisfiable) => continue,
                Err(e) => panic!("trial {trial}: {e}"),
            };
            assert!(
                r.makespan >= makespan_lower_bound(&instance),
                "trial {trial}: optimum below admissible bound"
            );
            let replay = validate::replay(&instance, &r.schedule).unwrap();
            assert!(replay.is_successful(), "trial {trial}");
            // Optimality sanity: τ - 1 must be infeasible.
            if r.makespan > 0 {
                let shorter =
                    decide_focd(&instance, r.makespan - 1, &BnbOptions::default()).unwrap();
                assert!(shorter.is_none(), "trial {trial}: not actually optimal");
            }
        }
    }

    #[test]
    fn unsatisfiable_reported() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(g.node(1), g.node(0), 1).unwrap();
        let instance = Instance::builder(g, 1)
            .have(0, [tok(0)])
            .want(1, [tok(0)])
            .build()
            .unwrap();
        assert_eq!(
            solve_focd(&instance, &BnbOptions::default()).unwrap_err(),
            SolveError::Unsatisfiable
        );
    }

    #[test]
    fn horizon_exceeded_reported() {
        let instance = single_file(classic::path(5, 1, false), 1, 0);
        let options = BnbOptions {
            max_makespan: 2,
            ..Default::default()
        };
        assert_eq!(
            solve_focd(&instance, &options).unwrap_err(),
            SolveError::HorizonExceeded { horizon: 2 }
        );
    }

    #[test]
    fn decide_focd_boundary() {
        let instance = single_file(classic::path(3, 1, false), 1, 0);
        assert!(decide_focd(&instance, 1, &BnbOptions::default())
            .unwrap()
            .is_none());
        assert!(decide_focd(&instance, 2, &BnbOptions::default())
            .unwrap()
            .is_some());
        assert!(decide_focd(&instance, 5, &BnbOptions::default())
            .unwrap()
            .is_some());
    }

    #[test]
    fn trivial_instance_zero_steps() {
        let g = classic::path(2, 1, true);
        let instance = Instance::builder(g, 1).have(0, [tok(0)]).build().unwrap();
        let r = solve_focd(&instance, &BnbOptions::default()).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.schedule.bandwidth(), 0);
    }
}
