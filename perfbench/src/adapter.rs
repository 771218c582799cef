//! The only file of the benchmark that calls into the `ocd-*` crates.
//!
//! Every call goes through a plain public entry point
//! (`simulate_with` under `SimConfig::default()`, `run_swarm`,
//! `run_coded_swarm`, `makespan_via_ip`, `min_bandwidth_for_horizon`,
//! `solve_focd`, `RunRecord::{to_json, from_json, certify}`), so the
//! benchmark keeps compiling when instrumented twins or superseded
//! models are removed from the library. The rest of the benchmark sees
//! only the wrapper types below and plain numbers; when a library API
//! changes, this is the file to edit.

use ocd_core::bounds::{
    bandwidth_lower_bound, counting_makespan_lower_bound, makespan_lower_bound,
};
use ocd_core::record::RunRecord;
use ocd_core::rlnc::RlncInstance;
use ocd_core::validate::replay;
use ocd_core::{Instance, NodeBudgets, Schedule, TokenSet};
use ocd_graph::generate::{gnp, paper_random as gen_paper_random, GnpConfig};
use ocd_graph::DiGraph;
use ocd_heuristics::{simulate_with, Ideal, SimConfig, SimOutcome, StrategyKind};
use ocd_lp::{LpError, MipOptions};
use ocd_net::{
    run_coded_swarm, run_swarm, CodedNetReport, FaultPlan, MsgKind, NetConfig, NetPolicy, NetReport,
};
use ocd_solver::bnb::{solve_focd, BnbOptions};
use ocd_solver::ip::{makespan_via_ip, min_bandwidth_for_horizon, MakespanOutcome};
use ocd_solver::SolveError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generated overlay.
pub struct Graph(DiGraph);

impl Graph {
    /// Number of arcs.
    pub fn arcs(&self) -> usize {
        self.0.edge_count()
    }
}

/// `G(n, 2 ln n / n)` with the paper's capacities, O(n + m) sampler.
pub fn gnp_fast(n: usize, seed: u64) -> Graph {
    Graph(gnp(&GnpConfig::fast(n), &mut StdRng::seed_from_u64(seed)))
}

/// The paper's random topology (`paper_random`).
pub fn paper_random(n: usize, seed: u64) -> Graph {
    Graph(gen_paper_random(n, &mut StdRng::seed_from_u64(seed)))
}

/// `G(n, 2 ln n / n)` with unit arc capacities, as the exact-anchor
/// table builds it.
pub fn unit_gnp(n: usize, seed: u64) -> Graph {
    let config = GnpConfig {
        capacity: 1..=1,
        ..GnpConfig::paper(n)
    };
    Graph(gnp(&config, &mut StdRng::seed_from_u64(seed)))
}

/// An OCD instance.
pub struct Problem(Instance);

impl Problem {
    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.0.num_vertices()
    }

    /// Whether the instance carries node budgets.
    pub fn budgeted(&self) -> bool {
        self.0.node_budgets().is_some()
    }
}

/// Single-file scenario: vertex 0 holds `tokens` tokens, every vertex
/// wants all of them.
pub fn single_file(graph: Graph, tokens: usize) -> Problem {
    Problem(ocd_core::scenario::single_file(graph.0, tokens, 0))
}

/// `parts` tokens held by vertex 0 and wanted everywhere; with
/// `uplink_one`, every vertex may send one token per step.
pub fn broadcast(graph: Graph, parts: usize, uplink_one: bool) -> Problem {
    let n = graph.0.node_count();
    let mut builder = Instance::builder(graph.0, parts)
        .have_set(0, TokenSet::full(parts))
        .want_all_everywhere();
    if uplink_one {
        builder = builder.node_budgets(NodeBudgets::uplink_only(n, 1));
    }
    Problem(builder.build().expect("vertex 0 holds every part"))
}

/// A coded generation to distribute.
pub struct Generation(RlncInstance);

/// Vertex 0 holds `k` source packets of `payload` bytes each.
pub fn rlnc_single_source(graph: &Graph, k: usize, payload: usize) -> Generation {
    Generation(RlncInstance::single_source(graph.0.clone(), k, payload, 0))
}

/// The paper's heuristics the lockstep workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Heuristic {
    /// `LocalRarest`.
    Local,
    /// `RandomUseful`.
    Random,
}

/// One lockstep engine run.
pub struct SimRun(SimOutcome);

impl SimRun {
    /// Whether every want was met within the step cap.
    pub fn success(&self) -> bool {
        self.0.report.success
    }

    /// Steps executed.
    pub fn steps(&self) -> u64 {
        self.0.report.steps as u64
    }

    /// Token transfers made.
    pub fn transfers(&self) -> u64 {
        self.0.report.bandwidth
    }

    /// Transfers that delivered a token the receiver already held.
    pub fn duplicates(&self) -> u64 {
        self.0.report.duplicate_deliveries
    }
}

/// Runs `heuristic` on `problem` under the ideal medium.
pub fn simulate(problem: &Problem, heuristic: Heuristic, seed: u64) -> SimRun {
    let kind = match heuristic {
        Heuristic::Local => StrategyKind::Local,
        Heuristic::Random => StrategyKind::Random,
    };
    let mut strategy = kind.build();
    let mut rng = StdRng::seed_from_u64(seed);
    SimRun(simulate_with(
        &problem.0,
        strategy.as_mut(),
        &mut Ideal,
        &SimConfig::default(),
        &mut rng,
    ))
}

/// The run's certifiable record as JSON (`ocd run --record`).
pub fn record_encode(problem: &Problem, run: &SimRun, seed: u64) -> Result<String, String> {
    run.0
        .to_record(&problem.0, "local", "ideal", seed)
        .to_json()
        .map_err(|e| e.to_string())
}

/// A parsed run record.
pub struct Record(RunRecord);

/// Parses a record (`ocd certify`, first half).
pub fn record_decode(json: &str) -> Result<Record, String> {
    RunRecord::from_json(json)
        .map(Record)
        .map_err(|e| e.to_string())
}

/// Replays the record's schedule against its instance (`ocd certify`,
/// second half). Returns whether the replay satisfied every want.
pub fn certify(record: &Record) -> Result<bool, String> {
    record
        .0
        .certify()
        .map(|r| r.is_successful())
        .map_err(|e| e.to_string())
}

/// Combinatorial lower bounds of an instance.
#[derive(Clone, Copy, Debug)]
pub struct Bounds {
    makespan: u64,
    bandwidth: u64,
}

/// The radius makespan bound and the deficiency bandwidth bound.
pub fn lower_bounds(problem: &Problem) -> Bounds {
    Bounds {
        makespan: makespan_lower_bound(&problem.0) as u64,
        bandwidth: bandwidth_lower_bound(&problem.0),
    }
}

/// Checks a lockstep run against the §3.1 validator and the instance's
/// lower bounds.
pub fn check_sim(problem: &Problem, run: &SimRun, bounds: &Bounds) -> Result<(), String> {
    check_schedule(problem, &run.0.report.schedule)?;
    if run.steps() < bounds.makespan || run.transfers() < bounds.bandwidth {
        return Err(format!(
            "run beats a lower bound: {} steps, {} transfers, bounds {bounds:?}",
            run.steps(),
            run.transfers()
        ));
    }
    Ok(())
}

/// Replays `schedule` and requires it to satisfy every want.
fn check_schedule(problem: &Problem, schedule: &Schedule) -> Result<(), String> {
    let r = replay(&problem.0, schedule).map_err(|e| format!("schedule does not replay: {e}"))?;
    if r.is_successful() {
        Ok(())
    } else {
        Err(format!(
            "schedule leaves {} vertices unsatisfied",
            r.unsatisfied().len()
        ))
    }
}

/// One asynchronous swarm run.
pub struct SwarmRun(NetReport);

impl SwarmRun {
    /// Whether every want was met within the tick cap.
    pub fn success(&self) -> bool {
        self.0.success
    }

    /// Ticks simulated.
    pub fn ticks(&self) -> u64 {
        self.0.ticks
    }

    /// Messages sent, in `have, request, token, cancel` order.
    pub fn messages(&self) -> [u64; 4] {
        let m = &self.0.messages_sent;
        [
            m[MsgKind::Have.index()],
            m[MsgKind::Request.index()],
            m[MsgKind::Token.index()],
            m[MsgKind::Cancel.index()],
        ]
    }

    /// Data tokens delivered, duplicates included.
    pub fn delivered(&self) -> u64 {
        self.0.tokens_delivered
    }

    /// Deliveries of a token the receiver already held.
    pub fn duplicates(&self) -> u64 {
        self.0.duplicate_deliveries
    }

    /// Data tokens lost on links.
    pub fn lost(&self) -> u64 {
        self.0.tokens_lost
    }

    /// Tokens re-sent on an arc that had carried them before.
    pub fn retransmits(&self) -> u64 {
        self.0.retransmits
    }

    /// Events the runtime's event ring recorded.
    pub fn trace_events(&self) -> u64 {
        self.0.trace.total_recorded()
    }
}

/// Runs the local policy over lossy, jittered links.
pub fn swarm(problem: &Problem, seed: u64) -> SwarmRun {
    let config = NetConfig {
        policy: NetPolicy::Local,
        latency: 2,
        jitter: 2,
        loss: 0.05,
        control_latency: 1,
        control_loss: 0.05,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    SwarmRun(run_swarm(&problem.0, &config, &FaultPlan::none(), &mut rng))
}

/// Token conservation plus a replay of the extracted schedule.
pub fn check_swarm(problem: &Problem, run: &SwarmRun) -> Result<(), String> {
    if !run.0.accounts_for_every_token() {
        return Err("swarm loses track of a token".to_string());
    }
    check_schedule(problem, &run.0.schedule)
}

/// One coded swarm run.
pub struct CodedRun(CodedNetReport);

impl CodedRun {
    /// Whether every receiver reached full rank within the tick cap.
    pub fn success(&self) -> bool {
        self.0.success
    }

    /// Ticks simulated.
    pub fn ticks(&self) -> u64 {
        self.0.ticks
    }

    /// Coded packets put on the wire.
    pub fn packets_sent(&self) -> u64 {
        self.0.packets_sent
    }

    /// Packets that raised their receiver's rank.
    pub fn innovative(&self) -> u64 {
        self.0.innovative_deliveries
    }

    /// Packets delivered, innovative or not.
    pub fn delivered(&self) -> u64 {
        self.0.innovative_deliveries + self.0.redundant_deliveries
    }

    /// Packets lost on links.
    pub fn lost(&self) -> u64 {
        self.0.packets_lost
    }

    /// Pull credits that expired.
    pub fn request_timeouts(&self) -> u64 {
        self.0.request_timeouts
    }
}

/// Runs the coded swarm (local policy, lossy jittered links, no
/// proactive redundancy).
pub fn coded(generation: &Generation, seed: u64) -> CodedRun {
    let config = NetConfig {
        policy: NetPolicy::Local,
        latency: 2,
        jitter: 2,
        loss: 0.1,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    CodedRun(run_coded_swarm(&generation.0, &config, 1.0, &mut rng))
}

/// Exact decode plus packet conservation.
pub fn check_coded(run: &CodedRun) -> Result<(), String> {
    if !run.0.decode_ok {
        return Err("a receiver decoded the wrong generation".to_string());
    }
    if !run.0.accounts_for_every_packet() {
        return Err("coded swarm loses track of a packet".to_string());
    }
    Ok(())
}

/// A certified IP solve.
pub struct IpSolve {
    /// Horizon of the solve (the certified makespan).
    pub makespan: u64,
    /// Bandwidth of the witness schedule.
    pub bandwidth: u64,
    /// Branch-and-bound nodes the witness solve explored.
    pub mip_nodes: u64,
    /// Simplex pivots of the witness solve.
    pub lp_iterations: u64,
    schedule: Schedule,
}

/// What an exact solve came to.
pub enum Exact {
    /// Solved and certified.
    Solved(IpSolve),
    /// The MILP hit its node limit first.
    NodeLimit,
}

fn mip_options(node_limit: usize, threads: usize, feasibility: bool) -> MipOptions {
    MipOptions {
        node_limit,
        threads,
        absolute_gap: if feasibility {
            1e12
        } else {
            MipOptions::default().absolute_gap
        },
        ..MipOptions::default()
    }
}

/// Certified optimal makespan by the horizon sweep, in feasibility mode.
pub fn makespan_ip(problem: &Problem, node_limit: usize, threads: usize) -> Result<Exact, String> {
    // No schedule needs more steps than missing (vertex, part) pairs:
    // on a connected overlay some useful transfer is always possible.
    let max_horizon = bandwidth_lower_bound(&problem.0).max(1) as usize;
    let options = mip_options(node_limit, threads, true);
    match makespan_via_ip(&problem.0, max_horizon, &options).map_err(|e| e.to_string())? {
        MakespanOutcome::Certified(cert) => Ok(Exact::Solved(IpSolve {
            makespan: cert.makespan as u64,
            bandwidth: cert.result.bandwidth,
            mip_nodes: cert.result.mip_nodes as u64,
            lp_iterations: cert.result.lp_iterations,
            schedule: cert.result.schedule,
        })),
        MakespanOutcome::ResourceLimit { .. } => Ok(Exact::NodeLimit),
        other => Err(format!("sweep ended without a certificate: {other:?}")),
    }
}

/// Minimum bandwidth of any schedule within `horizon` steps.
pub fn min_bandwidth(
    problem: &Problem,
    horizon: u64,
    node_limit: usize,
    threads: usize,
) -> Result<Exact, String> {
    let options = mip_options(node_limit, threads, false);
    match min_bandwidth_for_horizon(&problem.0, horizon as usize, &options) {
        Ok(Some(r)) => Ok(Exact::Solved(IpSolve {
            makespan: horizon,
            bandwidth: r.bandwidth,
            mip_nodes: r.mip_nodes as u64,
            lp_iterations: r.lp_iterations,
            schedule: r.schedule,
        })),
        Ok(None) => Err(format!(
            "no schedule within the certified horizon {horizon}"
        )),
        // The solver forwards the MILP's node-limit error as its message.
        Err(SolveError::Mip(msg)) if msg == LpError::NodeLimit.to_string() => Ok(Exact::NodeLimit),
        Err(e) => Err(e.to_string()),
    }
}

/// Optimal makespan by the combinatorial branch-and-bound (ignores node
/// budgets).
pub fn focd(problem: &Problem) -> Result<u64, String> {
    solve_focd(&problem.0, &BnbOptions::default())
        .map(|r| r.makespan as u64)
        .map_err(|e| e.to_string())
}

/// The witness replays, satisfies every want, stays within the solve's
/// horizon and bandwidth, and the horizon is at least the combinatorial
/// lower bound.
pub fn check_ip(problem: &Problem, solve: &IpSolve) -> Result<(), String> {
    check_schedule(problem, &solve.schedule)?;
    let lb = makespan_lower_bound(&problem.0).max(counting_makespan_lower_bound(&problem.0));
    if solve.makespan < lb as u64 {
        return Err(format!(
            "certified makespan {} below the lower bound {lb}",
            solve.makespan
        ));
    }
    if solve.schedule.makespan() as u64 > solve.makespan
        || solve.schedule.bandwidth() != solve.bandwidth
    {
        return Err("witness schedule disagrees with its solve".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocd_core::Move;
    use std::collections::HashMap;

    /// Drops a move that is the only delivery of its token to its
    /// receiver, so the receiver ends up without a token it wants.
    fn drop_sole_delivery(problem: &Problem, schedule: &Schedule) -> Schedule {
        let g = problem.0.graph();
        let receipt = |m: &Move| (g.edge(m.edge).dst, m.token);
        let mut receipts: HashMap<_, u32> = HashMap::new();
        for m in schedule.moves() {
            *receipts.entry(receipt(&m)).or_default() += 1;
        }
        let victim = schedule
            .moves()
            .find(|m| receipts[&receipt(m)] == 1)
            .expect("some receiver gets some token once");
        let mut out = Schedule::new();
        for (step, ts) in schedule.steps().iter().enumerate() {
            out.push_step(ts.sends().filter_map(|(e, tokens)| {
                let mut tokens = tokens.clone();
                if step == victim.step && e == victim.edge {
                    tokens.remove(victim.token);
                }
                (!tokens.is_empty()).then_some((e, tokens))
            }));
        }
        out
    }

    #[test]
    fn check_rejects_a_schedule_with_one_move_removed() {
        let problem = single_file(gnp_fast(60, 3), 8);
        let mut run = simulate(&problem, Heuristic::Local, 4);
        assert!(run.success());
        let bounds = lower_bounds(&problem);
        check_sim(&problem, &run, &bounds).expect("an engine schedule passes");
        let cut = drop_sole_delivery(&problem, &run.0.report.schedule);
        assert_eq!(cut.bandwidth() + 1, run.transfers());
        run.0.report.schedule = cut;
        assert!(check_sim(&problem, &run, &bounds).is_err());
    }

    #[test]
    fn check_rejects_an_ip_witness_with_one_move_removed() {
        let problem = broadcast(unit_gnp(8, 5), 2, false);
        let Exact::Solved(mut solve) = makespan_ip(&problem, 2_000, 1).unwrap() else {
            panic!("small free instance certifies");
        };
        check_ip(&problem, &solve).expect("a certified witness passes");
        solve.schedule = drop_sole_delivery(&problem, &solve.schedule);
        assert!(check_ip(&problem, &solve).is_err());
    }

    #[test]
    fn round_tripped_record_certifies() {
        let problem = single_file(gnp_fast(60, 3), 8);
        let run = simulate(&problem, Heuristic::Local, 4);
        let json = record_encode(&problem, &run, 4).unwrap();
        assert_eq!(certify(&record_decode(&json).unwrap()), Ok(true));
    }
}
