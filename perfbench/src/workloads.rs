//! The four closed-loop workloads. Each generates a pool of inputs from
//! the seed, runs one iteration per input back to back, checks every
//! output outside the timed region, and derives its per-layer metrics
//! from the spans and counts of the run.

use crate::adapter::{self, Exact, Generation, Graph, Heuristic, Problem};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// Counts one checked iteration contributes. Equal inputs and seeds
/// give equal tallies, `sizes` aside; the measurement loop relies on
/// that to catch nondeterminism.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// The operation failed (cap reached, node limit): it counts toward
    /// `failed`, not as a wrong output.
    pub failed: bool,
    /// Instances the iteration completed and certified.
    pub solved: u64,
    /// Completed runs whose makespan and bandwidth are summed below.
    pub runs: u64,
    /// Summed makespan of those runs.
    pub makespan: f64,
    /// Summed bandwidth of those runs.
    pub bandwidth: f64,
    /// Deliveries that gave a receiver something it lacked.
    pub useful: f64,
    /// Layer counts read off the returned reports, by name.
    pub counts: BTreeMap<&'static str, f64>,
    /// Sizes that legitimately vary between repeats (a run record embeds
    /// its wall times), by name.
    pub sizes: BTreeMap<&'static str, f64>,
}

impl PartialEq for Tally {
    fn eq(&self, other: &Self) -> bool {
        let key = |t: &Self| {
            (
                t.failed,
                t.solved,
                t.runs,
                t.makespan,
                t.bandwidth,
                t.useful,
            )
        };
        key(self) == key(other) && self.counts == other.counts
    }
}

impl Tally {
    fn count(&mut self, key: &'static str, v: u64) {
        *self.counts.entry(key).or_default() += v as f64;
    }

    fn run(&mut self, makespan: u64, bandwidth: u64, useful: u64) {
        self.runs += 1;
        self.makespan += makespan as f64;
        self.bandwidth += bandwidth as f64;
        self.useful += useful as f64;
    }
}

/// Adds every count and size of `t` into `into`.
pub fn accumulate(into: &mut BTreeMap<&'static str, f64>, t: &Tally) {
    for (k, v) in t.counts.iter().chain(&t.sizes) {
        *into.entry(k).or_default() += v;
    }
}

/// What a workload's per-layer metrics are derived from.
pub struct Layers<'a> {
    /// Spans of the traced iterations.
    pub tracer: &'a Tracer,
    /// Counts summed over one pass of the pool (deterministic).
    pub pass: &'a BTreeMap<&'static str, f64>,
    /// Counts summed over the traced iterations (bases for time ratios).
    pub traced: &'a BTreeMap<&'static str, f64>,
    /// Inputs in the pool.
    pub pool: usize,
}

impl Layers<'_> {
    fn median_ms(&self, names: &[&str]) -> f64 {
        let all: Vec<f64> = names
            .iter()
            .flat_map(|n| self.tracer.durations_ms(n))
            .collect();
        median(&all)
    }

    fn total_ms(&self, names: &[&str]) -> f64 {
        names.iter().flat_map(|n| self.tracer.durations_ms(n)).sum()
    }

    fn pass(&self, key: &str) -> f64 {
        self.pass.get(key).copied().unwrap_or(0.0)
    }

    fn traced(&self, key: &str) -> f64 {
        self.traced.get(key).copied().unwrap_or(0.0)
    }

    /// Mean of a pass count per input.
    fn per_input(&self, key: &str) -> f64 {
        ratio(self.pass(key), self.pool as f64)
    }
}

/// The single overlay of a one-graph input.
fn only(mut graphs: Vec<Graph>) -> Graph {
    graphs.pop().expect("one overlay per input")
}

/// A closed-loop workload.
pub trait Workload {
    /// One generated input.
    type Input;
    /// What one iteration returns.
    type Output;
    /// Inputs generated per set-up.
    fn pool(&self) -> usize;
    /// Generates the overlays of one input.
    fn graphs(&self, seed: u64) -> Vec<Graph>;
    /// Builds an input on its overlays.
    fn input(&self, graphs: Vec<Graph>) -> Self::Input;
    /// The timed iteration.
    fn run(&self, input: &Self::Input, seed: u64, tr: &mut Tracer) -> Self::Output;
    /// Checks an output (untimed). `Err` is a wrong output.
    fn check(&self, input: &Self::Input, out: &Self::Output) -> Result<Tally, String>;
    /// Per-layer metrics of this workload.
    fn layers(&self, l: &Layers) -> Vec<(&'static str, f64)>;
}

/// Local and Random through the lockstep engine on `G(n, 2 ln n / n)`,
/// then Local's outcome through record → JSON → parse → certify.
pub struct Lockstep {
    /// Vertices per overlay.
    pub n: usize,
    /// Tokens in the single file.
    pub tokens: usize,
    /// Inputs in the pool.
    pub pool: usize,
}

/// A lockstep input; its lower bounds are computed by the first check.
pub struct LockstepInput {
    problem: Problem,
    bounds: OnceCell<adapter::Bounds>,
}

/// One lockstep iteration's results.
pub struct LockstepOut {
    local: adapter::SimRun,
    random: adapter::SimRun,
    record_bytes: usize,
    certified: Result<bool, String>,
}

impl Workload for Lockstep {
    type Input = LockstepInput;
    type Output = LockstepOut;

    fn pool(&self) -> usize {
        self.pool
    }

    fn graphs(&self, seed: u64) -> Vec<Graph> {
        vec![adapter::gnp_fast(self.n, seed)]
    }

    fn input(&self, graphs: Vec<Graph>) -> LockstepInput {
        LockstepInput {
            problem: adapter::single_file(only(graphs), self.tokens),
            bounds: OnceCell::new(),
        }
    }

    fn run(&self, input: &LockstepInput, seed: u64, tr: &mut Tracer) -> LockstepOut {
        let p = &input.problem;
        let local = tr.span("heuristics.simulate.local", |_| {
            adapter::simulate(p, Heuristic::Local, seed)
        });
        let random = tr.span("heuristics.simulate.random", |_| {
            adapter::simulate(p, Heuristic::Random, seed)
        });
        let json = tr.span("core.record_encode", |_| {
            adapter::record_encode(p, &local, seed)
        });
        let (record_bytes, certified) = match json {
            Ok(json) => {
                let record = tr.span("core.record_decode", |_| adapter::record_decode(&json));
                let certified =
                    record.and_then(|r| tr.span("core.certify", |_| adapter::certify(&r)));
                (json.len(), certified)
            }
            Err(e) => (0, Err(e)),
        };
        LockstepOut {
            local,
            random,
            record_bytes,
            certified,
        }
    }

    fn check(&self, input: &LockstepInput, out: &LockstepOut) -> Result<Tally, String> {
        let p = &input.problem;
        let bounds = input.bounds.get_or_init(|| adapter::lower_bounds(p));
        let mut t = Tally::default();
        for run in [&out.local, &out.random] {
            if !run.success() {
                t.failed = true;
                continue;
            }
            adapter::check_sim(p, run, bounds)?;
            t.run(
                run.steps(),
                run.transfers(),
                run.transfers() - run.duplicates(),
            );
            t.count("transfers", run.transfers());
            t.count("duplicates", run.duplicates());
        }
        let certified = out
            .certified
            .clone()
            .map_err(|e| format!("record round trip: {e}"))?;
        if certified != out.local.success() {
            return Err("certified record disagrees with the run's success".to_string());
        }
        t.sizes.insert("record_bytes", out.record_bytes as f64);
        t.solved = u64::from(!t.failed);
        Ok(t)
    }

    fn layers(&self, l: &Layers) -> Vec<(&'static str, f64)> {
        let sims = ["heuristics.simulate.local", "heuristics.simulate.random"];
        vec![
            ("heuristics.simulate_ms.local", l.median_ms(&sims[..1])),
            ("heuristics.simulate_ms.random", l.median_ms(&sims[1..])),
            (
                "heuristics.ns_per_transfer",
                ratio(l.total_ms(&sims) * 1e6, l.traced("transfers")),
            ),
            ("heuristics.transfers", l.per_input("transfers")),
            (
                "heuristics.duplicate_ratio",
                ratio(l.pass("duplicates"), l.pass("transfers")),
            ),
            (
                "core.record_encode_ms",
                l.median_ms(&["core.record_encode"]),
            ),
            (
                "core.record_decode_ms",
                l.median_ms(&["core.record_decode"]),
            ),
            ("core.certify_ms", l.median_ms(&["core.certify"])),
            ("core.record_bytes", l.per_input("record_bytes")),
        ]
    }
}

/// The asynchronous swarm, local policy, over lossy jittered links.
pub struct Swarm {
    /// Vertices per overlay.
    pub n: usize,
    /// Tokens in the single file.
    pub tokens: usize,
    /// Inputs in the pool.
    pub pool: usize,
}

const MSG_KEYS: [&str; 4] = [
    "net.msgs.have",
    "net.msgs.request",
    "net.msgs.token",
    "net.msgs.cancel",
];

impl Workload for Swarm {
    type Input = Problem;
    type Output = adapter::SwarmRun;

    fn pool(&self) -> usize {
        self.pool
    }

    fn graphs(&self, seed: u64) -> Vec<Graph> {
        vec![adapter::paper_random(self.n, seed)]
    }

    fn input(&self, graphs: Vec<Graph>) -> Problem {
        adapter::single_file(only(graphs), self.tokens)
    }

    fn run(&self, p: &Problem, seed: u64, tr: &mut Tracer) -> adapter::SwarmRun {
        tr.span("net.swarm", |_| adapter::swarm(p, seed))
    }

    fn check(&self, p: &Problem, run: &adapter::SwarmRun) -> Result<Tally, String> {
        let mut t = Tally::default();
        if run.success() {
            adapter::check_swarm(p, run)?;
            let token_msgs = run.messages()[2];
            t.run(run.ticks(), token_msgs, run.delivered() - run.duplicates());
            t.solved = 1;
        } else {
            t.failed = true;
        }
        for (key, v) in MSG_KEYS.into_iter().zip(run.messages()) {
            t.count(key, v);
        }
        t.count("deliveries", run.delivered());
        t.count("duplicates", run.duplicates());
        t.count("net.tokens_lost", run.lost());
        t.count("net.retransmits", run.retransmits());
        t.count("net.trace_events", run.trace_events());
        Ok(t)
    }

    fn layers(&self, l: &Layers) -> Vec<(&'static str, f64)> {
        let mut out = vec![
            ("net.swarm_ms", l.median_ms(&["net.swarm"])),
            (
                "net.ns_per_delivery",
                ratio(l.total_ms(&["net.swarm"]) * 1e6, l.traced("deliveries")),
            ),
            ("net.deliveries", l.per_input("deliveries")),
            (
                "net.useful_ratio",
                ratio(
                    l.pass("deliveries") - l.pass("duplicates"),
                    l.pass("deliveries"),
                ),
            ),
        ];
        for key in
            MSG_KEYS
                .into_iter()
                .chain(["net.tokens_lost", "net.retransmits", "net.trace_events"])
        {
            out.push((key, l.per_input(key)));
        }
        out
    }
}

/// The coded swarm at a 1 KiB and a 16 B payload on the same overlay.
pub struct Coded {
    /// Vertices per overlay.
    pub n: usize,
    /// Generation size.
    pub k: usize,
    /// Inputs in the pool.
    pub pool: usize,
}

/// Payload of the kernel-heavy run.
const PAYLOAD_LARGE: usize = 1024;
/// Payload of the protocol-heavy run.
const PAYLOAD_SMALL: usize = 16;

impl Workload for Coded {
    type Input = (Generation, Generation);
    type Output = (adapter::CodedRun, adapter::CodedRun);

    fn pool(&self) -> usize {
        self.pool
    }

    fn graphs(&self, seed: u64) -> Vec<Graph> {
        vec![adapter::paper_random(self.n, seed)]
    }

    fn input(&self, graphs: Vec<Graph>) -> Self::Input {
        let graph = only(graphs);
        (
            adapter::rlnc_single_source(&graph, self.k, PAYLOAD_LARGE),
            adapter::rlnc_single_source(&graph, self.k, PAYLOAD_SMALL),
        )
    }

    fn run(&self, g: &Self::Input, seed: u64, tr: &mut Tracer) -> Self::Output {
        // Distinct seeds: the two runs are two samples of the protocol,
        // which halves the seed-to-seed swing of the mean completion tick.
        (
            tr.span("net.coded.1k", |_| adapter::coded(&g.0, seed)),
            tr.span("net.coded.16b", |_| {
                adapter::coded(&g.1, crate::input_seed(seed, 1))
            }),
        )
    }

    fn check(&self, _g: &Self::Input, out: &Self::Output) -> Result<Tally, String> {
        let mut t = Tally::default();
        for (run, innovative_key) in [(&out.0, "innovative_1k"), (&out.1, "innovative_16b")] {
            adapter::check_coded(run)?;
            if run.success() {
                t.run(run.ticks(), run.packets_sent(), run.innovative());
            } else {
                t.failed = true;
            }
            t.count(innovative_key, run.innovative());
            t.count("deliveries", run.delivered());
            t.count("net.coded_lost", run.lost());
            t.count("net.coded_request_timeouts", run.request_timeouts());
        }
        t.solved = u64::from(!t.failed);
        Ok(t)
    }

    fn layers(&self, l: &Layers) -> Vec<(&'static str, f64)> {
        let innovative = l.pass("innovative_1k") + l.pass("innovative_16b");
        vec![
            ("net.coded_ms.1k", l.median_ms(&["net.coded.1k"])),
            ("net.coded_ms.16b", l.median_ms(&["net.coded.16b"])),
            (
                "net.coded_mb_per_s",
                ratio(
                    l.traced("innovative_1k") * PAYLOAD_LARGE as f64 / 1e6,
                    l.total_ms(&["net.coded.1k"]) / 1e3,
                ),
            ),
            ("net.coded_deliveries", l.per_input("deliveries")),
            (
                "net.coded_innovative_ratio",
                ratio(innovative, l.pass("deliveries")),
            ),
            ("net.coded_lost", l.per_input("net.coded_lost")),
            (
                "net.coded_request_timeouts",
                l.per_input("net.coded_request_timeouts"),
            ),
        ]
    }
}

/// Exact anchors: two parts from vertex 0 on unit-capacity
/// `G(n, 2 ln n / n)`, without budgets (LP-pivot heavy) and under unit
/// uplinks (branch-and-bound heavy). One iteration certifies a small
/// table of instances: summing over a batch keeps the rare refutation-
/// heavy instance from swinging the iteration percentiles with the seed.
pub struct ExactIp {
    /// Vertices of the free instances.
    pub free_n: usize,
    /// Vertices of the unit-uplink instances.
    pub uplink_n: usize,
    /// Free instances per iteration.
    pub free: usize,
    /// Unit-uplink instances per iteration.
    pub uplink: usize,
    /// Iterations (tables) in the pool.
    pub pool: usize,
    /// Worker threads of every MILP solve.
    pub threads: usize,
}

/// Parts broadcast from vertex 0.
const PARTS: usize = 2;

/// Node cap of the minimum-bandwidth solve.
const BANDWIDTH_NODE_LIMIT: usize = 20_000;

/// The exact-anchor table's feasibility-mode node caps: they shrink with
/// `n` and bind much harder under budgets.
fn makespan_node_limit(n: usize, budgeted: bool) -> usize {
    if budgeted {
        (10_000 / n).clamp(150, 1_250)
    } else {
        (40_000 / n).clamp(500, 2_500)
    }
}

/// One exact solve's results.
pub struct ExactOut {
    makespan: Result<Exact, String>,
    bandwidth: Option<Result<Exact, String>>,
    focd: Option<Result<u64, String>>,
}

impl ExactIp {
    fn solve(&self, p: &Problem, tr: &mut Tracer) -> ExactOut {
        let budgeted = p.budgeted();
        let (ms_span, bw_span) = if budgeted {
            ("solver.makespan_ip.uplink1", "solver.min_bandwidth.uplink1")
        } else {
            ("solver.makespan_ip.free", "solver.min_bandwidth.free")
        };
        let limit = makespan_node_limit(p.vertices(), budgeted);
        let makespan = tr.span(ms_span, |_| adapter::makespan_ip(p, limit, self.threads));
        let bandwidth = match &makespan {
            Ok(Exact::Solved(s)) => Some(tr.span(bw_span, |_| {
                adapter::min_bandwidth(p, s.makespan, BANDWIDTH_NODE_LIMIT, self.threads)
            })),
            _ => None,
        };
        let focd = (!budgeted).then(|| tr.span("solver.focd", |_| adapter::focd(p)));
        ExactOut {
            makespan,
            bandwidth,
            focd,
        }
    }

    /// Checks one solve and adds its counts to `t`.
    fn check_one(&self, p: &Problem, out: &ExactOut, t: &mut Tally) -> Result<(), String> {
        let (inputs, iters, nodes) = if p.budgeted() {
            (
                "inputs.uplink1",
                "lp_iterations.uplink1",
                "mip_nodes.uplink1",
            )
        } else {
            ("inputs.free", "lp_iterations.free", "mip_nodes.free")
        };
        t.count(inputs, 1);
        let node_limit = |t: &mut Tally| {
            t.failed = true;
            t.count("resource_limits", 1);
        };
        let solve = match out.makespan.as_ref().map_err(Clone::clone)? {
            Exact::Solved(s) => s,
            Exact::NodeLimit => {
                node_limit(t);
                return Ok(());
            }
        };
        adapter::check_ip(p, solve)?;
        match &out.focd {
            Some(Ok(m)) if *m != solve.makespan => {
                return Err(format!(
                    "solve_focd finds makespan {m}, the IP certified {}",
                    solve.makespan
                ))
            }
            Some(Err(e)) => return Err(format!("solve_focd: {e}")),
            _ => {}
        }
        let bandwidth = match out
            .bandwidth
            .as_ref()
            .expect("run after a certified makespan")
        {
            Err(e) => return Err(e.clone()),
            Ok(Exact::NodeLimit) => {
                node_limit(t);
                return Ok(());
            }
            Ok(Exact::Solved(b)) => b,
        };
        adapter::check_ip(p, bandwidth)?;
        if bandwidth.bandwidth > solve.bandwidth {
            return Err(format!(
                "minimum bandwidth {} exceeds the witness's {}",
                bandwidth.bandwidth, solve.bandwidth
            ));
        }
        for s in [solve, bandwidth] {
            t.count(iters, s.lp_iterations);
            t.count(nodes, s.mip_nodes);
        }
        t.solved += 1;
        t.run(solve.makespan, bandwidth.bandwidth, bandwidth.bandwidth);
        Ok(())
    }
}

impl Workload for ExactIp {
    type Input = Vec<Problem>;
    type Output = Vec<ExactOut>;

    fn pool(&self) -> usize {
        self.pool
    }

    fn graphs(&self, seed: u64) -> Vec<Graph> {
        (0..self.free + self.uplink)
            .map(|j| {
                let n = if j < self.free {
                    self.free_n
                } else {
                    self.uplink_n
                };
                adapter::unit_gnp(n, crate::input_seed(seed, j))
            })
            .collect()
    }

    fn input(&self, graphs: Vec<Graph>) -> Vec<Problem> {
        graphs
            .into_iter()
            .enumerate()
            .map(|(j, g)| adapter::broadcast(g, PARTS, j >= self.free))
            .collect()
    }

    fn run(&self, batch: &Vec<Problem>, _seed: u64, tr: &mut Tracer) -> Vec<ExactOut> {
        batch.iter().map(|p| self.solve(p, tr)).collect()
    }

    fn check(&self, batch: &Vec<Problem>, outs: &Vec<ExactOut>) -> Result<Tally, String> {
        let mut t = Tally::default();
        for (p, out) in batch.iter().zip(outs) {
            self.check_one(p, out, &mut t)?;
        }
        Ok(t)
    }

    fn layers(&self, l: &Layers) -> Vec<(&'static str, f64)> {
        let free = ["solver.makespan_ip.free", "solver.min_bandwidth.free"];
        let uplink = ["solver.makespan_ip.uplink1", "solver.min_bandwidth.uplink1"];
        vec![
            ("solver.makespan_ip_ms", l.median_ms(&[free[0], uplink[0]])),
            ("solver.bandwidth_ip_ms", l.median_ms(&[free[1], uplink[1]])),
            ("solver.focd_bnb_ms", l.median_ms(&["solver.focd"])),
            (
                "lp.lp_iterations",
                ratio(l.pass("lp_iterations.free"), l.pass("inputs.free")),
            ),
            (
                "lp.us_per_lp_iteration",
                ratio(l.total_ms(&free) * 1e3, l.traced("lp_iterations.free")),
            ),
            (
                "lp.mip_nodes",
                ratio(l.pass("mip_nodes.uplink1"), l.pass("inputs.uplink1")),
            ),
            (
                "lp.us_per_mip_node",
                ratio(l.total_ms(&uplink) * 1e3, l.traced("mip_nodes.uplink1")),
            ),
            ("solver.resource_limits", l.pass("resource_limits")),
        ]
    }
}
