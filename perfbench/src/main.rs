//! End-to-end benchmark of the ocd stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lockstep_gnp|swarm_lossy|coded_rlnc|exact_ip> \
//!     [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One closed loop per run: a single caller generates a pool of inputs
//! from the seed (timed as set-up, several times, median reported), then
//! runs iterations over the pool back to back for `--seconds`, checking
//! every output outside the timed region. With `--trace 0` it reports
//! the end-to-end metrics; with `--trace 1` it alternates traced and
//! untraced iterations and reports the per-layer metrics plus the
//! tracing overhead, writing the spans under `perfbench/out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A wrong output exits
//! with code 1, bad arguments with code 2.

mod adapter;
mod host;
mod stats;
mod trace;
mod workloads;

use stats::{median, per_second, ratio, tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{accumulate, Coded, ExactIp, Layers, Lockstep, Swarm, Tally, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2005;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// MIP worker threads of `exact_ip`, capped by the host's.
const MIP_THREADS: usize = 2;

/// End-to-end metrics, in output order, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("goodput_per_s", "1/s"),
    ("solves_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("makespan_mean", "steps"),
    ("bandwidth_mean", "transfers"),
];

/// Per-layer metrics with units. Every one is reported on every
/// workload; a layer the workload does not call reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("graph.generate_ms", "ms"),
    ("graph.arcs", "count"),
    ("core.instance_ms", "ms"),
    ("heuristics.simulate_ms.local", "ms"),
    ("heuristics.simulate_ms.random", "ms"),
    ("heuristics.ns_per_transfer", "ns"),
    ("heuristics.transfers", "count"),
    ("heuristics.duplicate_ratio", "ratio"),
    ("core.record_encode_ms", "ms"),
    ("core.record_decode_ms", "ms"),
    ("core.certify_ms", "ms"),
    ("core.record_bytes", "bytes"),
    ("net.swarm_ms", "ms"),
    ("net.ns_per_delivery", "ns"),
    ("net.deliveries", "count"),
    ("net.useful_ratio", "ratio"),
    ("net.msgs.have", "count"),
    ("net.msgs.request", "count"),
    ("net.msgs.token", "count"),
    ("net.msgs.cancel", "count"),
    ("net.tokens_lost", "count"),
    ("net.retransmits", "count"),
    ("net.trace_events", "count"),
    ("net.coded_ms.1k", "ms"),
    ("net.coded_ms.16b", "ms"),
    ("net.coded_mb_per_s", "MB/s"),
    ("net.coded_deliveries", "count"),
    ("net.coded_innovative_ratio", "ratio"),
    ("net.coded_lost", "count"),
    ("net.coded_request_timeouts", "count"),
    ("solver.makespan_ip_ms", "ms"),
    ("solver.bandwidth_ip_ms", "ms"),
    ("solver.focd_bnb_ms", "ms"),
    ("solver.resource_limits", "count"),
    ("lp.lp_iterations", "count"),
    ("lp.us_per_lp_iteration", "us"),
    ("lp.mip_nodes", "count"),
    ("lp.us_per_mip_node", "us"),
    ("bench.iter_ms_p50_untraced", "ms"),
    ("bench.iter_ms_p50_traced", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.fail_frac", "ratio"),
];

/// Names of the four workloads.
const WORKLOADS: [&str; 4] = ["lockstep_gnp", "swarm_lossy", "coded_rlnc", "exact_ip"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// SplitMix64 step: the seed of input `i` of a run seeded with `seed`.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one run measured.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    context: Vec<(&'static str, String)>,
    tracer: Tracer,
    error: Option<String>,
}

/// Set-up and measurement loop shared by every workload.
fn execute<W: Workload>(w: &W, args: &Args) -> Measured {
    // Set-up: the whole pool, several times; only the last pool is kept.
    let pool = w.pool();
    let mut setup_s = Vec::new();
    let mut graph_ms = Vec::new();
    let mut instance_ms = Vec::new();
    let mut arcs = 0usize;
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        inputs.clear();
        let (mut g_ns, mut i_ns) = (0u128, 0u128);
        arcs = 0;
        for i in 0..pool {
            let t0 = Instant::now();
            let graphs = w.graphs(input_seed(args.seed, i));
            let t1 = Instant::now();
            arcs += graphs.iter().map(|g| g.arcs()).sum::<usize>();
            inputs.push(w.input(graphs));
            g_ns += (t1 - t0).as_nanos();
            i_ns += t1.elapsed().as_nanos();
        }
        graph_ms.push(g_ns as f64 / 1e6);
        instance_ms.push(i_ns as f64 / 1e6);
        setup_s.push((g_ns + i_ns) as f64 / 1e9);
    }

    // Closed loop over whole passes of the pool, so every input weighs
    // the same in the medians: a new pass starts only if a pass as long
    // as the average so far still fits the budget (the first always
    // runs). With tracing, each input runs twice in a row, once traced
    // and once not, in alternating order.
    let mut tracer = Tracer::new(false);
    let mut first: Vec<Option<Tally>> = vec![None; pool];
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut traced_counts = BTreeMap::new();
    let (mut useful, mut solved, mut busy_s) = (0.0, 0u64, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut error = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    'measure: for k in 0.. {
        let i = k % pool;
        if i == 0 && k > 0 {
            let passes = (k / pool) as u32;
            if start.elapsed() + start.elapsed() / passes > budget {
                break;
            }
        }
        let order: &[bool] = match (args.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        let seed = input_seed(args.seed ^ 0x5EED, i);
        for &traced in order {
            tracer.set_enabled(traced);
            tracer.set_iteration(k as u64);
            let t0 = Instant::now();
            let out = if traced {
                tracer.span("bench.iteration", |t| w.run(&inputs[i], seed, t))
            } else {
                w.run(&inputs[i], seed, &mut tracer)
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tracer.set_enabled(false);
            attempted += 1;
            let tally = match w.check(&inputs[i], &out) {
                Ok(t) => t,
                Err(e) => {
                    error = Some(format!("iteration {k}, input {i}: {e}"));
                    break 'measure;
                }
            };
            match &first[i] {
                None => first[i] = Some(tally.clone()),
                Some(prev) if *prev != tally => {
                    error = Some(format!("input {i} gave different counts on a repeat run"));
                    break 'measure;
                }
                Some(_) => {}
            }
            failed += u64::from(tally.failed);
            if traced {
                traced_ms.push(ms);
                accumulate(&mut traced_counts, &tally);
            } else {
                untraced_ms.push(ms);
                busy_s += ms / 1e3;
                useful += tally.useful;
                solved += tally.solved;
            }
        }
    }

    let pass: Vec<Tally> = first.into_iter().flatten().collect();
    let runs: u64 = pass.iter().map(|t| t.runs).sum();
    let makespan = ratio(pass.iter().map(|t| t.makespan).sum(), runs as f64);
    let bandwidth = ratio(pass.iter().map(|t| t.bandwidth).sum(), runs as f64);
    let mut pass_counts = BTreeMap::new();
    for t in &pass {
        accumulate(&mut pass_counts, t);
    }
    let iter_tail = tail(&untraced_ms, pool).unwrap_or(stats::Tail {
        percentile: 50.0,
        value: 0.0,
        beyond: 0,
        samples: 0,
    });
    let fail_frac = ratio(failed as f64, attempted as f64);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if args.trace {
        values.extend(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)));
        let p50_untraced = median(&untraced_ms);
        let p50_traced = median(&traced_ms);
        values.extend([
            ("graph.generate_ms", median(&graph_ms)),
            ("graph.arcs", ratio(arcs as f64, pool as f64)),
            ("core.instance_ms", median(&instance_ms)),
            ("bench.iter_ms_p50_untraced", p50_untraced),
            ("bench.iter_ms_p50_traced", p50_traced),
            (
                "bench.trace_overhead",
                ratio(p50_traced, p50_untraced) - 1.0,
            ),
            ("bench.fail_frac", fail_frac),
        ]);
        values.extend(w.layers(&Layers {
            tracer: &tracer,
            pass: &pass_counts,
            traced: &traced_counts,
            pool,
        }));
    } else {
        values.extend([
            ("setup_s", median(&setup_s)),
            ("iter_ms_p50", median(&untraced_ms)),
            ("iter_ms_tail", iter_tail.value),
            ("goodput_per_s", per_second(useful, busy_s)),
            ("solves_per_s", per_second(solved as f64, busy_s)),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("makespan_mean", makespan),
            ("bandwidth_mean", bandwidth),
        ]);
    }
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = table
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect();

    let context = vec![
        ("iterations", attempted.to_string()),
        ("pool", pool.to_string()),
        ("iter_ms_tail_percentile", iter_tail.percentile.to_string()),
        ("iter_ms_tail_samples", iter_tail.samples.to_string()),
        ("iter_ms_tail_beyond", iter_tail.beyond.to_string()),
        ("fail_frac", fail_frac.to_string()),
        ("measured_s", busy_s.to_string()),
        ("useful_deliveries", useful.to_string()),
        ("setup_reps", SETUP_REPS.to_string()),
    ];
    Measured {
        correct: error.is_none(),
        attempted,
        failed,
        metrics,
        context,
        tracer,
        error,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Writes the span artifacts of a traced run; returns their paths.
fn write_trace(tracer: &Tracer, args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let chrome = dir.join(format!("{stem}.trace.json"));
    let table = dir.join(format!("{stem}.layers.txt"));
    std::fs::write(&chrome, tracer.to_chrome_json())?;
    std::fs::write(&table, tracer.render_table())?;
    Ok(format!("{} {}", chrome.display(), table.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let fp = host::Fingerprint::read();
    let threads = MIP_THREADS.min(fp.nproc);
    let m = match args.workload.as_str() {
        "lockstep_gnp" => execute(
            &Lockstep {
                n: 5_000,
                tokens: 64,
                pool: 24,
            },
            &args,
        ),
        "swarm_lossy" => execute(
            &Swarm {
                n: 2_000,
                tokens: 64,
                pool: 36,
            },
            &args,
        ),
        "coded_rlnc" => execute(
            &Coded {
                n: 200,
                k: 64,
                pool: 32,
            },
            &args,
        ),
        "exact_ip" => execute(
            &ExactIp {
                free_n: 10,
                uplink_n: 5,
                free: 20,
                uplink: 4,
                pool: 96,
                threads,
            },
            &args,
        ),
        _ => unreachable!("parse_args accepts only known workloads"),
    };

    let mut context = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cpu_model", fp.cpu_model.clone()),
        ("nproc", fp.nproc.to_string()),
        ("rustc", fp.rustc.clone()),
        ("git_rev", fp.git_rev.clone()),
        ("source_digest", fp.source_digest.clone()),
        ("profile", fp.profile.to_string()),
        ("mip_threads", threads.to_string()),
    ];
    context.extend(m.context.iter().cloned());
    if args.trace {
        print!("{}", m.tracer.render_table());
        match write_trace(&m.tracer, &args) {
            Ok(paths) => context.push(("trace_files", paths)),
            Err(e) => eprintln!("warning: could not write the trace: {e}"),
        }
    }
    for (name, value, unit) in &m.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    if let Some(e) = &m.error {
        eprintln!("error: wrong output: {e}");
    }
    let ctx: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"context\":{{{}}}}}", ctx.join(","));
    let metrics: Vec<String> = m
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        m.correct,
        m.attempted,
        m.failed,
        metrics.join(",")
    );
    if !m.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    /// The counts that must repeat exactly between equal-seed runs.
    const DETERMINISTIC: [&str; 10] = [
        "makespan_mean",
        "bandwidth_mean",
        "lp.mip_nodes",
        "lp.lp_iterations",
        "net.msgs.have",
        "net.msgs.request",
        "net.msgs.token",
        "net.msgs.cancel",
        "net.coded_innovative_ratio",
        "heuristics.duplicate_ratio",
    ];

    /// One pass over the pool, untraced then traced; the deterministic
    /// counts of both.
    fn counts<W: Workload>(w: &W, seed: u64) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        for trace in [false, true] {
            let args = Args {
                workload: String::new(),
                seed,
                seconds: 1e-9,
                trace,
            };
            let m = execute(w, &args);
            assert!(m.correct, "{:?}", m.error);
            assert_eq!(m.failed, 0);
            let kept = m
                .metrics
                .iter()
                .filter(|(n, _, _)| DETERMINISTIC.contains(n));
            out.extend(kept.map(|&(n, v, _)| (n, v)));
        }
        out
    }

    fn assert_repeats<W: Workload>(w: &W, nonzero: &[&str]) {
        let a = counts(w, 11);
        assert_eq!(a, counts(w, 11));
        for name in nonzero {
            assert!(
                a.iter().any(|&(n, v)| n == *name && v > 0.0),
                "{name} not measured"
            );
        }
    }

    #[test]
    fn equal_seeds_repeat_lockstep_counts() {
        let w = Lockstep {
            n: 120,
            tokens: 8,
            pool: 2,
        };
        assert_repeats(&w, &["makespan_mean", "bandwidth_mean"]);
    }

    #[test]
    fn equal_seeds_repeat_swarm_counts() {
        let w = Swarm {
            n: 60,
            tokens: 8,
            pool: 2,
        };
        assert_repeats(&w, &["makespan_mean", "net.msgs.have", "net.msgs.token"]);
    }

    #[test]
    fn equal_seeds_repeat_coded_counts() {
        let w = Coded {
            n: 30,
            k: 8,
            pool: 2,
        };
        assert_repeats(&w, &["bandwidth_mean", "net.coded_innovative_ratio"]);
    }

    #[test]
    fn equal_seeds_repeat_exact_counts() {
        let w = ExactIp {
            free_n: 8,
            uplink_n: 5,
            free: 2,
            uplink: 1,
            pool: 2,
            threads: 1,
        };
        assert_repeats(&w, &["makespan_mean", "lp.lp_iterations", "lp.mip_nodes"]);
    }

    #[derive(Deserialize)]
    struct Metric {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct Workloads {
        name: String,
    }

    #[derive(Deserialize)]
    struct Spec {
        workloads: Vec<Workloads>,
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    }

    #[test]
    fn benchmark_json_lists_what_the_runs_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: Spec = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let pairs = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&spec.end_to_end), own(&END_TO_END));
        assert_eq!(pairs(&spec.per_layer), own(&PER_LAYER));
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, WORKLOADS);
    }
}
