//! Measures one system on one workload and prints one JSON object.
//!
//! ```text
//! perfbench --workload NAME --seed N --system slinfer|sllm
//!           --mode plain|traced --seconds S
//! ```
//!
//! `plain` cycles over the workload's cells — the workload at
//! [`Workload::cells`] seeds derived from `N` — repeating set-up (trace
//! generation + `World` construction) and an untraced `Simulation::run`
//! until `S` seconds have passed and every cell ran at least twice. It
//! reports each repetition's wall times and outcome, each cell's fastest
//! set-up over the whole measurement, and the process's peak RSS.
//! `traced` alternates untraced runs of the seed-`N` cell with runs whose
//! policy is wrapped in [`timed::Timed`], and reports the per-callback
//! split. `run.py` next to this crate drives both modes and aggregates
//! them.

mod timed;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use baselines::sllm::{Sllm, SllmConfig};
use cluster::{ClusterSpec, Policy, RunMetrics, Simulation};
use hwmodel::{HardwareKind, ModelSpec};
use serde::Serialize;
use simcore::stats::Summary;
use slinfer::{Slinfer, SlinferConfig};
use workload::serverless::TraceSpec;

use timed::{Record, Tally, Timed, CALLBACKS};
use workloads::Workload;

/// Repetitions every cell runs at least, untraced and traced.
const MIN_PLAIN_REPS: usize = 2;
const MIN_TRACED_REPS: usize = 1;
/// Extra set-ups timed before each repetition. Set-up takes milliseconds,
/// so one sample is mostly host noise.
const EXTRA_SETUPS: usize = 8;

struct Args {
    workload: String,
    seed: u64,
    system: String,
    traced: bool,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 7,
        system: String::new(),
        traced: false,
        seconds: 5.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("malformed value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--system" => a.system = val.clone(),
            "--mode" => {
                a.traced = match val.as_str() {
                    "plain" => false,
                    "traced" => true,
                    _ => return Err(format!("unknown mode {val}")),
                }
            }
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    if a.system != "slinfer" && a.system != "sllm" {
        return Err(format!("unknown system `{}`", a.system));
    }
    Ok(a)
}

/// The outcome counts compared across repetitions and between traced and
/// untraced runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct Counts {
    requests: u64,
    completed: u64,
    dropped: u64,
    slo_met: u64,
    cold_starts: u64,
    shadow_validations: u64,
    decode_tokens: u64,
}

impl Counts {
    fn of(m: &RunMetrics) -> Counts {
        Counts {
            requests: m.total() as u64,
            completed: m.records.iter().filter(|r| r.completed.is_some()).count() as u64,
            dropped: m.dropped,
            slo_met: m.slo_met() as u64,
            cold_starts: m.cold_starts,
            shadow_validations: m.shadow_validations,
            decode_tokens: m.cpu_decode_tokens + m.gpu_decode_tokens,
        }
    }
}

/// Physical conservation checks on one run's outcome.
fn conservation_errors(m: &RunMetrics) -> Vec<String> {
    let mut errs = Vec::new();
    let c = Counts::of(m);
    if c.completed + c.dropped != c.requests {
        errs.push(format!(
            "completed {} + dropped {} != requests {}",
            c.completed, c.dropped, c.requests
        ));
    }
    // With checkpoint distribution on, fabric fetches are cold starts that
    // bypass the tier counters (see `RunMetrics::peer_fetches`).
    let tiers: u64 = m.cold_tier_loads.iter().sum();
    if tiers + m.peer_fetches != m.cold_starts {
        errs.push(format!(
            "tier loads {tiers} + peer fetches {} != cold starts {}",
            m.peer_fetches, m.cold_starts
        ));
    }
    errs
}

/// Peak resident set of this process in MB (`VmHWM`), 0.0 off Linux.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: trace generation, then `World` construction.
struct Built<P: Policy> {
    sim: Simulation<P>,
    trace: workload::request::Trace,
    generate_s: f64,
    world_new_s: f64,
}

fn build<P: Policy>(w: &Workload, policy: P) -> Built<P> {
    let t0 = Instant::now();
    let trace = w.trace.generate();
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let sim = Simulation::new(&w.cluster, w.models.clone(), w.cfg.clone(), policy);
    let world_new_s = t1.elapsed().as_secs_f64();
    Built {
        sim,
        trace,
        generate_s,
        world_new_s,
    }
}

/// A run's wall time and metrics.
fn run<P: Policy>(b: Built<P>) -> (f64, RunMetrics) {
    let t0 = Instant::now();
    let m = b.sim.run(&b.trace);
    (t0.elapsed().as_secs_f64(), m)
}

/// Dispatches on the system name with the concrete policy type in scope.
macro_rules! with_policy {
    ($system:expr, |$p:ident| $body:expr) => {
        if $system == "slinfer" {
            let $p = || Slinfer::new(SlinferConfig::default());
            $body
        } else {
            let $p = || Sllm::new(SllmConfig::sllm());
            $body
        }
    };
}

/// Seed of cell `i`: cell 0 is the workload at `seed` itself.
fn cell_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(1_000_000))
}

/// One untraced repetition of one cell.
#[derive(Serialize)]
struct Rep {
    cell: usize,
    generate_s: f64,
    world_new_s: f64,
    run_s: f64,
    sim_s: f64,
    gpu_nodes_avg: f64,
    cpu_nodes_avg: f64,
    counts: Counts,
}

#[derive(Serialize)]
struct PlainReport {
    reps: Vec<Rep>,
    /// Per cell, its fastest set-up, counting [`EXTRA_SETUPS`] more per
    /// repetition.
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    errors: Vec<String>,
}

fn plain<P: Policy>(a: &Args, policy: impl Fn() -> P) -> PlainReport {
    let mut cells = vec![workloads::build(&a.workload, a.seed).expect("validated name")];
    for i in 1..cells[0].cells {
        cells.push(workloads::build(&a.workload, cell_seed(a.seed, i)).expect("validated name"));
    }
    let mut setup_s = vec![f64::INFINITY; cells.len()];
    let t_start = Instant::now();
    let mut reps = Vec::new();
    let mut errors = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_PLAIN_REPS || t_start.elapsed().as_secs_f64() < a.seconds {
        for (cell, w) in cells.iter().enumerate() {
            // Spread over the whole measurement, so that the fastest set-up
            // is from a moment the host's other tenants left it alone.
            for _ in 0..EXTRA_SETUPS {
                let b = build(w, policy());
                setup_s[cell] = setup_s[cell].min(b.generate_s + b.world_new_s);
            }
            let b = build(w, policy());
            let (generate_s, world_new_s) = (b.generate_s, b.world_new_s);
            setup_s[cell] = setup_s[cell].min(generate_s + world_new_s);
            let (run_s, m) = run(b);
            errors.extend(conservation_errors(&m));
            reps.push(Rep {
                cell,
                generate_s,
                world_new_s,
                run_s,
                sim_s: m.end_time.as_secs_f64(),
                gpu_nodes_avg: m.avg_nodes_used(HardwareKind::Gpu),
                cpu_nodes_avg: m.avg_nodes_used(HardwareKind::CpuAccel),
                counts: Counts::of(&m),
            });
        }
        rounds += 1;
    }
    PlainReport {
        reps,
        setup_s,
        peak_rss_mb: peak_rss_mb(),
        errors,
    }
}

fn pct(v: &mut [u32], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    f64::from(v[rank.clamp(1, v.len()) - 1])
}

/// Per-layer summary of one traced run.
#[derive(Serialize)]
struct Layers {
    run_s: f64,
    callbacks: BTreeMap<&'static str, Tally>,
    driver_self_s: f64,
    arrival_cold: Tally,
    arrival_warm: Tally,
    arrival_p50_us: f64,
    arrival_p99_us: f64,
    slot_free_p50_us: f64,
    slot_free_p99_us: f64,
    useful_ratio: f64,
}

impl Layers {
    fn of(mut t: Record, run_s: f64) -> Layers {
        let busy_s: f64 = t.tally.iter().map(|x| x.busy_ns as f64 * 1e-9).sum();
        let pokes = t.tally[1].calls;
        Layers {
            run_s,
            callbacks: CALLBACKS.iter().copied().zip(t.tally).collect(),
            driver_self_s: run_s - busy_s,
            arrival_cold: t.arrival_cold,
            arrival_warm: t.arrival_warm,
            arrival_p50_us: pct(&mut t.arrival_ns, 50.0) * 1e-3,
            arrival_p99_us: pct(&mut t.arrival_ns, 99.0) * 1e-3,
            slot_free_p50_us: pct(&mut t.slot_free_ns, 50.0) * 1e-3,
            slot_free_p99_us: pct(&mut t.slot_free_ns, 99.0) * 1e-3,
            useful_ratio: share(t.useful_pokes as f64, pokes as f64),
        }
    }
}

fn share(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Deterministic work counters of one run.
#[derive(Serialize)]
struct Counters {
    shadow_validations: u64,
    shadow_per_arrival: f64,
    preemptions: u64,
    migrations: u64,
    scale_ops: u64,
    cold_starts: u64,
    cold_share: f64,
    /// Indexed hbm, dram, ssd, remote.
    cold_tier_loads: [u64; 4],
    peer_fetches: u64,
    multicast_relays: u64,
    transfer_reroutes: u64,
    kv_migrations: u64,
    decode_tokens: u64,
    batch_size_p50: f64,
    kv_util_p50: f64,
    prefix_hit_tokens: u64,
    prefix_hit_share: f64,
}

impl Counters {
    fn of(m: &RunMetrics) -> Counters {
        let p50 = |s: &Summary| s.clone().percentile(50.0);
        let prompt: u64 = m.records.iter().map(|r| u64::from(r.input_len)).sum();
        let cached: u64 = m.records.iter().map(|r| u64::from(r.prefix_cached)).sum();
        let cold_requests = m.records.iter().filter(|r| r.cold_start).count();
        let total = m.total() as f64;
        Counters {
            shadow_validations: m.shadow_validations,
            shadow_per_arrival: share(m.shadow_validations as f64, total),
            preemptions: m.preemptions,
            migrations: m.migrations,
            scale_ops: m.scale_ops,
            cold_starts: m.cold_starts,
            cold_share: share(cold_requests as f64, total),
            cold_tier_loads: m.cold_tier_loads,
            peer_fetches: m.peer_fetches,
            multicast_relays: m.multicast_relays,
            transfer_reroutes: m.transfer_reroutes,
            kv_migrations: m.kv_migrations,
            decode_tokens: m.cpu_decode_tokens + m.gpu_decode_tokens,
            batch_size_p50: p50(&m.batch_sizes),
            kv_util_p50: p50(&m.kv_util),
            prefix_hit_tokens: m.prefix_hit_tokens,
            prefix_hit_share: share(cached as f64, prompt as f64),
        }
    }
}

/// A small scenario run wrapped and unwrapped must give identical counts.
fn wrapper_is_transparent<P: Policy>(policy: impl Fn() -> P) -> bool {
    let models: Vec<ModelSpec> = (0..8).map(|i| ModelSpec::llama2_7b().replica(i)).collect();
    let cluster = ClusterSpec::heterogeneous(1, 2);
    let cfg = cluster::WorldConfig {
        seed: 3,
        ..Default::default()
    };
    let trace = TraceSpec::azure_like(8, 3).with_load_scale(0.5).generate();
    let bare = Simulation::new(&cluster, models.clone(), cfg.clone(), policy()).run(&trace);
    let mut rec = Record::default();
    let wrapped =
        Simulation::new(&cluster, models, cfg, Timed::new(policy(), &mut rec)).run(&trace);
    Counts::of(&bare) == Counts::of(&wrapped)
}

#[derive(Serialize)]
struct TracedReport {
    transparent: bool,
    plain_run_s: Vec<f64>,
    traced_run_s: Vec<f64>,
    trace_overhead_s: f64,
    plain_counts: Vec<Counts>,
    traced_counts: Vec<Counts>,
    generate_s: Vec<f64>,
    world_new_s: Vec<f64>,
    layers: Layers,
    counters: Counters,
    errors: Vec<String>,
}

fn traced<P: Policy>(a: &Args, policy: impl Fn() -> P) -> TracedReport {
    let w = &workloads::build(&a.workload, a.seed).expect("validated name");
    let t_start = Instant::now();
    let transparent = wrapper_is_transparent(&policy);
    let mut plain_run_s = Vec::new();
    let mut plain_counts = Vec::new();
    let mut traced_run_s = Vec::new();
    let mut traced_counts = Vec::new();
    let mut generate_s = Vec::new();
    let mut world_new_s = Vec::new();
    let mut fastest: Option<Layers> = None;
    let mut last: Option<RunMetrics> = None;
    let mut errors = Vec::new();
    while traced_run_s.len() < MIN_TRACED_REPS || t_start.elapsed().as_secs_f64() < a.seconds {
        let b = build(w, policy());
        generate_s.push(b.generate_s);
        world_new_s.push(b.world_new_s);
        let (s, m) = run(b);
        errors.extend(conservation_errors(&m));
        plain_run_s.push(s);
        plain_counts.push(Counts::of(&m));

        let mut rec = Record::default();
        let b = build(w, Timed::new(policy(), &mut rec));
        generate_s.push(b.generate_s);
        world_new_s.push(b.world_new_s);
        let (s, m) = run(b);
        errors.extend(conservation_errors(&m));
        traced_run_s.push(s);
        traced_counts.push(Counts::of(&m));
        // Report the fastest traced repetition, the one other tenants of
        // the host disturbed least.
        if fastest.as_ref().is_none_or(|f| s < f.run_s) {
            fastest = Some(Layers::of(rec, s));
        }
        last = Some(m);
    }
    let m = last.expect("at least one repetition ran");
    let layers = fastest.expect("at least one repetition ran");
    let plain_min = plain_run_s.iter().copied().fold(f64::INFINITY, f64::min);
    TracedReport {
        transparent,
        trace_overhead_s: layers.run_s - plain_min,
        plain_run_s,
        traced_run_s,
        plain_counts,
        traced_counts,
        generate_s,
        world_new_s,
        layers,
        counters: Counters::of(&m),
        errors,
    }
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = with_policy!(a.system, |p| if a.traced {
        serde_json::to_string(&traced(&a, p))
    } else {
        serde_json::to_string(&plain(&a, p))
    });
    println!("{}", out.expect("serializing a report cannot fail"));
}
