//! Fleet-scale throughput grid — simulator performance, not a paper figure.
//!
//! Every other experiment reproduces a result of the paper; this one
//! measures the *simulator itself* at fleet scale: a grid of GPU fleet
//! size × daily request volume, up to 10 000 nodes × one million requests
//! in a single day-long trace, reporting simulated-seconds-per-wall-second
//! and peak RSS per cell. The committed `BENCH_scale.json` at the repo
//! root is the perf trajectory every future change is compared against
//! (see `scripts/check-scale-perf.sh`).
//!
//! Like Fig 33, the output is split along the determinism boundary:
//!
//! - `scale.json` (registered, goldened, byte-diffed by CI) carries only
//!   the deterministic payload — request outcomes, cold starts, and a
//!   64-bit fingerprint folded over every request record, so a perf
//!   regression hunt can instantly tell "slower" from "different".
//! - `BENCH_scale.json` (non-registered, never byte-diffed) carries the
//!   wall-clock rows: sim-s/wall-s and peak RSS alongside the same
//!   fingerprints, so the perf check can fail on non-determinism but only
//!   *warn* on machine-speed noise.
//!
//! Cells run serially — never through the sweep's worker pool — so each
//! wall-clock measurement gets the whole machine. `--threads` is
//! deliberately ignored. Peak RSS is the process-wide high-water mark
//! (`VmHWM`), so it is monotone across rows and only the largest cell's
//! row is a meaningful ceiling.
//!
//! The full grid doubles as the tentpole's scale proof: the 10k-node ×
//! 1M-request cell exercises the calendar event queue, the instance
//! index, and the streaming metrics on a trace two orders of magnitude
//! beyond any paper figure.

use std::time::Instant;

use crate::cli::Cli;
use crate::report::{f, Report, Table};
use crate::runner::{world_cfg, System};
use crate::zoo;
use cluster::{ClusterSpec, RunMetrics, Scenario};
use hwmodel::ModelSpec;
use simcore::time::SimDuration;
use workload::datasets::Dataset;
use workload::serverless::TraceSpec;

/// One grid cell: GPU fleet size × daily request volume.
#[derive(Debug, Clone, Copy)]
struct Pt {
    /// Grid tier the row belongs to (`"quick"` rows run in CI; `"full"`
    /// rows only in full mode, which also re-runs the quick rows so one
    /// full invocation writes the complete `BENCH_scale.json`).
    mode: &'static str,
    nodes: usize,
    requests: u64,
}

/// Quick tier: small enough for `bench all --quick` and the CI perf check.
const QUICK: &[Pt] = &[
    Pt {
        mode: "quick",
        nodes: 50,
        requests: 20_000,
    },
    Pt {
        mode: "quick",
        nodes: 200,
        requests: 60_000,
    },
];

/// Full tier: the committed perf trajectory, topping out at the tentpole
/// cell — 10 000 GPU nodes serving ≥1M requests over a simulated day.
const FULL: &[Pt] = &[
    Pt {
        mode: "full",
        nodes: 1_000,
        requests: 250_000,
    },
    Pt {
        mode: "full",
        nodes: 10_000,
        requests: 1_000_000,
    },
];

/// Hosted models scale with the fleet (two nodes per model, clamped), the
/// per-model volume follows from the daily total.
fn n_models(nodes: usize) -> usize {
    (nodes / 2).clamp(8, 4_000)
}

/// Day-long Azure-like trace hitting the cell's daily request target.
fn trace_spec(pt: &Pt, seed: u64) -> TraceSpec {
    let models = n_models(pt.nodes);
    TraceSpec {
        n_models: models as u32,
        duration: SimDuration::from_secs(86_400),
        requests_per_model: pt.requests as f64 / models as f64,
        zipf_s: 1.05,
        burst_fraction: 0.5,
        burst_gap_s: 0.3,
        dataset: Dataset::AzureConv,
        seed,
    }
}

fn build_scenario(pt: &Pt, seed: u64) -> Scenario {
    let models = zoo::replicas(&ModelSpec::llama2_7b(), n_models(pt.nodes));
    let mut cfg = world_cfg(seed);
    // Fleet-scale serving keeps instances warm for minutes, which also
    // keeps the hot path on the indexed warm-instance lookup instead of
    // cold-placement fleet scans.
    cfg.keep_alive = SimDuration::from_secs(600);
    // A day at 1 Hz would be 86k occupancy ticks; sample at 10 s instead.
    cfg.sample_period = SimDuration::from_secs(10);
    Scenario::new(ClusterSpec::heterogeneous(0, pt.nodes), models)
        .config(cfg)
        .workload(trace_spec(pt, seed).generate())
}

/// FNV-1a over every request record's numeric outcome plus the headline
/// counters: one u64 that changes iff the simulation's behaviour changes.
fn fingerprint(m: &RunMetrics) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for r in &m.records {
        fold(r.arrival.as_micros());
        fold(r.first_token.map_or(u64::MAX, |t| t.as_micros()));
        fold(r.completed.map_or(u64::MAX, |t| t.as_micros()));
        fold(u64::from(r.model.0));
        fold(u64::from(r.input_len) << 32 | u64::from(r.output_len));
        fold(
            u64::from(r.dropped)
                | u64::from(r.ttft_violated) << 1
                | u64::from(r.tpot_violated) << 2
                | u64::from(r.cold_start) << 3
                | u64::from(r.migrations) << 8,
        );
    }
    fold(m.cold_starts);
    fold(m.dropped);
    fold(m.slo_met() as u64);
    h
}

/// Peak resident set of this process in MB (`VmHWM`), 0.0 off Linux.
/// Process-wide and monotone: later rows can only report more.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            {
                return kb / 1024.0;
            }
        }
    }
    0.0
}

/// Deterministic per-cell payload (goldened as `scale.json`).
#[derive(serde::Serialize)]
struct DetRow {
    mode: String,
    nodes: usize,
    models: usize,
    requests: usize,
    slo_met: usize,
    dropped: u64,
    cold_starts: u64,
    sim_seconds: f64,
    fingerprint: String,
}

/// Wall-clock perf row (`BENCH_scale.json`, never byte-diffed).
#[derive(serde::Serialize)]
struct PerfRow {
    mode: String,
    nodes: usize,
    models: usize,
    requests: usize,
    sim_seconds: f64,
    wall_seconds: f64,
    sim_per_wall: f64,
    peak_rss_mb: f64,
    fingerprint: String,
}

/// Sweep cells (points × systems × seeds) at the quick/full tier; keep in
/// sync with the grid arrays in [`run`]. `bench list --json` reports this.
pub fn grid(quick: bool) -> usize {
    if quick {
        2
    } else {
        4
    }
}

pub fn run(cli: &Cli, r: &mut Report) {
    let seed = cli.seed;
    let points: Vec<Pt> = if cli.quick {
        QUICK.to_vec()
    } else {
        // Full mode re-runs the quick rows so one invocation produces the
        // complete trajectory file, quick tier included.
        QUICK.iter().chain(FULL).copied().collect()
    };

    r.section("Fleet-scale throughput — simulated seconds per wall second");
    r.line("GPU fleet × requests/day grid under sllm, one day-long trace per");
    r.line("cell, run serially (wall-clock measurement; `--threads` ignored).");
    let mut table = Table::new(&[
        "mode",
        "nodes",
        "models",
        "requests",
        "sim-s",
        "wall-s",
        "sim-s/wall-s",
        "peak RSS (MB)",
        "cold",
        "SLO-met",
    ]);
    let mut det: Vec<DetRow> = Vec::new();
    let mut perf: Vec<PerfRow> = Vec::new();
    for pt in &points {
        let sc = build_scenario(pt, seed);
        let requests = sc.merged_trace().requests.len();
        // detlint::allow(D003, "sim-s/wall-s throughput measurement; fingerprints, not wall-clock, are what CI gates on")
        let t0 = Instant::now();
        let m = System::Sllm.run_scenario(sc);
        let wall = t0.elapsed().as_secs_f64();
        // Simulated span actually covered: last request activity (the run
        // terminates once everything resolves, possibly past the trace
        // window into the drain). Deterministic, unlike the wall clock.
        let sim_end = m
            .records
            .iter()
            .map(|r| r.completed.unwrap_or(r.arrival).max(r.arrival))
            .max()
            .map_or(0.0, |t| t.as_secs_f64());
        let fp = format!("{:016x}", fingerprint(&m));
        let rss = peak_rss_mb();
        table.row(&[
            pt.mode.to_string(),
            pt.nodes.to_string(),
            n_models(pt.nodes).to_string(),
            requests.to_string(),
            f(sim_end, 0),
            f(wall, 2),
            f(sim_end / wall.max(1e-9), 0),
            f(rss, 0),
            m.cold_starts.to_string(),
            format!("{}/{}", m.slo_met(), m.total()),
        ]);
        det.push(DetRow {
            mode: pt.mode.to_string(),
            nodes: pt.nodes,
            models: n_models(pt.nodes),
            requests,
            slo_met: m.slo_met(),
            dropped: m.dropped,
            cold_starts: m.cold_starts,
            sim_seconds: sim_end,
            fingerprint: fp.clone(),
        });
        perf.push(PerfRow {
            mode: pt.mode.to_string(),
            nodes: pt.nodes,
            models: n_models(pt.nodes),
            requests,
            sim_seconds: sim_end,
            wall_seconds: wall,
            sim_per_wall: sim_end / wall.max(1e-9),
            peak_rss_mb: rss,
            fingerprint: fp,
        });
    }
    r.table(&table);
    r.paper_note("simulator scale proof: the full grid tops out at 10k GPU nodes ×");
    r.paper_note("1M requests/day; BENCH_scale.json is the committed perf baseline");
    r.dump_json("scale", &det);
    r.dump_json("BENCH_scale", &perf);
}
