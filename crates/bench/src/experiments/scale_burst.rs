//! Flash-crowd scale-out under checkpoint distribution (scenario suite).
//!
//! λScale's headline result is that scale-out speed is gated by checkpoint
//! *distribution*, not node availability: serial registry fetches price
//! every new replica at the full remote download, peer-to-peer fetches
//! stream the weights from another node's DRAM over the fabric, and a
//! multicast tree lets mid-transfer replicas immediately re-serve what
//! they have received. This experiment stages that burst: one pre-warm
//! request parks a single warm copy of the model in a node's DRAM cache,
//! then a flash crowd of requests arrives at once and the policy fans the
//! model out across the fleet. The sweep compares the three distribution
//! modes on time-to-N-replicas and TTFT.
//!
//! Turning distribution on is one builder call (this doctest backs the
//! README's "Checkpoint distribution and scale-out bursts" snippet):
//!
//! ```
//! use bench::runner::{world_cfg, System};
//! use cluster::{CheckpointConfig, ClusterSpec, DistConfig, Scenario};
//! use hwmodel::ModelSpec;
//! use workload::serverless::TraceSpec;
//!
//! let models = bench::zoo::replicas(&ModelSpec::llama2_7b(), 4);
//! let sc = Scenario::new(ClusterSpec::heterogeneous(0, 4), models)
//!     .config(world_cfg(7))
//!     .checkpoints(CheckpointConfig::tiered(30_000_000_000, Some(0)))
//!     // Peer fetch + multicast relays + cache-aware keep-alive; the
//!     // default (`DistConfig::off()`) replays the PR 5 loader exactly.
//!     .dist(DistConfig::full())
//!     .workload(TraceSpec::azure_like(4, 7).with_load_scale(0.4).generate());
//! let m = System::Slinfer(Default::default()).run_scenario(sc);
//! // Fabric fetches are accounted separately from the local tiers.
//! assert_eq!(
//!     m.cold_starts,
//!     m.cold_tier_loads.iter().sum::<u64>() + m.peer_fetches
//! );
//! ```

use crate::cli::Cli;
use crate::report::{f, Report, Table};
use crate::runner::{world_cfg, System};
use crate::sweep::{Scenario, Sweep};
use crate::zoo;
use cluster::{CheckpointConfig, ClusterSpec, DistConfig};
use hwmodel::ModelSpec;
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, Request, RequestId, SloClass, Trace};

const GB: u64 = 1_000_000_000;

/// Replica count the burst must reach; `time_to_n` measures how fast.
pub const TARGET_REPLICAS: usize = 4;

/// When the flash crowd hits (the pre-warm request arrives at t=1 s and
/// its instance is long unloaded by then — only the DRAM cache copy and
/// the directory entry survive).
const BURST_AT_S: f64 = 60.0;

/// Checkpoint-distribution mode under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// `DistConfig::off()`: every miss is a serial registry fetch.
    Registry,
    /// Peer-to-peer fabric fetch from ready replicas only.
    Peer,
    /// Peer fetch + multicast relay tree + cache-aware keep-alive.
    Multicast,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Registry => "registry",
            Mode::Peer => "peer",
            Mode::Multicast => "multicast",
        }
    }

    fn dist(self) -> DistConfig {
        match self {
            Mode::Registry => DistConfig::off(),
            Mode::Peer => DistConfig::peer(),
            Mode::Multicast => DistConfig::full(),
        }
    }
}

/// One sweep point: distribution mode × flash-crowd size.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pt {
    mode: Mode,
    burst: u32,
}

/// The staged trace: one pre-warm request, then `burst` near-simultaneous
/// requests on the same model. A 7B instance on a GPU slot admits 32
/// concurrent requests, so a burst of 112 forces four replicas; the long
/// prompts keep every request in flight until the whole crowd has landed.
fn burst_trace(burst: u32) -> Trace {
    let mut reqs = Vec::with_capacity(burst as usize + 1);
    let mut push = |arrival_s: f64, input_len: u32, output_len: u32| {
        let id = RequestId(reqs.len() as u64);
        reqs.push(Request {
            id,
            model: ModelId(0),
            arrival: SimTime::from_secs_f64(arrival_s),
            input_len,
            output_len,
            class: SloClass(0),
            session: Default::default(),
        });
    };
    push(1.0, 256, 64);
    for i in 0..burst {
        // 20 ms stagger: tight enough that scale-out transfers overlap
        // (so the multicast tree has mid-transfer replicas to relay from),
        // but a deterministic total order of creates.
        push(BURST_AT_S + 0.02 * i as f64, 3072, 256);
    }
    Trace::new(reqs, 1, SimDuration::from_secs(300))
}

fn build_scenario(pt: &Pt, seed: u64) -> Scenario {
    // Single-model zoo on single-GPU nodes: every scale-out replica needs
    // the same checkpoint. DRAM caches hold two copies; the zero-capacity
    // SSD tier forces every true miss all the way to the registry, which
    // is exactly the gap distribution is meant to close.
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 1);
    Scenario::new(ClusterSpec::heterogeneous(0, 6), models)
        .config(world_cfg(seed))
        .checkpoints(CheckpointConfig::tiered(30 * GB, Some(0)))
        .dist(pt.mode.dist())
        .workload(burst_trace(pt.burst))
}

/// Seconds from the burst's first arrival until the fleet's
/// `TARGET_REPLICAS`-th replica activation, or `None` if the run never got
/// there. Activations before the burst (the pre-warm) are excluded.
fn time_to_n(activations: &[(ModelId, f64)]) -> Option<f64> {
    activations
        .iter()
        .filter(|(_, t)| *t >= BURST_AT_S)
        .map(|&(_, t)| t - BURST_AT_S)
        .nth(TARGET_REPLICAS - 1)
}

/// Sweep cells (points × systems × seeds) at the quick/full tier; keep in
/// sync with the grid arrays in [`run`]. `bench list --json` reports this.
pub fn grid(quick: bool) -> usize {
    if quick {
        3 * 2
    } else {
        6 * 2
    }
}

pub fn run(cli: &Cli, r: &mut Report) {
    let seed = cli.seed;
    let bursts: &[u32] = if cli.quick { &[112] } else { &[112, 160] };
    let mut points = Vec::new();
    for &burst in bursts {
        for mode in [Mode::Registry, Mode::Peer, Mode::Multicast] {
            points.push(Pt { mode, burst });
        }
    }

    let res = Sweep::new()
        .points(points)
        .systems(vec![System::Sllm, System::Slinfer(Default::default())])
        .seeds(vec![seed])
        .scenario(|cx| build_scenario(cx.point, cx.seed))
        .run_cli(cli);

    r.section("Flash-crowd scale-out — registry fetch vs peer fetch vs multicast");
    r.line("Fleet: 6 × A100; one 7B model; one pre-warmed DRAM copy; a flash");
    r.line(format!(
        "crowd at t={BURST_AT_S} s. time-to-{TARGET_REPLICAS} = seconds until the \
         {TARGET_REPLICAS}th replica activates."
    ));
    let mut table = Table::new(&[
        "mode",
        "burst",
        "system",
        &format!("time-to-{TARGET_REPLICAS} (s)"),
        "TTFT p50 (s)",
        "TTFT p95 (s)",
        "cold",
        "peer",
        "relay",
        "hbm/dram/ssd/remote",
    ]);
    #[derive(serde::Serialize)]
    struct Row {
        mode: String,
        burst: u32,
        system: String,
        time_to_n: Option<f64>,
        target_replicas: usize,
        ttft_p50: f64,
        ttft_p95: f64,
        cold_starts: u64,
        peer_fetches: u64,
        peer_fetch_seconds: f64,
        multicast_relays: u64,
        transfer_reroutes: u64,
        tier_loads: [u64; 4],
    }
    let mut dump: Vec<Row> = Vec::new();
    let points: Vec<Pt> = res.points.clone();
    for (pi, pt) in points.iter().enumerate() {
        for si in 0..res.systems.len() {
            let name = res.systems[si].name();
            let (ttft_p50, ttft_p95) = {
                let mut t = res.metrics(pi, si, 0).ttft_summary();
                (t.percentile(50.0), t.percentile(95.0))
            };
            let m = res.metrics(pi, si, 0);
            let ttn = time_to_n(&m.activations);
            let tiers = m.cold_tier_loads;
            table.row(&[
                pt.mode.label().into(),
                pt.burst.to_string(),
                name.clone(),
                ttn.map(|t| f(t, 2)).unwrap_or_else(|| "—".into()),
                f(ttft_p50, 3),
                f(ttft_p95, 3),
                m.cold_starts.to_string(),
                m.peer_fetches.to_string(),
                m.multicast_relays.to_string(),
                format!("{}/{}/{}/{}", tiers[0], tiers[1], tiers[2], tiers[3]),
            ]);
            dump.push(Row {
                mode: pt.mode.label().into(),
                burst: pt.burst,
                system: name,
                time_to_n: ttn,
                target_replicas: TARGET_REPLICAS,
                ttft_p50,
                ttft_p95,
                cold_starts: m.cold_starts,
                peer_fetches: m.peer_fetches,
                peer_fetch_seconds: m.peer_fetch_seconds,
                multicast_relays: m.multicast_relays,
                transfer_reroutes: m.transfer_reroutes,
                tier_loads: m.cold_tier_loads,
            });
        }
    }
    r.table(&table);
    r.paper_note("scenario suite: cross-node checkpoint distribution (λScale");
    r.paper_note("peer-to-peer fetch and multicast scale-out; LLM-Mesh fleet-");
    r.paper_note("replica-aware eviction) — scale-out speed is gated by how the");
    r.paper_note("checkpoint moves, not by node availability");
    r.dump_json("scale_burst", &dump);
}
