//! The benchmark's traffic mixes, built from the simulator's public types.
//!
//! Every workload is an open loop in simulated time: the whole trace is
//! generated from the seed before the run starts, so arrivals never depend
//! on how the run progresses.

use cluster::{CheckpointConfig, ClusterSpec, DistConfig, SessionConfig, WorldConfig};
use hwmodel::ModelSpec;
use simcore::time::SimDuration;
use workload::request::Trace;
use workload::serverless::TraceSpec;
use workload::SessionSpec;

const GB: u64 = 1_000_000_000;

/// Names accepted by `--workload`.
pub const NAMES: [&str; 3] = ["cold_churn", "chat_sessions", "figures_quick"];

/// How a workload's trace is generated.
pub enum TraceGen {
    /// Azure-like independent invocations.
    Serverless(TraceSpec),
    /// Multi-turn chat sessions.
    Sessions(SessionSpec),
}

impl TraceGen {
    pub fn generate(&self) -> Trace {
        match self {
            TraceGen::Serverless(spec) => spec.generate(),
            TraceGen::Sessions(spec) => spec.generate(),
        }
    }
}

/// Everything a run needs except the policy.
pub struct Workload {
    pub cluster: ClusterSpec,
    pub models: Vec<ModelSpec>,
    pub cfg: WorldConfig,
    pub trace: TraceGen,
    /// Seeds a plain run cycles over. More cells average out how much one
    /// seed's trace happens to cost.
    pub cells: u64,
}

fn replicas(base: &ModelSpec, n: usize) -> Vec<ModelSpec> {
    (0..n).map(|i| base.replica(i)).collect()
}

fn cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        ..WorldConfig::default()
    }
}

/// Builds the named workload at `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let w = match name {
        // Every burst pays a cold start: the paper's 4 + 4 testbed, a zoo
        // larger than memory, the default 1 s keep-alive, tiered DRAM + SSD
        // checkpoint caches and full checkpoint distribution, at the
        // paper's per-model rate over several hours.
        "cold_churn" => {
            let n_models = 48;
            let mut spec = TraceSpec::azure_like(n_models, seed);
            let hours = 2.0;
            spec.duration = SimDuration::from_secs((hours * 3600.0) as u64);
            spec.requests_per_model *= hours * 2.0;
            let mut c = cfg(seed);
            c.checkpoints = CheckpointConfig::tiered(60 * GB, Some(240 * GB));
            c.dist = DistConfig::full();
            Workload {
                cluster: ClusterSpec::heterogeneous(4, 4),
                models: replicas(&ModelSpec::llama2_7b(), n_models as usize),
                cfg: c,
                trace: TraceGen::Serverless(spec),
                cells: 3,
            }
        }
        // Multi-turn chat on 4 + 4 nodes with prefix reuse and a keep-alive
        // that outlasts think time, so KV is parked between turns.
        "chat_sessions" => {
            let n_models = 32;
            // `chat_like` opens its sessions over 30 minutes; stretch the
            // window to four hours at the same session rate.
            let mut spec = SessionSpec::chat_like(n_models, seed).with_load_scale(8.0);
            spec.duration = SimDuration::from_secs(4 * 3600);
            let mut c = cfg(seed);
            c.keep_alive = SimDuration::from_secs(600);
            c.sessions = SessionConfig::reuse(1.0);
            Workload {
                cluster: ClusterSpec::heterogeneous(4, 4),
                models: replicas(&ModelSpec::llama2_7b(), n_models as usize),
                cfg: c,
                trace: TraceGen::Sessions(spec),
                cells: 6,
            }
        }
        // The quick suite's Fig 22 cell (7B, 32 models, 4 + 4 nodes, one
        // 30-minute Azure-like segment), as `fig22_end_to_end --quick`
        // builds it for SLINFER and sllm.
        "figures_quick" => Workload {
            cluster: ClusterSpec::heterogeneous(4, 4),
            models: replicas(&ModelSpec::llama2_7b(), 32),
            cfg: cfg(seed),
            trace: TraceGen::Serverless(TraceSpec::azure_like(32, seed)),
            cells: 8,
        },
        _ => return None,
    };
    Some(w)
}
