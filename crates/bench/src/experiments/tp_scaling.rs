//! Tensor-parallel scaling sweep (scenario suite).
//!
//! ServerlessLLM treats multi-GPU tensor parallelism as the norm for large
//! models, and λScale scales across devices via multi-GPU multicast — but
//! until this experiment the simulator could only express single-slot
//! instances. Here the fleet is two 4×A100 servers ([`NodeSpec::multi_accel`])
//! and the model zoo deploys at TP ∈ {1, 2, 4}: each instance claims a
//! slot *group* and pays the per-iteration all-reduce modeled by
//! [`AnalyticPerf::tp_comm_time`], so TP=2 beats TP=1 but by strictly less
//! than 2× (the interconnect discount), while wider groups also shrink how
//! many instances fit side by side.
//!
//! Building a TP scenario is ordinary [`Scenario`] composition — only the
//! fleet and the model zoo change:
//!
//! ```
//! use bench::runner::{world_cfg, System};
//! use cluster::{ClusterSpec, NodeSpec, Scenario};
//! use hwmodel::{HardwareSpec, ModelSpec};
//! use workload::serverless::TraceSpec;
//!
//! // Fleet: one 4-GPU server; zoo: 13B models deployed at TP=2.
//! let fleet = ClusterSpec {
//!     nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
//! };
//! let models = bench::zoo::replicas(&ModelSpec::llama2_13b().with_tp(2), 4);
//! let sc = Scenario::new(fleet, models)
//!     .config(world_cfg(7))
//!     .workload(TraceSpec::azure_like(4, 7).with_load_scale(0.2).generate());
//! let m = System::Slinfer(Default::default()).run_scenario(sc);
//! assert!(m.total() > 0);
//! assert_eq!(m.oom_incidents, 0);
//! ```

use crate::cli::Cli;
use crate::report::{f, Report, Table};
use crate::runner::{world_cfg, System};
use crate::sweep::{Scenario, Sweep};
use crate::zoo;
use cluster::{ClusterSpec, NodeSpec};
use hwmodel::{AnalyticPerf, HardwareSpec, ModelSpec, PerfOracle};
use workload::serverless::TraceSpec;

/// Devices per server in the sweep's fleet.
const GPUS_PER_NODE: usize = 4;

/// One sweep point: TP degree × model size × load.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pt {
    tp: u32,
    size: &'static str,
    load: f64,
}

fn base_model(size: &str) -> ModelSpec {
    match size {
        "13B" => ModelSpec::llama2_13b(),
        "34B" => ModelSpec::codellama_34b(),
        other => panic!("unknown size class {other}"),
    }
}

fn build_scenario(pt: &Pt, n_models: u32, seed: u64) -> Scenario {
    let base = base_model(pt.size).with_tp(pt.tp);
    let models = zoo::replicas(&base, n_models as usize);
    let fleet = ClusterSpec {
        nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), GPUS_PER_NODE); 2],
    };
    Scenario::new(fleet, models)
        .config(world_cfg(seed))
        .workload(
            TraceSpec::azure_like(n_models, seed)
                .with_load_scale(pt.load)
                .generate(),
        )
}

/// Sweep cells (points × systems × seeds) at the quick/full tier; keep in
/// sync with the grid arrays in [`run`]. `bench list --json` reports this.
pub fn grid(quick: bool) -> usize {
    if quick {
        3 * 2 // 1 model × 1 TP degree × 3 loads × 2 systems
    } else {
        2 * 2 * 3 * 2
    }
}

pub fn run(cli: &Cli, r: &mut Report) {
    let seed = cli.seed;
    let n_models: u32 = if cli.quick { 6 } else { 12 };
    // TP degrees {1, 2, 4} always run; full mode adds the 34B class and a
    // second load level.
    let mut points: Vec<Pt> = Vec::new();
    let sizes: &[&'static str] = if cli.quick { &["13B"] } else { &["13B", "34B"] };
    let loads: &[f64] = if cli.quick { &[1.0] } else { &[0.6, 1.2] };
    for &size in sizes {
        for &load in loads {
            for tp in [1u32, 2, 4] {
                points.push(Pt { tp, size, load });
            }
        }
    }

    // Analytic side first: the interconnect discount per TP degree, from
    // the calibrated model alone (deterministic, independent of load).
    let perf = AnalyticPerf::new();
    let gang = HardwareSpec::a100_80g().ganged(GPUS_PER_NODE as u32);
    let mut analytic = Table::new(&[
        "model",
        "TP",
        "prefill 2K (s)",
        "decode bs16 (s)",
        "speedup vs TP=1",
    ]);
    let mut analytic_dump: Vec<(String, u32, f64, f64, f64)> = Vec::new();
    for &size in sizes {
        let m1 = base_model(size);
        let d_base = perf.decode_time(&m1, &gang, 16, 16 * 2048, 1.0 / GPUS_PER_NODE as f64);
        for tp in [1u32, 2, 4] {
            let share = tp as f64 / GPUS_PER_NODE as f64;
            let mt = m1.clone().with_tp(tp);
            let p = perf.prefill_time(&mt, &gang, 2048, share);
            let d = perf.decode_time(&mt, &gang, 16, 16 * 2048, share);
            let speedup = d_base / d;
            analytic.row(&[
                size.to_string(),
                tp.to_string(),
                f(p, 4),
                f(d, 4),
                f(speedup, 3),
            ]);
            analytic_dump.push((size.to_string(), tp, p, d, speedup));
        }
    }

    let res = Sweep::new()
        .points(points)
        .systems(vec![System::Sllm, System::Slinfer(Default::default())])
        .seeds(vec![seed])
        .scenario(|cx| build_scenario(cx.point, n_models, cx.seed))
        .run_cli(cli);

    r.section(&format!(
        "TP scaling — {n_models} models on 2 × {GPUS_PER_NODE}-GPU A100 servers"
    ));
    r.line("Interconnect-discounted iteration times (analytic):");
    r.table(&analytic);
    let mut table = Table::new(&["model", "TP", "load", "system", "SLO-met", "total"]);
    let mut sweep_dump: Vec<(String, u32, f64, String, usize, usize)> = Vec::new();
    for (pi, pt) in res.points.iter().enumerate() {
        for si in 0..res.systems.len() {
            let name = res.systems[si].name();
            let m = res.metrics(pi, si, 0);
            table.row(&[
                pt.size.to_string(),
                pt.tp.to_string(),
                f(pt.load, 1),
                name.clone(),
                m.slo_met().to_string(),
                m.total().to_string(),
            ]);
            sweep_dump.push((
                pt.size.to_string(),
                pt.tp,
                pt.load,
                name,
                m.slo_met(),
                m.total(),
            ));
        }
    }
    r.table(&table);
    r.paper_note("scenario suite: multi-GPU tensor-parallel instances (ServerlessLLM");
    r.paper_note("serves large models with TP; λScale multicasts across GPUs) —");
    r.paper_note("TP=2 outruns TP=1 by strictly less than 2x: the all-reduce discount");
    r.dump_json("tp_scaling", &(analytic_dump, sweep_dump));
}
