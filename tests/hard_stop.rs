//! No SLINFER figure cell pinned here may reach the driver's hard stop
//! with live requests.
//!
//! The driver drops whatever is still unresolved at last arrival + its
//! drain grace, and counts it in `RunMetrics::hard_stop_drops`. A request
//! resolved there was never refused by the policy: it sat on an instance
//! that never ran again. Each cell is rebuilt exactly as its experiment
//! builds it. Two are quick cells at seed 7 (`bench run
//! fig32_node_scaling --quick` at 1+1 nodes, `bench run mixed_arrivals
//! --quick` at burst 2.0); both preempt co-tenants on shared slots, where
//! a slot whose running instance was unloaded must not stay busy. Two are
//! full-mode Fig 31 cells (`bench run fig31_watermark` at a 0% watermark
//! and seed 7, and at 10% and seed 1009); there a KV-full instance must
//! not wait forever on a planned scale-up that its node's memory budget
//! approved but the node can never hold.

use bench::runner::{world_cfg, System};
use bench::sweep::Scenario;
use bench::zoo;
use cluster::RunMetrics;
use hwmodel::ModelSpec;
use slinfer::SlinferConfig;
use workload::burstgpt::BurstGptSpec;
use workload::request::Slo;
use workload::serverless::TraceSpec;

const SEED: u64 = 7;

fn slinfer() -> System {
    System::Slinfer(SlinferConfig::default())
}

fn assert_nothing_left_at_hard_stop(cell: &str, m: &RunMetrics) {
    assert_eq!(
        m.hard_stop_drops,
        0,
        "{cell}: {} of {} requests were still live at the hard stop",
        m.hard_stop_drops,
        m.total()
    );
}

#[test]
fn fig32_quick_one_plus_one_resolves_before_the_hard_stop() {
    let sys = slinfer();
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 24);
    let sc = Scenario::new(sys.cluster(1, 1, &models), models)
        .config(world_cfg(SEED))
        .workload(TraceSpec::azure_like(24, SEED).generate());
    let m = sys.run_scenario(sc);
    assert_eq!(m.total(), 1769, "not the goldened cell");
    assert_nothing_left_at_hard_stop("fig32 1+1", &m);
}

#[test]
fn mixed_arrivals_quick_burst_two_resolves_before_the_hard_stop() {
    let sys = slinfer();
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 16);
    let mut sc = Scenario::new(sys.cluster(2, 2, &models), models).config(world_cfg(SEED));
    let burst_class = sc.slo_class(Slo::paper());
    let burst = BurstGptSpec {
        n_models: 16,
        ..BurstGptSpec::paper(2.0, SEED ^ 0xB6B5)
    }
    .generate();
    let sc = sc
        .workload(TraceSpec::azure_like(16, SEED).generate())
        .classed_workload(burst, burst_class);
    let m = sys.run_scenario(sc);
    assert_eq!(m.total(), 4721, "not the goldened cell");
    assert_nothing_left_at_hard_stop("mixed_arrivals burst 2.0", &m);
}

/// A full-mode Fig 31 cell: 64 7B replicas on 4+4 nodes at watermark `w`.
fn fig31_full(w: f64, seed: u64) -> RunMetrics {
    let sys = System::Slinfer(SlinferConfig::default().with_watermark(w));
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 64);
    let sc = Scenario::new(sys.cluster(4, 4, &models), models)
        .config(world_cfg(seed))
        .workload(TraceSpec::azure_like(64, seed).generate());
    sys.run_scenario(sc)
}

#[test]
fn fig31_full_zero_watermark_resolves_before_the_hard_stop() {
    let m = fig31_full(0.0, SEED);
    assert_eq!(m.total(), 4706, "not the figure's cell");
    assert_nothing_left_at_hard_stop("fig31 full 0% seed 7", &m);
}

#[test]
fn fig31_full_ten_percent_watermark_seed_1009_resolves_before_the_hard_stop() {
    let m = fig31_full(0.10, 1009);
    assert_eq!(m.total(), 4700, "not the figure's cell");
    assert_nothing_left_at_hard_stop("fig31 full 10% seed 1009", &m);
}
