//! No quick figure cell may reach the driver's hard stop with live
//! requests.
//!
//! The driver drops whatever is still unresolved at last arrival + its
//! drain grace, and counts it in `RunMetrics::hard_stop_drops`. A request
//! resolved there was never refused by the policy: it sat on an instance
//! that never ran again. These two SLINFER cells are rebuilt exactly as
//! their experiments build them (`bench run fig32_node_scaling --quick`
//! at 1+1 nodes, `bench run mixed_arrivals --quick` at burst 2.0, seed 7).
//! Both preempt co-tenants on shared slots, where a slot whose running
//! instance was unloaded must not stay busy.

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
