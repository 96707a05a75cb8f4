//! End-to-end behaviour of the tiered checkpoint hierarchy through the
//! full event loop: tier promotion across instance churn, the shared
//! loading channel under contention, HBM hits, and cache loss on node
//! failure — all driven by a minimal policy so only `World` semantics are
//! under test.

use cluster::checkpoint::CheckpointConfig;
use cluster::{ClusterSpec, NodeId, Policy, RunMetrics, Simulation, World, WorldConfig};
use engine::request::RunningRequest;
use hwmodel::{ModelSpec, NoiseModel};
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, Request, RequestId, SloClass, Trace};

const GB: u64 = 1_000_000_000;

/// Minimal policy: admit to an existing instance of the model when one is
/// active (unless `always_fresh`), otherwise cold-start a new instance on
/// the first schedulable node that fits; FIFO most-urgent execution and
/// the trait-default keep-alive reclaim.
struct Minimal {
    always_fresh: bool,
}

impl Policy for Minimal {
    fn name(&self) -> &str {
        "minimal-tier-test"
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        let model = rr.req.model;
        if !self.always_fresh {
            if let Some(&inst) = w.model_instances(model).first() {
                w.admit(inst, rr);
                return;
            }
        }
        let spec = w.model_spec(model).clone();
        let grant = 4 * GB;
        let nodes: Vec<NodeId> = w.node_ids().collect();
        for node in nodes {
            if !w.node_schedulable(node) || !w.node_hw(node).can_serve(&spec) {
                continue;
            }
            if w.node_available_bytes(node) < spec.weights_bytes() + grant {
                continue;
            }
            let slot = (0..w.slot_count(node))
                .min_by_key(|&s| w.slot_instances(node, s).len())
                .expect("a slot");
            if let Ok(inst) = w.create_instance(model, node, slot, grant) {
                w.admit(inst, rr);
                return;
            }
        }
        w.drop_request(&rr);
    }

    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize) {
        let now = w.now();
        let slo = w.slo();
        let next = w.slot_instances(node, slot).iter().find_map(|&inst| {
            let i = w
                .instance(inst)
                .filter(|i| i.has_work() && !w.instance_group_busy(inst))?;
            Some((inst, i.most_urgent(now, &slo)?.1))
        });
        if let Some((inst, kind)) = next {
            let _ = w.start_iteration(inst, kind);
        }
    }
}

fn trace(reqs: Vec<(u64, u32)>) -> Trace {
    let n_models = reqs.iter().map(|&(_, m)| m).max().unwrap_or(0) + 1;
    let requests = reqs
        .into_iter()
        .enumerate()
        .map(|(i, (ms, m))| Request {
            id: RequestId(i as u64),
            model: ModelId(m),
            arrival: SimTime::from_millis(ms),
            input_len: 256,
            output_len: 4,
            class: SloClass::default(),
            session: Default::default(),
        })
        .collect();
    Trace::new(requests, n_models, SimDuration::from_secs(60))
}

fn run(
    cluster: ClusterSpec,
    n_models: usize,
    ckpt: CheckpointConfig,
    t: &Trace,
    always_fresh: bool,
) -> RunMetrics {
    let models: Vec<ModelSpec> = (0..n_models)
        .map(|i| ModelSpec::llama2_7b().replica(i))
        .collect();
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        checkpoints: ckpt,
        ..WorldConfig::default()
    };
    Simulation::new(&cluster, models, cfg, Minimal { always_fresh }).run(t)
}

/// 7B weights over a tier's bandwidth, seconds.
fn load_s(bw_gbps: f64) -> f64 {
    ModelSpec::llama2_7b().weights_bytes() as f64 / (bw_gbps * 1e9)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 0.02 * b.max(1e-9)
}

#[test]
fn ssd_load_then_dram_hit_across_instance_churn() {
    // Finite DRAM cache, SSD-local checkpoints. The first cold start
    // streams from SSD and promotes the checkpoint into DRAM; after the
    // instance is keep-alive-reclaimed, the second cold start of the same
    // model is a DRAM hit — an order-of-magnitude cheaper.
    let ckpt = CheckpointConfig::tiered(30 * GB, None);
    let t = trace(vec![(0, 0), (8_000, 0)]);
    let m = run(ClusterSpec::heterogeneous(0, 1), 1, ckpt, &t, false);
    assert_eq!(m.cold_starts, 2, "keep-alive must have reclaimed");
    assert_eq!(m.cold_tier_loads, [0, 1, 1, 0]);
    let ssd = load_s(6.0);
    let dram = load_s(14.0);
    assert!(close(m.records[0].grace.as_secs_f64(), ssd));
    assert!(close(m.records[1].grace.as_secs_f64(), dram));
    assert!(close(m.cold_start_seconds_total(), ssd + dram));
}

#[test]
fn remote_fetch_when_no_local_copy_exists() {
    // SSD tier disabled: the first load is a full registry fetch.
    let ckpt = CheckpointConfig::tiered(30 * GB, Some(0));
    let t = trace(vec![(0, 0)]);
    let m = run(ClusterSpec::heterogeneous(0, 1), 1, ckpt, &t, false);
    assert_eq!(m.cold_tier_loads, [0, 0, 0, 1]);
    assert!(close(m.records[0].grace.as_secs_f64(), load_s(1.25)));
}

#[test]
fn concurrent_loads_share_the_channel() {
    // Two different models cold-start simultaneously on one node: each
    // sees bw/2 for the whole overlap, so both take exactly twice the
    // uncontended DRAM load time.
    let contended = CheckpointConfig {
        contention: true,
        ..CheckpointConfig::flat()
    };
    let t = trace(vec![(0, 0), (0, 1)]);
    let m = run(ClusterSpec::heterogeneous(0, 1), 2, contended, &t, false);
    assert_eq!(m.cold_tier_loads, [0, 2, 0, 0]);
    let dram = load_s(14.0);
    for rec in &m.records {
        assert!(
            close(rec.grace.as_secs_f64(), 2.0 * dram),
            "contended load {:?} vs expected {}",
            rec.grace,
            2.0 * dram
        );
    }
    // The flat default does not contend: same trace, solo-speed loads.
    let t2 = trace(vec![(0, 0), (0, 1)]);
    let flat = run(
        ClusterSpec::heterogeneous(0, 1),
        2,
        CheckpointConfig::flat(),
        &t2,
        false,
    );
    for rec in &flat.records {
        assert!(close(rec.grace.as_secs_f64(), dram));
    }
}

#[test]
fn straggler_speeds_up_when_neighbour_finishes() {
    // Load A starts alone; B joins 500 ms in. A finishes first (it had a
    // head start), B's tail runs uncontended again. Total durations are
    // pinned by the processor-sharing schedule:
    //   A: 0.5 s alone + shared window until its work is done.
    let contended = CheckpointConfig {
        contention: true,
        ..CheckpointConfig::flat()
    };
    let t = trace(vec![(0, 0), (500, 1)]);
    let m = run(ClusterSpec::heterogeneous(0, 1), 2, contended, &t, false);
    let w = load_s(14.0); // uncontended work per load, seconds
    let a = m.records[0].grace.as_secs_f64();
    let b = m.records[1].grace.as_secs_f64();
    // A: 0.5 alone, remaining (w - 0.5) at half speed.
    assert!(close(a, 0.5 + 2.0 * (w - 0.5)), "A {a}");
    // B: shares until A ends (A's tail lasts 2(w-0.5)), then finishes
    // its own remaining work at full speed. The two durations coincide —
    // A's solo head start exactly mirrors B's solo tail.
    let shared = 2.0 * (w - 0.5);
    assert!(close(b, shared + (w - shared / 2.0)), "B {b}");
    assert!(close(a, b), "staggered symmetric overlap: {a} vs {b}");
    assert!(b < 2.0 * w, "partial overlap beats full 2x stretching");
}

#[test]
fn hbm_hit_for_co_resident_model() {
    // Same model, second instance forced onto the same node while the
    // first is active: the weights are already in serving memory, so the
    // second cold start is a near-free device copy.
    let ckpt = CheckpointConfig {
        hbm_hits: true,
        ..CheckpointConfig::flat()
    };
    let mut cfg_trace = trace(vec![(0, 0), (3_000, 0)]);
    cfg_trace.requests[1].input_len = 256;
    let models = vec![ModelSpec::llama2_7b()];
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        keep_alive: SimDuration::from_secs(30),
        checkpoints: ckpt,
        ..WorldConfig::default()
    };
    let m = Simulation::new(
        &ClusterSpec::heterogeneous(0, 1),
        models,
        cfg,
        Minimal { always_fresh: true },
    )
    .run(&cfg_trace);
    assert_eq!(m.cold_starts, 2);
    assert_eq!(m.cold_tier_loads, [1, 1, 0, 0]);
    assert!(close(m.records[0].grace.as_secs_f64(), load_s(14.0)));
    assert!(close(m.records[1].grace.as_secs_f64(), load_s(1300.0)));
}

#[test]
fn node_fail_mid_load_refetches_remotely_elsewhere() {
    // The checkpoint was being fetched on node 0 when the node died: the
    // in-flight load is cancelled (its completion event goes stale), the
    // displaced request re-places on node 1, and — caches being per-node
    // and node 0's store dying with it — the refetch is remote again.
    let ckpt = CheckpointConfig::tiered(30 * GB, Some(100 * GB));
    let t = trace(vec![(0, 0)]);
    let models = vec![ModelSpec::llama2_7b()];
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        checkpoints: ckpt,
        ..WorldConfig::default()
    };
    let mut sim = Simulation::new(
        &ClusterSpec::heterogeneous(0, 2),
        models,
        cfg,
        Minimal {
            always_fresh: false,
        },
    );
    sim.world.push_cluster_event(
        SimTime::from_secs(5),
        cluster::ClusterEvent::NodeFail(NodeId(0)),
    );
    let m = sim.run(&t);
    assert_eq!(m.node_failures, 1);
    assert_eq!(
        m.cold_tier_loads,
        [0, 0, 0, 2],
        "both fetches remote: the warm state died with node 0"
    );
    assert!(
        m.records[0].completed.is_some(),
        "request finishes on node 1"
    );
    // Only the second load completed; the first died mid-flight, so
    // completed load-seconds cover exactly one remote fetch.
    assert!(close(m.cold_start_seconds_total(), load_s(1.25)));
}
