//! Direct unit tests of the `World` API: placement queries, memory ledger
//! transitions, estimation helpers, and the operation lifecycle — below the
//! driver, above the engine.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{
    ClusterEvent, ClusterSpec, MemError, NodeId, NodeSpec, Policy, Simulation, World, WorldConfig,
};
use engine::instance::InstanceId;
use engine::request::RunningRequest;
use hwmodel::{HardwareKind, HardwareSpec, ModelSpec, NoiseModel, PerfOracle};
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, Request, RequestId, SloClass, Trace};

const GB: u64 = 1_000_000_000;

fn world() -> World {
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        ..WorldConfig::default()
    };
    World::new(
        &ClusterSpec::heterogeneous(1, 1),
        vec![ModelSpec::llama2_7b(), ModelSpec::codellama_34b()],
        cfg,
    )
}

fn rr(id: u64, model: u32) -> RunningRequest {
    RunningRequest::new(Request {
        id: RequestId(id),
        model: ModelId(model),
        arrival: SimTime::ZERO,
        input_len: 256,
        output_len: 8,
        class: SloClass::default(),
        session: Default::default(),
    })
}

#[test]
fn node_views_and_kinds() {
    let w = world();
    assert_eq!(w.node_count(), 2);
    assert_eq!(w.nodes_of_kind(HardwareKind::CpuAccel), vec![NodeId(0)]);
    assert_eq!(w.nodes_of_kind(HardwareKind::Gpu), vec![NodeId(1)]);
    assert_eq!(w.slot_count(NodeId(0)), 1);
    assert_eq!(w.slot_share(NodeId(0), 0), 1.0);
    assert_eq!(w.node_available_bytes(NodeId(1)), 80 * GB);
}

#[test]
fn create_commits_and_unload_releases() {
    let mut w = world();
    let before = w.node_available_bytes(NodeId(1));
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
        .expect("fits");
    let weights = ModelSpec::llama2_7b().weights_bytes();
    assert_eq!(w.node_available_bytes(NodeId(1)), before - weights - 4 * GB);
    assert_eq!(w.node_instances(NodeId(1)), [inst]);
    assert_eq!(w.model_instances(ModelId(0)), [inst]);
    assert_eq!(w.instance_placement(inst), Some(NodeId(1)));
    assert_eq!(w.instance_slots(inst), Some(&[0usize][..]));
    // Unloading returns every committed byte.
    w.unload_instance(inst);
    assert_eq!(w.node_available_bytes(NodeId(1)), before);
    assert!(w.instance(inst).is_none());
}

#[test]
fn unservable_models_are_rejected_up_front() {
    let mut w = world();
    // 34B on the AMX CPU: §IV-A2 says no.
    let err = w.create_instance(ModelId(1), NodeId(0), 0, GB).unwrap_err();
    assert_eq!(err, MemError::Unservable);
    // And the ledger is untouched.
    assert_eq!(w.node_available_bytes(NodeId(0)), 192 * GB);
}

#[test]
fn scale_up_commits_at_issue_scale_down_at_completion() {
    let mut w = world();
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
        .expect("fits");
    let after_create = w.node_available_bytes(NodeId(1));
    // Scale up 4 → 8 GB: the delta is committed immediately.
    w.start_kv_scale(inst, 8 * GB).expect("scale up");
    assert_eq!(w.node_available_bytes(NodeId(1)), after_create - 4 * GB);
    // Grant only changes when the op completes (driver applies it); here we
    // verify the engine still reports the old capacity mid-flight.
    assert_eq!(w.instance(inst).unwrap().kv_capacity_bytes(), 4 * GB);
    assert_eq!(w.instance(inst).unwrap().scaling, Some(8 * GB));
}

#[test]
fn oversized_scale_up_is_rejected_and_counted() {
    let mut w = world();
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
        .expect("fits");
    let err = w.start_kv_scale(inst, 200 * GB).unwrap_err();
    assert!(matches!(err, MemError::WouldOom { .. }));
    assert_eq!(w.metrics.oom_incidents, 1);
    // No partial commit on rejection.
    let weights = ModelSpec::llama2_7b().weights_bytes();
    assert_eq!(
        w.node_available_bytes(NodeId(1)),
        80 * GB - weights - 4 * GB
    );
}

/// The noiseless prefill time `start_iteration` charges `inst` for `len`
/// tokens: its spec on its node's hardware at its slot group's share.
fn prefill_s(w: &World, inst: InstanceId, len: u32) -> f64 {
    let node = w.instance_placement(inst).expect("placed");
    let spec = &w.instance(inst).expect("placed").spec;
    w.perf()
        .prefill_time(spec, w.node_hw(node), len, w.instance_share(inst))
}

/// The decode twin of [`prefill_s`].
fn decode_s(w: &World, inst: InstanceId, batch: u32, total_ctx: u64) -> f64 {
    let node = w.instance_placement(inst).expect("placed");
    let spec = &w.instance(inst).expect("placed").spec;
    w.perf().decode_time(
        spec,
        w.node_hw(node),
        batch,
        total_ctx,
        w.instance_share(inst),
    )
}

#[test]
fn estimates_are_noiseless_and_placement_aware() {
    let mut w = world();
    let cpu_inst = w
        .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
        .expect("fits");
    let gpu_inst = w
        .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
        .expect("fits");
    let cpu_t = prefill_s(&w, cpu_inst, 1024);
    let gpu_t = prefill_s(&w, gpu_inst, 1024);
    assert!(
        cpu_t > gpu_t * 3.0,
        "CPU prefill far slower: {cpu_t} vs {gpu_t}"
    );
    // Decode estimate grows with batch.
    assert!(decode_s(&w, gpu_inst, 8, 8192) > decode_s(&w, gpu_inst, 1, 1024));
    // Load estimate matches the loader bandwidth ballpark.
    let load = w.estimate_load_s(ModelId(0), NodeId(1));
    assert!((0.8..1.2).contains(&load), "7B GPU load {load}");
}

#[test]
fn kv_transfer_delay_scales_with_context() {
    let w = world();
    let d1 = w.kv_transfer_delay(ModelId(0), 1024);
    let d2 = w.kv_transfer_delay(ModelId(0), 4096);
    // 1024 tokens × 0.5 MiB = 0.54 GB over 12.5 GB/s ≈ 43 ms.
    assert!((0.03..0.06).contains(&d1.as_secs_f64()), "{d1}");
    assert!(d2.as_micros() > 3 * d1.as_micros());
}

#[test]
fn admit_decoding_respects_scaling_and_capacity() {
    let mut w = world();
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, GB)
        .expect("fits");
    // While a rescale is in flight, handoffs are refused.
    w.start_kv_scale(inst, 2 * GB).expect("scale");
    let mut moved = rr(1, 0);
    moved.phase = engine::request::ReqPhase::Decoding;
    moved.tokens_out = 4;
    assert!(!w.admit_decoding(inst, moved.clone()));
    // Normal admission works.
    let inst2 = w
        .create_instance(ModelId(0), NodeId(0), 0, GB)
        .expect("fits");
    assert!(w.admit_decoding(inst2, moved));
    assert_eq!(w.instance(inst2).unwrap().live_count(), 1);
}

#[test]
#[should_panic(expected = "unloading a non-idle instance")]
fn unload_with_live_requests_panics() {
    let mut w = world();
    let inst = w
        .create_instance(ModelId(0), NodeId(1), 0, GB)
        .expect("fits");
    w.admit(inst, rr(1, 0));
    w.unload_instance(inst);
}

#[test]
fn drop_request_resolves_once() {
    let mut w = world();
    let r = rr(9, 0);
    // Build records for one request so drop bookkeeping has a target.
    w.metrics = cluster::RunMetrics::for_trace(&[Request {
        id: RequestId(0),
        model: ModelId(0),
        arrival: SimTime::ZERO,
        input_len: 16,
        output_len: 1,
        class: SloClass::default(),
        session: Default::default(),
    }]);
    let mut r0 = r;
    r0.req.id = RequestId(0);
    w.drop_request(&r0);
    w.drop_request(&r0); // idempotent
    assert_eq!(w.metrics.dropped, 1);
    assert!(w.metrics.records[0].dropped);
}

#[test]
fn tp_groups_claim_and_release_slot_sets() {
    use engine::instance::IterationKind;
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        ..WorldConfig::default()
    };
    let cluster = ClusterSpec {
        nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
    };
    let mut w = World::new(
        &cluster,
        vec![ModelSpec::llama2_13b().with_tp(2), ModelSpec::llama2_7b()],
        cfg,
    );
    let before = w.node_available_bytes(NodeId(0));
    let tp2 = w
        .create_instance_group(ModelId(0), NodeId(0), &[0, 1], 8 * GB)
        .expect("group fits");
    // Placement views: the node + full group, on every spanned slot.
    assert_eq!(w.instance_placement(tp2), Some(NodeId(0)));
    assert_eq!(w.instance_slots(tp2), Some(&[0usize, 1][..]));
    assert_eq!(w.slot_instances(NodeId(0), 0), [tp2]);
    assert_eq!(w.slot_instances(NodeId(0), 1), [tp2]);
    assert!(w.slot_instances(NodeId(0), 2).is_empty());
    assert!((w.instance_share(tp2) - 0.5).abs() < 1e-12);
    // One footprint on the node ledger, not one per slot.
    let weights = ModelSpec::llama2_13b().weights_bytes();
    assert_eq!(w.node_available_bytes(NodeId(0)), before - weights - 8 * GB);
    // Iterations occupy the whole group.
    w.instance_mut(tp2).unwrap().activate(SimTime::ZERO);
    w.admit(tp2, rr(0, 0));
    // (give the ledger a record table so token accounting has a target)
    w.metrics = cluster::RunMetrics::for_trace(&[Request {
        id: RequestId(0),
        model: ModelId(0),
        arrival: SimTime::ZERO,
        input_len: 256,
        output_len: 8,
        class: SloClass::default(),
        session: Default::default(),
    }]);
    w.start_iteration(tp2, IterationKind::Prefill(RequestId(0)))
        .expect("group free");
    assert!(w.slot_busy(NodeId(0), 0) && w.slot_busy(NodeId(0), 1));
    assert!(!w.slot_busy(NodeId(0), 2));
    assert!(w.instance_group_busy(tp2));
    // A second iteration on the same group is refused, not started.
    assert_eq!(
        w.start_iteration(tp2, IterationKind::Decode).unwrap_err(),
        cluster::world::StartError::GroupBusy
    );
}

/// What `slot_free_at` reported on slots 0..3 of node 0.
#[derive(Debug, Clone, Copy)]
enum FreeAt {
    /// A slot-free poke at `now` found the TP group idle.
    Idle { now: SimTime, free: [SimTime; 3] },
    /// An iteration started on the TP group at `now`, ending at `end`.
    Started {
        now: SimTime,
        end: SimTime,
        free: [SimTime; 3],
    },
    /// The node failed at `now`.
    Failed { now: SimTime, free: [SimTime; 3] },
}

/// Serves one request on a TP=2 group (slots 0 and 1 of a 3-slot node),
/// fails the node halfway through the third iteration, and logs what
/// `slot_free_at` reports along the way.
struct FreeAtProbe {
    log: Rc<RefCell<Vec<FreeAt>>>,
    inst: Option<InstanceId>,
}

impl FreeAtProbe {
    fn free(w: &World) -> [SimTime; 3] {
        [0, 1, 2].map(|s| w.slot_free_at(NodeId(0), s))
    }
}

impl Policy for FreeAtProbe {
    fn name(&self) -> &str {
        "slot_free_at probe"
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        let inst = w
            .create_instance_group(rr.req.model, NodeId(0), &[0, 1], 8 * GB)
            .expect("group fits");
        self.inst = Some(inst);
        w.admit(inst, rr);
    }

    fn on_slot_free(&mut self, w: &mut World, _node: NodeId, _slot: usize) {
        let Some(inst) = self
            .inst
            .filter(|&i| w.instance(i).is_some_and(|i| i.has_work()))
        else {
            return;
        };
        if w.instance_group_busy(inst) {
            return;
        }
        let now = w.now();
        let mut log = self.log.borrow_mut();
        log.push(FreeAt::Idle {
            now,
            free: Self::free(w),
        });
        let slo = w.slo();
        let (_, kind) = w
            .instance(inst)
            .and_then(|i| i.most_urgent(now, &slo))
            .expect("has work");
        let dur = w.start_iteration(inst, kind).expect("group idle");
        log.push(FreeAt::Started {
            now,
            end: now + dur,
            free: Self::free(w),
        });
        if log
            .iter()
            .filter(|e| matches!(e, FreeAt::Started { .. }))
            .count()
            == 3
        {
            w.push_cluster_event(now + dur / 2, ClusterEvent::NodeFail(NodeId(0)));
        }
    }

    fn on_node_event(&mut self, w: &mut World, _ev: &ClusterEvent, displaced: Vec<RunningRequest>) {
        self.log.borrow_mut().push(FreeAt::Failed {
            now: w.now(),
            free: Self::free(w),
        });
        for rr in displaced {
            w.drop_request(&rr);
        }
    }
}

#[test]
fn slot_free_at_is_the_iteration_end_until_release_or_node_failure() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let cluster = ClusterSpec {
        nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 3)],
    };
    let mut req = rr(0, 0).req;
    req.output_len = 32;
    let trace = Trace::new(vec![req], 1, SimDuration::from_secs(60));
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        ..WorldConfig::default()
    };
    let probe = FreeAtProbe {
        log: Rc::clone(&log),
        inst: None,
    };
    let m = Simulation::new(
        &cluster,
        vec![ModelSpec::llama2_13b().with_tp(2)],
        cfg,
        probe,
    )
    .run(&trace);
    assert!(m.records[0].dropped, "the failure displaced the request");

    let log = log.borrow();
    let ends: Vec<SimTime> = log
        .iter()
        .filter_map(|e| match *e {
            FreeAt::Started { now, end, free } => {
                // Both slots of the group name the iteration's end; the
                // slot outside it is free now.
                assert!(end > now);
                assert_eq!(free, [end, end, now]);
                Some(end)
            }
            _ => None,
        })
        .collect();
    assert_eq!(ends.len(), 3);
    // Once an iteration has ended, its slots are free now.
    let idle: Vec<SimTime> = log
        .iter()
        .filter_map(|e| match *e {
            FreeAt::Idle { now, free } => {
                assert_eq!(free, [now; 3]);
                Some(now)
            }
            _ => None,
        })
        .collect();
    assert_eq!(idle[1..], ends[..2]);
    // The failure struck mid-iteration, and freed every slot at once.
    let Some(&FreeAt::Failed { now, free }) = log.last() else {
        panic!("the node never failed: {log:?}");
    };
    assert!(now < ends[2]);
    assert_eq!(free, [now; 3]);
}

/// What the preempting probe saw.
#[derive(Debug, Default)]
struct PreemptLog {
    /// `(now, instance)` for each unload in `on_request_done`.
    unloads: Vec<(SimTime, InstanceId)>,
    /// `(now, slot_free_at)` for each slot-free poke on slot 0.
    pokes: Vec<(SimTime, SimTime)>,
}

/// Two single-slot tenants (one per model) share slot 0 of one GPU, and
/// the lower instance id always runs first. When a request finishes and
/// leaves its instance idle, `on_request_done` unloads that instance, as
/// SLINFER's preemption does with an idle co-tenant: here it is the
/// instance whose iteration just ended.
struct PreemptFinisher {
    log: Rc<RefCell<PreemptLog>>,
    tenants: [Option<InstanceId>; 2],
}

impl Policy for PreemptFinisher {
    fn name(&self) -> &str {
        "preempt-the-finisher probe"
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        let m = rr.req.model.0 as usize;
        let inst = match self.tenants[m] {
            Some(i) if w.instance(i).is_some() => i,
            _ => {
                let i = w
                    .create_instance(rr.req.model, NodeId(0), 0, 4 * GB)
                    .expect("both tenants fit");
                self.tenants[m] = Some(i);
                i
            }
        };
        w.admit(inst, rr);
    }

    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize) {
        let now = w.now();
        self.log
            .borrow_mut()
            .pokes
            .push((now, w.slot_free_at(node, slot)));
        let slo = w.slo();
        let next = w.slot_instances(node, slot).iter().find_map(|&inst| {
            let i = w.instance(inst).filter(|i| i.has_work())?;
            Some((inst, i.most_urgent(now, &slo)?.1))
        });
        if let Some((inst, kind)) = next {
            w.start_iteration(inst, kind).expect("the slot is free");
        }
    }

    fn on_request_done(&mut self, w: &mut World, inst: InstanceId, _rr: &RunningRequest) {
        if w.instance(inst).is_some_and(|i| i.is_idle()) {
            w.unload_instance(inst);
            self.log.borrow_mut().unloads.push((w.now(), inst));
        }
    }
}

#[test]
fn unloading_the_instance_whose_iteration_just_ended_frees_its_slot() {
    let log = Rc::new(RefCell::new(PreemptLog::default()));
    // Request 0 goes to the first tenant; 1..=3 to the second, which waits
    // until the first has finished.
    let reqs = (0..4u64)
        .map(|i| Request {
            arrival: SimTime::from_millis(10 * i),
            ..rr(i, u32::from(i > 0)).req
        })
        .collect();
    let trace = Trace::new(reqs, 2, SimDuration::from_secs(1));
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        ..WorldConfig::default()
    };
    let probe = PreemptFinisher {
        log: Rc::clone(&log),
        tenants: [None; 2],
    };
    let m = Simulation::new(
        &ClusterSpec::heterogeneous(0, 1),
        vec![ModelSpec::llama2_7b(), ModelSpec::llama2_7b().replica(1)],
        cfg,
        probe,
    )
    .run(&trace);

    let log = log.borrow();
    let &(unloaded_at, first) = log.unloads.first().expect("the first tenant finished");
    assert_eq!(first, InstanceId(1), "the first tenant is unloaded first");
    // Once the event is handled the slot is free: the driver pokes it at
    // once, and it is free now.
    assert!(
        log.pokes.contains(&(unloaded_at, unloaded_at)),
        "slot 0 stayed busy after its runner was unloaded at {unloaded_at:?}: {log:?}"
    );
    // The surviving tenant runs, and nothing waits for the hard stop.
    assert!(
        m.records.iter().all(|r| r.completed.is_some()),
        "{:?}",
        m.records
    );
    assert_eq!((m.dropped, m.hard_stop_drops), (0, 0));
}

#[test]
fn tp_group_estimates_pay_the_interconnect() {
    let cfg = WorldConfig {
        noise: NoiseModel::off(),
        ..WorldConfig::default()
    };
    let cluster = ClusterSpec {
        nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
    };
    let mut w = World::new(
        &cluster,
        vec![
            ModelSpec::llama2_13b(),
            ModelSpec::llama2_13b().with_tp(2).replica(1),
        ],
        cfg,
    );
    let one = w
        .create_instance_group(ModelId(0), NodeId(0), &[0], 4 * GB)
        .expect("fits");
    let two = w
        .create_instance_group(ModelId(1), NodeId(0), &[1, 2], 4 * GB)
        .expect("fits");
    let t1 = prefill_s(&w, one, 2048);
    let t2 = prefill_s(&w, two, 2048);
    // Two devices are faster than one, but sublinearly: the all-reduce
    // term discounts the doubled compute.
    assert!(t2 < t1, "TP=2 must beat TP=1: {t2} vs {t1}");
    assert!(t2 > t1 / 2.0, "TP=2 must be under 2x: {t2} vs {t1}");
    let d1 = decode_s(&w, one, 16, 16 * 1024);
    let d2 = decode_s(&w, two, 16, 16 * 1024);
    assert!(d2 < d1 && d2 > d1 / 2.0, "decode discount: {d2} vs {d1}");
}

#[test]
#[should_panic(expected = "slot group size must match")]
fn mismatched_group_size_panics() {
    let mut w = world();
    // llama2_7b deploys at TP=1; a 1-slot node can't even express 2 slots,
    // but the degree check fires first.
    let _ = w.create_instance_group(ModelId(0), NodeId(1), &[0, 0], GB);
}

#[test]
fn instance_ids_are_unique_and_ordered() {
    let mut w = world();
    let a = w.create_instance(ModelId(0), NodeId(0), 0, GB).unwrap();
    let b = w.create_instance(ModelId(0), NodeId(1), 0, GB).unwrap();
    assert!(b > a);
    assert_eq!(w.instance_ids(), vec![a, b]);
    assert_ne!(a, InstanceId(0), "ids start at 1");
}
