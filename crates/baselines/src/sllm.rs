//! The ServerlessLLM-style baseline family (§III-C, §IX-A).
//!
//! One policy, three configurations:
//!
//! | name       | nodes used        | slots     | limits table |
//! |------------|-------------------|-----------|--------------|
//! | `sllm`     | GPUs only         | whole     | (160, 32, 16) |
//! | `sllm+c`   | CPUs first, GPUs  | whole     | + (59, 15, 6) |
//! | `sllm+c+s` | CPUs first, GPUs  | two halves| (71,12,4)/(23,4,6) |
//!
//! Behaviour (§III-C): a request is routed to an existing instance of its
//! model while that instance sits under its concurrency limit; otherwise a
//! new instance is launched on idle slots through the shared launch path
//! ([`crate::groups`]: exclusive memory, the whole-node rule for oversized
//! models, tensor-parallel groups); otherwise the request waits in a
//! [`Backlog`] and is dropped once its TTFT SLO expires. Instances run
//! vLLM-style continuous batching: pending prefills are scheduled eagerly
//! (FIFO), decodes otherwise. What is specific to this policy is the
//! routing above and its incremental retry pass over the backlog.

use std::collections::BTreeSet;

use cluster::{evict_most_headroom, Backlog, NodeId, Policy, World};
use engine::instance::{InstanceId, IterationKind};
use engine::request::{ReqPhase, RunningRequest};
use workload::request::{ModelId, RequestId};

use crate::groups::{claim_slot_group, free_slots, FreeSlot};
use crate::limits::concurrency_limit;

/// Configuration of the `sllm` family.
#[derive(Debug, Clone)]
pub struct SllmConfig {
    /// Display name.
    pub name: String,
    /// Serve on AMX CPU nodes (preferring them), not just GPUs.
    pub use_cpu: bool,
}

impl SllmConfig {
    /// Plain ServerlessLLM: exclusive GPUs.
    pub fn sllm() -> Self {
        SllmConfig {
            name: "sllm".into(),
            use_cpu: false,
        }
    }

    /// `sllm+c`: CPUs added and preferred.
    pub fn sllm_c() -> Self {
        SllmConfig {
            name: "sllm+c".into(),
            use_cpu: true,
        }
    }

    /// `sllm+c+s`: CPUs plus static time-sharing. Pair this with
    /// [`cluster::ClusterSpec::statically_shared`] — the policy itself only
    /// sees more slots with smaller shares.
    pub fn sllm_cs() -> Self {
        SllmConfig {
            name: "sllm+c+s".into(),
            use_cpu: true,
        }
    }
}

/// The ServerlessLLM-style policy. See module docs.
///
/// Its only mutable state is a [`Backlog`], built on ordered containers, so
/// no iteration can leak hash-randomized order into placement decisions
/// across processes.
pub struct Sllm {
    cfg: SllmConfig,
    backlog: Backlog,
}

impl Sllm {
    /// Creates the policy.
    pub fn new(cfg: SllmConfig) -> Self {
        Sllm {
            cfg,
            backlog: Backlog::default(),
        }
    }

    fn instance_limit(&self, w: &World, inst: InstanceId) -> u32 {
        let (Some(node), Some(i)) = (w.instance_placement(inst), w.instance(inst)) else {
            return 0;
        };
        // A TP instance owns its whole slot group's compute share.
        let share = w.instance_share(inst);
        concurrency_limit(w.model_spec(i.model), w.node_hw(node), share, &w.slo())
    }

    fn try_place(&mut self, w: &mut World, rr: &RunningRequest) -> bool {
        // Scan for idle slots only once admission has failed — on the hot
        // arrival path most requests land on an existing instance.
        self.try_admit_existing(w, rr) || self.try_create_on(w, rr, &mut free_slots(w))
    }

    /// Routes the request to an existing instance of its model sitting
    /// under its concurrency limit, CPU instances first.
    fn try_admit_existing(&mut self, w: &mut World, rr: &RunningRequest) -> bool {
        let model = rr.req.model;
        // Session affinity fast path: stick a follow-up turn to the
        // instance holding its parked prefix KV while it is under this
        // policy's own concurrency limit (inert when sessions are off).
        if let Some(home) = w.session_affinity_target(&rr.req) {
            let live = w.instance(home).map(|i| i.live_count()).unwrap_or(u32::MAX);
            if live < self.instance_limit(w, home) {
                w.admit(home, rr.clone());
                return true;
            }
        }
        let mut candidates: Vec<(u8, InstanceId)> = w
            .model_instances(model)
            .iter()
            .filter_map(|&id| {
                let node = w.instance_placement(id)?;
                if !w.node_schedulable(node) {
                    return None;
                }
                Some((u8::from(!w.node_hw(node).kind.is_cpu()), id))
            })
            .collect();
        candidates.sort();
        for (_, inst) in candidates {
            let live = w.instance(inst).map(|i| i.live_count()).unwrap_or(u32::MAX);
            if live < self.instance_limit(w, inst) {
                w.admit(inst, rr.clone());
                return true;
            }
        }
        false
    }

    /// Launches a new instance for `rr` against a maintained free-slot
    /// list: the claimed slots leave `free`, so a retry pass over the whole
    /// backlog scans the cluster once instead of once per request.
    fn try_create_on(&self, w: &mut World, rr: &RunningRequest, free: &mut Vec<FreeSlot>) -> bool {
        let model = rr.req.model;
        let claimed = claim_slot_group(w, model, free, |w, node| {
            let hw = w.node_hw(node);
            (self.cfg.use_cpu || !hw.kind.is_cpu()) && hw.can_serve(w.model_spec(model))
        });
        let Some((inst, slots)) = claimed else {
            return false;
        };
        w.admit(inst, rr.clone());
        free.drain(slots);
        true
    }

    /// One incremental retry pass over the queue.
    ///
    /// Naively, every pass re-scans the full cluster per queued request —
    /// O(queue × nodes) work per event, which is what made the 96/128-model
    /// `fig04`/`fig22` points superlinear in queued load. Two invariants
    /// make the pass incremental without changing any placement decision:
    ///
    /// 1. Nothing frees capacity *during* a pass — placements only consume
    ///    it — so the idle-slot list can be computed once and maintained as
    ///    slots are taken.
    /// 2. For the same reason, once placement fails for a model, every
    ///    later queued request of that model fails too (admission would
    ///    need an instance under its limit or a usable slot, and neither
    ///    can appear mid-pass), so the scan is skipped outright.
    fn retry_queue(&mut self, w: &mut World) {
        // Built lazily: a pass that only admits to existing instances (or
        // only drops) never scans the cluster at all.
        let mut free: Option<Vec<FreeSlot>> = None;
        let mut full_models: BTreeSet<ModelId> = BTreeSet::new();
        for rr in self.backlog.take_live(w) {
            if full_models.contains(&rr.req.model) {
                self.backlog.requeue(rr);
                continue;
            }
            if self.try_admit_existing(w, &rr) {
                continue; // placed on an existing instance; slots untouched
            }
            let free = free.get_or_insert_with(|| free_slots(w));
            if !self.try_create_on(w, &rr, free) {
                full_models.insert(rr.req.model);
                self.backlog.requeue(rr);
            }
        }
    }
}

impl Policy for Sllm {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        if !self.try_place(w, &rr) {
            self.backlog.push(w, rr);
        }
    }

    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize) {
        // vLLM-style: eager FIFO prefill, else decode.
        for inst in w.slot_instances(node, slot).to_vec() {
            let Some(i) = w.instance(inst) else { continue };
            if !i.has_work() {
                continue;
            }
            if w.instance_group_busy(inst) {
                continue; // another slot of the TP group is still running
            }
            let next_prefill = i
                .requests()
                .iter()
                .filter(|r| matches!(r.phase, ReqPhase::Waiting))
                .min_by_key(|r| r.req.arrival)
                .map(|r| r.req.id);
            let kind = match next_prefill {
                Some(id) => IterationKind::Prefill(id),
                None => IterationKind::Decode,
            };
            match w.start_iteration(inst, kind) {
                Ok(_) => return,
                Err(cluster::world::StartError::GroupBusy) => continue,
                Err(cluster::world::StartError::KvExhausted(_)) => {
                    // The grant is static; fall back to decoding so running
                    // sequences drain and free blocks.
                    if w.instance(inst)
                        .map(|i| i.batch_size() > 0)
                        .unwrap_or(false)
                        && w.start_iteration(inst, IterationKind::Decode).is_ok()
                    {
                        return;
                    }
                }
            }
        }
    }

    fn on_load_done(&mut self, w: &mut World, _inst: InstanceId) {
        self.retry_queue(w);
    }

    fn on_request_done(&mut self, w: &mut World, _inst: InstanceId, _rr: &RunningRequest) {
        self.retry_queue(w);
    }

    fn on_alloc_failure(&mut self, w: &mut World, inst: InstanceId, _req: RequestId) {
        // Static grants can overflow on pathological output lengths.
        if let Some(moved) = evict_most_headroom(w, inst) {
            if !self.try_place(w, &moved) {
                self.backlog.push(w, moved);
            }
        }
    }

    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        if w.instance(inst).is_some_and(|i| i.is_idle()) {
            w.unload_instance(inst);
            self.retry_queue(w);
        }
    }

    fn on_timer(&mut self, w: &mut World, payload: u64) {
        self.backlog.expire(w, RequestId(payload));
    }
}

/// Marker so experiments can query CPU/GPU usability of a config.
impl Sllm {
    /// True when this configuration may use CPU nodes.
    pub fn uses_cpu(&self) -> bool {
        self.cfg.use_cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, Simulation, WorldConfig};
    use hwmodel::{ModelSpec, NoiseModel};
    use simcore::time::{SimDuration, SimTime};
    use workload::request::{ModelId, Request, SloClass, Trace};

    fn models(n: usize) -> Vec<ModelSpec> {
        (0..n).map(|i| ModelSpec::llama2_7b().replica(i)).collect()
    }

    fn quiet() -> WorldConfig {
        WorldConfig {
            noise: NoiseModel::off(),
            ..WorldConfig::default()
        }
    }

    fn mk_trace(reqs: Vec<(u64, u32, u32, u32)>) -> Trace {
        let n_models = reqs.iter().map(|r| r.1).max().unwrap_or(0) + 1;
        let requests = reqs
            .into_iter()
            .enumerate()
            .map(|(i, (ms, m, inp, out))| Request {
                id: RequestId(i as u64),
                model: ModelId(m),
                arrival: SimTime::from_millis(ms),
                input_len: inp,
                output_len: out,
                class: SloClass::default(),
                session: Default::default(),
            })
            .collect();
        Trace::new(requests, n_models, SimDuration::from_secs(60))
    }

    #[test]
    fn sllm_uses_gpu_only() {
        let trace = mk_trace(vec![(0, 0, 512, 8)]);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(2, 2),
            models(1),
            quiet(),
            Sllm::new(SllmConfig::sllm()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 1);
        assert_eq!(m.cpu_decode_tokens, 0);
        assert!(m.gpu_decode_tokens > 0);
    }

    #[test]
    fn sllm_c_prefers_cpu() {
        let trace = mk_trace(vec![(0, 0, 512, 8)]);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(2, 2),
            models(1),
            quiet(),
            Sllm::new(SllmConfig::sllm_c()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 1);
        assert!(m.cpu_decode_tokens > 0);
        assert_eq!(m.gpu_decode_tokens, 0);
    }

    #[test]
    fn exclusive_allocation_queues_extra_models() {
        // Two models, one GPU: the second request must wait for the first
        // instance's keep-alive reclaim, blowing its 0.5 s TTFT budget.
        let trace = mk_trace(vec![(0, 0, 256, 8), (100, 1, 256, 8)]);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(0, 1),
            models(2),
            quiet(),
            Sllm::new(SllmConfig::sllm()),
        );
        let m = sim.run(&trace);
        assert!(m.slo_met() <= 1, "exclusive GPUs cannot share");
        assert!(m.dropped >= 1);
    }

    #[test]
    fn static_sharing_places_two_models_per_node() {
        // Same scenario on a statically split GPU: both fit.
        let trace = mk_trace(vec![(0, 0, 256, 8), (100, 1, 256, 8)]);
        let sim = Simulation::new(
            &ClusterSpec::statically_shared(0, 1),
            models(2),
            quiet(),
            Sllm::new(SllmConfig::sllm_cs()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 2, "two half-slots hold two instances");
    }

    #[test]
    fn concurrency_limit_spawns_second_instance() {
        // 7B GPU limit is 32: the 33rd simultaneous request forces a second
        // instance (horizontal scale-out).
        let reqs: Vec<(u64, u32, u32, u32)> = (0..40).map(|i| (i * 5, 0, 128, 64)).collect();
        let trace = mk_trace(reqs);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(0, 2),
            models(1),
            quiet(),
            Sllm::new(SllmConfig::sllm()),
        );
        let m = sim.run(&trace);
        assert!(
            m.cold_starts >= 2,
            "expected scale-out, got {}",
            m.cold_starts
        );
        assert!(m.slo_rate() > 0.9, "slo {}", m.slo_rate());
    }

    #[test]
    fn tp_instance_claims_an_exclusive_slot_group() {
        use cluster::NodeSpec;
        use hwmodel::HardwareSpec;
        // One 4-GPU server; two TP=2 models. Each instance claims a 2-slot
        // group exclusively, so both fit side by side.
        let trace = mk_trace(vec![(0, 0, 256, 8), (100, 1, 256, 8)]);
        let cluster = ClusterSpec {
            nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
        };
        let ms: Vec<ModelSpec> = (0..2)
            .map(|i| ModelSpec::llama2_13b().with_tp(2).replica(i))
            .collect();
        let sim = Simulation::new(&cluster, ms, quiet(), Sllm::new(SllmConfig::sllm()));
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 2, "two TP=2 groups share the 4-slot node");
        assert_eq!(m.cold_starts, 2);
        // A third TP=2 model has no free group left and must queue/drop.
        let trace3 = mk_trace(vec![(0, 0, 256, 8), (50, 1, 256, 8), (100, 2, 256, 8)]);
        let ms3: Vec<ModelSpec> = (0..3)
            .map(|i| ModelSpec::llama2_13b().with_tp(2).replica(i))
            .collect();
        let cluster3 = ClusterSpec {
            nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
        };
        let m3 =
            Simulation::new(&cluster3, ms3, quiet(), Sllm::new(SllmConfig::sllm())).run(&trace3);
        assert!(m3.slo_met() <= 2, "no third group exists on a 4-slot node");
    }

    #[test]
    fn over_capacity_requests_drop() {
        // 64 single-request models on one GPU: almost everything queues
        // beyond TTFT and drops — the Fig. 4 collapse.
        let reqs: Vec<(u64, u32, u32, u32)> =
            (0..64).map(|i| (i * 20, i as u32, 512, 16)).collect();
        let trace = mk_trace(reqs);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(0, 1),
            models(64),
            quiet(),
            Sllm::new(SllmConfig::sllm()),
        );
        let m = sim.run(&trace);
        assert!(m.dropped > 30, "drops {}", m.dropped);
        assert!(m.slo_rate() < 0.5);
    }
}
