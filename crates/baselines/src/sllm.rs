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
//! new instance is launched on an idle slot (exclusively owning the slot's
//! memory); otherwise the request queues and is dropped once its TTFT SLO
//! expires. Instances run vLLM-style continuous batching: pending prefills
//! are scheduled eagerly (FIFO), decodes otherwise.

use std::collections::BTreeSet;

use cluster::{NodeId, Policy, World};
use engine::instance::{InstanceId, IterationKind};
use engine::request::{ReqPhase, RunningRequest};
use workload::request::{ModelId, RequestId};

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
/// Policy state is kept in ordered containers (`Vec` in arrival order,
/// `BTreeSet`) so no iteration can leak hash-randomized order into
/// placement decisions across processes.
pub struct Sllm {
    cfg: SllmConfig,
    queue: Vec<RunningRequest>,
    timers: BTreeSet<RequestId>,
}

impl Sllm {
    /// Creates the policy.
    pub fn new(cfg: SllmConfig) -> Self {
        Sllm {
            cfg,
            queue: Vec::new(),
            timers: BTreeSet::new(),
        }
    }

    fn node_usable(&self, w: &World, node: NodeId, model: workload::request::ModelId) -> bool {
        if !w.node_schedulable(node) {
            return false;
        }
        let hw = w.node_hw(node);
        if hw.kind.is_cpu() && !self.cfg.use_cpu {
            return false;
        }
        hw.can_serve(w.model_spec(model))
    }

    fn instance_limit(&self, w: &World, inst: InstanceId) -> u32 {
        let Some((node, _)) = w.instance_placement(inst) else {
            return 0;
        };
        let hw = w.node_hw(node);
        // A TP instance owns its whole slot group's compute share.
        let share = w.instance_share(inst);
        let model = w.instance(inst).expect("placed").model;
        concurrency_limit(w.model_spec(model), hw, share, &w.slo())
    }

    /// All currently idle slots, CPUs first (model-independent; per-model
    /// usability is re-checked at placement time).
    fn free_slots(&self, w: &World) -> Vec<(u8, NodeId, usize)> {
        let mut slots: Vec<(u8, NodeId, usize)> = Vec::new();
        for node in w.node_ids() {
            if !w.node_schedulable(node) {
                continue;
            }
            let rank = if w.node_hw(node).kind.is_cpu() {
                0u8
            } else {
                1
            };
            for slot in 0..w.slot_count(node) {
                if w.slot_instances(node, slot).is_empty() {
                    slots.push((rank, node, slot));
                }
            }
        }
        slots.sort();
        slots
    }

    fn try_place(&mut self, w: &mut World, rr: &RunningRequest) -> bool {
        if self.try_admit_existing(w, rr) {
            return true;
        }
        // Scan for idle slots only once admission has failed — on the hot
        // arrival path most requests land on an existing instance.
        let mut free = self.free_slots(w);
        self.try_create_on(w, rr, &mut free)
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
                let (node, _) = w.instance_placement(id)?;
                if !w.node_schedulable(node) {
                    return None;
                }
                let rank = if w.node_hw(node).kind.is_cpu() {
                    0u8
                } else {
                    1
                };
                Some((rank, id))
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

    /// Launches a new instance against a maintained free-slot list: slots
    /// are consumed from `free` as instances are created, so a retry pass
    /// over the whole queue scans the cluster once instead of once per
    /// request.
    ///
    /// Candidate slots are ordered ServerlessLLM-style by estimated
    /// startup time from each node's warmest checkpoint tier (CPUs still
    /// first; ties keep the legacy `(node, slot)` order, so the flat
    /// default configuration replays byte-identically).
    fn try_create_on(
        &mut self,
        w: &mut World,
        rr: &RunningRequest,
        free: &mut Vec<(u8, NodeId, usize)>,
    ) -> bool {
        let model = rr.req.model;
        let tp = w.model_spec(model).tp_degree.max(1) as usize;
        if tp > 1 {
            return self.try_create_group(w, rr, free, tp);
        }
        // A new instance on an idle slot: CPUs first, warmest tier next.
        let mut order = crate::groups::score_free_slots(w, model, free);
        order.sort_unstable();
        for (_, _, fi) in order {
            let (_, node, slot) = free[fi];
            if !self.node_usable(w, node, model) {
                continue;
            }
            let spec = w.model_spec(model).clone();
            // Exclusive ownership of the slot's memory share. Models whose
            // weights exceed the share (34B on a half-A100) claim the whole
            // node's memory instead, provided the node is empty — mirroring
            // the paper's whole-node exception for oversized instances.
            let slot_mem = w.node_hw(node).mem_bytes / w.slot_count(node) as u64;
            let mem_budget = if spec.weights_bytes() + spec.kv_bytes_per_token() * 1024 > slot_mem
                && w.node_instances(node).is_empty()
            {
                w.node_hw(node).mem_bytes
            } else {
                slot_mem
            };
            let grant = mem_budget.saturating_sub(spec.weights_bytes()).min(
                w.node_available_bytes(node)
                    .saturating_sub(spec.weights_bytes()),
            );
            if grant == 0 {
                continue;
            }
            if w.create_instance(model, node, slot, grant).is_ok() {
                let inst = *w.slot_instances(node, slot).last().expect("just created");
                w.admit(inst, rr.clone());
                free.remove(fi);
                return true;
            }
        }
        false
    }

    /// Launches a tensor-parallel instance on `tp` idle slots of one node,
    /// consuming the claimed slots from `free`. The group exclusively owns
    /// its slots' memory shares, mirroring the single-slot rule.
    fn try_create_group(
        &mut self,
        w: &mut World,
        rr: &RunningRequest,
        free: &mut Vec<(u8, NodeId, usize)>,
        tp: usize,
    ) -> bool {
        let model = rr.req.model;
        let use_cpu = self.cfg.use_cpu;
        let claimed = crate::groups::claim_slot_group(w, model, free, tp, |w, node| {
            let hw = w.node_hw(node);
            w.node_schedulable(node)
                && (!hw.kind.is_cpu() || use_cpu)
                && hw.can_serve(w.model_spec(model))
        });
        match claimed {
            Some((inst, range)) => {
                w.admit(inst, rr.clone());
                free.drain(range);
                true
            }
            None => false,
        }
    }

    fn enqueue(&mut self, w: &mut World, rr: RunningRequest) {
        let deadline = rr.next_deadline(&w.slo_for(&rr.req));
        if w.now() >= deadline {
            w.drop_request(&rr);
            return;
        }
        if self.timers.insert(rr.req.id) {
            w.set_timer(deadline - w.now(), rr.req.id.0);
        }
        self.queue.push(rr);
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
        if self.queue.is_empty() {
            return;
        }
        // Built lazily: a pass that only admits to existing instances (or
        // only drops) never scans the cluster at all.
        let mut free: Option<Vec<(u8, NodeId, usize)>> = None;
        let mut full_models: BTreeSet<ModelId> = BTreeSet::new();
        for rr in std::mem::take(&mut self.queue) {
            if w.now() >= rr.next_deadline(&w.slo_for(&rr.req)) {
                w.drop_request(&rr);
            } else if full_models.contains(&rr.req.model) {
                self.queue.push(rr);
            } else if self.try_admit_existing(w, &rr) {
                // Placed on an existing instance; slots untouched.
            } else {
                if free.is_none() {
                    free = Some(self.free_slots(w));
                }
                if !self.try_create_on(w, &rr, free.as_mut().expect("just filled")) {
                    full_models.insert(rr.req.model);
                    self.queue.push(rr);
                }
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
            self.enqueue(w, rr);
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
        // Static grants can overflow on pathological output lengths: evict
        // the longest-headroom request back to the queue (vLLM's
        // preempt-and-recompute).
        let now = w.now();
        let victim = w.instance(inst).and_then(|i| {
            i.requests()
                .iter()
                .filter(|r| !matches!(r.phase, ReqPhase::Prefilling))
                .max_by(|a, b| {
                    a.headroom(now, &w.slo_for(&a.req))
                        .partial_cmp(&b.headroom(now, &w.slo_for(&b.req)))
                        .unwrap()
                })
                .map(|r| r.req.id)
        });
        if let Some(id) = victim {
            let moved = w
                .instance_mut(inst)
                .expect("instance exists")
                .remove_for_migration(id, now);
            w.note_migration(&[id]);
            if !self.try_place(w, &moved) {
                self.enqueue(w, moved);
            }
        }
    }

    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        let idle = w
            .instance(inst)
            .map(|i| !i.has_live_requests() && !i.busy && !i.scaling)
            .unwrap_or(false);
        if idle {
            w.unload_instance(inst);
            self.retry_queue(w);
        }
    }

    fn on_timer(&mut self, w: &mut World, payload: u64) {
        let id = RequestId(payload);
        self.timers.remove(&id);
        let now = w.now();
        // Drop in place (keeping FIFO order) instead of rebuilding the
        // whole queue for every expired timer.
        if let Some(pos) = self.queue.iter().position(|rr| rr.req.id == id) {
            if now >= self.queue[pos].next_deadline(&w.slo_for(&self.queue[pos].req)) {
                let rr = self.queue.remove(pos);
                w.drop_request(&rr);
            }
        }
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
