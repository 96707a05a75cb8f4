//! Prefill–decode disaggregation (§IX-G, Table III).
//!
//! PD disaggregation [54, 75] dedicates separate instances to the prefill
//! and decode stages of each model: a request prefills on a *prefill
//! instance*, then its KV cache ships over the network (100 Gbps in the
//! paper's setup) to a *decode instance* that carries it to completion.
//!
//! [`PdSllm`] is the disaggregated variant of `sllm+c+s`: static half-node
//! slots, exclusive per-instance memory, concurrency limits — but two
//! instance pools per model and a KV-transfer hop between them. The paper
//! finds this *hurts* in serverless settings: prefill instances idle 93% of
//! their lifetime, doubling cold starts and node usage (Table III).

use std::collections::{BTreeMap, BTreeSet};

use cluster::{NodeId, Policy, World};
use engine::instance::{InstanceId, IterationKind};
use engine::request::{ReqPhase, RunningRequest};
use simcore::time::SimDuration;
use workload::request::{ModelId, RequestId};

use crate::limits::concurrency_limit;

const TAG_HANDOFF: u64 = 1 << 63;

/// Disaggregated `sllm+c+s`. See module docs.
///
/// Ordered containers only (`Vec`/`BTreeSet`/`BTreeMap`): hash-randomized
/// iteration order must never reach placement decisions.
pub struct PdSllm {
    queue: Vec<RunningRequest>,
    timers: BTreeSet<RequestId>,
    prefill_insts: BTreeSet<InstanceId>,
    pending: BTreeMap<u64, RunningRequest>,
    /// Concurrent prefills a prefill instance accepts before scale-out.
    prefill_depth: u32,
}

impl PdSllm {
    /// Creates the policy.
    pub fn new() -> Self {
        PdSllm {
            queue: Vec::new(),
            timers: BTreeSet::new(),
            prefill_insts: BTreeSet::new(),
            pending: BTreeMap::new(),
            prefill_depth: 2,
        }
    }

    fn free_slots(&self, w: &World, model: ModelId) -> Vec<(u8, NodeId, usize)> {
        let mut slots = Vec::new();
        for node in w.node_ids() {
            if !w.node_schedulable(node) {
                continue;
            }
            let hw = w.node_hw(node);
            if !hw.can_serve(w.model_spec(model)) {
                continue;
            }
            let rank = if hw.kind.is_cpu() { 0u8 } else { 1 };
            for slot in 0..w.slot_count(node) {
                if w.slot_instances(node, slot).is_empty() {
                    slots.push((rank, node, slot));
                }
            }
        }
        slots.sort();
        slots
    }

    fn create_on_free_slot(&mut self, w: &mut World, model: ModelId) -> Option<InstanceId> {
        let spec = w.model_spec(model).clone();
        let tp = spec.tp_degree.max(1) as usize;
        let free = self.free_slots(w, model);
        if tp > 1 {
            // `free_slots` already filtered schedulability and servability.
            return crate::groups::claim_slot_group(w, model, &free, tp, |_, _| true)
                .map(|(inst, _)| inst);
        }
        // CPUs first, then warmest checkpoint tier (startup-time-estimated
        // scheduling); ties keep the legacy (node, slot) order.
        let mut order = crate::groups::score_free_slots(w, model, &free);
        order.sort_unstable();
        for (_, _, fi) in order {
            let (_, node, slot) = free[fi];
            let slot_mem = w.node_hw(node).mem_bytes / w.slot_count(node) as u64;
            let grant = slot_mem.saturating_sub(spec.weights_bytes()).min(
                w.node_available_bytes(node)
                    .saturating_sub(spec.weights_bytes()),
            );
            if grant == 0 {
                continue;
            }
            if w.create_instance(model, node, slot, grant).is_ok() {
                return w.slot_instances(node, slot).last().copied();
            }
        }
        None
    }

    fn try_place_prefill(&mut self, w: &mut World, rr: &RunningRequest) -> bool {
        let model = rr.req.model;
        let open = w.model_instances(model).iter().copied().find(|&inst| {
            let live = w.instance(inst).map(|i| i.live_count()).unwrap_or(u32::MAX);
            self.prefill_insts.contains(&inst) && live < self.prefill_depth
        });
        if let Some(inst) = open {
            w.admit(inst, rr.clone());
            return true;
        }
        if let Some(inst) = self.create_on_free_slot(w, model) {
            self.prefill_insts.insert(inst);
            w.admit(inst, rr.clone());
            return true;
        }
        false
    }

    fn try_place_decode(
        &mut self,
        w: &mut World,
        rr: RunningRequest,
    ) -> Result<(), RunningRequest> {
        let model = rr.req.model;
        for inst in w.model_instances(model).to_vec() {
            if self.prefill_insts.contains(&inst) {
                continue;
            }
            let Some((node, _)) = w.instance_placement(inst) else {
                continue;
            };
            // A TP instance owns its whole slot group's compute share.
            let limit = concurrency_limit(
                w.model_spec(model),
                w.node_hw(node),
                w.instance_share(inst),
                &w.slo(),
            );
            let live = w.instance(inst).map(|i| i.live_count()).unwrap_or(u32::MAX);
            if live >= limit {
                continue;
            }
            match w.admit_decoding(inst, rr.clone()) {
                true => return Ok(()),
                false => continue, // KV grant full; try the next instance
            }
        }
        if let Some(inst) = self.create_on_free_slot(w, model) {
            if w.admit_decoding(inst, rr.clone()) {
                return Ok(());
            }
        }
        Err(rr)
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

    fn retry_queue(&mut self, w: &mut World) {
        for rr in std::mem::take(&mut self.queue) {
            if w.now() >= rr.next_deadline(&w.slo_for(&rr.req)) {
                w.drop_request(&rr);
            } else if !self.try_place_prefill(w, &rr) {
                self.queue.push(rr);
            }
        }
    }
}

impl Default for PdSllm {
    fn default() -> Self {
        Self::new()
    }
}

impl Policy for PdSllm {
    fn name(&self) -> &str {
        "sllm+c+s (PD)"
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        if !self.try_place_prefill(w, &rr) {
            self.enqueue(w, rr);
        }
    }

    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize) {
        for inst in w.slot_instances(node, slot).to_vec() {
            let Some(i) = w.instance(inst) else { continue };
            if !i.has_work() {
                continue;
            }
            if w.instance_group_busy(inst) {
                continue; // another slot of the TP group is still running
            }
            let kind = if self.prefill_insts.contains(&inst) {
                match i
                    .requests()
                    .iter()
                    .filter(|r| matches!(r.phase, ReqPhase::Waiting))
                    .min_by_key(|r| r.req.arrival)
                {
                    Some(r) => IterationKind::Prefill(r.req.id),
                    None => continue, // decoding requests left mid-handoff
                }
            } else {
                IterationKind::Decode
            };
            if w.start_iteration(inst, kind).is_ok() {
                return;
            }
        }
    }

    fn on_prefill_done(&mut self, w: &mut World, inst: InstanceId, req: RequestId) {
        if !self.prefill_insts.contains(&inst) {
            return;
        }
        let now = w.now();
        let rr = w
            .instance_mut(inst)
            .expect("prefill instance exists")
            .remove_for_handoff(req, now);
        let delay = w.kv_transfer_delay(rr.req.model, rr.context_tokens());
        w.schedule_keepalive(inst);
        self.pending.insert(req.0, rr);
        w.set_timer(delay, TAG_HANDOFF | req.0);
    }

    fn on_load_done(&mut self, w: &mut World, _inst: InstanceId) {
        self.retry_queue(w);
    }

    fn on_request_done(&mut self, w: &mut World, _inst: InstanceId, _rr: &RunningRequest) {
        self.retry_queue(w);
    }

    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        let idle = w
            .instance(inst)
            .map(|i| !i.has_live_requests() && !i.busy && !i.scaling)
            .unwrap_or(false);
        if idle {
            self.prefill_insts.remove(&inst);
            w.unload_instance(inst);
            self.retry_queue(w);
        }
    }

    fn on_timer(&mut self, w: &mut World, payload: u64) {
        if payload & TAG_HANDOFF != 0 {
            let key = payload & !TAG_HANDOFF;
            let Some(rr) = self.pending.remove(&key) else {
                return;
            };
            match self.try_place_decode(w, rr) {
                Ok(()) => {}
                Err(rr) => {
                    // No decode capacity yet: back off briefly, give up when
                    // hopeless (well past the running deadline).
                    let hopeless = w.now()
                        > rr.next_deadline(&w.slo_for(&rr.req)) + SimDuration::from_secs(10);
                    if hopeless {
                        w.drop_request(&rr);
                    } else {
                        self.pending.insert(key, rr);
                        w.set_timer(SimDuration::from_millis(100), TAG_HANDOFF | key);
                    }
                }
            }
            return;
        }
        let id = RequestId(payload);
        self.timers.remove(&id);
        let now = w.now();
        for rr in std::mem::take(&mut self.queue) {
            if rr.req.id == id && now >= rr.next_deadline(&w.slo_for(&rr.req)) {
                w.drop_request(&rr);
            } else {
                self.queue.push(rr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, Simulation, WorldConfig};
    use hwmodel::{ModelSpec, NoiseModel};
    use simcore::time::SimTime;
    use workload::request::{Request, SloClass, Trace};

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
    fn request_crosses_prefill_to_decode() {
        let trace = mk_trace(vec![(0, 0, 512, 8)]);
        let sim = Simulation::new(
            &ClusterSpec::statically_shared(0, 2),
            vec![ModelSpec::llama2_7b()],
            quiet(),
            PdSllm::new(),
        );
        let m = sim.run(&trace);
        assert!(
            m.records[0].completed.is_some(),
            "request must complete across the handoff"
        );
        // Two pools ⇒ two cold starts for a single request.
        assert_eq!(m.cold_starts, 2);
    }

    #[test]
    fn pd_uses_more_instances_than_aggregated() {
        use crate::sllm::{Sllm, SllmConfig};
        let reqs: Vec<(u64, u32, u32, u32)> = (0..10).map(|i| (i * 500, 0, 512, 32)).collect();
        let trace = mk_trace(reqs);
        let agg = Simulation::new(
            &ClusterSpec::statically_shared(0, 2),
            vec![ModelSpec::llama2_7b()],
            quiet(),
            Sllm::new(SllmConfig::sllm_cs()),
        )
        .run(&trace);
        let pd = Simulation::new(
            &ClusterSpec::statically_shared(0, 2),
            vec![ModelSpec::llama2_7b()],
            quiet(),
            PdSllm::new(),
        )
        .run(&trace);
        assert!(
            pd.cold_starts > agg.cold_starts,
            "PD should double instance churn: {} vs {}",
            pd.cold_starts,
            agg.cold_starts
        );
        assert!(pd.slo_met() <= agg.slo_met());
    }
}
