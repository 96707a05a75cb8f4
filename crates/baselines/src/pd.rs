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
//!
//! Only the two pools are specific to this policy. Launches go through
//! the shared launch path of [`crate::groups`] (so an oversized model gets
//! a whole empty node, as under `sllm`), arrivals wait in a [`Backlog`],
//! and the KV transfer is [`Handoffs`], the same one SLINFER's PD mode
//! uses.

use std::collections::BTreeSet;

use cluster::{Backlog, Handoffs, NodeId, Policy, World};
use engine::instance::{InstanceId, IterationKind};
use engine::request::{ReqPhase, RunningRequest};
use workload::request::{ModelId, RequestId};

use crate::groups::{claim_slot_group, free_slots};
use crate::limits::concurrency_limit;

/// Concurrent prefills a prefill instance accepts before scale-out.
const PREFILL_DEPTH: u32 = 2;

/// Disaggregated `sllm+c+s`. See module docs.
///
/// Ordered containers only (`Vec`/`BTreeSet`/`BTreeMap`): hash-randomized
/// iteration order must never reach placement decisions.
#[derive(Default)]
pub struct PdSllm {
    backlog: Backlog,
    prefill_insts: BTreeSet<InstanceId>,
    handoffs: Handoffs,
}

impl PdSllm {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Launches a new instance of `model` on idle slots of a node that can
    /// serve it.
    fn launch(w: &mut World, model: ModelId) -> Option<InstanceId> {
        let free = free_slots(w);
        claim_slot_group(w, model, &free, |w, node| {
            w.node_hw(node).can_serve(w.model_spec(model))
        })
        .map(|(inst, _)| inst)
    }

    fn try_place_prefill(&mut self, w: &mut World, rr: &RunningRequest) -> bool {
        let model = rr.req.model;
        let open = w.model_instances(model).iter().copied().find(|&inst| {
            let live = w.instance(inst).map(|i| i.live_count()).unwrap_or(u32::MAX);
            self.prefill_insts.contains(&inst) && live < PREFILL_DEPTH
        });
        if let Some(inst) = open {
            w.admit(inst, rr.clone());
            return true;
        }
        if let Some(inst) = Self::launch(w, model) {
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
            let Some(node) = w.instance_placement(inst) else {
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
        if let Some(inst) = Self::launch(w, model) {
            if w.admit_decoding(inst, rr.clone()) {
                return Ok(());
            }
        }
        Err(rr)
    }

    fn retry_queue(&mut self, w: &mut World) {
        for rr in self.backlog.take_live(w) {
            if !self.try_place_prefill(w, &rr) {
                self.backlog.requeue(rr);
            }
        }
    }
}

impl Policy for PdSllm {
    fn name(&self) -> &str {
        "sllm+c+s (PD)"
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        if !self.try_place_prefill(w, &rr) {
            self.backlog.push(w, rr);
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
        if self.prefill_insts.contains(&inst) {
            self.handoffs.ship(w, inst, req);
        }
    }

    fn on_load_done(&mut self, w: &mut World, _inst: InstanceId) {
        self.retry_queue(w);
    }

    fn on_request_done(&mut self, w: &mut World, _inst: InstanceId, _rr: &RunningRequest) {
        self.retry_queue(w);
    }

    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        if w.instance(inst).is_some_and(|i| i.is_idle()) {
            self.prefill_insts.remove(&inst);
            w.unload_instance(inst);
            self.retry_queue(w);
        }
    }

    fn on_timer(&mut self, w: &mut World, payload: u64) {
        if !Handoffs::is_timer(payload) {
            self.backlog.expire(w, RequestId(payload));
            return;
        }
        let Some(rr) = self.handoffs.arrive(payload) else {
            return;
        };
        if let Err(rr) = self.try_place_decode(w, rr) {
            self.handoffs.retry(w, rr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, Simulation, WorldConfig};
    use hwmodel::{ModelSpec, NoiseModel};
    use simcore::time::{SimDuration, SimTime};
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
    fn oversized_model_takes_a_whole_split_node_per_pool() {
        // 34B weights overflow a half-A100 slot, so each pool's instance
        // takes the whole memory of an empty node, as under `sllm`.
        let trace = mk_trace(vec![(0, 0, 512, 8)]);
        let m = Simulation::new(
            &ClusterSpec::statically_shared(0, 2),
            vec![ModelSpec::codellama_34b()],
            quiet(),
            PdSllm::new(),
        )
        .run(&trace);
        assert!(
            m.records[0].completed.is_some(),
            "the 34B request completes"
        );
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
