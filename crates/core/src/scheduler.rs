//! The SLINFER scheduler: the [`Policy`] that ties the three subsystems
//! together, following the request lifecycle of §V.
//!
//! On arrival a request is offered to existing instances of its model —
//! CPU-first, largest-batch-first (§VIII-B) — each gated by shadow
//! validation (§VI-C) *and* a memory plan for its Eq. 2 demand (§VII). If
//! every instance is blocked on memory, the consolidator tries proactive
//! preemption (§VIII-A). Failing that, a new instance is bin-packed onto
//! the tightest-fitting feasible node. Failing that, the request queues and
//! is dropped at its TTFT deadline (§IX-A). Nodes execute via token-level
//! min-headroom scheduling (Eq. 1, Fig. 14); KV grants ride the watermark
//! policy through the optimistic/pessimistic orchestrator.

use std::collections::{BTreeMap, BTreeSet};

use cluster::world::StartError;
use cluster::{
    evict_most_headroom, Backlog, ClusterEvent, Handoffs, MemError, NodeId, Policy, World,
};
use engine::instance::{Instance, InstanceId, InstanceState, IterationKind};
use engine::request::{ReqPhase, RunningRequest};
use hwmodel::HardwareSpec;
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, RequestId};

use crate::config::SlinferConfig;
use crate::consolidate::{order_candidates, pick_victim};
use crate::memory::{
    recommend_bytes, required_bytes, should_scale_down, MemoryPlanner, ScaleDecision,
};
use crate::quantify::QuantifierSet;
use crate::shadow::{validate, InstView, ShadowReq, Verdict};

/// Timer-payload tag for the periodic liveness sweep.
const TAG_SWEEP: u64 = 1 << 62;

/// Prior for a model's mean output length before history accumulates
/// (tokens).
const DEFAULT_AVG_OUTPUT: f64 = 256.0;

/// Liveness sweep period.
const SWEEP_PERIOD: SimDuration = SimDuration::from_millis(500);

/// How an existing instance answered [`Slinfer::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Offer {
    /// The instance took the request.
    Admitted,
    /// The pool, the node, CPU feasibility or shadow validation said no.
    Refused,
    /// Only memory said no: the node cannot grow the grant to the Eq. 2
    /// demand, which makes the instance a §VIII-A preemption target.
    MemoryBlocked,
}

/// The SLINFER serving policy.
///
/// Every collection of policy state is ordered (`BTreeMap`/`BTreeSet`, or
/// a `Vec` in arrival order) — never a hash map. Scale-op issue order once
/// leaked `HashMap` hash randomness into results, making the same binary
/// diverge across processes; the node-event sweep over `planned` and any
/// future iteration over the maps below would be the same bug class, so
/// the whole struct is audited to ordered containers and
/// `tests/determinism.rs` pins a cross-process fingerprint for the
/// node-event path.
pub struct Slinfer {
    cfg: SlinferConfig,
    quant: QuantifierSet,
    /// Reservation stations for approved scale-ups that do not fit yet.
    planner: MemoryPlanner,
    /// Whether the liveness sweep's timer is running.
    sweeping: bool,
    /// Per-model historical output lengths: (sum, count).
    avg_out: BTreeMap<u32, (f64, u64)>,
    /// Requests awaiting placement, with their drop timers.
    backlog: Backlog,
    /// The grant each instance is heading to: an approved rescale target,
    /// whether it can execute now, is reserved or is in flight, kept until
    /// the instance's grant equals it. Every node's optimistic budget is
    /// derived from these ([`Self::budget`]). Ordered:
    /// [`Self::try_issue_wanted`] iterates this map, and issue order must
    /// not depend on hash randomness or replays stop being byte-identical
    /// across processes.
    planned: BTreeMap<InstanceId, u64>,
    /// Expected activation time of loading instances (for validation).
    expected_active: BTreeMap<InstanceId, SimTime>,
    /// PD mode: instances dedicated to prefill (§IX-G).
    prefill_insts: BTreeSet<InstanceId>,
    /// PD mode: requests in flight between prefill and decode instances.
    handoffs: Handoffs,
}

impl Slinfer {
    /// Creates the policy.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: SlinferConfig) -> Self {
        // detlint::allow(D005, "documented # Panics contract: an invalid config is a caller bug, caught before any replay starts")
        cfg.validate().expect("invalid SLINFER config");
        Slinfer {
            cfg,
            quant: QuantifierSet::new(0x51F3),
            planner: MemoryPlanner::default(),
            sweeping: false,
            avg_out: BTreeMap::new(),
            backlog: Backlog::default(),
            planned: BTreeMap::new(),
            expected_active: BTreeMap::new(),
            prefill_insts: BTreeSet::new(),
            handoffs: Handoffs::default(),
        }
    }

    /// Starts the liveness sweep on the first callback.
    fn ensure_init(&mut self, w: &mut World) {
        if !self.sweeping {
            self.sweeping = true;
            w.set_timer(SWEEP_PERIOD, TAG_SWEEP);
        }
    }

    fn avg_output(&self, model: ModelId) -> f64 {
        match self.avg_out.get(&model.0) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => DEFAULT_AVG_OUTPUT,
        }
    }

    /// Eq. 2 for `inst`: the KV bytes its live requests, plus an optional
    /// `candidate`, require. `L_min` is the model's maximum context length
    /// (§VII-A).
    fn required(&self, w: &World, inst: InstanceId, candidate: Option<&RunningRequest>) -> u64 {
        w.instance(inst).map_or(0, |i| {
            required_bytes(
                i.requests(),
                candidate,
                self.avg_output(i.model),
                i.spec.max_context,
                i.spec.kv_bytes_per_token(),
            )
        })
    }

    fn node_allowed(&self, w: &World, node: NodeId, model: ModelId) -> bool {
        if !w.node_schedulable(node) {
            return false;
        }
        let hw = w.node_hw(node);
        let spec = w.model_spec(model);
        if !hw.can_serve(spec) {
            return false;
        }
        if hw.kind.is_cpu() && !self.cfg.enable_cpu {
            return false;
        }
        // A tensor-parallel deployment needs its whole slot group on one
        // node; smaller nodes can never host it.
        if w.slot_count(node) < spec.tp_degree.max(1) as usize {
            return false;
        }
        true
    }

    /// The compute share a *new* instance of `model` would own on `node`:
    /// its prospective slot group's summed share
    /// ([`World::slot_group_for`] picks the least-populated slots).
    fn prospective_share(w: &World, node: NodeId, model: ModelId) -> Option<f64> {
        let tp = w.model_spec(model).tp_degree.max(1) as usize;
        let group = w.slot_group_for(node, tp)?;
        Some(group.iter().map(|&s| w.slot_share(node, s)).sum())
    }

    /// Profiles one `(model spec, node hardware, share)` combination; the
    /// spec's TP degree is folded into the profile by the quantifier.
    fn ensure_profile(&mut self, w: &World, node: NodeId, model: ModelId, share: f64) {
        let hw = w.node_hw(node).clone();
        let spec = w.model_spec(model).clone();
        self.quant
            .get_or_profile(&spec, &hw, share, w.perf(), &w.cfg.noise);
    }

    /// Profiles every listed instance at its own placement share (TP
    /// groups own more compute than their node's single-slot share).
    fn ensure_instance_profiles(&mut self, w: &World, node: NodeId, ids: &[InstanceId]) {
        let hw = w.node_hw(node).clone();
        for &id in ids {
            let Some(i) = w.instance(id) else { continue };
            let spec = i.spec.clone();
            let share = w.instance_share(id);
            self.quant
                .get_or_profile(&spec, &hw, share, w.perf(), &w.cfg.noise);
        }
    }

    /// Whether a CPU node can hold this request's SLO at all (§V's
    /// "transparently falls back to GPU" check).
    fn request_feasible_on(&mut self, w: &World, node: NodeId, rr: &RunningRequest) -> bool {
        let hw = w.node_hw(node).clone();
        if !hw.kind.is_cpu() {
            return true;
        }
        let model = rr.req.model;
        let Some(share) = Self::prospective_share(w, node, model) else {
            return false;
        };
        self.ensure_profile(w, node, model, share);
        let spec = w.model_spec(model);
        // detlint::allow(D005, "ensure_profile just profiled this (spec, hardware, share) key")
        let q = self.quant.get(spec, &hw, share).expect("just profiled");
        let slo = w.slo_for(&rr.req);
        let over = self.cfg.overestimate;
        let prefill_ok =
            q.prefill_s(rr.prefill_len()) * over <= slo.ttft(rr.req.input_len).as_secs_f64();
        let ctx = rr.req.input_len + self.avg_output(model) as u32;
        let decode_ok = q.decode_s(1, ctx) * over <= slo.tpot_s;
        prefill_ok && decode_ok
    }

    /// The instances contending any slot of `slots` on `node`, deduped and
    /// ascending — the co-tenant set shadow validation replays. A TP group
    /// can overlap different neighbours on different slots, so a
    /// single-slot scan would miss contenders.
    fn colocated(w: &World, node: NodeId, slots: &[usize]) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = slots
            .iter()
            .flat_map(|&s| w.slot_instances(node, s))
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Shadow validation (§VI-C): replays the future schedule of every
    /// instance contending `group` on `node` with `rr` admitted to
    /// `target`, or to a new instance of its model claiming `group` when
    /// `target` is `None`. `rr`'s SLO clock starts at `anchor`; the replay
    /// starts once every slot of the group is free, and no earlier than
    /// `ready`.
    #[allow(clippy::too_many_arguments)]
    fn shadow_check(
        &mut self,
        w: &mut World,
        node: NodeId,
        group: &[usize],
        target: Option<InstanceId>,
        rr: &RunningRequest,
        anchor: SimTime,
        ready: SimTime,
    ) -> bool {
        let ids = Self::colocated(w, node, group);
        self.ensure_instance_profiles(w, node, &ids);
        let share: f64 = group.iter().map(|&s| w.slot_share(node, s)).sum();
        if target.is_none() {
            self.ensure_profile(w, node, rr.req.model, share);
        }
        let hw = w.node_hw(node).clone();
        let start = group
            .iter()
            .fold(ready, |t, &s| t.max(w.slot_free_at(node, s)));
        let mut views: Vec<InstView> = ids
            .iter()
            .map(|&id| self.co_tenant_view(w, id, &hw))
            .collect();
        let target_ix = match target {
            Some(t) => ids
                .iter()
                .position(|&id| id == t)
                // detlint::allow(D005, "`ids` lists every instance on the target's own slot group, the target included")
                .expect("the target sits on its own slots"),
            None => {
                let spec = w.model_spec(rr.req.model);
                // detlint::allow(D005, "a new instance's (spec, hardware, share) key was profiled at the top of this call")
                let quant = self.quant.get(spec, &hw, share).expect("profiled above");
                views.push(InstView {
                    quant,
                    reqs: Vec::new(),
                });
                views.len() - 1
            }
        };
        views[target_ix].reqs.push(Self::shadow_req(w, rr, anchor));
        let cand_ix = views[target_ix].reqs.len() - 1;
        w.note_shadow_validation();
        validate(&mut views, target_ix, cand_ix, start, self.cfg.overestimate) == Verdict::Pass
    }

    /// A co-tenant's shadow view: its quantifier on `hw` and its requests,
    /// each anchored at arrival + grace. Requests admitted during a cold
    /// start have not received their grace yet, so they are anchored no
    /// earlier than the expected activation.
    fn co_tenant_view(&self, w: &World, id: InstanceId, hw: &HardwareSpec) -> InstView<'_> {
        // detlint::allow(D005, "shadow_check passes only ids `colocated` just read from the slot index, which lists hosted instances")
        let inst = w.instance(id).expect("listed");
        let quant = self
            .quant
            .get(&inst.spec, hw, w.instance_share(id))
            // detlint::allow(D005, "shadow_check profiled every co-tenant at its own share before building the views")
            .expect("profiled above");
        let pending_act = self.expected_active.get(&id).copied();
        let reqs = inst
            .requests()
            .iter()
            .map(|r| {
                let mut anchor = r.req.arrival + r.grace;
                if let (Some(act), true) = (pending_act, r.grace.is_zero()) {
                    anchor = anchor.max(act);
                }
                Self::shadow_req(w, r, anchor)
            })
            .collect();
        InstView { quant, reqs }
    }

    /// `rr` as a shadow-validation request whose SLO clock starts at
    /// `anchor`.
    fn shadow_req(w: &World, rr: &RunningRequest, anchor: SimTime) -> ShadowReq {
        ShadowReq {
            anchor,
            slo: w.slo_for(&rr.req),
            input_len: rr.req.input_len,
            tokens_done: rr.tokens_out,
            prefill_len: rr.prefill_len(),
            waiting: matches!(rr.phase, ReqPhase::Waiting),
        }
    }

    /// The grant `i` is heading to: its planned target, else its current
    /// grant.
    fn future_grant(&self, i: &Instance) -> u64 {
        self.planned
            .get(&i.id)
            .copied()
            .unwrap_or_else(|| i.kv_capacity_bytes())
    }

    /// The optimistic budget of §VII-C on `node`: its memory minus, for
    /// each instance on it, the weights plus the grant the instance is
    /// heading to. It is derived from the planned grants on every call, so
    /// it always agrees with what the node holds and plans. A node that
    /// takes no new work has no budget.
    fn budget(&self, w: &World, node: NodeId) -> u64 {
        if !w.node_schedulable(node) {
            return 0;
        }
        let held: u64 = w
            .node_instances(node)
            .iter()
            .filter_map(|&id| w.instance(id))
            .map(|i| i.spec.weights_bytes() + self.future_grant(i))
            .sum();
        w.node_hw(node).mem_bytes.saturating_sub(held)
    }

    /// Plans growth of `inst`'s grant to cover `require` bytes, trying the
    /// watermark-recommended size first and compromising at `require`
    /// (§VII-D). Coalesces with planned ops: the delta is planned on top
    /// of the instance's future grant. Returns true if the future grant
    /// already covers `require` or growth is approved (executed, pending,
    /// or reserved).
    fn plan_grow(&mut self, w: &mut World, inst: InstanceId, require: u64) -> bool {
        let (Some(node), Some(i)) = (w.instance_placement(inst), w.instance(inst)) else {
            return false;
        };
        let future = self.future_grant(i);
        if future >= require {
            return true;
        }
        if self.planner.has_reservation(node, inst) {
            // The queued reservation keeps its place; growing past it
            // waits until it pops.
            return false;
        }
        let recommend = recommend_bytes(require, self.cfg.watermark);
        let budget = self.budget(w, node);
        let physical = w.node_available_bytes(node);
        for target in [recommend, require] {
            match self
                .planner
                .plan_scale(node, inst, future, target, budget, physical)
            {
                ScaleDecision::Execute => {
                    self.planned.insert(inst, target);
                    self.try_issue_wanted(w, node);
                    return true;
                }
                ScaleDecision::Reserve => {
                    self.planned.insert(inst, target);
                    return true;
                }
                ScaleDecision::Reject => continue,
            }
        }
        false
    }

    /// Re-evaluates a node's parked memory work after physical bytes were
    /// released (scale-down completion, unload, preemption) — the
    /// reservation-station notification of §VII-C.
    fn nudge_memory(&mut self, w: &mut World, node: NodeId) {
        let physical = w.node_available_bytes(node);
        self.planner.release_reservations(node, physical);
        self.try_issue_wanted(w, node);
    }

    /// Issues the planned targets on `node` whose instance is free, active
    /// and holds no reservation, and forgets those already reached, in
    /// ascending instance order.
    fn try_issue_wanted(&mut self, w: &mut World, node: NodeId) {
        // Issuing one rescale changes no other instance's state or grant.
        let candidates: Vec<(InstanceId, u64, u64)> = w
            .node_instances(node)
            .iter()
            .filter_map(|&id| {
                let (&to, i) = (self.planned.get(&id)?, w.instance(id)?);
                let free = !i.is_occupied() && i.state == InstanceState::Active;
                let issuable = free && !self.planner.has_reservation(node, id);
                issuable.then(|| (id, to, i.kv_capacity_bytes()))
            })
            .collect();
        for (inst, to, cur) in candidates {
            if to == cur {
                self.planned.remove(&inst);
                continue;
            }
            if to > cur && to - cur > w.node_available_bytes(node) {
                continue; // physically blocked; a release will nudge us
            }
            match w.start_kv_scale(inst, to) {
                Ok(()) => {}
                Err(MemError::BelowLiveSet) => {
                    // Usage grew past the planned shrink target: forget it,
                    // which returns the instance's budget to its grant.
                    self.planned.remove(&inst);
                }
                Err(_) => { /* physically blocked; retry on next release */ }
            }
        }
    }

    /// The watermark's lazy scale-down (§VII-B), called on completions.
    fn maybe_scale_down(&mut self, w: &mut World, inst: InstanceId) {
        if !self.cfg.enable_sharing {
            return; // exclusive instances keep their full grant
        }
        let Some(node) = w.instance_placement(inst) else {
            return;
        };
        let Some(i) = w.instance(inst) else { return };
        if i.scaling.is_some() || self.planned.contains_key(&inst) {
            return;
        }
        let recommend = recommend_bytes(self.required(w, inst, None), self.cfg.watermark);
        let cur = i.kv_capacity_bytes();
        if !should_scale_down(cur, recommend, self.cfg.watermark) {
            return;
        }
        let target = recommend.max(i.kv_used_bytes());
        if target >= cur {
            return;
        }
        // A scale-down always executes, and its bytes count towards the
        // budget from the moment it is planned.
        self.planned.insert(inst, target);
        self.try_issue_wanted(w, node);
    }

    /// Admits `rr` to `inst`: a waiting request joins its queue, a
    /// prefilled one (a PD handoff) its decode batch, which fails if the
    /// grant cannot hold the shipped KV.
    fn admit(w: &mut World, inst: InstanceId, rr: &RunningRequest) -> bool {
        if matches!(rr.phase, ReqPhase::Waiting) {
            w.admit(inst, rr.clone());
            true
        } else {
            w.admit_decoding(inst, rr.clone())
        }
    }

    /// Offers `rr` to the existing instance `inst` and admits it if every
    /// §V check passes, in order: the pool (in PD mode a waiting request
    /// enters a prefill instance, a prefilled one a decode instance), the
    /// node, the CPU's SLO feasibility for a request still to prefill,
    /// shadow validation, and the memory plan for the Eq. 2 demand.
    fn offer(&mut self, w: &mut World, inst: InstanceId, rr: &RunningRequest) -> Offer {
        let Some(node) = w.instance_placement(inst) else {
            return Offer::Refused;
        };
        let waiting = matches!(rr.phase, ReqPhase::Waiting);
        if self.cfg.pd_disaggregate && self.prefill_insts.contains(&inst) != waiting {
            return Offer::Refused;
        }
        if !self.node_allowed(w, node, rr.req.model)
            || (waiting && !self.request_feasible_on(w, node, rr))
        {
            return Offer::Refused;
        }
        // A loading target starts the candidate's SLO clock (if it arrived
        // earlier) and its replay at the expected activation.
        let act = self.expected_active.get(&inst).copied();
        let anchor = match act {
            Some(act) if act > rr.req.arrival => act,
            _ => rr.req.arrival + rr.grace,
        };
        let ready = act.unwrap_or(w.now());
        let group = w.instance_slots(inst).unwrap_or_default().to_vec();
        if !self.shadow_check(w, node, &group, Some(inst), rr, anchor, ready) {
            return Offer::Refused;
        }
        let require = self.required(w, inst, Some(rr));
        if !self.plan_grow(w, inst, require) {
            return Offer::MemoryBlocked;
        }
        if Self::admit(w, inst, rr) {
            Offer::Admitted
        } else {
            Offer::Refused
        }
    }

    /// Full §V admission pipeline for a request still to prefill, never
    /// offering it to `exclude`. Returns true if the request was placed.
    fn try_place(
        &mut self,
        w: &mut World,
        rr: &RunningRequest,
        allow_preempt: bool,
        exclude: Option<InstanceId>,
    ) -> bool {
        self.ensure_init(w);
        let model = rr.req.model;
        // Session affinity fast path: a follow-up turn prefers the instance
        // holding its parked prefix KV, subject to the same §V admission
        // checks as any other candidate. On any failure it falls through to
        // the normal ordered scan (inert when sessions are off).
        let home = w
            .session_affinity_target(&rr.req)
            .filter(|&h| Some(h) != exclude);
        if home.is_some_and(|h| self.offer(w, h, rr) == Offer::Admitted) {
            return true;
        }
        let candidates =
            order_candidates(w, model, self.cfg.enable_cpu, self.cfg.enable_consolidation);
        let mut mem_blocked: Vec<InstanceId> = Vec::new();
        for inst in candidates.into_iter().filter(|&i| Some(i) != exclude) {
            match self.offer(w, inst, rr) {
                Offer::Admitted => return true,
                Offer::MemoryBlocked => mem_blocked.push(inst),
                Offer::Refused => {}
            }
        }
        // §VIII-A proactive consolidation.
        if allow_preempt && self.cfg.enable_consolidation {
            for target in mem_blocked {
                if self.try_preempt_for(w, target, rr) {
                    return true;
                }
            }
        }
        // Scale out: a fresh instance (§V fallback).
        self.try_create(w, rr, true)
    }

    /// Preempts the smallest-batch neighbour of `target` and reroutes its
    /// requests, then admits `rr` to `target` (§VIII-A).
    fn try_preempt_for(&mut self, w: &mut World, target: InstanceId, rr: &RunningRequest) -> bool {
        let Some(node) = w.instance_placement(target) else {
            return false;
        };
        let Some(victim) = pick_victim(w, target) else {
            return false;
        };
        // Check that the freed bytes actually cover the demand.
        let require = self.required(w, target, Some(rr));
        let cur = w
            .instance(target)
            .map(|i| i.kv_capacity_bytes())
            .unwrap_or(0);
        if cur < require {
            let delta = require - cur;
            let freed = w.instance(victim).map_or(0, Instance::committed_bytes);
            if self.budget(w, node) + freed < delta {
                return false; // one victim is not enough; stay conservative
            }
        }
        // Execute: evacuate the victim, reroute its requests, then admit.
        // Nothing checks that they can land elsewhere before the victim is
        // preempted.
        self.cancel_instance_state(w, victim);
        let drained = w.evacuate(victim);
        self.nudge_memory(w, node);
        w.note_preemption();
        for moved in drained {
            if !self.try_place(w, &moved, false, None) {
                self.backlog.push(w, moved);
            }
        }
        // Now retry the target's memory path (the reroutes may have landed
        // there) and admit.
        let require = self.required(w, target, Some(rr));
        if self.plan_grow(w, target, require) {
            w.admit(target, rr.clone());
            true
        } else {
            false
        }
    }

    /// Creates a new instance for `rr` via best-fit bin-packing (§V).
    fn try_create(&mut self, w: &mut World, rr: &RunningRequest, as_prefill: bool) -> bool {
        let model = rr.req.model;
        let spec = w.model_spec(model).clone();
        let require = required_bytes(
            &[],
            Some(rr),
            self.avg_output(model),
            spec.max_context,
            spec.kv_bytes_per_token(),
        );
        let grant = recommend_bytes(require, self.cfg.watermark);

        // Order nodes: CPU (if feasible) before GPU; then ServerlessLLM's
        // startup-time-estimated scheduling — the estimated load time from
        // each node's warmest checkpoint tier (HBM co-residency, DRAM
        // cache, SSD, remote fetch, plus loading-channel contention);
        // best-fit breaks the remaining ties. Under the flat default
        // checkpoint configuration every node of a kind scores the same,
        // so the legacy (kind, best-fit) order replays byte-identically.
        let mut options: Vec<(u8, u64, u64, NodeId)> = Vec::new();
        for node in w.node_ids() {
            if !self.node_allowed(w, node, model) {
                continue;
            }
            if !self.cfg.enable_sharing && !w.node_instances(node).is_empty() {
                continue;
            }
            if !self.request_feasible_on(w, node, rr) {
                continue;
            }
            let hw = w.node_hw(node);
            let kind_rank = if hw.kind.is_cpu() { 0u8 } else { 1 };
            let needed = spec.weights_bytes() + grant;
            if w.node_available_bytes(node) < needed {
                continue;
            }
            let Some(leftover) = self.budget(w, node).checked_sub(needed) else {
                continue;
            };
            options.push((kind_rank, w.startup_score_ns(model, node), leftover, node));
        }
        options.sort();
        let tp = spec.tp_degree.max(1) as usize;
        for (_, _, _, node) in options {
            // The slot group this instance would claim (the least-loaded
            // slot for plain models, a k-slot group for TP deployments).
            let Some(group) = w.slot_group_for(node, tp) else {
                continue;
            };
            // Estimate the activation time *before* creating: the fetch
            // promotes the checkpoint and joins the loading channel, so a
            // post-create estimate would price the warmer, busier state
            // instead of the load actually being issued. (Identical either
            // way under the flat default configuration.)
            let act = w.now() + SimDuration::from_secs_f64(w.estimate_load_s(model, node));
            // Validate the newcomer against the node's existing tenants;
            // the cold start delays both its SLO clock and its first
            // iteration.
            let anchor = act.max(rr.req.arrival + rr.grace);
            if !self.shadow_check(w, node, &group, None, rr, anchor, act) {
                continue;
            }
            let effective_grant = if self.cfg.enable_sharing {
                grant
            } else {
                // Exclusive mode: hand the instance all remaining memory.
                w.node_available_bytes(node)
                    .saturating_sub(spec.weights_bytes())
            };
            match w.create_instance_group(model, node, &group, effective_grant) {
                Ok(inst) => {
                    self.expected_active.insert(inst, act);
                    if self.cfg.pd_disaggregate && as_prefill {
                        self.prefill_insts.insert(inst);
                    }
                    if !Self::admit(w, inst, rr) {
                        continue; // fresh grant too small for the context
                    }
                    return true;
                }
                Err(_) => continue,
            }
        }
        false
    }

    /// PD mode: lands a prefilled request on a decode instance (§IX-G).
    fn place_decode(&mut self, w: &mut World, rr: RunningRequest) -> Result<(), RunningRequest> {
        let model = rr.req.model;
        let candidates =
            order_candidates(w, model, self.cfg.enable_cpu, self.cfg.enable_consolidation);
        if candidates
            .into_iter()
            .any(|inst| self.offer(w, inst, &rr) == Offer::Admitted)
            || self.try_create(w, &rr, false)
        {
            Ok(())
        } else {
            Err(rr)
        }
    }

    /// Offers every live queued request the full admission pipeline again.
    fn retry_queue(&mut self, w: &mut World) {
        for rr in self.backlog.take_live(w) {
            if !self.try_place(w, &rr, true, None) {
                self.backlog.requeue(rr);
            }
        }
    }

    /// Removes all scheduler state tied to an instance being unloaded.
    fn cancel_instance_state(&mut self, w: &World, inst: InstanceId) {
        if let Some(node) = w.instance_placement(inst) {
            self.planner.cancel_reservations(node, inst);
        }
        self.planned.remove(&inst);
        self.expected_active.remove(&inst);
        self.prefill_insts.remove(&inst);
    }

    /// Sheds admitted requests whose prefill never started and whose TTFT
    /// SLO is irrecoverably lost (the §IX-A proactive-drop rule, applied at
    /// the instance queue rather than the global one). Loading instances
    /// are skipped — their requests have a pending cold-start grace.
    fn shed_expired(&mut self, w: &mut World, node: NodeId, slot: usize) {
        let now = w.now();
        let mut expired: Vec<(InstanceId, RequestId)> = Vec::new();
        for &inst in w.slot_instances(node, slot) {
            let Some(i) = w.instance(inst) else { continue };
            if i.state != InstanceState::Active {
                continue;
            }
            for r in i.requests() {
                if matches!(r.phase, ReqPhase::Waiting)
                    && r.headroom(now, &w.slo_for(&r.req)) < -0.5
                {
                    expired.push((inst, r.req.id));
                }
            }
        }
        for (inst, rid) in expired {
            let Some(i) = w.instance_mut(inst) else {
                continue;
            };
            let rr = i.remove_for_migration(rid, now);
            w.drop_request(&rr);
            w.schedule_keepalive(inst);
        }
    }
}

impl Policy for Slinfer {
    fn name(&self) -> &str {
        "SLINFER"
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        self.ensure_init(w);
        if !self.try_place(w, &rr, true, None) {
            self.backlog.push(w, rr);
        }
    }

    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize) {
        self.ensure_init(w);
        self.try_issue_wanted(w, node);
        self.shed_expired(w, node, slot);
        let now = w.now();
        let mut banned: BTreeSet<RequestId> = BTreeSet::new();
        // Token-level scheduling loop (Fig. 14): run the most urgent item.
        for _ in 0..64 {
            if w.slot_busy(node, slot) {
                return;
            }
            let mut best: Option<(f64, InstanceId, IterationKind)> = None;
            for &inst in w.slot_instances(node, slot) {
                let Some(i) = w.instance(inst) else { continue };
                if !i.has_work() {
                    continue;
                }
                // A TP instance is only startable when its *whole* slot
                // group is free, not just the slot that woke us.
                if w.instance_group_busy(inst) {
                    continue;
                }
                for r in i.requests() {
                    let slo = w.slo_for(&r.req);
                    let item = match r.phase {
                        ReqPhase::Waiting if !banned.contains(&r.req.id) => {
                            (r.headroom(now, &slo), IterationKind::Prefill(r.req.id))
                        }
                        ReqPhase::Decoding => (r.headroom(now, &slo), IterationKind::Decode),
                        _ => continue,
                    };
                    if best.as_ref().is_none_or(|(h, _, _)| item.0 < *h) {
                        best = Some((item.0, inst, item.1));
                    }
                }
            }
            let Some((_, inst, kind)) = best else { return };
            match w.start_iteration(inst, kind) {
                Ok(_) | Err(StartError::GroupBusy) => return,
                Err(StartError::KvExhausted(req)) => {
                    banned.insert(req);
                    // The grant is short: plan an immediate scale-up on top
                    // of whatever op is already heading this way.
                    let require = self.required(w, inst, None);
                    let _ = self.plan_grow(w, inst, require);
                }
            }
        }
    }

    fn on_load_done(&mut self, w: &mut World, inst: InstanceId) {
        self.expected_active.remove(&inst);
        self.retry_queue(w);
    }

    fn on_prefill_done(&mut self, w: &mut World, inst: InstanceId, req: RequestId) {
        if self.cfg.pd_disaggregate && self.prefill_insts.contains(&inst) {
            self.handoffs.ship(w, inst, req);
        }
    }

    fn on_scale_done(&mut self, w: &mut World, inst: InstanceId) {
        if let Some(node) = w.instance_placement(inst) {
            self.nudge_memory(w, node);
        }
        self.retry_queue(w);
    }

    fn on_request_done(&mut self, w: &mut World, inst: InstanceId, rr: &RunningRequest) {
        let e = self.avg_out.entry(rr.req.model.0).or_insert((0.0, 0));
        e.0 += rr.tokens_out as f64;
        e.1 += 1;
        self.maybe_scale_down(w, inst);
        self.retry_queue(w);
    }

    fn on_alloc_failure(&mut self, w: &mut World, inst: InstanceId, _req: RequestId) {
        // §VII-D: try to scale up once more (to Eq. 2, and at least one
        // more block per live request); if the node is out of memory,
        // evict the request with the longest headroom and reschedule it.
        let Some(i) = w.instance(inst) else { return };
        let one_more_block =
            i.kv_used_bytes() + i.spec.kv_bytes_per_token() * 16 * i.live_count().max(1) as u64;
        let require = self.required(w, inst, None).max(one_more_block);
        if self.plan_grow(w, inst, require) {
            return; // relief is (or will be) on the way
        }
        let Some(moved) = evict_most_headroom(w, inst) else {
            return;
        };
        // Never bounce the eviction straight back onto the starved instance.
        if !self.try_place(w, &moved, false, Some(inst)) {
            self.backlog.push(w, moved);
        }
    }

    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        if !w.instance(inst).is_some_and(|i| i.is_idle()) {
            return;
        }
        let Some(node) = w.instance_placement(inst) else {
            return;
        };
        self.cancel_instance_state(w, inst);
        w.unload_instance(inst);
        self.nudge_memory(w, node);
        self.retry_queue(w);
    }

    fn on_node_event(&mut self, w: &mut World, ev: &ClusterEvent, displaced: Vec<RunningRequest>) {
        self.ensure_init(w);
        if let ClusterEvent::NodeDrain(node) | ClusterEvent::NodeFail(node) = ev {
            // The node takes no new work, so its budget is gone; parked
            // reservations die with it (their instances are being evicted
            // or are already gone). Drop every plan pinned to the retiring
            // node or to an instance that no longer exists.
            self.planner.retire_node(*node);
            let gone = |i: &InstanceId| w.instance_placement(*i).is_none_or(|n| n == *node);
            self.planned.retain(|i, _| !gone(i));
            self.expected_active.retain(|i, _| !gone(i));
            self.prefill_insts.retain(|i| !gone(i));
        }
        // Re-place what the event displaced, then drain the global queue —
        // a join may have opened capacity, a drain may force queued work
        // onto other nodes.
        for rr in displaced {
            if !self.try_place(w, &rr, true, None) {
                self.backlog.push(w, rr);
            }
        }
        self.retry_queue(w);
    }

    fn on_timer(&mut self, w: &mut World, payload: u64) {
        if payload == TAG_SWEEP {
            // Periodic liveness sweep: shed expired work, re-check parked
            // memory ops, and restart any idle slot that has work — nothing
            // may starve just because its node went quiet.
            let nodes: Vec<NodeId> = w.node_ids().collect();
            for node in nodes {
                self.nudge_memory(w, node);
                for slot in 0..w.slot_count(node) {
                    self.shed_expired(w, node, slot);
                    if !w.slot_busy(node, slot) {
                        self.on_slot_free(w, node, slot);
                    }
                }
            }
            self.retry_queue(w);
            w.set_timer(SWEEP_PERIOD, TAG_SWEEP);
            return;
        }
        if Handoffs::is_timer(payload) {
            let Some(rr) = self.handoffs.arrive(payload) else {
                return;
            };
            if let Err(rr) = self.place_decode(w, rr) {
                self.handoffs.retry(w, rr);
            }
            return;
        }
        self.backlog.expire(w, RequestId(payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, Simulation, WorldConfig};
    use hwmodel::{ModelSpec, NoiseModel};
    use workload::request::{Request, SloClass, Trace};

    fn models(n: usize) -> Vec<ModelSpec> {
        (0..n).map(|i| ModelSpec::llama2_7b().replica(i)).collect()
    }

    fn quiet_cfg() -> WorldConfig {
        WorldConfig {
            noise: NoiseModel::off(),
            ..WorldConfig::default()
        }
    }

    fn mk_trace(reqs: Vec<(u64, u32, u32, u32)>) -> Trace {
        // (arrival_ms, model, input, output)
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
    fn single_request_served_on_cpu_first() {
        let trace = mk_trace(vec![(0, 0, 512, 8)]);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(1, 1),
            models(1),
            quiet_cfg(),
            Slinfer::new(SlinferConfig::default()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 1);
        // CPU is prioritized (§V): the token must have been decoded there.
        assert!(m.cpu_decode_tokens > 0);
        assert_eq!(m.gpu_decode_tokens, 0);
    }

    #[test]
    fn cpu_disabled_forces_gpu() {
        let trace = mk_trace(vec![(0, 0, 512, 8)]);
        let cfg = SlinferConfig {
            enable_cpu: false,
            ..SlinferConfig::default()
        };
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(1, 1),
            models(1),
            quiet_cfg(),
            Slinfer::new(cfg),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 1);
        assert_eq!(m.cpu_decode_tokens, 0);
        assert!(m.gpu_decode_tokens > 0);
    }

    #[test]
    fn long_inputs_fall_back_to_gpu() {
        // A 16K-token prompt is infeasible on the CPU within the 8 s TTFT
        // SLO (§IX-I1) — SLINFER must route it to the GPU.
        let mut ms = vec![ModelSpec::llama3_1_8b()];
        ms[0].name = "LB#0".into();
        let trace = mk_trace(vec![(0, 0, 16_384, 4)]);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(1, 1),
            ms,
            quiet_cfg(),
            Slinfer::new(SlinferConfig::default()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 1);
        assert_eq!(m.cpu_decode_tokens, 0, "CPU cannot hold a 16K prefill");
        assert!(m.gpu_decode_tokens > 0);
    }

    #[test]
    fn two_models_share_one_node() {
        // Two different 7B models, light load, a single CPU node: sharing
        // must colocate them (no second node exists).
        let trace = mk_trace(vec![(0, 0, 256, 8), (100, 1, 256, 8)]);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(1, 0),
            models(2),
            quiet_cfg(),
            Slinfer::new(SlinferConfig::default()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 2, "both requests must meet SLO via sharing");
        assert_eq!(m.cold_starts, 2);
        assert_eq!(m.oom_incidents, 0);
    }

    #[test]
    fn sharing_disabled_rejects_second_tenant() {
        // Same scenario but w/o sharing: one node, two models — the second
        // request cannot be placed anywhere and must drop.
        let trace = mk_trace(vec![(0, 0, 256, 8), (100, 1, 256, 8)]);
        let cfg = SlinferConfig {
            enable_sharing: false,
            enable_cpu: true,
            ..SlinferConfig::default()
        };
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(1, 0),
            models(2),
            quiet_cfg(),
            Slinfer::new(cfg),
        );
        let m = sim.run(&trace);
        // The second request only proceeds once the first instance is
        // reclaimed (keep-alive 1 s) — with a 0.5 s TTFT budget it drops.
        assert!(m.slo_met() <= 1);
        assert!(m.dropped >= 1);
    }

    #[test]
    fn burst_to_one_model_batches_on_one_instance() {
        // 12 requests in a sustainable burst to one model: consolidation
        // should grow one instance rather than fragmenting across nodes.
        // (128-token prefills every 250 ms leave decode headroom to spare.)
        let reqs: Vec<(u64, u32, u32, u32)> = (0..12).map(|i| (i * 250, 0, 128, 24)).collect();
        let trace = mk_trace(reqs);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(2, 2),
            models(1),
            quiet_cfg(),
            Slinfer::new(SlinferConfig::default()),
        );
        let m = sim.run(&trace);
        assert!(m.slo_rate() > 0.9, "slo rate {}", m.slo_rate());
        assert_eq!(
            m.cold_starts, 1,
            "a single instance should absorb the burst"
        );
        assert!(m.batch_sizes.max() >= 6.0, "batching should build up");
    }

    #[test]
    fn no_oom_incidents_under_memory_churn() {
        // Many models churning on few nodes with enough concurrency that
        // Eq. 2 rises past the L_min floor: the orchestrator must keep
        // physical memory sound while KV grants scale up and down.
        let mut reqs = Vec::new();
        for i in 0..60u64 {
            reqs.push((i * 150, (i % 6) as u32, 1024, 128));
        }
        let trace = mk_trace(reqs);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(1, 1),
            models(6),
            quiet_cfg(),
            Slinfer::new(SlinferConfig::default()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.oom_incidents, 0, "orchestrator must prevent OOM");
        assert!(m.slo_rate() > 0.6, "slo rate {}", m.slo_rate());
        assert!(m.scale_ops > 0, "watermark scaling should be exercised");
    }

    #[test]
    fn overload_drops_rather_than_violates_everyone() {
        // 64 models, one CPU node only: most requests cannot be served in
        // SLO; SLINFER should shed load via queue-timeout drops.
        let mut reqs = Vec::new();
        for i in 0..64u64 {
            reqs.push((i * 10, (i % 64) as u32, 2048, 64));
        }
        let trace = mk_trace(reqs);
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(1, 0),
            models(64),
            quiet_cfg(),
            Slinfer::new(SlinferConfig::default()),
        );
        let m = sim.run(&trace);
        assert!(m.dropped > 0, "overload must shed load");
        assert!(m.slo_met() > 0, "but some requests are served");
    }

    #[test]
    fn pd_mode_crosses_handoff() {
        // PD disaggregation: one request must prefill on a prefill instance,
        // transfer KV, and finish on a decode instance — two cold starts.
        let trace = mk_trace(vec![(0, 0, 512, 8)]);
        let cfg = SlinferConfig {
            pd_disaggregate: true,
            ..SlinferConfig::default()
        };
        let sim = Simulation::new(
            &ClusterSpec::heterogeneous(1, 1),
            models(1),
            quiet_cfg(),
            Slinfer::new(cfg),
        );
        let m = sim.run(&trace);
        assert!(m.records[0].completed.is_some());
        assert_eq!(m.cold_starts, 2, "prefill + decode pools");
    }

    #[test]
    fn pd_mode_costs_more_than_aggregated() {
        let reqs: Vec<(u64, u32, u32, u32)> = (0..12)
            .map(|i| (i * 500, (i % 3) as u32, 512, 24))
            .collect();
        let trace = mk_trace(reqs);
        let run = |pd: bool| {
            let cfg = SlinferConfig {
                pd_disaggregate: pd,
                ..SlinferConfig::default()
            };
            Simulation::new(
                &ClusterSpec::heterogeneous(2, 2),
                models(3),
                quiet_cfg(),
                Slinfer::new(cfg),
            )
            .run(&trace)
        };
        let agg = run(false);
        let pd = run(true);
        assert!(
            pd.cold_starts > agg.cold_starts,
            "PD churns more instances: {} vs {}",
            pd.cold_starts,
            agg.cold_starts
        );
        assert!(pd.slo_met() <= agg.slo_met());
    }

    #[test]
    fn tp_model_serves_on_a_multi_accel_node() {
        use cluster::NodeSpec;
        use hwmodel::HardwareSpec;
        // One 4-GPU server; a 13B model deployed at TP=2 must claim a
        // 2-slot group and serve within SLO.
        let trace = mk_trace(vec![(0, 0, 1024, 8), (200, 0, 1024, 8)]);
        let cluster = ClusterSpec {
            nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
        };
        let mut ms = vec![ModelSpec::llama2_13b().with_tp(2)];
        ms[0].name = "13B-TP2".into();
        let sim = Simulation::new(
            &cluster,
            ms,
            quiet_cfg(),
            Slinfer::new(SlinferConfig::default()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 2, "TP group placement must serve in SLO");
        assert!(m.gpu_decode_tokens > 0);
        assert_eq!(m.cold_starts, 1, "one TP instance absorbs both requests");
        assert_eq!(m.oom_incidents, 0);
    }

    #[test]
    fn tp_too_wide_for_every_node_is_dropped() {
        use cluster::NodeSpec;
        use hwmodel::HardwareSpec;
        // TP=4 cannot fit a 2-slot node: no placement exists, so the
        // request must drop at its TTFT deadline instead of panicking.
        let trace = mk_trace(vec![(0, 0, 512, 8)]);
        let cluster = ClusterSpec {
            nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 2)],
        };
        let ms = vec![ModelSpec::llama2_7b().with_tp(4)];
        let sim = Simulation::new(
            &cluster,
            ms,
            quiet_cfg(),
            Slinfer::new(SlinferConfig::default()),
        );
        let m = sim.run(&trace);
        assert_eq!(m.slo_met(), 0);
        assert_eq!(m.dropped, 1);
    }

    /// The budget follows each instance's planned grant: a shrink frees
    /// budget when it is approved, a grow is planned on top of the shrink
    /// target rather than the current grant, and cancelling an instance's
    /// plans gives the budget back.
    #[test]
    fn budget_follows_each_instances_planned_grant() {
        const GB: u64 = 1_000_000_000;
        let mut w = World::new(&ClusterSpec::heterogeneous(0, 1), models(1), quiet_cfg());
        let node = NodeId(0);
        // One loading instance holding 40 GB: it is not active, so nothing
        // planned for it issues and its grant stays put.
        let cur = 40 * GB;
        let inst = w.create_instance(ModelId(0), node, 0, cur).unwrap();
        let held = w.node_hw(node).mem_bytes - w.model_spec(ModelId(0)).weights_bytes();
        let mut s = Slinfer::new(SlinferConfig::default());
        assert_eq!(s.budget(&w, node), held - cur);

        // The lazy scale-down approves a shrink to S (Eq. 2's floor), and
        // the budget counts S at once.
        s.maybe_scale_down(&mut w, inst);
        let shrink = s.planned[&inst];
        assert!(shrink < cur);
        assert_eq!(s.budget(&w, node), held - shrink);
        // A demand between S and the current grant is not covered.
        assert!(s.future_grant(w.instance(inst).unwrap()) < (shrink + cur) / 2);

        // A grow past the current grant is planned from S: the budget falls
        // by exactly T − S. It needs more than the node has free, so it is
        // reserved.
        let before = s.budget(&w, node);
        assert!(s.plan_grow(&mut w, inst, cur + 4 * GB));
        let grow = s.planned[&inst];
        assert!(grow > cur);
        assert_eq!(before - s.budget(&w, node), grow - shrink);
        assert!(s.planner.has_reservation(node, inst));

        // Cancelling drops the reservation and the plan: the budget is back
        // to the current grant.
        s.cancel_instance_state(&w, inst);
        assert!(!s.planner.has_reservation(node, inst));
        assert_eq!(s.budget(&w, node), held - cur);
    }

    #[test]
    fn deterministic_with_seed() {
        let reqs: Vec<(u64, u32, u32, u32)> = (0..20)
            .map(|i| (i * 250, (i % 4) as u32, 768, 24))
            .collect();
        let trace = mk_trace(reqs);
        let run = || {
            let sim = Simulation::new(
                &ClusterSpec::heterogeneous(1, 1),
                models(4),
                WorldConfig {
                    seed: 7,
                    ..WorldConfig::default()
                },
                Slinfer::new(SlinferConfig::default()),
            );
            sim.run(&trace)
        };
        let a = run();
        let b = run();
        assert_eq!(a.slo_met(), b.slo_met());
        assert_eq!(a.scale_ops, b.scale_ops);
        assert_eq!(a.cpu_decode_tokens, b.cpu_decode_tokens);
    }
}
