//! The SLINFER scheduler: the [`Policy`] that ties the three subsystems
//! together, following the request lifecycle of §V.
//!
//! On arrival a request is offered to existing instances of its model —
//! CPU-first, largest-batch-first (§VIII-B) — each gated by shadow
//! validation (§VI-C) *and* a memory check (§VII). If every instance is
//! blocked on memory, the consolidator tries proactive preemption (§VIII-A).
//! Failing that, a new instance is bin-packed onto the tightest-fitting
//! feasible node. Failing that, the request queues and is dropped at its
//! TTFT deadline (§IX-A). Nodes execute via token-level min-headroom
//! scheduling (Eq. 1, Fig. 14); KV grants ride the watermark policy through
//! the optimistic/pessimistic orchestrator.

use std::collections::{BTreeMap, BTreeSet};

use cluster::{ClusterEvent, MemError, NodeId, Policy, World};
use engine::instance::{InstanceId, InstanceState, IterationKind};
use engine::request::{ReqPhase, RunningRequest};
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, RequestId};

use crate::config::SlinferConfig;
use crate::consolidate::{order_candidates, pick_victim, victim_footprint};
use crate::memory::{recommend_bytes, should_scale_down, MemoryPlanner, ScaleDecision};
use crate::quantify::QuantifierSet;
use crate::shadow::{validate, InstView, ShadowReq, Verdict};

/// Timer-payload tag distinguishing PD handoff timers from drop timers.
const TAG_HANDOFF: u64 = 1 << 63;

/// Timer-payload tag for the periodic liveness sweep.
const TAG_SWEEP: u64 = 1 << 62;

/// Liveness sweep period.
const SWEEP_PERIOD: SimDuration = SimDuration::from_millis(500);

/// The SLINFER serving policy.
///
/// Every collection of policy state is ordered (`BTreeMap`/`BTreeSet`, or
/// a `Vec` in arrival order) — never a hash map. PR 2 caught scale-op
/// issue order leaking `HashMap` hash randomness into results, making the
/// same binary diverge across processes; the node-event sweeps over
/// `wanted_scale`/`issued_scale` and any future iteration over the maps
/// below would be the same bug class, so the whole struct is audited to
/// ordered containers and `tests/determinism.rs` pins a cross-process
/// fingerprint for the node-event path.
pub struct Slinfer {
    cfg: SlinferConfig,
    quant: QuantifierSet,
    planner: Option<MemoryPlanner>,
    /// Per-model historical output lengths: (sum, count).
    avg_out: BTreeMap<u32, (f64, u64)>,
    /// Requests awaiting placement, with their drop deadlines.
    queue: Vec<RunningRequest>,
    /// Requests that already have a drop timer registered.
    timers: BTreeSet<RequestId>,
    /// When each slot's in-flight iteration ends (shadow start times).
    busy_until: BTreeMap<(u32, usize), SimTime>,
    /// Approved scale ops waiting for their instance to be free. Ordered:
    /// [`Self::try_issue_wanted`] iterates this map, and issue order must
    /// not depend on hash randomness or replays stop being byte-identical
    /// across processes.
    wanted_scale: BTreeMap<InstanceId, u64>,
    /// Scale ops issued to the engine and still in flight (target grant).
    issued_scale: BTreeMap<InstanceId, u64>,
    /// Expected activation time of loading instances (for validation).
    expected_active: BTreeMap<InstanceId, SimTime>,
    /// PD mode: instances dedicated to prefill (§IX-G).
    prefill_insts: BTreeSet<InstanceId>,
    /// PD mode: requests in flight between prefill and decode instances.
    pending_handoff: BTreeMap<u64, RunningRequest>,
}

impl Slinfer {
    /// Creates the policy.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(cfg: SlinferConfig) -> Self {
        cfg.validate().expect("invalid SLINFER config");
        Slinfer {
            cfg,
            quant: QuantifierSet::new(0x51F3),
            planner: None,
            avg_out: BTreeMap::new(),
            queue: Vec::new(),
            timers: BTreeSet::new(),
            busy_until: BTreeMap::new(),
            wanted_scale: BTreeMap::new(),
            issued_scale: BTreeMap::new(),
            expected_active: BTreeMap::new(),
            prefill_insts: BTreeSet::new(),
            pending_handoff: BTreeMap::new(),
        }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &SlinferConfig {
        &self.cfg
    }

    fn ensure_init(&mut self, w: &mut World) {
        if self.planner.is_none() {
            let caps: Vec<u64> = w.node_ids().map(|n| w.node_hw(n).mem_bytes).collect();
            self.planner = Some(MemoryPlanner::new(caps));
            w.set_timer(SWEEP_PERIOD, TAG_SWEEP);
        }
    }

    fn planner(&mut self) -> &mut MemoryPlanner {
        self.planner.as_mut().expect("planner initialized")
    }

    fn avg_output(&self, model: ModelId) -> f64 {
        match self.avg_out.get(&model.0) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => self.cfg.default_avg_output,
        }
    }

    fn l_min(&self, w: &World, model: ModelId) -> u32 {
        self.cfg
            .l_min_tokens
            .unwrap_or_else(|| w.model_spec(model).max_context)
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
        let q = self.quant.get(spec, &hw, share).expect("just profiled");
        let slo = w.slo_for(&rr.req);
        let over = self.cfg.overestimate;
        let prefill_ok =
            q.prefill_s(rr.prefill_len()) * over <= slo.ttft(rr.req.input_len).as_secs_f64();
        let ctx = rr.req.input_len + self.avg_output(model) as u32;
        let decode_ok = q.decode_s(1, ctx) * over <= slo.tpot_s;
        prefill_ok && decode_ok
    }

    fn shadow_start(&self, w: &World, node: NodeId, slot: usize, target: InstanceId) -> SimTime {
        let mut start = w.now();
        let group: Vec<usize> = w
            .instance_slots(target)
            .map(|s| s.to_vec())
            .unwrap_or_else(|| vec![slot]);
        for s in group {
            if let Some(&b) = self.busy_until.get(&(node.0, s)) {
                start = start.max(b);
            }
        }
        if let Some(&act) = self.expected_active.get(&target) {
            start = start.max(act);
        }
        start
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

    /// Shadow-validates admitting `rr` to `target` (§VI-C).
    fn shadow_check(&mut self, w: &mut World, target: InstanceId, rr: &RunningRequest) -> bool {
        let Some((node, slot)) = w.instance_placement(target) else {
            return false;
        };
        let target_slots: Vec<usize> = w
            .instance_slots(target)
            .map(|s| s.to_vec())
            .unwrap_or_else(|| vec![slot]);
        let ids = Self::colocated(w, node, &target_slots);
        self.ensure_instance_profiles(w, node, &ids);
        let hw = w.node_hw(node).clone();
        let start = self.shadow_start(w, node, slot, target);
        // Candidate's grace: admitted-during-load requests get the load
        // duration; approximate with expected activation for loading targets.
        let cand_anchor = match self.expected_active.get(&target) {
            Some(&act) if act > rr.req.arrival => act,
            _ => rr.req.arrival + rr.grace,
        };
        let mut views = Vec::with_capacity(ids.len());
        let mut target_ix = 0;
        for (k, &id) in ids.iter().enumerate() {
            let inst = w.instance(id).expect("listed");
            let q = self
                .quant
                .get(&inst.spec, &hw, w.instance_share(id))
                .expect("profiled above");
            // Requests admitted during a cold start have not received their
            // grace yet; anchor them at the expected activation instead.
            let pending_act = self.expected_active.get(&id).copied();
            let mut reqs: Vec<ShadowReq> = inst
                .requests()
                .iter()
                .map(|r| {
                    let mut anchor = r.req.arrival + r.grace;
                    if let (Some(act), true) = (pending_act, r.grace.is_zero()) {
                        anchor = anchor.max(act);
                    }
                    ShadowReq {
                        anchor,
                        slo: w.slo_for(&r.req),
                        input_len: r.req.input_len,
                        tokens_done: r.tokens_out,
                        prefill_len: r.prefill_len(),
                        waiting: matches!(r.phase, ReqPhase::Waiting),
                    }
                })
                .collect();
            if id == target {
                target_ix = k;
                reqs.push(ShadowReq {
                    anchor: cand_anchor,
                    slo: w.slo_for(&rr.req),
                    input_len: rr.req.input_len,
                    tokens_done: rr.tokens_out,
                    prefill_len: rr.prefill_len(),
                    waiting: matches!(rr.phase, ReqPhase::Waiting),
                });
            }
            views.push(InstView { quant: q, reqs });
        }
        let cand_ix = views[target_ix].reqs.len() - 1;
        w.note_shadow_validation();
        validate(&mut views, target_ix, cand_ix, start, self.cfg.overestimate) == Verdict::Pass
    }

    /// Eq. 2 requirement if `rr` joined `inst`.
    fn required_with(&self, w: &World, inst: InstanceId, rr: &RunningRequest) -> u64 {
        let i = w.instance(inst).expect("instance exists");
        let avg = self.avg_output(i.model);
        let lmin = self.l_min(w, i.model);
        let mut sum: f64 = i
            .requests()
            .iter()
            .map(|r| r.req.input_len as f64 + (r.tokens_out as f64).max(avg))
            .sum();
        sum += rr.prefill_len() as f64 + avg;
        let tokens = sum.max(lmin as f64);
        (tokens * i.spec.kv_bytes_per_token() as f64).ceil() as u64
    }

    /// The grant an instance is heading towards: the max of its current
    /// grant, any in-flight rescale target, and any approved-but-parked
    /// target.
    fn future_grant(&self, w: &World, inst: InstanceId) -> u64 {
        let cur = w.instance(inst).map(|i| i.kv_capacity_bytes()).unwrap_or(0);
        let issued = self.issued_scale.get(&inst).copied().unwrap_or(0);
        let wanted = self.wanted_scale.get(&inst).copied().unwrap_or(0);
        cur.max(issued).max(wanted)
    }

    /// Plans growth of `inst`'s grant to cover `require` bytes, trying the
    /// watermark-recommended size first and compromising at `require`
    /// (§VII-D). Coalesces with in-flight ops: the delta is planned on top
    /// of the instance's future grant. Returns true if growth is approved
    /// (executed, pending, or reserved).
    fn plan_grow(&mut self, w: &mut World, inst: InstanceId, require: u64) -> bool {
        let Some((node, _)) = w.instance_placement(inst) else {
            return false;
        };
        if self.planner().has_reservation(node, inst) {
            // A reservation is already queued; it will cover or be followed.
            return self.future_grant(w, inst) >= require;
        }
        let future = self.future_grant(w, inst);
        if future >= require {
            return true;
        }
        let recommend = recommend_bytes(require, self.cfg.watermark);
        let physical = w.node_available_bytes(node);
        for target in [recommend, require] {
            if target <= future {
                continue;
            }
            match self
                .planner()
                .plan_scale(node, inst, future, target, physical)
            {
                ScaleDecision::Execute => {
                    self.wanted_scale.insert(inst, target);
                    self.try_issue_wanted(w, node);
                    return true;
                }
                ScaleDecision::Reserve => return true,
                ScaleDecision::Reject => continue,
            }
        }
        false
    }

    /// Plans the memory side of admitting `rr` to `inst`. Returns false if
    /// the node cannot (even with the §VII-D compromise) hold the demand.
    fn memory_check(&mut self, w: &mut World, inst: InstanceId, rr: &RunningRequest) -> bool {
        let require = self.required_with(w, inst, rr);
        if self.future_grant(w, inst) >= require {
            return true;
        }
        self.plan_grow(w, inst, require)
    }

    /// Re-evaluates a node's parked memory work after physical bytes were
    /// released (scale-down completion, unload, preemption) — the
    /// reservation-station notification of §VII-C.
    fn nudge_memory(&mut self, w: &mut World, node: NodeId) {
        let physical = w.node_available_bytes(node);
        let popped = self.planner().release_reservations(node, physical);
        for p in popped {
            let e = self.wanted_scale.entry(p.inst).or_insert(p.to_bytes);
            *e = (*e).max(p.to_bytes);
        }
        self.try_issue_wanted(w, node);
    }

    /// Issues approved-but-parked scale ops whose instance is now free.
    fn try_issue_wanted(&mut self, w: &mut World, node: NodeId) {
        let candidates: Vec<(InstanceId, u64)> = self
            .wanted_scale
            .iter()
            .filter(|(&i, _)| {
                w.instance_placement(i)
                    .map(|(n, _)| n == node)
                    .unwrap_or(false)
            })
            .map(|(&i, &t)| (i, t))
            .collect();
        for (inst, to) in candidates {
            let Some(i) = w.instance(inst) else {
                self.wanted_scale.remove(&inst);
                continue;
            };
            if i.busy || i.scaling || i.state != InstanceState::Active {
                continue;
            }
            let cur = i.kv_capacity_bytes();
            if to == cur {
                self.wanted_scale.remove(&inst);
                continue;
            }
            if to > cur && to - cur > w.node_available_bytes(node) {
                continue; // physically blocked; a release will nudge us
            }
            match w.start_kv_scale(inst, to) {
                Ok(()) => {
                    self.wanted_scale.remove(&inst);
                    self.issued_scale.insert(inst, to);
                }
                Err(MemError::BelowLiveSet) => {
                    // Usage grew past the planned shrink target: cancel and
                    // refund the optimistic release.
                    self.wanted_scale.remove(&inst);
                    if to < cur {
                        self.planner().commit(node, cur - to);
                    }
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
        let Some((node, _)) = w.instance_placement(inst) else {
            return;
        };
        let Some(i) = w.instance(inst) else { return };
        if i.scaling
            || self.wanted_scale.contains_key(&inst)
            || self.issued_scale.contains_key(&inst)
            || self.planner().has_reservation(node, inst)
        {
            return;
        }
        let avg = self.avg_output(i.model);
        let lmin = self.l_min(w, i.model);
        let require = i.kv_required_bytes(avg, lmin);
        let recommend = recommend_bytes(require, self.cfg.watermark);
        let cur = i.kv_capacity_bytes();
        if !should_scale_down(cur, recommend, self.cfg.watermark) {
            return;
        }
        let target = recommend.max(i.kv_used_bytes());
        if target >= cur {
            return;
        }
        let physical = w.node_available_bytes(node);
        if self.planner().plan_scale(node, inst, cur, target, physical) == ScaleDecision::Execute {
            self.wanted_scale.insert(inst, target);
            self.try_issue_wanted(w, node);
        }
    }

    /// Full §V admission pipeline. Returns true if the request was placed.
    fn try_place(&mut self, w: &mut World, rr: &RunningRequest, allow_preempt: bool) -> bool {
        self.try_place_excluding(w, rr, allow_preempt, None)
    }

    /// [`Self::try_place`] with an optional instance to skip (used when
    /// rescheduling a request evicted from that very instance).
    fn try_place_excluding(
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
        if let Some(home) = w.session_affinity_target(&rr.req) {
            if Some(home) != exclude
                && (!self.cfg.pd_disaggregate || self.prefill_insts.contains(&home))
            {
                if let Some((node, _)) = w.instance_placement(home) {
                    if self.node_allowed(w, node, model)
                        && self.request_feasible_on(w, node, rr)
                        && self.shadow_check(w, home, rr)
                        && self.memory_check(w, home, rr)
                    {
                        w.admit(home, rr.clone());
                        return true;
                    }
                }
            }
        }
        let candidates =
            order_candidates(w, model, self.cfg.enable_cpu, self.cfg.enable_consolidation);
        let mut mem_blocked: Vec<InstanceId> = Vec::new();
        for inst in candidates {
            if Some(inst) == exclude {
                continue;
            }
            if self.cfg.pd_disaggregate && !self.prefill_insts.contains(&inst) {
                continue; // arrivals only enter the prefill pool in PD mode
            }
            let Some((node, _)) = w.instance_placement(inst) else {
                continue;
            };
            if !self.node_allowed(w, node, model) {
                continue;
            }
            if !self.request_feasible_on(w, node, rr) {
                continue;
            }
            if !self.shadow_check(w, inst, rr) {
                continue;
            }
            if !self.memory_check(w, inst, rr) {
                mem_blocked.push(inst);
                continue;
            }
            w.admit(inst, rr.clone());
            return true;
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
        let Some((node, _)) = w.instance_placement(target) else {
            return false;
        };
        let Some(victim) = pick_victim(w, target) else {
            return false;
        };
        // Shadow-validate that the freed bytes actually cover the demand.
        let require = self.required_with(w, target, rr);
        let cur = w
            .instance(target)
            .map(|i| i.kv_capacity_bytes())
            .unwrap_or(0);
        if cur < require {
            let delta = require - cur;
            let freed = victim_footprint(w, victim);
            if self.planner().optimistic_available(node) + freed < delta {
                return false; // one victim is not enough; stay conservative
            }
        }
        // Validate the victim's requests can land elsewhere before touching
        // anything (per-request check; §VIII-A's rescheduling validation).
        let victim_reqs: Vec<RequestId> = w
            .instance(victim)
            .map(|i| i.requests().iter().map(|r| r.req.id).collect())
            .unwrap_or_default();
        // Execute: drain, unload, reroute, then admit.
        let drained = {
            let now = w.now();
            let Some(vi) = w.instance_mut(victim) else {
                return false;
            };
            vi.drain_for_preemption(now)
        };
        self.cancel_instance_state(w, victim);
        let footprint = victim_footprint(w, victim);
        w.unload_instance(victim);
        self.planner().release(node, footprint);
        self.nudge_memory(w, node);
        w.note_preemption();
        w.note_migration(&victim_reqs);
        for moved in drained {
            if !self.try_place(w, &moved, false) {
                self.enqueue(w, moved);
            }
        }
        // Now retry the target's memory path and admit.
        if self.memory_check(w, target, rr) {
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
        let avg = self.avg_output(model);
        let lmin = self.l_min(w, model);
        let first_tokens = (rr.prefill_len() as f64 + avg).max(lmin as f64);
        let require = (first_tokens * spec.kv_bytes_per_token() as f64).ceil() as u64;
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
            let avail = self.planner().optimistic_available(node);
            let needed = spec.weights_bytes() + grant;
            if avail < needed || w.node_available_bytes(node) < needed {
                continue;
            }
            options.push((
                kind_rank,
                w.startup_score_ns(model, node),
                avail - needed,
                node,
            ));
        }
        options.sort();
        let tp = spec.tp_degree.max(1) as usize;
        for (_, _, _, node) in options {
            // The slot group this instance would claim (the least-loaded
            // slot for plain models, a k-slot group for TP deployments).
            let Some(group) = w.slot_group_for(node, tp) else {
                continue;
            };
            // Validate the newcomer against the node's existing tenants.
            if !self.shadow_check_new(w, node, &group, rr) {
                continue;
            }
            let effective_grant = if self.cfg.enable_sharing {
                grant
            } else {
                // Exclusive mode: hand the instance all remaining memory.
                w.node_available_bytes(node)
                    .saturating_sub(spec.weights_bytes())
            };
            // Estimate the activation time *before* creating: the fetch
            // below promotes the checkpoint and joins the loading channel,
            // so a post-create estimate would price the warmer, busier
            // state instead of the load actually being issued. (Identical
            // either way under the flat default configuration.)
            let act = w.now() + SimDuration::from_secs_f64(w.estimate_load_s(model, node));
            match w.create_instance_group(model, node, &group, effective_grant) {
                Ok(inst) => {
                    self.planner()
                        .commit(node, spec.weights_bytes() + effective_grant);
                    self.expected_active.insert(inst, act);
                    if self.cfg.pd_disaggregate && as_prefill {
                        self.prefill_insts.insert(inst);
                    }
                    if matches!(rr.phase, ReqPhase::Waiting) {
                        w.admit(inst, rr.clone());
                    } else if !w.admit_decoding(inst, rr.clone()) {
                        continue; // fresh grant too small for the context
                    }
                    return true;
                }
                Err(_) => continue,
            }
        }
        false
    }

    /// Shadow validation for a brand-new instance claiming `group` on
    /// `node`, holding only the candidate.
    fn shadow_check_new(
        &mut self,
        w: &mut World,
        node: NodeId,
        group: &[usize],
        rr: &RunningRequest,
    ) -> bool {
        let ids = Self::colocated(w, node, group);
        self.ensure_instance_profiles(w, node, &ids);
        let cand_share: f64 = group.iter().map(|&s| w.slot_share(node, s)).sum();
        self.ensure_profile(w, node, rr.req.model, cand_share);
        let hw = w.node_hw(node).clone();
        let mut start = w.now();
        for &s in group {
            if let Some(&b) = self.busy_until.get(&(node.0, s)) {
                start = start.max(b);
            }
        }
        // Cold start shifts the candidate's anchor by the load time (grace).
        let act = w.now() + SimDuration::from_secs_f64(w.estimate_load_s(rr.req.model, node));
        let mut views = Vec::with_capacity(ids.len() + 1);
        for &id in &ids {
            let inst = w.instance(id).expect("listed");
            let q = self
                .quant
                .get(&inst.spec, &hw, w.instance_share(id))
                .expect("profiled above");
            let pending_act = self.expected_active.get(&id).copied();
            let reqs: Vec<ShadowReq> = inst
                .requests()
                .iter()
                .map(|r| {
                    let mut anchor = r.req.arrival + r.grace;
                    if let (Some(act), true) = (pending_act, r.grace.is_zero()) {
                        anchor = anchor.max(act);
                    }
                    ShadowReq {
                        anchor,
                        slo: w.slo_for(&r.req),
                        input_len: r.req.input_len,
                        tokens_done: r.tokens_out,
                        prefill_len: r.prefill_len(),
                        waiting: matches!(r.phase, ReqPhase::Waiting),
                    }
                })
                .collect();
            views.push(InstView { quant: q, reqs });
        }
        let spec = w.model_spec(rr.req.model);
        let q_new = self
            .quant
            .get(spec, &hw, cand_share)
            .expect("profiled above");
        views.push(InstView {
            quant: q_new,
            reqs: vec![ShadowReq {
                anchor: act.max(rr.req.arrival + rr.grace),
                slo: w.slo_for(&rr.req),
                input_len: rr.req.input_len,
                tokens_done: rr.tokens_out,
                prefill_len: rr.prefill_len(),
                waiting: matches!(rr.phase, ReqPhase::Waiting),
            }],
        });
        let target = views.len() - 1;
        w.note_shadow_validation();
        validate(&mut views, target, 0, start.max(act), self.cfg.overestimate) == Verdict::Pass
    }

    /// PD mode: lands a prefilled request on a decode instance (§IX-G).
    fn place_decode(&mut self, w: &mut World, rr: RunningRequest) -> Result<(), RunningRequest> {
        let model = rr.req.model;
        let candidates =
            order_candidates(w, model, self.cfg.enable_cpu, self.cfg.enable_consolidation);
        for inst in candidates {
            if self.prefill_insts.contains(&inst) {
                continue;
            }
            let Some((node, _)) = w.instance_placement(inst) else {
                continue;
            };
            if !self.node_allowed(w, node, model) {
                continue;
            }
            if !self.shadow_check(w, inst, &rr) {
                continue;
            }
            if !self.memory_check(w, inst, &rr) {
                continue;
            }
            if w.admit_decoding(inst, rr.clone()) {
                return Ok(());
            }
        }
        if self.try_create(w, &rr, false) {
            return Ok(());
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
        if self.queue.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.queue);
        for rr in pending {
            if w.now() >= rr.next_deadline(&w.slo_for(&rr.req)) {
                w.drop_request(&rr);
            } else if !self.try_place(w, &rr, true) {
                self.queue.push(rr);
            }
        }
    }

    /// Removes all scheduler state tied to an instance being unloaded.
    fn cancel_instance_state(&mut self, w: &World, inst: InstanceId) {
        if let Some((node, _)) = w.instance_placement(inst) {
            // Refund a parked (approved) op.
            if let Some(to) = self.wanted_scale.remove(&inst) {
                let cur = w.instance(inst).map(|i| i.kv_capacity_bytes()).unwrap_or(0);
                if to > cur {
                    self.planner().release(node, to - cur);
                } else {
                    self.planner().commit(node, cur - to);
                }
            }
            self.planner().cancel_reservations(node, inst);
        }
        self.issued_scale.remove(&inst);
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
            let rr = w
                .instance_mut(inst)
                .expect("instance exists")
                .remove_for_migration(rid, now);
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
        if !self.try_place(w, &rr, true) {
            self.enqueue(w, rr);
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
                Ok(dur) => {
                    // The whole slot group is occupied until the iteration
                    // completes; shadow starts must see every slot busy.
                    let group: Vec<usize> = w.instance_slots(inst).expect("just started").to_vec();
                    for s in group {
                        self.busy_until.insert((node.0, s), now + dur);
                    }
                    return;
                }
                Err(cluster::world::StartError::GroupBusy) => return,
                Err(cluster::world::StartError::KvExhausted(req)) => {
                    banned.insert(req);
                    // The grant is short: plan an immediate scale-up on top
                    // of whatever op is already heading this way.
                    let require = {
                        let Some(i) = w.instance(inst) else { continue };
                        let avg = self.avg_output(i.model);
                        let lmin = self.l_min(w, i.model);
                        i.kv_required_bytes(avg, lmin)
                    };
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
        if !self.cfg.pd_disaggregate || !self.prefill_insts.contains(&inst) {
            return;
        }
        let now = w.now();
        let rr = w
            .instance_mut(inst)
            .expect("prefill instance exists")
            .remove_for_handoff(req, now);
        w.schedule_keepalive(inst);
        let delay = w.kv_transfer_delay(rr.req.model, rr.context_tokens());
        self.pending_handoff.insert(req.0, rr);
        w.set_timer(delay, TAG_HANDOFF | req.0);
    }

    fn on_scale_done(&mut self, w: &mut World, inst: InstanceId) {
        self.issued_scale.remove(&inst);
        if let Some((node, _)) = w.instance_placement(inst) {
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
        // §VII-D: try to scale up once more; if the node is out of memory,
        // evict the request with the longest headroom and reschedule it.
        let (model, require_floor) = {
            let Some(i) = w.instance(inst) else { return };
            (
                i.model,
                i.kv_used_bytes() + i.spec.kv_bytes_per_token() * 16 * i.live_count().max(1) as u64,
            )
        };
        let avg = self.avg_output(model);
        let lmin = self.l_min(w, model);
        let require = w
            .instance(inst)
            .map(|i| i.kv_required_bytes(avg, lmin))
            .unwrap_or(0)
            .max(require_floor);
        if self.future_grant(w, inst) >= require || self.plan_grow(w, inst, require) {
            return; // relief is (or will be) on the way
        }
        // Evict the longest-headroom request.
        let now = w.now();
        let victim_req = w.instance(inst).and_then(|i| {
            i.requests()
                .iter()
                .filter(|r| !matches!(r.phase, ReqPhase::Prefilling))
                .max_by(|a, b| {
                    // total_cmp: identical to partial_cmp on the non-NaN
                    // headrooms this sees, but can never panic mid-run.
                    a.headroom(now, &w.slo_for(&a.req))
                        .total_cmp(&b.headroom(now, &w.slo_for(&b.req)))
                })
                .map(|r| r.req.id)
        });
        let Some(vid) = victim_req else { return };
        let moved = w
            .instance_mut(inst)
            .expect("instance exists")
            .remove_for_migration(vid, now);
        w.note_migration(&[vid]);
        // Never bounce the eviction straight back onto the starved instance.
        if !self.try_place_excluding(w, &moved, false, Some(inst)) {
            self.enqueue(w, moved);
        }
    }

    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        let Some(i) = w.instance(inst) else { return };
        if i.has_live_requests() || i.busy || i.scaling {
            return;
        }
        let Some((node, _)) = w.instance_placement(inst) else {
            return;
        };
        let footprint = i.footprint_bytes();
        self.cancel_instance_state(w, inst);
        w.unload_instance(inst);
        self.planner().release(node, footprint);
        self.nudge_memory(w, node);
        self.retry_queue(w);
    }

    fn on_node_event(&mut self, w: &mut World, ev: &ClusterEvent, displaced: Vec<RunningRequest>) {
        self.ensure_init(w);
        match ev {
            ClusterEvent::NodeJoin(_) => {
                // The planner's budget table must cover the newcomer before
                // any placement considers it.
                let caps: Vec<u64> = w.node_ids().map(|n| w.node_hw(n).mem_bytes).collect();
                self.planner().ensure_nodes(caps);
            }
            ClusterEvent::NodeDrain(node) | ClusterEvent::NodeFail(node) => {
                // No further growth is approved on the node; parked
                // reservations die with the budget (their instances are
                // being evicted or are already gone).
                self.planner().retire_node(*node);
                // Reroute parked scale-ops: drop every op pinned to the
                // retiring node or to an instance that no longer exists.
                let gone = |w: &World, i: InstanceId| {
                    w.instance_placement(i)
                        .map(|(n, _)| n == *node)
                        .unwrap_or(true)
                };
                let stale: Vec<InstanceId> = self
                    .wanted_scale
                    .keys()
                    .copied()
                    .filter(|&i| gone(w, i))
                    .collect();
                for i in stale {
                    self.wanted_scale.remove(&i);
                }
                let issued_stale: Vec<InstanceId> = self
                    .issued_scale
                    .keys()
                    .copied()
                    .filter(|&i| gone(w, i))
                    .collect();
                for i in issued_stale {
                    self.issued_scale.remove(&i);
                }
                self.expected_active.retain(|&i, _| !gone(w, i));
                self.prefill_insts.retain(|&i| !gone(w, i));
                if matches!(ev, ClusterEvent::NodeFail(_)) {
                    // In-flight iterations died with the node.
                    for slot in 0..w.slot_count(*node) {
                        self.busy_until.remove(&(node.0, slot));
                    }
                }
            }
        }
        // Re-place what the event displaced, then drain the global queue —
        // a join may have opened capacity, a drain may force queued work
        // onto other nodes.
        for rr in displaced {
            if !self.try_place(w, &rr, true) {
                self.enqueue(w, rr);
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
        if payload & TAG_HANDOFF != 0 {
            let key = payload & !TAG_HANDOFF;
            let Some(rr) = self.pending_handoff.remove(&key) else {
                return;
            };
            match self.place_decode(w, rr) {
                Ok(()) => {}
                Err(rr) => {
                    if w.now() > rr.next_deadline(&w.slo_for(&rr.req)) + SimDuration::from_secs(10)
                    {
                        w.drop_request(&rr);
                    } else {
                        self.pending_handoff.insert(key, rr);
                        w.set_timer(SimDuration::from_millis(100), TAG_HANDOFF | key);
                    }
                }
            }
            return;
        }
        let id = RequestId(payload);
        self.timers.remove(&id);
        let now = w.now();
        let mut kept = Vec::with_capacity(self.queue.len());
        for rr in std::mem::take(&mut self.queue) {
            if rr.req.id == id && now >= rr.next_deadline(&w.slo_for(&rr.req)) {
                w.drop_request(&rr);
            } else {
                kept.push(rr);
            }
        }
        self.queue = kept;
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
