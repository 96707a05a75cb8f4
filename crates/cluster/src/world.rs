//! The live cluster: the only surface through which policies act.
//!
//! [`World`] owns nodes (with their physical memory ledgers), all hosted
//! instances, the clock, the event queue, the RNG, and the metrics recorder.
//! Policies receive `&mut World` in their callbacks and use its methods to
//! admit requests, start iterations, create/unload instances, rescale KV
//! grants, and set timers. Ground-truth execution times come from the
//! calibrated [`AnalyticPerf`] model perturbed by [`NoiseModel`] — policies
//! can *estimate* (noiseless) but never observe a duration before it
//! finishes, exactly like a real control plane.
//!
//! Physical memory is enforced at operation-issue time: a scale-up or
//! instance creation that does not fit the node's remaining bytes fails with
//! [`MemError::WouldOom`] and is counted in
//! [`RunMetrics::oom_incidents`](crate::metrics::RunMetrics::oom_incidents).
//! SLINFER's orchestrator (§VII-C) exists to keep that counter at zero.

use std::collections::BTreeMap;

use engine::instance::{Instance, InstanceId, InstanceState, IterationKind};
use engine::request::RunningRequest;
use hwmodel::{
    AnalyticPerf, CheckpointTier, HardwareKind, HardwareSpec, ModelSpec, NoiseModel, PerfOracle,
};
use simcore::events::EventQueue;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, RequestId, Slo};

use crate::checkpoint::{CheckpointConfig, CheckpointStore};
use crate::dist::{CheckpointDirectory, DistConfig, ReplicaState, TransferPlan, TransferSource};
use crate::metrics::RunMetrics;
use crate::node::{ClusterSpec, NodeId, NodeSpec};
use crate::sessions::SessionConfig;
use workload::request::{Request, SloClass};

/// Tunable run parameters shared by every policy.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Request SLOs (§IX-A formula by default). This is SLO class 0.
    pub slo: Slo,
    /// SLOs of the additional service classes: class `k ≥ 1` resolves to
    /// `class_slos[k - 1]`. Empty in every single-class run, in which case
    /// all requests are held to [`WorldConfig::slo`].
    pub class_slos: Vec<Slo>,
    /// Keep-alive threshold before idle instances are reclaimed (1 s).
    pub keep_alive: SimDuration,
    /// Execution-time jitter.
    pub noise: NoiseModel,
    /// Root seed for all stochastic behaviour in the run.
    pub seed: u64,
    /// Occupancy sampling period.
    pub sample_period: SimDuration,
    /// Extra simulated time allowed after the last arrival before the run
    /// is force-terminated and unresolved requests are dropped.
    pub drain_grace: SimDuration,
    /// Cross-node KV transfer bandwidth for PD disaggregation, GB/s
    /// (§IX-G uses 100 Gbps ⇒ 12.5 GB/s).
    pub kv_transfer_gbps: f64,
    /// The checkpoint storage hierarchy (per-node DRAM/SSD caches, loading
    /// contention, HBM hits). The default, [`CheckpointConfig::flat`],
    /// reproduces the legacy flat loader bit for bit.
    pub checkpoints: CheckpointConfig,
    /// Keep every `n`-th occupancy sample in
    /// [`RunMetrics::usage_timeline`](crate::metrics::RunMetrics). The
    /// time-weighted node-busy integrals still see every tick, so summary
    /// numbers are unchanged; only the plotted timeline thins. The default
    /// of 1 keeps everything (byte-identical to the historical behaviour);
    /// fleet-scale runs raise it so a day-long trace does not carry a
    /// 100k-point timeline per cell. 0 is treated as 1.
    pub usage_sample_stride: usize,
    /// Cross-node checkpoint distribution (peer-to-peer fabric fetch,
    /// multicast relay trees, cache-aware keep-alive/demotion). The
    /// default, [`DistConfig::off`], disables everything and replays
    /// pre-distribution runs byte-identically.
    pub dist: DistConfig,
    /// Record `(model, activation time)` for every instance that finishes
    /// its cold start in
    /// [`RunMetrics::activations`](crate::metrics::RunMetrics::activations)
    /// — what flash-crowd experiments compute time-to-N-replicas from.
    /// Off by default so fleet-scale runs don't grow an unbounded log.
    pub record_activations: bool,
    /// Multi-turn session prefix reuse (parked per-session KV, affinity
    /// routing, priced KV migration). The default, [`SessionConfig::off`],
    /// disables everything and replays sessionless runs byte-identically.
    pub sessions: SessionConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            slo: Slo::paper(),
            class_slos: Vec::new(),
            keep_alive: SimDuration::from_secs(1),
            noise: NoiseModel::default(),
            seed: 0,
            sample_period: SimDuration::from_secs(1),
            drain_grace: SimDuration::from_secs(900),
            kv_transfer_gbps: 12.5,
            checkpoints: CheckpointConfig::flat(),
            usage_sample_stride: 1,
            dist: DistConfig::off(),
            record_activations: false,
            sessions: SessionConfig::off(),
        }
    }
}

/// Memory-operation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum MemError {
    /// The node cannot physically hold the requested bytes.
    WouldOom {
        /// Node that would overflow.
        node: NodeId,
        /// Bytes the operation needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A shrink below the live KV block set was requested.
    BelowLiveSet,
    /// The node's hardware cannot serve this model (§IV-A2 limits).
    Unservable,
    /// The node is draining or down and accepts no new instances.
    NodeUnavailable(NodeId),
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::WouldOom {
                node,
                needed,
                available,
            } => write!(
                f,
                "node {} would OOM: need {} bytes, {} available",
                node.0, needed, available
            ),
            MemError::BelowLiveSet => write!(f, "cannot shrink KV below live blocks"),
            MemError::Unservable => write!(f, "hardware cannot serve this model"),
            MemError::NodeUnavailable(node) => {
                write!(f, "node {} is draining or down", node.0)
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Iteration-start failures.
#[derive(Debug, Clone, PartialEq)]
pub enum StartError {
    /// The KV grant cannot hold the prompt of the request to prefill.
    KvExhausted(RequestId),
    /// Another slot of the instance's tensor-parallel group is still
    /// running an iteration; the caller should skip this instance until a
    /// later slot-free poke. Single-slot instances never hit this — the
    /// driver only pokes free slots.
    GroupBusy,
}

/// Lifecycle state of a node.
///
/// Scheduling is only allowed on [`NodeHealth::Up`] nodes; a draining node
/// keeps running its in-flight iterations but accepts no new instances, and
/// a down node has lost everything it hosted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Serving normally.
    Up,
    /// Being emptied for maintenance: existing iterations finish, new
    /// placements are refused, hosted requests are rerouted.
    Draining,
    /// Failed or drained away: hosts nothing and accepts nothing.
    Down,
}

/// A timed cluster-lifecycle event, injected through the simulation event
/// loop by [`crate::scenario::Scenario`] (or mid-run by tests via
/// [`World::push_cluster_event`]).
#[derive(Debug, Clone)]
pub enum ClusterEvent {
    /// Gracefully empty a node: no new placements; idle instances unload
    /// immediately and their queued requests are handed back to the policy;
    /// busy instances are swept up as their iterations finish.
    NodeDrain(NodeId),
    /// Hard-fail a node: every hosted instance is lost instantly (weights,
    /// KV, in-flight iterations); surviving requests are handed back to the
    /// policy to re-place — they re-prefill elsewhere, like any migration.
    NodeFail(NodeId),
    /// A new node joins the fleet and becomes schedulable at once.
    NodeJoin(NodeSpec),
}

/// Events processed by the driver.
#[derive(Debug)]
pub(crate) enum Event {
    /// Request `trace[idx]` arrives.
    Arrival(usize),
    /// An iteration completes.
    IterationDone {
        inst: InstanceId,
        kind: IterationKind,
        elapsed: SimDuration,
    },
    /// A cold-start load completes. `epoch` is 0 for fixed-duration
    /// (uncontended) loads; contended loads are rescheduled whenever the
    /// node's loading channel changes membership, and only the event
    /// matching the channel's current epoch is live — stale ones are
    /// skipped by [`World::resolve_load_done`].
    LoadDone {
        inst: InstanceId,
        elapsed: SimDuration,
        epoch: u64,
    },
    /// A KV rescale completes.
    ScaleDone {
        inst: InstanceId,
        from_bytes: u64,
        to_bytes: u64,
        elapsed: SimDuration,
    },
    /// Keep-alive check for an instance idle since `marker`.
    KeepAlive { inst: InstanceId, marker: SimTime },
    /// Policy-requested timer.
    Timer(u64),
    /// Periodic metrics sample.
    Sample,
    /// A scheduled cluster-lifecycle event fires.
    Cluster(ClusterEvent),
}

/// One in-flight cold start on a node's shared loading channel.
#[derive(Debug, Clone)]
struct ActiveLoad {
    /// Seconds of work remaining at the load's *uncontended* tier
    /// bandwidth (noise already folded in); the channel divides progress
    /// by the number of concurrent loads.
    remaining_s: f64,
    /// The load's original uncontended work, seconds. `remaining_s /
    /// work_s` is the fraction still to transfer — what a mid-flight
    /// reroute re-prices from a new source after its peer died.
    work_s: f64,
    /// When the load began (completion reports `now - started`).
    started: SimTime,
}

struct NodeState {
    hw: HardwareSpec,
    slot_shares: Vec<f64>,
    slot_busy: Vec<bool>,
    committed: u64,
    health: NodeHealth,
    /// Tiered checkpoint cache (DRAM/SSD LRU state machine).
    store: CheckpointStore,
    /// In-flight contended loads sharing this node's loading channel.
    loads: BTreeMap<InstanceId, ActiveLoad>,
    /// Last time `loads` progress was settled.
    loads_settled_at: SimTime,
    /// Bumped on every channel-membership change; live `LoadDone` events
    /// carry the current value.
    load_epoch: u64,
}

impl NodeState {
    fn new(spec: &NodeSpec) -> Self {
        NodeState {
            hw: spec.hw.clone(),
            slot_shares: spec.slot_shares.clone(),
            slot_busy: vec![false; spec.slot_shares.len()],
            committed: 0,
            health: NodeHealth::Up,
            store: CheckpointStore::new(),
            loads: BTreeMap::new(),
            loads_settled_at: SimTime::ZERO,
            load_epoch: 0,
        }
    }
}

/// An instance plus its placement.
pub struct Hosted {
    /// The engine-level instance.
    pub inst: Instance,
    /// Node it resides on.
    pub node: NodeId,
    /// The full slot group this instance spans, ascending. One entry for
    /// plain instances; `tp` entries for tensor-parallel placements, all
    /// on [`Hosted::node`]. Iterations occupy every slot of the group.
    pub slots: Vec<usize>,
    /// The checkpoint tier this instance's cold start loaded from.
    pub load_tier: CheckpointTier,
    /// For a peer fabric fetch: the *source* node whose loading channel
    /// the transfer contends on (`None` = the load runs on the instance's
    /// own node, the classic path).
    pub load_channel: Option<NodeId>,
    /// True when the cold start streams over the peer-to-peer fabric
    /// (its seconds are accounted to
    /// [`RunMetrics::peer_fetch_seconds`](crate::metrics::RunMetrics::peer_fetch_seconds),
    /// not the local tier table).
    pub fabric: bool,
    /// Keep-alive periods this instance has already deferred because it
    /// held the fleet's last warm copy of its checkpoint (cache-aware
    /// keep-alive; bounded by `DistConfig::keepalive_defer_max`).
    pub keepalive_defers: u32,
}

impl Hosted {
    /// Primary slot (the first of the group) — the single-slot address
    /// legacy queries use.
    pub fn slot(&self) -> usize {
        self.slots[0]
    }
}

/// Secondary indexes over [`World::instances`], maintained on every
/// create / unload / node-fail / node-join.
///
/// The hot loop asks "who is on this slot", "who is on this node" and
/// "where does this model run" once or more per event; at fleet scale the
/// full-map scans behind those queries were the profile top. Every list
/// stays ascending by instance id — ids are handed out monotonically, so
/// inserts append — which preserves the exact iteration order of the
/// `BTreeMap` scans the index replaces (runs stay byte-identical).
#[derive(Default)]
struct InstanceIndex {
    /// `[node]` → hosted instance ids (ascending).
    by_node: Vec<Vec<InstanceId>>,
    /// `[node][slot]` → ids of instances whose slot group covers the slot
    /// (a tensor-parallel instance appears under every slot it spans).
    by_slot: Vec<Vec<Vec<InstanceId>>>,
    /// `[model]` → instance ids (ascending); sized to the model registry.
    by_model: Vec<Vec<InstanceId>>,
    /// Nodes with ≥ 1 resident instance, by hardware kind. Occupancy
    /// sampling reads these counters instead of scanning the fleet.
    used_cpu_nodes: u32,
    used_gpu_nodes: u32,
}

impl InstanceIndex {
    fn new(slots_per_node: &[usize], n_models: usize) -> Self {
        InstanceIndex {
            by_node: vec![Vec::new(); slots_per_node.len()],
            by_slot: slots_per_node
                .iter()
                .map(|&n| vec![Vec::new(); n])
                .collect(),
            by_model: vec![Vec::new(); n_models],
            used_cpu_nodes: 0,
            used_gpu_nodes: 0,
        }
    }

    /// Registers a node that joined mid-run.
    fn add_node(&mut self, n_slots: usize) {
        self.by_node.push(Vec::new());
        self.by_slot.push(vec![Vec::new(); n_slots]);
    }

    /// Files `id` at the given position, keeping every list sorted.
    fn insert(
        &mut self,
        id: InstanceId,
        node: usize,
        slots: &[usize],
        model: usize,
        kind: HardwareKind,
    ) {
        if self.by_node[node].is_empty() {
            match kind {
                HardwareKind::Gpu => self.used_gpu_nodes += 1,
                _ => self.used_cpu_nodes += 1,
            }
        }
        Self::sorted_insert(&mut self.by_node[node], id);
        for &s in slots {
            Self::sorted_insert(&mut self.by_slot[node][s], id);
        }
        Self::sorted_insert(&mut self.by_model[model], id);
    }

    /// Unfiles `id`; the caller passes the placement it was filed under.
    fn remove(
        &mut self,
        id: InstanceId,
        node: usize,
        slots: &[usize],
        model: usize,
        kind: HardwareKind,
    ) {
        Self::sorted_remove(&mut self.by_node[node], id);
        if self.by_node[node].is_empty() {
            match kind {
                HardwareKind::Gpu => self.used_gpu_nodes -= 1,
                _ => self.used_cpu_nodes -= 1,
            }
        }
        for &s in slots {
            Self::sorted_remove(&mut self.by_slot[node][s], id);
        }
        Self::sorted_remove(&mut self.by_model[model], id);
    }

    fn sorted_insert(list: &mut Vec<InstanceId>, id: InstanceId) {
        // Instance ids are monotone, so this is an append in practice.
        match list.binary_search(&id) {
            Ok(_) => debug_assert!(false, "instance indexed twice"),
            Err(pos) => list.insert(pos, id),
        }
    }

    fn sorted_remove(list: &mut Vec<InstanceId>, id: InstanceId) {
        if let Ok(pos) = list.binary_search(&id) {
            list.remove(pos);
        } else {
            debug_assert!(false, "removing an unindexed instance");
        }
    }
}

/// The live cluster state. See module docs.
pub struct World {
    /// Run configuration.
    pub cfg: WorldConfig,
    clock: SimTime,
    pub(crate) events: EventQueue<Event>,
    nodes: Vec<NodeState>,
    instances: BTreeMap<InstanceId, Hosted>,
    /// Indexed views of `instances` (per node / slot / model), maintained
    /// incrementally so hot-path lookups avoid full-map scans.
    index: InstanceIndex,
    next_instance: u64,
    models: Vec<ModelSpec>,
    perf: AnalyticPerf,
    rng: SimRng,
    /// Fleet-wide checkpoint replica directory (only maintained while
    /// `cfg.dist` is enabled; empty otherwise).
    dir: CheckpointDirectory,
    /// World-global loading-channel epoch counter. Epoch values only ever
    /// matter by equality, but a reroute can move a load *between*
    /// channels — globally unique epochs make a stale event from the old
    /// channel unable to collide with the new channel's current epoch.
    next_load_epoch: u64,
    /// Session id → instance holding the session's parked KV. Only
    /// maintained while `cfg.sessions` is enabled; entries are validated
    /// lazily (the home may have unloaded or evicted the session since).
    session_home: BTreeMap<u64, InstanceId>,
    /// Metrics recorder (public: the driver and summaries read it).
    pub metrics: RunMetrics,
    pub(crate) outstanding: usize,
    pub(crate) wake: Vec<(NodeId, usize)>,
}

impl World {
    /// Builds a world over `cluster` hosting the given model registry
    /// (`ModelId(i)` ↦ `models[i]`).
    ///
    /// # Panics
    /// Panics if the cluster spec is invalid or `models` is empty.
    pub fn new(cluster: &ClusterSpec, models: Vec<ModelSpec>, cfg: WorldConfig) -> Self {
        // detlint::allow(D005, "constructor precondition, documented under # Panics: World::new refuses malformed specs before any event runs")
        cluster.validate().expect("invalid cluster");
        assert!(!models.is_empty(), "model registry is empty");
        let nodes: Vec<NodeState> = cluster.nodes.iter().map(NodeState::new).collect();
        let slots_per_node: Vec<usize> = nodes.iter().map(|n| n.slot_shares.len()).collect();
        let index = InstanceIndex::new(&slots_per_node, models.len());
        let rng = SimRng::new(cfg.seed).split(0xC1A5);
        World {
            cfg,
            clock: SimTime::ZERO,
            events: EventQueue::new(),
            nodes,
            instances: BTreeMap::new(),
            index,
            next_instance: 1,
            models,
            perf: AnalyticPerf::new(),
            rng,
            dir: CheckpointDirectory::new(),
            next_load_epoch: 0,
            session_home: BTreeMap::new(),
            metrics: RunMetrics::default(),
            outstanding: 0,
            wake: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Read-only views
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    pub(crate) fn set_now(&mut self, t: SimTime) {
        debug_assert!(t >= self.clock);
        self.clock = t;
    }

    /// The run's default SLO (class 0).
    pub fn slo(&self) -> Slo {
        self.cfg.slo
    }

    /// The SLO a service class is held to. Unregistered classes fall back
    /// to the default, so a trace tagged for a richer scenario still runs
    /// under a plain config.
    pub fn slo_of(&self, class: SloClass) -> Slo {
        if class.0 == 0 {
            return self.cfg.slo;
        }
        self.cfg
            .class_slos
            .get(class.0 as usize - 1)
            .copied()
            .unwrap_or(self.cfg.slo)
    }

    /// The SLO of one request (via its class tag).
    pub fn slo_for(&self, req: &Request) -> Slo {
        self.slo_of(req.class)
    }

    /// The SLO of a request identified by id (via its metrics record).
    pub fn slo_for_id(&self, id: RequestId) -> Slo {
        self.slo_of(self.metrics.records[id.0 as usize].class)
    }

    /// Lifecycle state of a node.
    pub fn node_health(&self, node: NodeId) -> NodeHealth {
        self.nodes[node.0 as usize].health
    }

    /// True while a node accepts new instances (healthy, not draining).
    pub fn node_schedulable(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].health == NodeHealth::Up
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Node ids of the given hardware kind.
    pub fn nodes_of_kind(&self, kind: HardwareKind) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.node_hw(n).kind == kind)
            .collect()
    }

    /// Hardware of a node.
    pub fn node_hw(&self, node: NodeId) -> &HardwareSpec {
        &self.nodes[node.0 as usize].hw
    }

    /// Bytes not yet committed on a node.
    pub fn node_available_bytes(&self, node: NodeId) -> u64 {
        let n = &self.nodes[node.0 as usize];
        n.hw.mem_bytes.saturating_sub(n.committed)
    }

    /// Bytes committed on a node (weights + KV grants + in-flight growth).
    pub fn node_committed_bytes(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].committed
    }

    /// Number of slots on a node.
    pub fn slot_count(&self, node: NodeId) -> usize {
        self.nodes[node.0 as usize].slot_shares.len()
    }

    /// Compute share of a slot.
    pub fn slot_share(&self, node: NodeId, slot: usize) -> f64 {
        self.nodes[node.0 as usize].slot_shares[slot]
    }

    /// True while an iteration runs on the slot.
    pub fn slot_busy(&self, node: NodeId, slot: usize) -> bool {
        self.nodes[node.0 as usize].slot_busy[slot]
    }

    /// The model registry entry for `model`.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn model_spec(&self, model: ModelId) -> &ModelSpec {
        &self.models[model.0 as usize]
    }

    /// Number of registered models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The instance, if it exists.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(&id).map(|h| &h.inst)
    }

    /// Mutable instance access (policies use it for migration draining).
    pub fn instance_mut(&mut self, id: InstanceId) -> Option<&mut Instance> {
        self.instances.get_mut(&id).map(|h| &mut h.inst)
    }

    /// Placement of an instance: its node and *primary* slot. Use
    /// [`World::instance_slots`] for the full tensor-parallel group.
    pub fn instance_placement(&self, id: InstanceId) -> Option<(NodeId, usize)> {
        self.instances.get(&id).map(|h| (h.node, h.slot()))
    }

    /// The full slot group an instance spans (ascending; length 1 for
    /// plain instances, `tp` for tensor-parallel placements).
    pub fn instance_slots(&self, id: InstanceId) -> Option<&[usize]> {
        self.instances.get(&id).map(|h| h.slots.as_slice())
    }

    /// Aggregate compute share of an instance's slot group — what the
    /// performance model sees (a TP instance's group share plus its
    /// interconnect discount replaces the single slot share).
    pub fn instance_share(&self, id: InstanceId) -> f64 {
        let h = &self.instances[&id];
        h.slots
            .iter()
            .map(|&s| self.nodes[h.node.0 as usize].slot_shares[s])
            .sum()
    }

    /// True while any slot of the instance's group runs an iteration.
    /// Policies skip group-busy instances when reacting to a slot-free
    /// poke — another slot of the group may still be occupied.
    pub fn instance_group_busy(&self, id: InstanceId) -> bool {
        let h = &self.instances[&id];
        h.slots
            .iter()
            .any(|&s| self.nodes[h.node.0 as usize].slot_busy[s])
    }

    /// Picks a `k`-slot group on `node` for a new instance, or `None` if
    /// the node has fewer than `k` slots: the least-populated slots win
    /// (ties by index), so instances spread across a multi-accelerator
    /// node before they stack — single-device instances included. On
    /// single-slot nodes this degenerates to slot 0, the only placement
    /// the stock experiments ever see. Deterministic by construction.
    pub fn slot_group_for(&self, node: NodeId, k: usize) -> Option<Vec<usize>> {
        let n_slots = self.nodes[node.0 as usize].slot_shares.len();
        if k == 0 || k > n_slots {
            return None;
        }
        let mut ranked: Vec<(usize, usize)> = (0..n_slots)
            .map(|s| (self.index.by_slot[node.0 as usize][s].len(), s))
            .collect();
        ranked.sort();
        let mut group: Vec<usize> = ranked.into_iter().take(k).map(|(_, s)| s).collect();
        group.sort_unstable();
        Some(group)
    }

    /// All instance ids (ascending).
    pub fn instance_ids(&self) -> Vec<InstanceId> {
        self.instances.keys().cloned().collect()
    }

    /// Instances hosted on `node` (ascending ids).
    pub fn node_instances(&self, node: NodeId) -> &[InstanceId] {
        &self.index.by_node[node.0 as usize]
    }

    /// Instances whose slot group includes `slot` (ascending ids; a
    /// tensor-parallel instance appears on every slot it spans).
    pub fn slot_instances(&self, node: NodeId, slot: usize) -> &[InstanceId] {
        &self.index.by_slot[node.0 as usize][slot]
    }

    /// All instances of a model, across the cluster (ascending ids).
    pub fn model_instances(&self, model: ModelId) -> &[InstanceId] {
        &self.index.by_model[model.0 as usize]
    }

    // ------------------------------------------------------------------
    // Estimation (noiseless; what a control plane can know)
    // ------------------------------------------------------------------

    /// The ground-truth analytic model, for policies that profile offline
    /// (SLINFER's quantifier samples this like it would a real node).
    pub fn perf(&self) -> &AnalyticPerf {
        &self.perf
    }

    /// Noiseless prefill estimate for an instance's placement (group share
    /// and tensor-parallel overhead included).
    pub fn estimate_prefill_s(&self, inst: InstanceId, len: u32) -> f64 {
        let share = self.instance_share(inst);
        let h = &self.instances[&inst];
        self.perf.prefill_time_tp(
            &h.inst.spec,
            self.node_hw(h.node),
            len.max(1),
            share,
            h.inst.tp,
        )
    }

    /// Noiseless decode estimate for an instance's placement (group share
    /// and tensor-parallel overhead included).
    pub fn estimate_decode_s(&self, inst: InstanceId, batch: u32, total_ctx: u64) -> f64 {
        let share = self.instance_share(inst);
        let h = &self.instances[&inst];
        self.perf.decode_time_tp(
            &h.inst.spec,
            self.node_hw(h.node),
            batch,
            total_ctx,
            share,
            h.inst.tp,
        )
    }

    /// True when a cold start of `model` on `node` would be served from
    /// HBM: the config enables HBM hits and an *active* instance of the
    /// model already holds the weights in serving memory (a loading
    /// neighbour's weights are not there yet). The estimate path and the
    /// actual load must agree on this predicate, so both use it.
    fn hbm_resident(&self, model: ModelId, node: NodeId) -> bool {
        self.cfg.checkpoints.hbm_hits
            && self.index.by_node[node.0 as usize].iter().any(|id| {
                let h = &self.instances[id];
                h.inst.model == model && h.inst.state == InstanceState::Active
            })
    }

    /// The warmest checkpoint tier holding `model` on `node`: HBM when an
    /// active instance of the model is co-resident (and the config enables
    /// HBM hits), else whatever the node's DRAM/SSD cache state says.
    /// Read-only — recency is untouched, so estimates never perturb runs.
    pub fn checkpoint_tier(&self, model: ModelId, node: NodeId) -> CheckpointTier {
        if self.hbm_resident(model, node) {
            return CheckpointTier::Hbm;
        }
        self.nodes[node.0 as usize]
            .store
            .peek_tier(model, &self.cfg.checkpoints)
    }

    /// Models currently in `node`'s DRAM checkpoint cache, coldest first
    /// (empty while the DRAM tier is unbounded — nothing is tracked).
    pub fn checkpoint_dram_models(&self, node: NodeId) -> Vec<ModelId> {
        self.nodes[node.0 as usize].store.dram_models()
    }

    /// Models currently on `node`'s SSD checkpoint tier, coldest first.
    pub fn checkpoint_ssd_models(&self, node: NodeId) -> Vec<ModelId> {
        self.nodes[node.0 as usize].store.ssd_models()
    }

    /// Cold starts currently sharing `node`'s loading channel.
    pub fn loads_in_flight(&self, node: NodeId) -> usize {
        self.nodes[node.0 as usize].loads.len()
    }

    /// Cold-start duration estimate for a model on a node: ServerlessLLM's
    /// startup-time estimate, from the checkpoint's warmest tier on that
    /// node, accounting for the loads it would share the loading channel
    /// with. Placement, feasibility, and the scale-up path all score
    /// candidate nodes with this. Under the flat default configuration it
    /// degenerates to `weights / load_bw`, the legacy estimate. With
    /// checkpoint distribution enabled the estimate is peer-aware: when a
    /// fabric fetch from another node's cache beats the local hierarchy,
    /// the peer estimate is returned — so startup-time-estimated placement
    /// (SLINFER and both baselines) sees the fabric.
    pub fn estimate_load_s(&self, model: ModelId, node: NodeId) -> f64 {
        let local = self.local_estimate_load_s(model, node);
        if !self.cfg.dist.fetch_enabled() {
            return local;
        }
        match self.plan_transfer(model, node) {
            Some(plan) => plan.est_s,
            None => local,
        }
    }

    /// The PR 5 local-hierarchy estimate (warmest local tier, destination
    /// channel share) — the dist-off `estimate_load_s`, and the bar a peer
    /// transfer has to beat.
    fn local_estimate_load_s(&self, model: ModelId, node: NodeId) -> f64 {
        let tier = self.checkpoint_tier(model, node);
        let concurrent = if self.cfg.checkpoints.contention && tier != CheckpointTier::Hbm {
            self.nodes[node.0 as usize].loads.len() as u32 + 1
        } else {
            1
        };
        self.perf
            .load_time(self.model_spec(model), self.node_hw(node), tier, concurrent)
    }

    /// Plans the cheapest peer transfer of `model` to `dest`, or `None`
    /// when the local hierarchy wins (or no usable replica exists). Shared
    /// by [`World::estimate_load_s`] and the create path, so estimates and
    /// actual transfers always agree on the source. Deterministic: replicas
    /// are scanned in node order and ties break toward the lower node id;
    /// no RNG is consulted.
    fn plan_transfer(&self, model: ModelId, dest: NodeId) -> Option<TransferPlan> {
        let dist = self.cfg.dist;
        if !dist.fetch_enabled() {
            return None;
        }
        let bytes = self.model_spec(model).weights_bytes();
        let dest_hw = self.node_hw(dest);
        let mut best: Option<TransferPlan> = None;
        for rep in self.dir.replicas(model) {
            if rep.node == dest || !self.node_schedulable(rep.node) {
                continue;
            }
            let relay = rep.state == ReplicaState::Arriving;
            if relay && !dist.multicast {
                continue;
            }
            let src_hw = self.node_hw(rep.node);
            // A fabric stream is bounded by the receiver's fabric port and
            // the source's tier read path.
            let rate = dest_hw.fabric_bw_gbps.min(src_hw.tier_bw_gbps(rep.tier));
            if rate <= 0.0 {
                continue;
            }
            let mut work = bytes as f64 / (rate * 1e9);
            if relay {
                // A relay pipelines behind its parent's inbound stream: the
                // hop cannot finish before the parent's own tail arrives.
                work = work.max(self.inbound_remaining_s(model, rep.node));
            }
            work += dest_hw.fabric_latency_s;
            // The transfer joins the *source's* loading channel.
            let k = if self.cfg.checkpoints.contention {
                self.nodes[rep.node.0 as usize].loads.len() as f64 + 1.0
            } else {
                1.0
            };
            let est = work * k;
            let better = match &best {
                None => true,
                Some(b) => {
                    let b_node = match b.source {
                        TransferSource::Peer { node, .. } => node,
                        TransferSource::Local(_) => unreachable!("planner only picks peers"),
                    };
                    (est, rep.node) < (b.est_s, b_node)
                }
            };
            if better {
                best = Some(TransferPlan {
                    source: TransferSource::Peer {
                        node: rep.node,
                        relay,
                    },
                    work_s: work,
                    est_s: est,
                });
            }
        }
        let plan = best?;
        if plan.est_s < self.local_estimate_load_s(model, dest) {
            Some(plan)
        } else {
            None
        }
    }

    /// Settled seconds remaining on the in-flight load bringing `model`
    /// to `holder`, read-only (no channel state is touched). Zero when no
    /// tracked inbound load exists — fixed-duration (uncontended) loads
    /// are not observable, so relays price them optimistically.
    fn inbound_remaining_s(&self, model: ModelId, holder: NodeId) -> f64 {
        let mut worst = 0.0f64;
        for &id in self.model_instances(model) {
            let h = &self.instances[&id];
            if h.node != holder || h.inst.state != InstanceState::Loading {
                continue;
            }
            let ch = h.load_channel.unwrap_or(h.node).0 as usize;
            let n = &self.nodes[ch];
            if let Some(l) = n.loads.get(&id) {
                let k = n.loads.len() as f64;
                let elapsed = self.clock.since(n.loads_settled_at).as_secs_f64();
                worst = worst.max((l.remaining_s - elapsed / k).max(0.0));
            }
        }
        worst
    }

    /// Eviction ranks of `node`'s DRAM-resident checkpoints for
    /// cache-aware demotion: 0 = an SSD copy sits right below (cheapest to
    /// recover, evicted first), 1 = a ready fleet replica exists elsewhere
    /// (a fabric fetch away), 2 = this DRAM entry is the last copy short
    /// of the registry. Ties fall back to LRU order inside the store.
    fn dram_eviction_ranks(&self, node: NodeId) -> Vec<(ModelId, u8)> {
        let store = &self.nodes[node.0 as usize].store;
        store
            .dram_models()
            .into_iter()
            .map(|m| {
                let rank = if store.ssd_models().contains(&m) {
                    0
                } else if self.dir.ready_replicas_elsewhere(m, node) > 0 {
                    1
                } else {
                    2
                };
                (m, rank)
            })
            .collect()
    }

    /// Re-syncs the directory's view of `node` from its store (call after
    /// any store mutation while distribution is enabled).
    fn refresh_directory(&mut self, node: NodeId) {
        if !self.cfg.dist.enabled() {
            return;
        }
        let store = &self.nodes[node.0 as usize].store;
        let (dram, ssd) = (store.dram_models(), store.ssd_models());
        self.dir.refresh_node(node, &dram, &ssd);
    }

    /// Re-sources a fabric transfer whose source node just failed: the
    /// remaining fraction of the checkpoint restarts from the best *ready*
    /// replica (a relay chain rooted at the failed node lost its feed, so
    /// mid-flight peers are not eligible), falling back to a registry
    /// resume over the destination's own remote link. Deterministic — the
    /// event-application path consults no RNG, and the fresh channel epoch
    /// keeps the dead channel's LoadDone events stale.
    fn reroute_transfer(
        &mut self,
        inst: InstanceId,
        remaining_s: f64,
        work_s: f64,
        started: SimTime,
    ) {
        let (model, dest) = {
            let h = &self.instances[&inst];
            (h.inst.model, h.node)
        };
        let frac = if work_s > 0.0 {
            (remaining_s / work_s).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let bytes_left = self.model_spec(model).weights_bytes() as f64 * frac;
        let dest_hw = self.node_hw(dest);
        let fabric_lat = dest_hw.fabric_latency_s;
        let dest_fabric = dest_hw.fabric_bw_gbps;
        let remote_bw = dest_hw.remote_bw_gbps;
        let mut best: Option<(f64, NodeId, f64)> = None; // (est, src, hop seconds)
        for rep in self.dir.replicas(model) {
            if rep.node == dest
                || rep.state != ReplicaState::Ready
                || !self.node_schedulable(rep.node)
            {
                continue;
            }
            let rate = dest_fabric.min(self.node_hw(rep.node).tier_bw_gbps(rep.tier));
            if rate <= 0.0 {
                continue;
            }
            let t = bytes_left / (rate * 1e9) + fabric_lat;
            let k = if self.cfg.checkpoints.contention {
                self.nodes[rep.node.0 as usize].loads.len() as f64 + 1.0
            } else {
                1.0
            };
            let est = t * k;
            let better = match best {
                None => true,
                Some((be, bn, _)) => (est, rep.node) < (be, bn),
            };
            if better {
                best = Some((est, rep.node, t));
            }
        }
        let (channel, t) = match best {
            Some((_, src, t)) => (src, t),
            None => (dest, bytes_left / (remote_bw * 1e9)),
        };
        self.instances
            .get_mut(&inst)
            // detlint::allow(D005, "reroute only runs for instances the failing node's loading list still names; absence is directory corruption")
            .expect("reroute target exists")
            .load_channel = (channel != dest).then_some(channel);
        let ch = channel.0 as usize;
        if self.cfg.checkpoints.contention {
            self.settle_loads(ch);
            self.nodes[ch].loads.insert(
                inst,
                ActiveLoad {
                    remaining_s: t,
                    work_s: t,
                    started,
                },
            );
            self.reschedule_loads(ch);
        } else {
            let finish = self.clock + SimDuration::from_secs_f64(t);
            self.events.push(
                finish,
                Event::LoadDone {
                    inst,
                    elapsed: finish.since(started),
                    epoch: 0,
                },
            );
        }
    }

    /// Cache-aware keep-alive: returns true when unloading this idle
    /// instance should be deferred one more keep-alive period because it
    /// would send the fleet's *last* warm copy of the model back to the
    /// registry. Bounded by `keepalive_defer_max` deferrals so a cooling
    /// fleet still drains. No-op (always false) unless `dist.cache_aware`.
    pub(crate) fn keepalive_defer(&mut self, inst: InstanceId) -> bool {
        if !self.cfg.dist.cache_aware {
            return false;
        }
        let (model, node, defers) = match self.instances.get(&inst) {
            Some(h) => (h.inst.model, h.node, h.keepalive_defers),
            None => return false,
        };
        if defers >= self.cfg.dist.keepalive_defer_max {
            return false;
        }
        // Another live instance of the model keeps the weights hot
        // regardless of what happens to this one.
        if self.model_instances(model).iter().any(|&id| id != inst) {
            return false;
        }
        if self.dir.ready_replicas_elsewhere(model, node) > 0 {
            return false;
        }
        // Only defer when eviction would truly fall back to the registry:
        // a local DRAM/SSD copy below the instance's HBM residency makes
        // the next cold start cheap anyway.
        if self.nodes[node.0 as usize]
            .store
            .peek_tier(model, &self.cfg.checkpoints)
            != CheckpointTier::Remote
        {
            return false;
        }
        self.instances
            .get_mut(&inst)
            // detlint::allow(D005, "the same map was read a few lines up; between the two lookups nothing can remove the instance")
            .expect("checked above")
            .keepalive_defers += 1;
        true
    }

    /// [`World::estimate_load_s`] as an integer-nanosecond sort key — the
    /// startup-time score SLINFER and the baselines order placement
    /// candidates by. One definition, so the scheduling signal cannot
    /// drift between policies; integer so `(rank, score, …)` tuples keep
    /// a deterministic total order, with ties falling back to each
    /// caller's legacy ordering (which is what makes the flat default
    /// configuration replay byte-identically).
    pub fn startup_score_ns(&self, model: ModelId, node: NodeId) -> u64 {
        (self.estimate_load_s(model, node) * 1e9).round() as u64
    }

    /// KV-transfer delay for PD disaggregation: `tokens · C / bandwidth`.
    pub fn kv_transfer_delay(&self, model: ModelId, tokens: u32) -> SimDuration {
        let bytes = tokens as u64 * self.model_spec(model).kv_bytes_per_token();
        SimDuration::from_secs_f64(bytes as f64 / (self.cfg.kv_transfer_gbps * 1e9))
    }

    // ------------------------------------------------------------------
    // Mutation API (policies)
    // ------------------------------------------------------------------

    /// Creates an instance of `model` on `(node, slot)` with an initial KV
    /// grant, committing `weights + grant` bytes and starting the cold-start
    /// load. Single-slot shorthand for [`World::create_instance_group`].
    pub fn create_instance(
        &mut self,
        model: ModelId,
        node: NodeId,
        slot: usize,
        kv_grant_bytes: u64,
    ) -> Result<InstanceId, MemError> {
        self.create_instance_group(model, node, &[slot], kv_grant_bytes)
    }

    /// Creates an instance of `model` spanning the slot group `slots` of
    /// one node (a tensor-parallel placement when `slots.len() > 1`). The
    /// grant and weight bytes commit against the node's single ledger —
    /// the group shards one footprint, it does not multiply it.
    ///
    /// # Panics
    /// Panics if `slots` is empty, out of range, or holds duplicates, or
    /// if its length does not match the model's deployed TP degree.
    pub fn create_instance_group(
        &mut self,
        model: ModelId,
        node: NodeId,
        slots: &[usize],
        kv_grant_bytes: u64,
    ) -> Result<InstanceId, MemError> {
        if !self.node_schedulable(node) {
            return Err(MemError::NodeUnavailable(node));
        }
        let spec = self.model_spec(model).clone();
        assert!(!slots.is_empty(), "an instance needs at least one slot");
        assert_eq!(
            slots.len() as u32,
            spec.tp_degree.max(1),
            "slot group size must match the model's TP degree"
        );
        let mut slots: Vec<usize> = slots.to_vec();
        slots.sort_unstable();
        let n_slots = self.slot_count(node);
        assert!(
            slots.iter().all(|&s| s < n_slots),
            "slot out of range for node {}",
            node.0
        );
        assert!(
            slots.windows(2).all(|w| w[0] != w[1]),
            "slot group holds duplicate slots"
        );
        if !self.node_hw(node).can_serve(&spec) {
            return Err(MemError::Unservable);
        }
        let needed = spec.weights_bytes() + kv_grant_bytes;
        let available = self.node_available_bytes(node);
        if needed > available {
            self.metrics.oom_incidents += 1;
            return Err(MemError::WouldOom {
                node,
                needed,
                available,
            });
        }
        self.nodes[node.0 as usize].committed += needed;
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        // Fetch the checkpoint from its warmest tier, promoting it through
        // the node's cache hierarchy. HBM hits copy the co-resident weights
        // device-to-device and only refresh cache recency. With checkpoint
        // distribution enabled, a peer's cached copy (or an in-flight relay
        // under multicast) can beat the local hierarchy: the weights then
        // stream over the fabric into DRAM, contending on the *source*
        // node's loading channel instead of the local one.
        let ix = node.0 as usize;
        let ckpt = self.cfg.checkpoints.clone();
        let hbm = self.hbm_resident(model, node);
        let plan = if self.cfg.dist.fetch_enabled() && !hbm {
            self.plan_transfer(model, node)
        } else {
            None
        };
        let ranks = if self.cfg.dist.cache_aware {
            self.dram_eviction_ranks(node)
        } else {
            Vec::new()
        };
        let (tier, peer) = if hbm {
            self.nodes[ix].store.touch(model);
            (CheckpointTier::Hbm, None)
        } else if let Some(TransferPlan {
            source: TransferSource::Peer { node: src, relay },
            work_s,
            ..
        }) = plan
        {
            self.nodes[ix]
                .store
                .admit_fabric(model, spec.weights_bytes(), &ckpt, &ranks);
            (CheckpointTier::Dram, Some((src, relay, work_s)))
        } else if self.cfg.dist.cache_aware {
            let t = self.nodes[ix]
                .store
                .fetch_ranked(model, spec.weights_bytes(), &ckpt, &ranks);
            (t, None)
        } else {
            let t = self.nodes[ix]
                .store
                .fetch(model, spec.weights_bytes(), &ckpt);
            (t, None)
        };
        if self.cfg.dist.enabled() {
            self.refresh_directory(node);
            if peer.is_some() || tier == CheckpointTier::Remote {
                self.dir.mark_arriving(model, node);
            }
        }
        let mut inst = Instance::new(id, model, spec.clone(), kv_grant_bytes, self.clock);
        inst.retain_sessions = self.cfg.sessions.enabled;
        self.index
            .insert(id, ix, &slots, model.0 as usize, self.nodes[ix].hw.kind);
        self.instances.insert(
            id,
            Hosted {
                inst,
                node,
                slots,
                load_tier: tier,
                load_channel: None,
                fabric: peer.is_some(),
                keepalive_defers: 0,
            },
        );
        self.metrics.cold_starts += 1;
        match peer {
            Some((_, relay, _)) => {
                self.metrics.peer_fetches += 1;
                if relay {
                    self.metrics.multicast_relays += 1;
                }
            }
            None => self.metrics.cold_tier_loads[tier.index()] += 1,
        }
        let hw = self.nodes[ix].hw.clone();
        let base = match peer {
            Some((_, _, work_s)) => work_s,
            None => self.perf.load_time(&spec, &hw, tier, 1),
        };
        let work = self.cfg.noise.apply(base, &mut self.rng);
        let channel = match peer {
            // A fabric stream shares the source's loading channel with the
            // source's own cold starts.
            Some((src, _, _)) if ckpt.contention => Some(src.0 as usize),
            None if ckpt.contention && tier != CheckpointTier::Hbm => Some(ix),
            _ => None,
        };
        if let Some(ch) = channel {
            // Join the shared loading channel: everyone slows down to bw/k
            // and the whole channel is rescheduled.
            if ch != ix {
                self.instances
                    .get_mut(&id)
                    // detlint::allow(D005, "this function inserted `id` into the map earlier in the same call")
                    .expect("just inserted")
                    .load_channel = Some(NodeId(ch as u32));
            }
            self.settle_loads(ch);
            self.nodes[ch].loads.insert(
                id,
                ActiveLoad {
                    remaining_s: work,
                    work_s: work,
                    started: self.clock,
                },
            );
            self.reschedule_loads(ch);
        } else {
            let dur = SimDuration::from_secs_f64(work);
            self.events.push(
                self.clock + dur,
                Event::LoadDone {
                    inst: id,
                    elapsed: dur,
                    epoch: 0,
                },
            );
        }
        Ok(id)
    }

    // ------------------------------------------------------------------
    // Shared loading channel (contended cold starts)
    // ------------------------------------------------------------------

    /// Advances every in-flight load on a node to `now`: with `k` loads
    /// sharing the channel, each completes `1/k` units of work per second.
    fn settle_loads(&mut self, node_ix: usize) {
        let now = self.clock;
        let n = &mut self.nodes[node_ix];
        let k = n.loads.len();
        if k > 0 {
            let elapsed = now.since(n.loads_settled_at).as_secs_f64();
            if elapsed > 0.0 {
                let rate = 1.0 / k as f64;
                for l in n.loads.values_mut() {
                    l.remaining_s = (l.remaining_s - elapsed * rate).max(0.0);
                }
            }
        }
        n.loads_settled_at = now;
    }

    /// Reschedules every in-flight load on a node after a membership
    /// change (a load joined, finished, or was cancelled): each load's
    /// completion lands at `now + remaining · k`, under a fresh epoch so
    /// previously pushed events go stale.
    fn reschedule_loads(&mut self, node_ix: usize) {
        // Epochs come from a world-global counter: a load that migrates
        // between channels (source-node failure reroute) can then never be
        // confirmed by a stale event that happens to carry the new
        // channel's current per-node count. Only equality is ever checked,
        // so the switch from per-node counters is behavior-neutral.
        self.next_load_epoch += 1;
        let n = &mut self.nodes[node_ix];
        n.load_epoch = self.next_load_epoch;
        let epoch = n.load_epoch;
        let k = n.loads.len();
        if k == 0 {
            return;
        }
        let now = self.clock;
        let pending: Vec<(SimTime, InstanceId, SimTime)> = n
            .loads
            .iter()
            .map(|(&inst, l)| {
                let finish = now + SimDuration::from_secs_f64(l.remaining_s * k as f64);
                (finish, inst, l.started)
            })
            .collect();
        for (finish, inst, started) in pending {
            self.events.push(
                finish,
                Event::LoadDone {
                    inst,
                    elapsed: finish.since(started),
                    epoch,
                },
            );
        }
    }

    /// Removes a (possibly absent) in-flight contended load, speeding the
    /// survivors back up. Used when a loading instance is unloaded (drain)
    /// or preempted before its cold start finished.
    fn cancel_load(&mut self, inst: InstanceId, node_ix: usize) {
        if self.nodes[node_ix].loads.contains_key(&inst) {
            self.settle_loads(node_ix);
            self.nodes[node_ix].loads.remove(&inst);
            self.reschedule_loads(node_ix);
        }
    }

    /// Validates a `LoadDone` event against the loading channel. Returns
    /// the load's true elapsed duration, or `None` for a stale event (the
    /// channel was rescheduled after it was pushed, or the instance is
    /// gone). Fixed-duration loads (epoch 0) pass through unchanged.
    pub(crate) fn resolve_load_done(
        &mut self,
        inst: InstanceId,
        elapsed: SimDuration,
        epoch: u64,
    ) -> Option<SimDuration> {
        if epoch == 0 {
            return Some(elapsed);
        }
        let node_ix = match self.instances.get(&inst) {
            // A peer fetch lives on the *source* node's channel.
            Some(h) => h.load_channel.unwrap_or(h.node).0 as usize,
            // The instance died (NodeFail / drain unload) with its load.
            None => return None,
        };
        if epoch != self.nodes[node_ix].load_epoch || !self.nodes[node_ix].loads.contains_key(&inst)
        {
            return None;
        }
        self.settle_loads(node_ix);
        self.nodes[node_ix].loads.remove(&inst);
        self.reschedule_loads(node_ix);
        Some(elapsed)
    }

    /// Admits a request to an instance. If the instance is still loading,
    /// the request is marked cold-start and will receive the §IX-A grace.
    ///
    /// # Panics
    /// Panics if the instance does not exist.
    pub fn admit(&mut self, inst: InstanceId, rr: RunningRequest) {
        // detlint::allow(D005, "documented # Panics contract: callers admit only to instances they just placed or looked up")
        let h = self.instances.get_mut(&inst).expect("unknown instance");
        let node = h.node;
        let group = h.slots.clone();
        h.inst.admit(rr);
        for s in group {
            self.wake.push((node, s));
        }
    }

    /// Admits a request that finished prefill elsewhere (PD disaggregation,
    /// §IX-G): it joins the decode batch directly if the KV grant holds its
    /// shipped cache. Returns false (without waking) otherwise.
    ///
    /// # Panics
    /// Panics if the instance does not exist.
    #[must_use]
    pub fn admit_decoding(&mut self, inst: InstanceId, rr: RunningRequest) -> bool {
        // detlint::allow(D005, "documented # Panics contract: PD handoff targets are validated by the policy before the ship")
        let h = self.instances.get_mut(&inst).expect("unknown instance");
        if h.inst.scaling {
            // The block array is being rebuilt; admitting now could push
            // live usage past an in-flight shrink target.
            return false;
        }
        let node = h.node;
        let group = h.slots.clone();
        if h.inst.admit_decoding(rr) {
            for s in group {
                self.wake.push((node, s));
            }
            true
        } else {
            false
        }
    }

    /// Starts an iteration on an instance, occupying its whole slot group.
    /// Returns its (noisy) duration, or [`StartError::GroupBusy`] if
    /// another slot of a tensor-parallel group is still running.
    ///
    /// # Panics
    /// Panics if the instance has no such work or is loading/scaling.
    pub fn start_iteration(
        &mut self,
        inst: InstanceId,
        kind: IterationKind,
    ) -> Result<SimDuration, StartError> {
        // detlint::allow(D005, "documented # Panics contract: iteration starts name instances the caller holds")
        let (node, _) = self.instance_placement(inst).expect("unknown instance");
        if self.instance_group_busy(inst) {
            return Err(StartError::GroupBusy);
        }
        let share = self.instance_share(inst);
        let hw = self.nodes[node.0 as usize].hw.clone();
        // Session KV migration pre-pass: if the prefill about to start is a
        // follow-up turn whose parked KV sits on a *different* instance and
        // migration is on, pull the entry over before `begin_prefill` runs so
        // the cached prefix is discounted here too. Runs entirely before the
        // mutable borrow of the target instance below.
        let mut migrated: Option<(u64, u32)> = None;
        if self.cfg.sessions.enabled && self.cfg.sessions.migrate_kv {
            if let IterationKind::Prefill(req) = kind {
                if let Some(tag) = self.instances[&inst].inst.queued_session(req) {
                    if tag.is_followup() && !self.instances[&inst].inst.has_session(tag.id) {
                        if let Some(&home) = self.session_home.get(&tag.id) {
                            if home != inst {
                                if let Some(tokens) = self
                                    .instances
                                    .get_mut(&home)
                                    .and_then(|hh| hh.inst.evict_session(tag.id))
                                {
                                    migrated = Some((tag.id, tokens));
                                }
                            }
                        }
                    }
                }
            }
        }
        // detlint::allow(D005, "same instance re-fetched after the immutable borrows above released; nothing removed it in between")
        let h = self.instances.get_mut(&inst).expect("unknown instance");
        if let Some((sid, tokens)) = migrated {
            h.inst.import_session(sid, tokens);
        }
        let tp = h.inst.tp;
        let base = match kind {
            IterationKind::Prefill(req) => {
                let ps = match h.inst.begin_prefill(req) {
                    Some(ps) => ps,
                    None => return Err(StartError::KvExhausted(req)),
                };
                let mut base =
                    self.perf
                        .prefill_time_tp(&h.inst.spec, &hw, ps.compute_tokens, share, tp);
                if ps.cached_tokens > 0 {
                    self.metrics.record_mut(req).prefix_cached = ps.cached_tokens;
                    match migrated {
                        // A migrated prefix pays fabric transfer time instead
                        // of the prefill tail it skipped.
                        Some((_, tokens)) => {
                            let bytes = tokens as u64 * h.inst.spec.kv_bytes_per_token();
                            self.metrics.kv_migrations += 1;
                            self.metrics.kv_migration_bytes += bytes;
                            base += bytes as f64 / (self.cfg.kv_transfer_gbps * 1e9);
                        }
                        None => self.metrics.prefix_hit_tokens += ps.cached_tokens as u64,
                    }
                }
                base
            }
            IterationKind::Decode => {
                let (bs, ctx) = h.inst.begin_decode();
                self.perf
                    .decode_time_tp(&h.inst.spec, &hw, bs, ctx, share, tp)
            }
        };
        let dur = SimDuration::from_secs_f64(self.cfg.noise.apply(base, &mut self.rng));
        let group = self.instances[&inst].slots.clone();
        for &s in &group {
            self.nodes[node.0 as usize].slot_busy[s] = true;
        }
        self.events.push(
            self.clock + dur,
            Event::IterationDone {
                inst,
                kind,
                elapsed: dur,
            },
        );
        Ok(dur)
    }

    /// Issues a KV rescale to `to_bytes`. Scale-ups commit the delta
    /// immediately (the new blocks are allocated up front); scale-downs
    /// release their delta only on completion — the asymmetry behind the
    /// §VII-C hazard.
    pub fn start_kv_scale(&mut self, inst: InstanceId, to_bytes: u64) -> Result<(), MemError> {
        // detlint::allow(D005, "documented # Panics contract: rescales name instances the policy holds")
        let (node, _) = self.instance_placement(inst).expect("unknown instance");
        let h = &self.instances[&inst];
        assert!(!h.inst.scaling, "rescale already in flight");
        assert!(!h.inst.busy, "cannot rescale mid-iteration");
        let from_bytes = h.inst.kv_capacity_bytes();
        if to_bytes == from_bytes {
            return Ok(());
        }
        if to_bytes < from_bytes && h.inst.kv_used_bytes() > to_bytes {
            // Parked session KV is reclaimable under capacity pressure: try
            // shedding idle sessions (coldest first) before refusing the
            // shrink on behalf of the truly live set.
            // detlint::allow(D005, "same instance re-fetched mutably; nothing removed it in between")
            let h = self.instances.get_mut(&inst).expect("unknown instance");
            h.inst.evict_sessions_to_fit(to_bytes);
            if h.inst.kv_used_bytes() > to_bytes {
                return Err(MemError::BelowLiveSet);
            }
        }
        let h = &self.instances[&inst];
        if to_bytes > from_bytes {
            let delta = to_bytes - from_bytes;
            let available = self.node_available_bytes(node);
            if delta > available {
                self.metrics.oom_incidents += 1;
                return Err(MemError::WouldOom {
                    node,
                    needed: delta,
                    available,
                });
            }
            self.nodes[node.0 as usize].committed += delta;
        }
        let hw = self.nodes[node.0 as usize].hw.clone();
        let used = h.inst.kv_used_bytes();
        let base = self.perf.kv_scale_time(&hw, from_bytes, to_bytes, used);
        let dur = SimDuration::from_secs_f64(self.cfg.noise.apply(base, &mut self.rng));
        // detlint::allow(D005, "same instance re-fetched mutably after the perf-model reads; nothing removed it in between")
        let h = self.instances.get_mut(&inst).expect("unknown instance");
        h.inst.scaling = true;
        self.events.push(
            self.clock + dur,
            Event::ScaleDone {
                inst,
                from_bytes,
                to_bytes,
                elapsed: dur,
            },
        );
        Ok(())
    }

    /// Unloads an idle instance, releasing its committed memory.
    ///
    /// # Panics
    /// Panics if the instance still has live requests, is mid-iteration, or
    /// is mid-rescale.
    pub fn unload_instance(&mut self, inst: InstanceId) {
        // detlint::allow(D005, "documented # Panics contract: unloads name instances the policy holds")
        let h = self.instances.remove(&inst).expect("unknown instance");
        assert!(
            !h.inst.has_live_requests() && !h.inst.busy && !h.inst.scaling,
            "unloading a non-idle instance"
        );
        self.index.remove(
            inst,
            h.node.0 as usize,
            &h.slots,
            h.inst.model.0 as usize,
            self.nodes[h.node.0 as usize].hw.kind,
        );
        let freed = h.inst.spec.weights_bytes() + h.inst.kv_capacity_bytes();
        // A still-loading instance leaves the shared loading channel, and
        // any co-loading survivors speed back up. A peer fetch lives on
        // the *source* node's channel.
        let channel = h.load_channel.unwrap_or(h.node);
        self.cancel_load(inst, channel.0 as usize);
        if self.cfg.dist.enabled() {
            // Drop any arriving marker. The tier entry stays: the store
            // keeps admitted-but-cancelled checkpoints (PR 5 semantics),
            // so the directory keeps reporting the copy too.
            self.dir.mark_ready(h.inst.model, h.node);
        }
        let node = &mut self.nodes[h.node.0 as usize];
        node.committed = node.committed.saturating_sub(freed);
        self.metrics.instance_lifetime_s += self.clock.since(h.inst.created_at).as_secs_f64();
        // Unloading discards the instance's parked session KV with it.
        if self.cfg.sessions.enabled {
            for sid in h.inst.session_ids() {
                if self.session_home.get(&sid) == Some(&inst) {
                    self.session_home.remove(&sid);
                }
            }
        }
        for &s in &h.slots {
            self.wake.push((h.node, s));
        }
    }

    /// Schedules a policy timer.
    pub fn set_timer(&mut self, delay: SimDuration, payload: u64) {
        self.events.push(self.clock + delay, Event::Timer(payload));
    }

    /// Schedules the keep-alive check for an instance that just went idle.
    /// Driver and policies call this after observing `idle_since` change.
    pub fn schedule_keepalive(&mut self, inst: InstanceId) {
        if let Some(h) = self.instances.get(&inst) {
            if let Some(marker) = h.inst.idle_since {
                self.events.push(
                    marker + self.cfg.keep_alive,
                    Event::KeepAlive { inst, marker },
                );
            }
        }
    }

    /// Drops a request the policy gave up on (queue timeout): records it and
    /// resolves it.
    pub fn drop_request(&mut self, rr: &RunningRequest) {
        let rec = self.metrics.record_mut(rr.req.id);
        if !rec.dropped && rec.completed.is_none() {
            rec.dropped = true;
            self.metrics.dropped += 1;
            self.outstanding = self.outstanding.saturating_sub(1);
        }
    }

    /// Records a preemption (for the consolidator's accounting).
    pub fn note_preemption(&mut self) {
        self.metrics.preemptions += 1;
    }

    /// Records `n` request migrations and stamps their records.
    pub fn note_migration(&mut self, ids: &[RequestId]) {
        self.metrics.migrations += ids.len() as u64;
        for &id in ids {
            self.metrics.record_mut(id).migrations += 1;
        }
    }

    /// Records a shadow validation (accepted or rejected).
    pub fn note_shadow_validation(&mut self) {
        self.metrics.shadow_validations += 1;
    }

    /// Marks the record of a cold-start-triggering request.
    pub fn note_cold_start_request(&mut self, id: RequestId) {
        self.metrics.record_mut(id).cold_start = true;
    }

    // ------------------------------------------------------------------
    // Session affinity (multi-turn prefix reuse)
    // ------------------------------------------------------------------

    /// Where a follow-up turn's parked prefix KV lives, if the session
    /// subsystem is on and the home instance is still worth sticking to.
    ///
    /// Policies call this *before* their normal placement scan and treat a
    /// `Some` as a preferred candidate (still subject to their own admission
    /// checks). Returns `None` — fall back to normal placement — when
    /// sessions are off, stickiness is zero, the request is not a follow-up
    /// turn, the home has unloaded or shed the session's KV, the home's node
    /// is unschedulable, or the home is already loaded past the
    /// stickiness-scaled in-flight cap ([`SessionConfig::stickiness`]).
    pub fn session_affinity_target(&self, req: &Request) -> Option<InstanceId> {
        let sc = &self.cfg.sessions;
        if !sc.enabled || sc.stickiness <= 0.0 || !req.session.is_followup() {
            return None;
        }
        let home = *self.session_home.get(&req.session.id)?;
        let h = self.instances.get(&home)?;
        if h.inst.model != req.model || !h.inst.has_session(req.session.id) {
            return None;
        }
        if !self.node_schedulable(h.node) {
            return None;
        }
        let cap = ((sc.stickiness * sc.affinity_max_inflight as f64).floor() as u32).max(1);
        if h.inst.live_count() >= cap {
            return None;
        }
        Some(home)
    }

    /// Records where a finished session turn parked its KV. The driver calls
    /// this when a request completes, before the policy's `on_request_done`
    /// hook, so the next turn's affinity lookup sees the fresh home.
    pub(crate) fn note_request_parked(&mut self, inst: InstanceId, rr: &RunningRequest) {
        if !self.cfg.sessions.enabled || !rr.req.session.is_session() {
            return;
        }
        let parked = self
            .instances
            .get(&inst)
            .is_some_and(|h| h.inst.has_session(rr.req.session.id));
        if parked {
            self.session_home.insert(rr.req.session.id, inst);
        }
    }

    // ------------------------------------------------------------------
    // Cluster lifecycle (drain / fail / join)
    // ------------------------------------------------------------------

    /// Schedules a cluster-lifecycle event at absolute simulated time `at`.
    /// [`crate::scenario::Scenario`] uses this for its environment axis;
    /// tests may call it directly before `Simulation::run`.
    pub fn push_cluster_event(&mut self, at: SimTime, ev: ClusterEvent) {
        self.events.push(at, Event::Cluster(ev));
    }

    /// Applies a lifecycle event and returns the requests it displaced
    /// (drained from unloaded instances, or surviving a node failure). The
    /// driver hands these to [`crate::policy::Policy::on_node_event`] for
    /// re-placement; each displaced request restarts as a migration
    /// (it re-prefills its full context elsewhere).
    pub(crate) fn apply_cluster_event(&mut self, ev: &ClusterEvent) -> Vec<RunningRequest> {
        match ev {
            ClusterEvent::NodeDrain(node) => {
                if self.nodes[node.0 as usize].health == NodeHealth::Up {
                    self.nodes[node.0 as usize].health = NodeHealth::Draining;
                    self.metrics.node_drains += 1;
                }
                self.drain_idle_instances(*node)
            }
            ClusterEvent::NodeFail(node) => {
                if self.nodes[node.0 as usize].health != NodeHealth::Down {
                    self.nodes[node.0 as usize].health = NodeHealth::Down;
                    self.metrics.node_failures += 1;
                }
                // Fabric transfers streaming *out* of this node (peer
                // fetches whose destination survives) must be rerouted
                // before the channel dies: settle them and remember how
                // much of each stream is left.
                let mut rerouted: Vec<(InstanceId, f64, f64, SimTime)> = Vec::new();
                if self.cfg.dist.enabled() {
                    self.settle_loads(node.0 as usize);
                    for (&id, l) in &self.nodes[node.0 as usize].loads {
                        if let Some(h) = self.instances.get(&id) {
                            if h.node != *node {
                                rerouted.push((id, l.remaining_s, l.work_s, l.started));
                            }
                        }
                    }
                }
                let n = &mut self.nodes[node.0 as usize];
                n.committed = 0;
                for b in &mut n.slot_busy {
                    *b = false;
                }
                // The checkpoint cache dies with the host (DRAM is gone and
                // the disk never rejoins the fleet), and so do in-flight
                // loads — their LoadDone events go stale with the entries.
                n.store.clear();
                n.loads.clear();
                self.dir.clear_node(*node);
                // Everything hosted is gone; salvage the request states.
                let lost: Vec<InstanceId> = self.node_instances(*node).to_vec();
                let now = self.clock;
                let mut displaced = Vec::new();
                for inst in lost {
                    // detlint::allow(D005, "`lost` was enumerated from this map in this match arm; no removal happens in between")
                    let mut h = self.instances.remove(&inst).expect("listed");
                    // A cold start streaming *into* this node over a
                    // surviving peer's channel leaves that channel, so the
                    // survivors there speed back up.
                    if let Some(ch) = h.load_channel {
                        if ch != *node {
                            self.cancel_load(inst, ch.0 as usize);
                        }
                    }
                    self.index.remove(
                        inst,
                        h.node.0 as usize,
                        &h.slots,
                        h.inst.model.0 as usize,
                        self.nodes[h.node.0 as usize].hw.kind,
                    );
                    let moved = h.inst.drain_for_preemption(now);
                    let ids: Vec<RequestId> = moved.iter().map(|r| r.req.id).collect();
                    self.note_migration(&ids);
                    self.metrics.instance_lifetime_s += now.since(h.inst.created_at).as_secs_f64();
                    displaced.extend(moved);
                }
                for (id, rem, work, started) in rerouted {
                    self.reroute_transfer(id, rem, work, started);
                    self.metrics.transfer_reroutes += 1;
                }
                displaced
            }
            ClusterEvent::NodeJoin(spec) => {
                // detlint::allow(D005, "scenario precondition: a NodeJoin event carrying a malformed spec is a bug in the experiment definition")
                spec.validate().expect("invalid joining node");
                self.nodes.push(NodeState::new(spec));
                self.index.add_node(spec.slot_shares.len());
                self.metrics.node_joins += 1;
                Vec::new()
            }
        }
    }

    /// Unloads every instance on `node` that is not mid-iteration or
    /// mid-rescale, returning the requests they were holding. Used when a
    /// drain starts and again by the driver as busy instances finish their
    /// in-flight iterations on a draining node.
    pub(crate) fn drain_idle_instances(&mut self, node: NodeId) -> Vec<RunningRequest> {
        if self.nodes[node.0 as usize].health != NodeHealth::Draining {
            return Vec::new();
        }
        let now = self.clock;
        let mut displaced = Vec::new();
        for inst in self.node_instances(node).to_vec() {
            // detlint::allow(D005, "the ids were copied from this node's index; only already-visited instances are unloaded before this fetch")
            let h = self.instances.get_mut(&inst).expect("listed");
            if h.inst.busy || h.inst.scaling {
                continue; // swept up when the iteration/rescale completes
            }
            let moved = h.inst.drain_for_preemption(now);
            let ids: Vec<RequestId> = moved.iter().map(|r| r.req.id).collect();
            self.note_migration(&ids);
            displaced.extend(moved);
            self.unload_instance(inst);
        }
        displaced
    }

    // ------------------------------------------------------------------
    // Driver support
    // ------------------------------------------------------------------

    pub(crate) fn release_slot(&mut self, inst: InstanceId) {
        if let Some(h) = self.instances.get(&inst) {
            let node = h.node;
            let group = h.slots.clone();
            for &s in &group {
                self.nodes[node.0 as usize].slot_busy[s] = false;
                self.wake.push((node, s));
            }
        }
    }

    pub(crate) fn apply_scale_done(
        &mut self,
        inst: InstanceId,
        from_bytes: u64,
        to_bytes: u64,
        elapsed: SimDuration,
    ) {
        let h = match self.instances.get_mut(&inst) {
            Some(h) => h,
            None => return,
        };
        h.inst.scaling = false;
        // Live usage may legitimately have grown since the shrink was
        // planned (e.g. a PD handoff raced the issue); clamp the target so
        // the resize never cuts under the live block set.
        let final_to = if to_bytes < from_bytes {
            to_bytes.max(h.inst.kv_used_bytes()).min(from_bytes)
        } else {
            to_bytes
        };
        let ok = h.inst.apply_kv_resize(final_to, elapsed);
        debug_assert!(ok, "resize below live set slipped through");
        let node = h.node;
        let group = h.slots.clone();
        if final_to < from_bytes {
            let delta = from_bytes - final_to;
            let n = &mut self.nodes[node.0 as usize];
            n.committed = n.committed.saturating_sub(delta);
        }
        self.metrics.scale_ops += 1;
        self.metrics.scale_blocked_s += elapsed.as_secs_f64();
        for s in group {
            self.wake.push((node, s));
        }
    }

    pub(crate) fn apply_load_done(&mut self, inst: InstanceId, elapsed: SimDuration) {
        let now = self.clock;
        let mut graced: Vec<(RequestId, SimDuration)> = Vec::new();
        if let Some(h) = self.instances.get(&inst) {
            let (model, node, fabric, tier) = (h.inst.model, h.node, h.fabric, h.load_tier);
            if fabric {
                self.metrics.peer_fetch_seconds += elapsed.as_secs_f64();
            } else {
                self.metrics.cold_tier_seconds[tier.index()] += elapsed.as_secs_f64();
            }
            if self.cfg.dist.enabled() {
                self.dir.mark_ready(model, node);
            }
            if self.cfg.record_activations {
                self.metrics.activations.push((model, now.as_secs_f64()));
            }
        }
        if let Some(h) = self.instances.get_mut(&inst) {
            h.inst.activate(now);
            for r in h.inst.requests_mut() {
                if r.grace.is_zero() {
                    r.grace = elapsed;
                    graced.push((r.req.id, elapsed));
                }
            }
            let node = h.node;
            let group = h.slots.clone();
            for s in group {
                self.wake.push((node, s));
            }
        }
        for (id, grace) in graced {
            let rec = self.metrics.record_mut(id);
            rec.grace = grace;
            rec.cold_start = true;
        }
    }

    /// Samples occupancy and per-instance gauges.
    pub(crate) fn take_sample(&mut self) {
        let t = self.clock.as_secs_f64();
        // Maintained on every instance create/unload, so sampling is O(1)
        // in fleet size instead of an O(nodes × instances) residency scan.
        let cpu_used = self.index.used_cpu_nodes;
        let gpu_used = self.index.used_gpu_nodes;
        self.metrics.sample_usage(t, cpu_used, gpu_used);
        for h in self.instances.values() {
            if h.inst.state != InstanceState::Active {
                continue;
            }
            if h.inst.has_live_requests() {
                let used = h.inst.spec.weights_bytes() + h.inst.kv_used_bytes();
                let util = used as f64 / h.inst.footprint_bytes().max(1) as f64;
                match self.nodes[h.node.0 as usize].hw.kind {
                    HardwareKind::Gpu => self.metrics.mem_util_gpu.add(util),
                    _ => self.metrics.mem_util_cpu.add(util),
                }
                let bs = h.inst.batch_size();
                if bs > 0 {
                    self.metrics.batch_sizes.add(bs as f64);
                    if self.nodes[h.node.0 as usize].hw.kind == HardwareKind::Gpu {
                        self.metrics.batch_sizes_gpu.add(bs as f64);
                    }
                }
                self.metrics.kv_util.add(h.inst.kv_utilization());
            }
        }
    }

    pub(crate) fn count_decode_tokens(&mut self, inst: InstanceId, tokens: u64) {
        if let Some(h) = self.instances.get(&inst) {
            match self.nodes[h.node.0 as usize].hw.kind {
                HardwareKind::Gpu => self.metrics.gpu_decode_tokens += tokens,
                _ => self.metrics.cpu_decode_tokens += tokens,
            }
        }
    }

    /// Adds remaining instance lifetimes at end of run.
    pub(crate) fn finalize_lifetimes(&mut self) {
        let now = self.clock;
        let total: f64 = self
            .instances
            .values()
            .map(|h| now.since(h.inst.created_at).as_secs_f64())
            .sum();
        self.metrics.instance_lifetime_s += total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ClusterSpec;

    const GB: u64 = 1_000_000_000;

    fn tiered_world(nodes: ClusterSpec, models: Vec<ModelSpec>) -> World {
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            checkpoints: CheckpointConfig::tiered(30 * GB, Some(100 * GB)),
            ..WorldConfig::default()
        };
        World::new(&nodes, models, cfg)
    }

    #[test]
    fn node_fail_drops_cache_and_inflight_loads() {
        let mut w = tiered_world(
            ClusterSpec::heterogeneous(0, 2),
            vec![ModelSpec::llama2_7b()],
        );
        w.create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        assert_eq!(w.checkpoint_dram_models(NodeId(0)), vec![ModelId(0)]);
        assert_eq!(w.checkpoint_ssd_models(NodeId(0)), vec![ModelId(0)]);
        assert_eq!(w.loads_in_flight(NodeId(0)), 1);
        let displaced = w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        assert!(displaced.is_empty(), "nothing admitted yet");
        // DRAM died with the host; the disk never rejoins the fleet.
        assert!(w.checkpoint_dram_models(NodeId(0)).is_empty());
        assert!(w.checkpoint_ssd_models(NodeId(0)).is_empty());
        assert_eq!(w.loads_in_flight(NodeId(0)), 0);
        assert_eq!(
            w.checkpoint_tier(ModelId(0), NodeId(0)),
            CheckpointTier::Remote
        );
        // The untouched node is still cold too — caches are per-node.
        assert_eq!(
            w.checkpoint_tier(ModelId(0), NodeId(1)),
            CheckpointTier::Remote
        );
    }

    #[test]
    fn node_drain_preserves_cache() {
        let mut w = tiered_world(
            ClusterSpec::heterogeneous(0, 1),
            vec![ModelSpec::llama2_7b()],
        );
        w.create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        let _ = w.apply_cluster_event(&ClusterEvent::NodeDrain(NodeId(0)));
        // A drained node keeps its warm tiers: if it rejoins the
        // schedulable set, the checkpoint is still DRAM-local.
        assert_eq!(w.checkpoint_dram_models(NodeId(0)), vec![ModelId(0)]);
        assert_eq!(
            w.checkpoint_tier(ModelId(0), NodeId(0)),
            CheckpointTier::Dram
        );
    }

    fn session_world(sessions: SessionConfig, gpu_nodes: usize) -> World {
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            sessions,
            ..WorldConfig::default()
        };
        World::new(
            &ClusterSpec::heterogeneous(0, gpu_nodes),
            vec![ModelSpec::llama2_7b()],
            cfg,
        )
    }

    fn session_req(id: u64, turn: u32) -> Request {
        use workload::request::SessionTag;
        Request {
            id: RequestId(id),
            model: ModelId(0),
            arrival: SimTime::ZERO,
            input_len: 700,
            output_len: 8,
            class: SloClass::default(),
            session: SessionTag::new(7, turn),
        }
    }

    #[test]
    fn session_kv_migrates_to_the_landing_instance() {
        let mut w = session_world(SessionConfig::reuse(1.0), 2);
        let a = w
            .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        let b = w
            .create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
            .expect("fits");
        w.instance_mut(a).unwrap().activate(SimTime::ZERO);
        w.instance_mut(b).unwrap().activate(SimTime::ZERO);
        // Turn 0 parked 600 prefix tokens on `a`; turn 1 lands on `b`.
        w.instance_mut(a).unwrap().import_session(7, 600);
        w.session_home.insert(7, a);
        let req = session_req(0, 1);
        w.metrics = RunMetrics::for_trace(std::slice::from_ref(&req));
        w.admit(b, RunningRequest::new(req));
        w.start_iteration(b, IterationKind::Prefill(RequestId(0)))
            .expect("starts");
        let bytes = 600 * w.model_spec(ModelId(0)).kv_bytes_per_token();
        assert_eq!(w.metrics.kv_migrations, 1);
        assert_eq!(w.metrics.kv_migration_bytes, bytes);
        assert_eq!(
            w.metrics.prefix_hit_tokens, 0,
            "migrated tokens are transfers, not local hits"
        );
        assert_eq!(w.metrics.record_mut(RequestId(0)).prefix_cached, 600);
        assert!(
            !w.instance(a).unwrap().has_session(7),
            "the parked copy moved to the landing instance"
        );
    }

    #[test]
    fn affinity_target_respects_turn_stickiness_and_load() {
        let sessions = SessionConfig {
            affinity_max_inflight: 4, // cap = floor(0.5 * 4) = 2
            ..SessionConfig::reuse(0.5)
        };
        let mut w = session_world(sessions, 1);
        let a = w
            .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        w.instance_mut(a).unwrap().activate(SimTime::ZERO);
        w.instance_mut(a).unwrap().import_session(7, 100);
        w.session_home.insert(7, a);
        // Opener turns never stick; follow-up turns do.
        assert_eq!(w.session_affinity_target(&session_req(0, 0)), None);
        assert_eq!(w.session_affinity_target(&session_req(0, 1)), Some(a));
        // The stickiness-scaled in-flight cap closes the door at 2 live.
        w.admit(a, RunningRequest::new(session_req(1, 1)));
        assert_eq!(w.session_affinity_target(&session_req(0, 1)), Some(a));
        w.admit(a, RunningRequest::new(session_req(2, 1)));
        assert_eq!(w.session_affinity_target(&session_req(0, 1)), None);
    }

    #[test]
    fn unload_clears_the_session_home_directory() {
        let mut w = session_world(SessionConfig::reuse(1.0), 1);
        let a = w
            .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        w.instance_mut(a).unwrap().activate(SimTime::ZERO);
        w.instance_mut(a).unwrap().import_session(7, 100);
        w.session_home.insert(7, a);
        w.unload_instance(a);
        assert!(
            w.session_home.is_empty(),
            "unload retires the home directory entries it hosted"
        );
        assert_eq!(w.session_affinity_target(&session_req(0, 1)), None);
    }

    #[test]
    fn tp_group_is_one_load_on_the_channel() {
        // A TP=2 instance loads its shards as ONE aggregate stream — it
        // must never count as `tp` separate contenders on the channel.
        let nodes = ClusterSpec {
            nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
        };
        let tp_model = ModelSpec::llama2_13b().with_tp(2);
        let mut w = tiered_world(nodes, vec![tp_model, ModelSpec::llama2_7b()]);
        w.create_instance_group(ModelId(0), NodeId(0), &[0, 1], 8 * GB)
            .expect("fits");
        assert_eq!(w.loads_in_flight(NodeId(0)), 1);
        // A second model's estimate sees exactly 2-way contention (itself
        // plus the TP group), not 1 + tp.
        let est = w.estimate_load_s(ModelId(1), NodeId(0));
        let gang = w.node_hw(NodeId(0)).clone();
        let alone = w
            .perf()
            .load_time(w.model_spec(ModelId(1)), &gang, CheckpointTier::Remote, 1);
        assert!(
            (est - 2.0 * alone).abs() / (2.0 * alone) < 1e-9,
            "estimate {est} vs 2x uncontended {alone}"
        );
    }

    #[test]
    fn estimate_tracks_warmest_tier() {
        let mut w = tiered_world(
            ClusterSpec::heterogeneous(0, 1),
            vec![ModelSpec::llama2_7b(), ModelSpec::llama2_7b().replica(1)],
        );
        let spec = w.model_spec(ModelId(0)).clone();
        let hw = w.node_hw(NodeId(0)).clone();
        let remote = w.perf().load_time(&spec, &hw, CheckpointTier::Remote, 1);
        let dram = w.perf().load_time(&spec, &hw, CheckpointTier::Dram, 1);
        assert_eq!(w.estimate_load_s(ModelId(0), NodeId(0)), remote);
        // Loading the checkpoint promotes it: estimates now price a DRAM
        // hit — but with the load still in flight, a newcomer would share
        // the channel 2-ways.
        let inst = w
            .create_instance(ModelId(0), NodeId(0), 0, 4 * GB)
            .expect("fits");
        assert_eq!(w.estimate_load_s(ModelId(0), NodeId(0)), 2.0 * dram);
        // Once the channel clears the estimate is the plain DRAM hit.
        w.unload_instance(inst);
        assert_eq!(w.estimate_load_s(ModelId(0), NodeId(0)), dram);
        assert_eq!(w.loads_in_flight(NodeId(0)), 0);
    }

    /// Rebuilds every index list by brute force over the instance map and
    /// asserts the incrementally maintained `InstanceIndex` matches.
    fn assert_index_consistent(w: &World) {
        for (i, n) in w.nodes.iter().enumerate() {
            let node = NodeId(i as u32);
            let expect_node: Vec<InstanceId> = w
                .instances
                .iter()
                .filter(|(_, h)| h.node == node)
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(w.node_instances(node), expect_node, "node {i} list");
            for s in 0..n.slot_shares.len() {
                let expect_slot: Vec<InstanceId> = w
                    .instances
                    .iter()
                    .filter(|(_, h)| h.node == node && h.slots.contains(&s))
                    .map(|(&id, _)| id)
                    .collect();
                assert_eq!(w.slot_instances(node, s), expect_slot, "node {i} slot {s}");
            }
        }
        for m in 0..w.model_count() {
            let model = ModelId(m as u32);
            let expect: Vec<InstanceId> = w
                .instances
                .iter()
                .filter(|(_, h)| h.inst.model == model)
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(w.model_instances(model), expect, "model {m} list");
        }
        let (mut cpu, mut gpu) = (0u32, 0u32);
        for (i, n) in w.nodes.iter().enumerate() {
            if w.instances.values().any(|h| h.node == NodeId(i as u32)) {
                match n.hw.kind {
                    HardwareKind::Gpu => gpu += 1,
                    _ => cpu += 1,
                }
            }
        }
        assert_eq!((w.index.used_cpu_nodes, w.index.used_gpu_nodes), (cpu, gpu));
    }

    /// The instance index must track the brute-force definition through
    /// every mutation path: create (plain and TP group), unload, node
    /// failure (bulk removal), node join (fresh lists), and re-creation.
    #[test]
    fn instance_index_matches_brute_force() {
        let nodes = ClusterSpec {
            nodes: vec![
                NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4),
                NodeSpec::multi_accel(HardwareSpec::a100_80g(), 2),
            ],
        };
        let tp_model = ModelSpec::llama2_13b().with_tp(2);
        let mut w = tiered_world(nodes, vec![tp_model, ModelSpec::llama2_7b()]);
        assert_index_consistent(&w);

        let a = w
            .create_instance_group(ModelId(0), NodeId(0), &[0, 1], 4 * GB)
            .expect("fits");
        let b = w
            .create_instance(ModelId(1), NodeId(0), 2, GB)
            .expect("fits");
        let c = w
            .create_instance(ModelId(1), NodeId(1), 0, GB)
            .expect("fits");
        assert_index_consistent(&w);
        assert_eq!(w.node_instances(NodeId(0)), [a, b]);
        assert_eq!(w.slot_instances(NodeId(0), 1), [a]);
        assert_eq!(w.model_instances(ModelId(1)), [b, c]);

        w.unload_instance(b);
        assert_index_consistent(&w);

        // Node failure removes everything hosted in one sweep.
        w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        assert_index_consistent(&w);
        assert!(w.node_instances(NodeId(0)).is_empty());

        // A joining node gets fresh (empty) lists and indexes new creates.
        w.apply_cluster_event(&ClusterEvent::NodeJoin(NodeSpec::multi_accel(
            HardwareSpec::a100_80g(),
            3,
        )));
        assert_index_consistent(&w);
        let d = w
            .create_instance(ModelId(1), NodeId(2), 1, GB)
            .expect("fits");
        assert_index_consistent(&w);
        assert_eq!(w.slot_instances(NodeId(2), 1), [d]);
        assert_eq!(w.model_instances(ModelId(1)), [c, d]);
    }

    #[test]
    fn flat_default_is_the_legacy_flat_loader() {
        // The default configuration must price every cold start at
        // exactly weights / load_bw — bit for bit, tier and churn blind.
        let mut w = World::new(
            &ClusterSpec::heterogeneous(1, 1),
            vec![ModelSpec::llama2_7b()],
            WorldConfig {
                noise: NoiseModel::off(),
                ..WorldConfig::default()
            },
        );
        for node in [NodeId(0), NodeId(1)] {
            let spec = w.model_spec(ModelId(0)).clone();
            let legacy = spec.weights_bytes() as f64 / (w.node_hw(node).load_bw_gbps * 1e9);
            assert_eq!(w.estimate_load_s(ModelId(0), node), legacy);
            assert_eq!(w.checkpoint_tier(ModelId(0), node), CheckpointTier::Dram);
        }
        // Cold starts never join the loading channel in flat mode.
        w.create_instance(ModelId(0), NodeId(1), 0, 4 * GB)
            .expect("fits");
        assert_eq!(w.loads_in_flight(NodeId(1)), 0);
        assert_eq!(w.metrics.cold_tier_loads, [0, 1, 0, 0]);
    }

    fn dist_world(nodes: ClusterSpec, models: Vec<ModelSpec>, dist: DistConfig) -> World {
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            checkpoints: CheckpointConfig::tiered(30 * GB, Some(100 * GB)),
            dist,
            ..WorldConfig::default()
        };
        World::new(&nodes, models, cfg)
    }

    /// Parks a warm copy of `model` in `node`'s DRAM cache: the create
    /// fetches the checkpoint, the unload cancels the in-flight load and
    /// marks the directory replica ready (the cache entry survives).
    fn warm(w: &mut World, model: ModelId, node: NodeId) {
        let inst = w.create_instance(model, node, 0, GB).expect("fits");
        w.unload_instance(inst);
    }

    #[test]
    fn peer_fetch_prices_fabric_and_joins_source_channel() {
        let mut w = dist_world(
            ClusterSpec::heterogeneous(0, 2),
            vec![ModelSpec::llama2_7b()],
            DistConfig::peer(),
        );
        warm(&mut w, ModelId(0), NodeId(0));
        assert_eq!(w.loads_in_flight(NodeId(0)), 0);

        let spec = w.model_spec(ModelId(0)).clone();
        let dest = w.node_hw(NodeId(1)).clone();
        let src = w.node_hw(NodeId(0)).clone();
        let rate = dest
            .fabric_bw_gbps
            .min(src.tier_bw_gbps(CheckpointTier::Dram));
        let fabric = spec.weights_bytes() as f64 / (rate * 1e9) + dest.fabric_latency_s;
        let remote = w.perf().load_time(&spec, &dest, CheckpointTier::Remote, 1);
        assert!(fabric < remote, "fabric {fabric} must beat remote {remote}");
        assert_eq!(w.estimate_load_s(ModelId(0), NodeId(1)), fabric);

        w.create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        // The transfer rides the *source* node's loading channel.
        assert_eq!(w.loads_in_flight(NodeId(0)), 1);
        assert_eq!(w.loads_in_flight(NodeId(1)), 0);
        assert_eq!(w.metrics.cold_starts, 2);
        assert_eq!(w.metrics.peer_fetches, 1);
        assert_eq!(w.metrics.multicast_relays, 0);
        // The fabric admit lands in DRAM with no SSD write-through.
        assert_eq!(w.checkpoint_dram_models(NodeId(1)), vec![ModelId(0)]);
        assert!(w.checkpoint_ssd_models(NodeId(1)).is_empty());
    }

    #[test]
    fn multicast_attaches_relays_to_arriving_copies() {
        let nodes = ClusterSpec::heterogeneous(0, 3);
        let models = vec![ModelSpec::llama2_7b()];
        // Peer-only: every scale-out streams from the ready seed, piling
        // onto its channel.
        let mut w = dist_world(nodes.clone(), models.clone(), DistConfig::peer());
        warm(&mut w, ModelId(0), NodeId(0));
        w.create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        w.create_instance(ModelId(0), NodeId(2), 0, GB)
            .expect("fits");
        assert_eq!(w.metrics.peer_fetches, 2);
        assert_eq!(w.metrics.multicast_relays, 0);
        assert_eq!(w.loads_in_flight(NodeId(0)), 2);

        // Multicast: the second scale-out relays off node 1's still
        // arriving copy instead of doubling up on the seed's channel.
        let mut w = dist_world(nodes, models, DistConfig::full());
        warm(&mut w, ModelId(0), NodeId(0));
        w.create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        w.create_instance(ModelId(0), NodeId(2), 0, GB)
            .expect("fits");
        assert_eq!(w.metrics.peer_fetches, 2);
        assert_eq!(w.metrics.multicast_relays, 1);
        assert_eq!(w.loads_in_flight(NodeId(0)), 1);
        assert_eq!(w.loads_in_flight(NodeId(1)), 1);
    }

    #[test]
    fn source_failure_reroutes_transfer_to_ready_replica() {
        let mut w = dist_world(
            ClusterSpec::heterogeneous(0, 3),
            vec![ModelSpec::llama2_7b()],
            DistConfig::peer(),
        );
        warm(&mut w, ModelId(0), NodeId(0));
        warm(&mut w, ModelId(0), NodeId(2));
        let inst = w
            .create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        // Equal-cost sources tie-break toward the lower node id.
        assert_eq!(w.loads_in_flight(NodeId(0)), 1);
        w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        // The survivor re-sources from node 2's ready copy; the instance
        // itself (on the untouched node 1) lives on.
        assert_eq!(w.metrics.transfer_reroutes, 1);
        assert_eq!(w.loads_in_flight(NodeId(2)), 1);
        assert_eq!(w.loads_in_flight(NodeId(1)), 0);
        assert!(w.instance(inst).is_some());
    }

    #[test]
    fn source_failure_falls_back_to_registry_resume() {
        let mut w = dist_world(
            ClusterSpec::heterogeneous(0, 2),
            vec![ModelSpec::llama2_7b()],
            DistConfig::peer(),
        );
        warm(&mut w, ModelId(0), NodeId(0));
        let inst = w
            .create_instance(ModelId(0), NodeId(1), 0, GB)
            .expect("fits");
        w.apply_cluster_event(&ClusterEvent::NodeFail(NodeId(0)));
        // No ready replica is left anywhere: the remainder resumes from
        // the registry over the destination's own channel.
        assert_eq!(w.metrics.transfer_reroutes, 1);
        assert_eq!(w.loads_in_flight(NodeId(1)), 1);
        assert!(w.instance(inst).is_some());
    }

    #[test]
    fn cache_aware_keepalive_defers_last_warm_copy() {
        let models = vec![ModelSpec::llama2_7b(), ModelSpec::llama2_7b().replica(1)];
        let weights = models[0].weights_bytes();
        let cfg = WorldConfig {
            noise: NoiseModel::off(),
            // DRAM holds exactly one checkpoint and there is no SSD tier:
            // eviction sends a model all the way back to the registry.
            checkpoints: CheckpointConfig::tiered(weights + GB, Some(0)),
            dist: DistConfig::full(),
            ..WorldConfig::default()
        };
        let mut w = World::new(&ClusterSpec::heterogeneous(0, 1), models, cfg);
        let a = w
            .create_instance(ModelId(0), NodeId(0), 0, GB)
            .expect("fits");
        // While the checkpoint is DRAM-cached, reclaiming is cheap: no
        // deferral.
        assert!(!w.keepalive_defer(a));
        // A second model's fetch evicts it from the one-checkpoint DRAM.
        w.create_instance(ModelId(1), NodeId(0), 0, GB)
            .expect("fits");
        assert_eq!(w.checkpoint_dram_models(NodeId(0)), vec![ModelId(1)]);
        // `a` now hosts the fleet's last warm copy: defer, up to the bound.
        assert!(w.keepalive_defer(a));
        assert!(w.keepalive_defer(a));
        assert!(w.keepalive_defer(a));
        assert!(!w.keepalive_defer(a), "defer bound reached");
    }
}
