//! Composable run construction: the [`Scenario`] builder.
//!
//! A simulation run has four independent axes, and every experiment used to
//! wire them together by hand (`cluster` + `models` + `WorldConfig` +
//! `trace` threaded through ad-hoc plumbing). `Scenario` names the axes and
//! composes them:
//!
//! - **fleet** — the [`ClusterSpec`] and model registry the run starts on;
//! - **workload** — one or more [`Trace`] segments, each optionally bound
//!   to an [`SloClass`] (interactive, relaxed, ...) and interleaved by
//!   arrival time into one request stream;
//! - **environment** — a timed [`ClusterEvent`] schedule (node drains,
//!   failures, joins) injected through the deterministic event loop;
//! - **system** — the [`Policy`] the run is handed to ([`Scenario::run`]);
//!   the `bench` crate's `System` enum dispatches here.
//!
//! A scenario with one untagged segment and no events reduces *exactly* to
//! `Simulation::new(..).run(&trace)`: the merge is the identity on a single
//! segment and the event schedule is empty, so the paper's stock
//! experiments replay byte-identically through this API.

use hwmodel::ModelSpec;
use simcore::time::SimTime;
use workload::request::{Slo, SloClass, Trace};

use crate::driver::Simulation;
use crate::metrics::RunMetrics;
use crate::node::{ClusterSpec, NodeId};
use crate::policy::Policy;
use crate::world::{ClusterEvent, WorldConfig};

/// A declarative description of one simulation run. See module docs.
///
/// ```
/// use cluster::{ClusterSpec, Scenario};
/// use simcore::time::SimTime;
/// use workload::request::Slo;
/// use workload::serverless::TraceSpec;
///
/// let models = vec![hwmodel::ModelSpec::llama2_7b()];
/// let mut sc = Scenario::new(ClusterSpec::heterogeneous(1, 1), models);
/// let relaxed = sc.slo_class(Slo::relaxed());
/// let sc = sc
///     .seed(7)
///     .workload(TraceSpec::azure_like(1, 7).with_load_scale(0.1).generate())
///     .classed_workload(
///         TraceSpec::azure_like(1, 8).with_load_scale(0.1).generate(),
///         relaxed,
///     )
///     .drain_at(SimTime::from_secs(600), cluster::NodeId(1));
/// let trace = sc.merged_trace();
/// assert!(trace.requests.iter().any(|r| r.class == relaxed));
/// ```
pub struct Scenario {
    cluster: ClusterSpec,
    models: Vec<ModelSpec>,
    cfg: WorldConfig,
    segments: Vec<Trace>,
    events: Vec<(SimTime, ClusterEvent)>,
}

impl Scenario {
    /// Starts a scenario on the given fleet hosting `models`
    /// (`ModelId(i)` ↦ `models[i]`), with a default [`WorldConfig`].
    pub fn new(cluster: ClusterSpec, models: Vec<ModelSpec>) -> Self {
        Scenario {
            cluster,
            models,
            cfg: WorldConfig::default(),
            segments: Vec::new(),
            events: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // System-parameter axis
    // ------------------------------------------------------------------

    /// Replaces the world configuration (seed, default SLO, noise, ...).
    /// Class SLOs already registered via [`Scenario::slo_class`] are
    /// carried over.
    ///
    /// # Panics
    /// Panics if classes were registered *and* the incoming config carries
    /// its own `class_slos`: the registered [`SloClass`] handles index the
    /// builder's table, so silently merging the two would rebind them to
    /// unrelated SLOs. Register classes on one side only.
    pub fn config(mut self, cfg: WorldConfig) -> Self {
        let classes = std::mem::take(&mut self.cfg.class_slos);
        self.cfg = cfg;
        if classes.is_empty() {
            return self;
        }
        assert!(
            self.cfg.class_slos.is_empty(),
            "config() would clobber {} registered SLO class(es): register classes \
             via Scenario::slo_class or supply them in WorldConfig, not both",
            classes.len()
        );
        self.cfg.class_slos = classes;
        self
    }

    /// Sets the root seed (shorthand for patching the config).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the checkpoint storage hierarchy (shorthand for patching the
    /// config): per-node DRAM/SSD cache capacities; a bounded DRAM tier
    /// also brings loading contention and HBM hits. The default is the
    /// flat legacy loader.
    pub fn checkpoints(mut self, ckpt: crate::checkpoint::CheckpointConfig) -> Self {
        self.cfg.checkpoints = ckpt;
        self
    }

    /// Sets the cross-node checkpoint distribution mode (shorthand for
    /// patching the config): peer fetch, multicast relays, cache-aware
    /// eviction/keep-alive. The default is [`crate::dist::DistConfig::off`].
    pub fn dist(mut self, dist: crate::dist::DistConfig) -> Self {
        self.cfg.dist = dist;
        self
    }

    /// Sets the multi-turn session prefix-reuse mode (shorthand for
    /// patching the config): parked per-session KV, affinity routing,
    /// priced KV migration. The default is [`crate::SessionConfig::off`].
    pub fn sessions(mut self, sessions: crate::sessions::SessionConfig) -> Self {
        self.cfg.sessions = sessions;
        self
    }

    // ------------------------------------------------------------------
    // Workload axis
    // ------------------------------------------------------------------

    /// Registers a service class with its own SLO and returns its id;
    /// pass it to [`Scenario::classed_workload`]. Class 0 is always the
    /// config's default SLO and needs no registration.
    pub fn slo_class(&mut self, slo: Slo) -> SloClass {
        self.cfg.class_slos.push(slo);
        SloClass(self.cfg.class_slos.len() as u16)
    }

    /// Adds a workload segment under the default SLO class, keeping any
    /// class tags the trace already carries.
    pub fn workload(mut self, trace: Trace) -> Self {
        self.segments.push(trace);
        self
    }

    /// Adds a workload segment with every request bound to `class`.
    pub fn classed_workload(mut self, trace: Trace, class: SloClass) -> Self {
        self.segments.push(trace.with_class(class));
        self
    }

    // ------------------------------------------------------------------
    // Environment axis
    // ------------------------------------------------------------------

    /// Schedules a cluster-lifecycle event at absolute simulated time `at`.
    pub fn event(mut self, at: SimTime, ev: ClusterEvent) -> Self {
        self.events.push((at, ev));
        self
    }

    /// Schedules a graceful node drain.
    pub fn drain_at(self, at: SimTime, node: NodeId) -> Self {
        self.event(at, ClusterEvent::NodeDrain(node))
    }

    /// Schedules a hard node failure.
    pub fn fail_at(self, at: SimTime, node: NodeId) -> Self {
        self.event(at, ClusterEvent::NodeFail(node))
    }

    // ------------------------------------------------------------------
    // Inspection and execution
    // ------------------------------------------------------------------

    /// The fleet this scenario starts on.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The model registry.
    pub fn models(&self) -> &[ModelSpec] {
        &self.models
    }

    /// The world configuration (including the class-SLO table).
    pub fn cfg(&self) -> &WorldConfig {
        &self.cfg
    }

    /// The scheduled environment events, in registration order.
    pub fn events(&self) -> &[(SimTime, ClusterEvent)] {
        &self.events
    }

    /// The merged workload this scenario will replay (segments interleaved
    /// by arrival, ids renumbered densely; a single segment is passed
    /// through untouched).
    pub fn merged_trace(&self) -> Trace {
        Trace::merge(self.segments.clone())
    }

    /// Runs the scenario under `policy` (the system axis) and returns its
    /// metrics, per-SLO-class attainment included.
    ///
    /// # Panics
    /// Panics if no workload segment was added, the cluster spec is
    /// invalid, or the model registry is empty.
    pub fn run<P: Policy>(self, policy: P) -> RunMetrics {
        assert!(
            !self.segments.is_empty(),
            "scenario needs at least one workload segment"
        );
        let trace = Trace::merge(self.segments);
        let mut sim = Simulation::new(&self.cluster, self.models, self.cfg, policy);
        for (at, ev) in self.events {
            sim.world.push_cluster_event(at, ev);
        }
        sim.run(&trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use crate::world::NodeHealth;
    use engine::instance::InstanceId;
    use engine::request::RunningRequest;
    use simcore::time::SimDuration;
    use workload::request::{ModelId, Request, RequestId};

    /// The driver-test Greedy policy, re-stated: one instance on node 0.
    struct Greedy {
        inst: Option<InstanceId>,
    }

    impl Policy for Greedy {
        fn name(&self) -> &str {
            "greedy-scenario-test"
        }

        fn on_arrival(&mut self, w: &mut crate::World, rr: RunningRequest) {
            let inst = match self.inst {
                Some(i) if w.instance(i).is_some() => i,
                _ => {
                    let target = w
                        .node_ids()
                        .find(|&n| w.node_schedulable(n))
                        .expect("a schedulable node");
                    let id = w
                        .create_instance(rr.req.model, target, 0, 8_000_000_000)
                        .expect("fits");
                    self.inst = Some(id);
                    id
                }
            };
            w.admit(inst, rr);
        }

        fn on_slot_free(&mut self, w: &mut crate::World, node: NodeId, slot: usize) {
            let now = w.now();
            let slo = w.slo();
            let next = w.slot_instances(node, slot).iter().find_map(|&inst| {
                let i = w.instance(inst).filter(|i| i.has_work())?;
                Some((inst, i.most_urgent(now, &slo)?.1))
            });
            if let Some((inst, kind)) = next {
                let _ = w.start_iteration(inst, kind);
            }
        }
    }

    fn segment(ids: std::ops::Range<u64>, start_s: u64, class: SloClass) -> Trace {
        let reqs = ids
            .clone()
            .map(|i| Request {
                id: RequestId(i - ids.start),
                model: ModelId(0),
                arrival: SimTime::from_secs(start_s + 2 * (i - ids.start)),
                input_len: 128,
                output_len: 2,
                class,
                session: Default::default(),
            })
            .collect();
        Trace::new(reqs, 1, SimDuration::from_secs(60))
    }

    #[test]
    fn single_segment_passes_through_unchanged() {
        let t = segment(0..5, 0, SloClass::DEFAULT);
        let sc = Scenario::new(ClusterSpec::heterogeneous(0, 1), vec![]).workload(t.clone());
        let merged = sc.merged_trace();
        assert_eq!(
            format!("{:?}", merged.requests),
            format!("{:?}", t.requests)
        );
    }

    #[test]
    fn segments_interleave_and_renumber() {
        let mut sc = Scenario::new(ClusterSpec::heterogeneous(0, 1), vec![]);
        let relaxed = sc.slo_class(Slo::relaxed());
        let sc = sc
            .workload(segment(0..3, 0, SloClass::DEFAULT))
            .classed_workload(segment(0..3, 1, SloClass::DEFAULT), relaxed);
        let merged = sc.merged_trace();
        assert_eq!(merged.len(), 6);
        // Dense ids in arrival order; classes preserved through the merge.
        for (i, r) in merged.requests.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i);
        }
        let classes: Vec<u16> = merged.requests.iter().map(|r| r.class.0).collect();
        assert_eq!(classes, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn class_table_resolves_in_world() {
        let mut sc = Scenario::new(
            ClusterSpec::heterogeneous(0, 1),
            vec![hwmodel::ModelSpec::llama2_7b()],
        );
        let relaxed = sc.slo_class(Slo::relaxed());
        let sc = sc.classed_workload(segment(0..2, 0, SloClass::DEFAULT), relaxed);
        assert_eq!(sc.cfg().class_slos.len(), 1);
        let m = sc.run(Greedy { inst: None });
        assert_eq!(m.total(), 2);
        assert_eq!(m.classes(), vec![relaxed]);
        let (met, total) = m.class_counts(relaxed);
        assert_eq!(total, 2);
        assert!(met <= 2);
    }

    #[test]
    fn config_keeps_registered_classes() {
        let mut sc = Scenario::new(ClusterSpec::heterogeneous(0, 1), vec![]);
        let c = sc.slo_class(Slo::tight());
        let sc = sc.config(WorldConfig {
            seed: 9,
            ..WorldConfig::default()
        });
        assert_eq!(sc.cfg().seed, 9);
        assert_eq!(sc.cfg().class_slos.len(), usize::from(c.0));
    }

    #[test]
    fn node_fail_recovers_onto_survivor() {
        // Two GPU nodes; node 0 fails mid-run. Greedy re-creates its
        // instance on the survivor and the remaining requests complete.
        let sc = Scenario::new(
            ClusterSpec::heterogeneous(0, 2),
            vec![hwmodel::ModelSpec::llama2_7b()],
        )
        .workload(segment(0..8, 0, SloClass::DEFAULT))
        .fail_at(SimTime::from_millis(4_500), NodeId(0));
        let m = sc.run(Greedy { inst: None });
        assert_eq!(m.node_failures, 1);
        assert!(m.cold_starts >= 2, "a replacement instance must start");
        let done = m.records.iter().filter(|r| r.completed.is_some()).count();
        assert!(done >= 6, "late requests must finish elsewhere: {done}");
    }

    #[test]
    fn node_drain_unloads_and_reroutes() {
        let sc = Scenario::new(
            ClusterSpec::heterogeneous(0, 2),
            vec![hwmodel::ModelSpec::llama2_7b()],
        )
        .workload(segment(0..8, 0, SloClass::DEFAULT))
        .drain_at(SimTime::from_millis(4_500), NodeId(0));
        let m = sc.run(Greedy { inst: None });
        assert_eq!(m.node_drains, 1);
        assert!(
            m.records.iter().all(|r| r.completed.is_some()),
            "drain must not lose requests"
        );
    }

    #[test]
    fn node_join_becomes_schedulable() {
        let spec = NodeSpec::whole(hwmodel::HardwareSpec::a100_80g());
        let mut sim = Simulation::new(
            &ClusterSpec::heterogeneous(0, 1),
            vec![hwmodel::ModelSpec::llama2_7b()],
            WorldConfig::default(),
            Greedy { inst: None },
        );
        sim.world
            .push_cluster_event(SimTime::from_secs(1), ClusterEvent::NodeJoin(spec));
        let t = segment(0..3, 0, SloClass::DEFAULT);
        let m = sim.run(&t);
        assert_eq!(m.node_joins, 1);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn drained_node_refuses_placement() {
        let mut sim = Simulation::new(
            &ClusterSpec::heterogeneous(0, 1),
            vec![hwmodel::ModelSpec::llama2_7b()],
            WorldConfig::default(),
            Greedy { inst: None },
        );
        sim.world
            .push_cluster_event(SimTime::ZERO, ClusterEvent::NodeDrain(NodeId(0)));
        let w = &mut sim.world;
        w.push_cluster_event(SimTime::ZERO, ClusterEvent::NodeDrain(NodeId(0)));
        let displaced = w.apply_cluster_event(&ClusterEvent::NodeDrain(NodeId(0)));
        assert!(displaced.is_empty());
        assert_eq!(w.node_health(NodeId(0)), NodeHealth::Draining);
        assert!(!w.node_schedulable(NodeId(0)));
        let err = w
            .create_instance(ModelId(0), NodeId(0), 0, 1_000_000)
            .unwrap_err();
        assert!(matches!(err, crate::MemError::NodeUnavailable(_)));
    }

    #[test]
    #[should_panic(expected = "at least one workload segment")]
    fn empty_scenario_panics() {
        let _ = Scenario::new(
            ClusterSpec::heterogeneous(0, 1),
            vec![hwmodel::ModelSpec::llama2_7b()],
        )
        .run(Greedy { inst: None });
    }
}
