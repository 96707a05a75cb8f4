//! A timing wrapper around any [`Policy`].
//!
//! `Timed<P>` forwards every callback to the wrapped policy and records in a
//! [`Record`], per callback, how often it ran and the wall time it took. The
//! record is borrowed, not owned, because `Simulation::run` consumes the
//! policy. The wrapper only reads the `World` (the cold-start counter, and
//! the slot state after a poke): it draws no randomness and schedules no
//! events, so a wrapped run produces the same outcomes as an unwrapped one.

use std::time::Instant;

use cluster::{ClusterEvent, NodeId, Policy, World};
use engine::instance::InstanceId;
use engine::request::RunningRequest;
use serde::Serialize;
use workload::request::RequestId;

/// Callback names, in the order of [`Record::tally`].
pub const CALLBACKS: [&str; 10] = [
    "on_arrival",
    "on_slot_free",
    "on_timer",
    "on_request_done",
    "on_prefill_done",
    "on_load_done",
    "on_scale_done",
    "on_keepalive",
    "on_alloc_failure",
    "on_node_event",
];

const ARRIVAL: usize = 0;
const SLOT_FREE: usize = 1;
const TIMER: usize = 2;
const REQUEST_DONE: usize = 3;
const PREFILL_DONE: usize = 4;
const LOAD_DONE: usize = 5;
const SCALE_DONE: usize = 6;
const KEEPALIVE: usize = 7;
const ALLOC_FAILURE: usize = 8;
const NODE_EVENT: usize = 9;

/// Count and busy time of one class of calls.
#[derive(Debug, Default, Clone, Copy, Serialize)]
pub struct Tally {
    pub calls: u64,
    pub busy_ns: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.busy_ns += ns;
    }
}

/// What a [`Timed`] wrapper measured over one run.
#[derive(Debug, Default)]
pub struct Record {
    /// Per-callback tallies, indexed like [`CALLBACKS`].
    pub tally: [Tally; 10],
    /// Arrivals during which the run's cold-start counter rose.
    pub arrival_cold: Tally,
    /// Arrivals served by an existing instance or queued.
    pub arrival_warm: Tally,
    /// Slot pokes after which the slot was running an iteration.
    pub useful_pokes: u64,
    /// Per-call durations of `on_arrival`, nanoseconds.
    pub arrival_ns: Vec<u32>,
    /// Per-call durations of `on_slot_free`, nanoseconds.
    pub slot_free_ns: Vec<u32>,
}

pub struct Timed<'a, P> {
    inner: P,
    rec: &'a mut Record,
}

impl<'a, P: Policy> Timed<'a, P> {
    pub fn new(inner: P, rec: &'a mut Record) -> Self {
        Timed { inner, rec }
    }

    /// Runs `f` on the wrapped policy and charges its time to callback `cb`.
    /// Returns the nanoseconds it took.
    fn time(&mut self, cb: usize, f: impl FnOnce(&mut P)) -> u64 {
        let t0 = Instant::now();
        f(&mut self.inner);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.rec.tally[cb].add(ns);
        ns
    }
}

fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

impl<P: Policy> Policy for Timed<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest) {
        let cold_before = w.metrics.cold_starts;
        let ns = self.time(ARRIVAL, |p| p.on_arrival(w, rr));
        if w.metrics.cold_starts > cold_before {
            self.rec.arrival_cold.add(ns);
        } else {
            self.rec.arrival_warm.add(ns);
        }
        self.rec.arrival_ns.push(ns32(ns));
    }

    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize) {
        let ns = self.time(SLOT_FREE, |p| p.on_slot_free(w, node, slot));
        if w.slot_busy(node, slot) {
            self.rec.useful_pokes += 1;
        }
        self.rec.slot_free_ns.push(ns32(ns));
    }

    fn on_load_done(&mut self, w: &mut World, inst: InstanceId) {
        self.time(LOAD_DONE, |p| p.on_load_done(w, inst));
    }

    fn on_scale_done(&mut self, w: &mut World, inst: InstanceId) {
        self.time(SCALE_DONE, |p| p.on_scale_done(w, inst));
    }

    fn on_prefill_done(&mut self, w: &mut World, inst: InstanceId, req: RequestId) {
        self.time(PREFILL_DONE, |p| p.on_prefill_done(w, inst, req));
    }

    fn on_request_done(&mut self, w: &mut World, inst: InstanceId, rr: &RunningRequest) {
        self.time(REQUEST_DONE, |p| p.on_request_done(w, inst, rr));
    }

    fn on_alloc_failure(&mut self, w: &mut World, inst: InstanceId, req: RequestId) {
        self.time(ALLOC_FAILURE, |p| p.on_alloc_failure(w, inst, req));
    }

    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        self.time(KEEPALIVE, |p| p.on_keepalive(w, inst));
    }

    fn on_timer(&mut self, w: &mut World, payload: u64) {
        self.time(TIMER, |p| p.on_timer(w, payload));
    }

    fn on_node_event(&mut self, w: &mut World, ev: &ClusterEvent, displaced: Vec<RunningRequest>) {
        self.time(NODE_EVENT, |p| p.on_node_event(w, ev, displaced));
    }
}
