//! The scheduling-policy callback surface, and the request-lifecycle
//! mechanics every policy shares.
//!
//! SLINFER and every baseline implement [`Policy`]. The driver invokes the
//! callbacks as events fire; policies act exclusively through the
//! [`World`] API. Policies own their admission queues —
//! the driver never queues requests itself (systems differ precisely in how
//! they queue, §III-C).
//!
//! The paper's systems differ in placement and scheduling only. The
//! mechanics around those decisions are the same for all of them, so
//! each has one implementation here:
//!
//! - [`Backlog`] — the admission queue. A request no instance can take
//!   waits with one drop timer, and is dropped once its TTFT SLO expires
//!   (§IX-A). Each policy still owns its retry pass over the queue
//!   ([`Backlog::take_live`], then [`Backlog::requeue`] what stays
//!   unplaced), because that pass is where the systems really differ.
//! - [`Handoffs`] — the KV transfer of prefill–decode disaggregation
//!   (§IX-G): a prefilled request ships over the 100 Gbps link, and
//!   retries decode placement every 100 ms until 10 s past its deadline.
//! - [`evict_most_headroom`] — the way out of a KV allocation failure:
//!   evict the request with the most slack and re-place it (vLLM's
//!   preempt-and-recompute).

use std::collections::{BTreeMap, BTreeSet};

use engine::instance::{Instance, InstanceId};
use engine::request::{ReqPhase, RunningRequest};
use simcore::time::SimDuration;
use workload::request::RequestId;

use crate::node::NodeId;
use crate::world::{ClusterEvent, World};

/// Timer-payload tag of a [`Handoffs`] arrival. A drop timer's payload is
/// the bare request id, and policies tag their own timers below this bit.
const TAG_HANDOFF: u64 = 1 << 63;

/// Back-off between decode-placement attempts of a handed-off request.
const HANDOFF_RETRY: SimDuration = SimDuration::from_millis(100);

/// How far past its next-token deadline a handed-off request keeps
/// retrying before it is dropped.
const HANDOFF_GIVE_UP: SimDuration = SimDuration::from_secs(10);

/// A serving system under test.
pub trait Policy {
    /// Display name for experiment tables (e.g. `"sllm+c+s"`).
    fn name(&self) -> &str;

    /// A request has arrived. The policy must eventually admit it to an
    /// instance, queue it, or [`World::drop_request`] it.
    fn on_arrival(&mut self, w: &mut World, rr: RunningRequest);

    /// A slot became free (or received new work while free). The policy may
    /// start at most one iteration on it via [`World::start_iteration`].
    fn on_slot_free(&mut self, w: &mut World, node: NodeId, slot: usize);

    /// An instance finished its cold start.
    fn on_load_done(&mut self, _w: &mut World, _inst: InstanceId) {}

    /// A KV rescale completed (scale-downs have now released their memory —
    /// the reservation-station notification point of §VII-C).
    fn on_scale_done(&mut self, _w: &mut World, _inst: InstanceId) {}

    /// A request produced its first token (prefill finished). PD policies
    /// hand the request off to a decode instance here (§IX-G).
    fn on_prefill_done(&mut self, _w: &mut World, _inst: InstanceId, _req: RequestId) {}

    /// A request completed all its output tokens.
    fn on_request_done(&mut self, _w: &mut World, _inst: InstanceId, _rr: &RunningRequest) {}

    /// A decoding request could not obtain a KV block (memory
    /// underestimation, §VII-D). The policy must resolve it (scale up, evict,
    /// or migrate) or the request will stall forever.
    fn on_alloc_failure(&mut self, _w: &mut World, _inst: InstanceId, _req: RequestId) {}

    /// An instance has been idle for the keep-alive threshold. The default
    /// reclaims it.
    fn on_keepalive(&mut self, w: &mut World, inst: InstanceId) {
        if w.instance(inst).is_some_and(Instance::is_idle) {
            w.unload_instance(inst);
        }
    }

    /// A timer set via [`World::set_timer`] fired.
    fn on_timer(&mut self, _w: &mut World, _payload: u64) {}

    /// A cluster-lifecycle event was applied (node drain/fail/join).
    /// `displaced` holds the requests evicted from unloaded or lost
    /// instances, already reset for migration (they must re-prefill).
    ///
    /// The default re-offers every displaced request through
    /// [`Policy::on_arrival`], which gives baselines a sane
    /// evict-and-requeue behavior without policy-specific state; policies
    /// with internal placement state (parked scale-ops, reservation stations)
    /// should override this, clean up, and then re-place.
    fn on_node_event(&mut self, w: &mut World, _ev: &ClusterEvent, displaced: Vec<RunningRequest>) {
        for rr in displaced {
            self.on_arrival(w, rr);
        }
    }
}

/// Requests waiting for placement, in FIFO order, each with one drop timer
/// at its next-token deadline (§IX-A).
#[derive(Debug, Default)]
pub struct Backlog {
    queue: Vec<RunningRequest>,
    timers: BTreeSet<RequestId>,
}

impl Backlog {
    /// Queues `rr`, or drops it if its deadline has already passed. The
    /// first push of a request arms its drop timer; a request pushed again
    /// (after an eviction, say) keeps that one timer.
    pub fn push(&mut self, w: &mut World, rr: RunningRequest) {
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

    /// Empties the queue for a retry pass: drops every expired request and
    /// returns the live ones in FIFO order. The pass hands each request it
    /// cannot place back through [`Backlog::requeue`].
    pub fn take_live(&mut self, w: &mut World) -> Vec<RunningRequest> {
        let mut live = std::mem::take(&mut self.queue);
        live.retain(|rr| {
            let gone = expired(w, rr);
            if gone {
                w.drop_request(rr);
            }
            !gone
        });
        live
    }

    /// Puts back a request that a retry pass could not place. Its drop
    /// timer is already armed.
    pub fn requeue(&mut self, rr: RunningRequest) {
        self.queue.push(rr);
    }

    /// Handles request `id`'s drop timer: if the request is still queued
    /// and past its deadline, drops it in place, keeping the others' order.
    pub fn expire(&mut self, w: &mut World, id: RequestId) {
        self.timers.remove(&id);
        let due = self
            .queue
            .iter()
            .position(|rr| rr.req.id == id && expired(w, rr));
        if let Some(pos) = due {
            w.drop_request(&self.queue.remove(pos));
        }
    }
}

/// True once `rr` is past its next-token deadline.
fn expired(w: &World, rr: &RunningRequest) -> bool {
    w.now() >= rr.next_deadline(&w.slo_for(&rr.req))
}

/// Prefilled requests in flight to a decode instance (§IX-G).
///
/// [`Handoffs::ship`] frees the request's KV on the prefill instance and
/// arms a timer for when the KV arrives over the 100 Gbps link. The policy
/// routes that timer back through [`Handoffs::arrive`], tries its own
/// decode placement, and hands a failure to [`Handoffs::retry`].
#[derive(Debug, Default)]
pub struct Handoffs {
    in_flight: BTreeMap<u64, RunningRequest>,
}

impl Handoffs {
    /// Ships request `req`, just prefilled on `inst`, to the decode pool.
    /// The prefill instance gets its keep-alive re-armed, since it may now
    /// be idle.
    ///
    /// # Panics
    /// Panics if `inst` does not exist or `req` is not decoding on it;
    /// `Policy::on_prefill_done` names both.
    pub fn ship(&mut self, w: &mut World, inst: InstanceId, req: RequestId) {
        let now = w.now();
        let rr = w
            .instance_mut(inst)
            // detlint::allow(D005, "documented # Panics contract: on_prefill_done names a live instance")
            .expect("prefill instance exists")
            .remove_for_handoff(req, now);
        w.schedule_keepalive(inst);
        let delay = w.kv_transfer_delay(rr.req.model, rr.context_tokens());
        self.in_flight.insert(req.0, rr);
        w.set_timer(delay, TAG_HANDOFF | req.0);
    }

    /// True when a timer payload is a handoff arrival.
    pub fn is_timer(payload: u64) -> bool {
        payload & TAG_HANDOFF != 0
    }

    /// The request whose KV arrives with handoff timer `payload`, or
    /// `None` if it is no longer in flight.
    pub fn arrive(&mut self, payload: u64) -> Option<RunningRequest> {
        self.in_flight.remove(&(payload & !TAG_HANDOFF))
    }

    /// Handles a request no decode instance could take: tries again in
    /// 100 ms, or drops it once it is 10 s past its next-token deadline.
    pub fn retry(&mut self, w: &mut World, rr: RunningRequest) {
        if w.now() > rr.next_deadline(&w.slo_for(&rr.req)) + HANDOFF_GIVE_UP {
            w.drop_request(&rr);
            return;
        }
        let key = rr.req.id.0;
        self.in_flight.insert(key, rr);
        w.set_timer(HANDOFF_RETRY, TAG_HANDOFF | key);
    }
}

/// Evicts the request with the most headroom from `inst`, whose KV grant
/// ran out, and counts it as one migration. The request leaves with its KV
/// freed and must re-prefill; the caller re-places or queues it. Returns
/// `None` when `inst` is gone or holds only requests mid-prefill, which
/// cannot move.
pub fn evict_most_headroom(w: &mut World, inst: InstanceId) -> Option<RunningRequest> {
    let now = w.now();
    let victim = w
        .instance(inst)?
        .requests()
        .iter()
        .filter(|r| !matches!(r.phase, ReqPhase::Prefilling))
        .max_by(|a, b| {
            // total_cmp: identical to partial_cmp on the non-NaN headrooms
            // this sees, but can never panic mid-run.
            a.headroom(now, &w.slo_for(&a.req))
                .total_cmp(&b.headroom(now, &w.slo_for(&b.req)))
        })?
        .req
        .id;
    let moved = w.instance_mut(inst)?.remove_for_migration(victim, now);
    w.note_migration(&[victim]);
    Some(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RunMetrics;
    use crate::node::ClusterSpec;
    use crate::world::{Event, WorldConfig};
    use hwmodel::ModelSpec;
    use simcore::time::SimTime;
    use workload::request::{ModelId, Request};

    /// One GPU node serving a 7B model, and request `i` arriving at
    /// `arrivals_ms[i]`.
    fn world(arrivals_ms: &[u64]) -> (World, Vec<RunningRequest>) {
        let reqs: Vec<Request> = (0..arrivals_ms.len())
            .map(|i| Request {
                id: RequestId(i as u64),
                model: ModelId(0),
                arrival: SimTime::from_millis(arrivals_ms[i]),
                input_len: 256,
                output_len: 8,
                class: Default::default(),
                session: Default::default(),
            })
            .collect();
        let models = vec![ModelSpec::llama2_7b()];
        let mut w = World::new(
            &ClusterSpec::heterogeneous(0, 1),
            models,
            WorldConfig::default(),
        );
        w.metrics = RunMetrics::for_trace(&reqs);
        (w, reqs.into_iter().map(RunningRequest::new).collect())
    }

    fn deadline(w: &World, rr: &RunningRequest) -> SimTime {
        rr.next_deadline(&w.slo_for(&rr.req))
    }

    /// Drains the event queue, returning each timer's (time, payload).
    fn timers(w: &mut World) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| w.events.pop())
            .filter_map(|(t, ev)| match ev {
                Event::Timer(payload) => Some((t, payload)),
                _ => None,
            })
            .collect()
    }

    fn ids(rrs: &[RunningRequest]) -> Vec<u64> {
        rrs.iter().map(|rr| rr.req.id.0).collect()
    }

    fn dropped(w: &World) -> Vec<bool> {
        w.metrics.records.iter().map(|r| r.dropped).collect()
    }

    #[test]
    fn expire_drops_only_the_expired_request_in_place() {
        // Requests 0 and 2 share a deadline; request 1's is 1 s later.
        let (mut w, rrs) = world(&[0, 1000, 0]);
        let mut b = Backlog::default();
        for rr in &rrs {
            b.push(&mut w, rr.clone());
        }
        w.set_now(deadline(&w, &rrs[0]));
        b.expire(&mut w, RequestId(2));
        b.expire(&mut w, RequestId(1)); // not due yet
        assert_eq!(ids(&b.queue), [0, 1]);
        assert_eq!(dropped(&w), [false, false, true]);
    }

    #[test]
    fn a_repushed_request_keeps_its_one_timer() {
        let (mut w, rrs) = world(&[0, 1000]);
        let mut b = Backlog::default();
        b.push(&mut w, rrs[0].clone());
        // Taken by a retry pass, placed, then evicted back to the queue.
        assert_eq!(ids(&b.take_live(&mut w)), [0]);
        b.push(&mut w, rrs[0].clone());
        b.push(&mut w, rrs[1].clone());
        let (d0, d1) = (deadline(&w, &rrs[0]), deadline(&w, &rrs[1]));
        assert_eq!(timers(&mut w), [(d0, 0), (d1, 1)]);
        // Once its timer has fired, a request pushed again gets a new one.
        b.expire(&mut w, RequestId(1));
        b.take_live(&mut w);
        b.push(&mut w, rrs[1].clone());
        assert_eq!(timers(&mut w), [(d1, 1)]);
    }

    #[test]
    fn push_and_take_live_drop_what_has_expired() {
        let (mut w, rrs) = world(&[0, 1000, 0, 2000]);
        let mut b = Backlog::default();
        for rr in &rrs[..3] {
            b.push(&mut w, rr.clone());
        }
        w.set_now(deadline(&w, &rrs[0]));
        assert_eq!(ids(&b.take_live(&mut w)), [1]);
        assert!(b.queue.is_empty());
        assert_eq!(dropped(&w), [true, false, true, false]);
        w.set_now(deadline(&w, &rrs[3]));
        b.push(&mut w, rrs[3].clone());
        assert!(b.queue.is_empty());
        assert_eq!(dropped(&w), [true, false, true, true]);
    }

    #[test]
    fn handoff_retries_every_100ms_until_10s_past_the_deadline() {
        let (mut w, rrs) = world(&[0]);
        let mut h = Handoffs::default();
        let give_up = deadline(&w, &rrs[0]) + SimDuration::from_secs(10);
        w.set_now(give_up);
        h.retry(&mut w, rrs[0].clone());
        let [(at, payload)] = timers(&mut w)[..] else {
            panic!("one retry timer")
        };
        assert_eq!(at, give_up + SimDuration::from_millis(100));
        assert!(Handoffs::is_timer(payload) && !Handoffs::is_timer(0));
        let rr = h.arrive(payload).expect("in flight");
        w.set_now(give_up + SimDuration::from_millis(1));
        h.retry(&mut w, rr);
        assert!(timers(&mut w).is_empty() && h.arrive(payload).is_none());
        assert_eq!(dropped(&w), [true]);
    }

    #[test]
    fn eviction_takes_the_request_with_most_headroom() {
        let (mut w, rrs) = world(&[0, 1500, 500]);
        let inst = w
            .create_instance(ModelId(0), NodeId(0), 0, 4_000_000_000)
            .expect("fits");
        for rr in rrs {
            w.admit(inst, rr);
        }
        let moved = evict_most_headroom(&mut w, inst).expect("a victim");
        assert_eq!(moved.req.id, RequestId(1));
        assert_eq!(
            (w.metrics.migrations, w.metrics.records[1].migrations),
            (1, 1)
        );
        assert_eq!(ids(w.instance(inst).expect("live").requests()), [0, 2]);
        assert!(evict_most_headroom(&mut w, InstanceId(99)).is_none());
    }
}
