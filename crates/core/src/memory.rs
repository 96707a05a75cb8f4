//! Hazard-aware memory planning (§VII).
//!
//! Three cooperating pieces:
//!
//! - **Eq. 2** ([`required_bytes`]) — the KV bytes an instance requires
//!   (§VII-A). Every sizing decision SLINFER makes starts from it:
//!   admission, preemption, KV-shortfall recovery, lazy scale-down and a
//!   new instance's first grant.
//! - **Watermark policy** ([`recommend_bytes`], [`should_scale_down`]) —
//!   early scale-up to `M_require · (1 + w)` and lazy scale-down only when
//!   `M_recommend · (1 + w) < M_cur`, damping the ping-pong effect of load
//!   fluctuation (§VII-B).
//! - **[`MemoryPlanner`]** — the optimistic/pessimistic orchestrator of
//!   §VII-C. A scale-up is approved against an optimistic *budget*: the
//!   node's memory minus, for each instance on it, its weights plus the
//!   grant it is heading to. The budget is derived from those planned
//!   grants whenever it is needed, never stored, so it cannot drift from
//!   the node. A scale-down frees budget at *approval* time (so waiting
//!   requests can be admitted against memory that is about to free up),
//!   while the node's physical ledger releases it only at *completion*:
//!   [`cluster::World`] derives that ledger from what each instance holds
//!   ([`engine::instance::Instance::committed_bytes`]), and a shrinking
//!   instance holds its old grant until the rescale completes. Scale-ups
//!   that are approved but do not yet fit physically are parked in a
//!   per-node **reservation station** and re-attempted whenever a
//!   scale-down completes — the paper's Fig. 19 flow.

use std::collections::BTreeMap;

use engine::instance::InstanceId;
use engine::request::RunningRequest;

use cluster::NodeId;

/// Eq. 2 (§VII-A): the KV bytes `C · max(Σ_r (I_r + max(O_r, Ō)), L_min)`
/// an instance holding the `live` requests requires, where `Ō` is the
/// model's mean output length (`mean_output`), `L_min` a floor in tokens
/// (the paper uses the model's maximum context length) and `C` the KV
/// bytes per token. A `candidate` about to join adds its
/// `prefill_len + Ō`.
pub fn required_bytes(
    live: &[RunningRequest],
    candidate: Option<&RunningRequest>,
    mean_output: f64,
    l_min: u32,
    kv_bytes_per_token: u64,
) -> u64 {
    let live_tokens: f64 = live
        .iter()
        .map(|r| r.req.input_len as f64 + (r.tokens_out as f64).max(mean_output))
        .sum();
    let tokens = live_tokens + candidate.map_or(0.0, |c| c.prefill_len() as f64 + mean_output);
    (tokens.max(l_min as f64) * kv_bytes_per_token as f64).ceil() as u64
}

/// `M_recommend = M_require · (1 + w)` (§VII-B).
pub fn recommend_bytes(require_bytes: u64, watermark: f64) -> u64 {
    (require_bytes as f64 * (1.0 + watermark)).ceil() as u64
}

/// Lazy scale-down trigger: only shrink when the recommended size, inflated
/// once more by the watermark, still sits below the current grant.
pub fn should_scale_down(current_bytes: u64, recommend_bytes: u64, watermark: f64) -> bool {
    (recommend_bytes as f64 * (1.0 + watermark)) < current_bytes as f64
}

/// What the planner decided about a requested scale operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Budget approved and physically safe: issue to the engine now.
    Execute,
    /// Budget approved but physically unsafe until some scale-down
    /// completes: parked in the reservation station.
    Reserve,
    /// Budget exhausted: the caller must compromise (§VII-D), consolidate
    /// (§VIII), or reject.
    Reject,
}

/// A parked scale-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingScale {
    /// Instance to rescale.
    pub inst: InstanceId,
    /// Bytes the op adds to the grant it was planned from.
    pub delta: u64,
}

/// Per-node reservation stations (Fig. 19). The optimistic budget the
/// planner approves against is an argument, never a field: the caller
/// derives it from the instances on the node.
#[derive(Debug, Clone, Default)]
pub struct MemoryPlanner {
    stations: BTreeMap<NodeId, Vec<PendingScale>>,
}

impl MemoryPlanner {
    /// Plans a scale of `inst` on node `n` from `from_bytes` to `to_bytes`,
    /// given the node's optimistic `budget` and the *physical* bytes
    /// currently free on it.
    ///
    /// Scale-downs always execute. Scale-ups are approved against the
    /// budget (the optimistic half), then executed or reserved depending
    /// on physical room (the pessimistic half).
    pub fn plan_scale(
        &mut self,
        n: NodeId,
        inst: InstanceId,
        from_bytes: u64,
        to_bytes: u64,
        budget: u64,
        physical_available: u64,
    ) -> ScaleDecision {
        if to_bytes <= from_bytes {
            return ScaleDecision::Execute;
        }
        let delta = to_bytes - from_bytes;
        if delta > budget {
            return ScaleDecision::Reject;
        }
        // FIFO: a scale-up never jumps ahead of parked reservations — the
        // physical bytes freed by completing scale-downs belong to the
        // station's head first (Fig. 19).
        let station = self.stations.entry(n).or_default();
        if delta <= physical_available && station.is_empty() {
            ScaleDecision::Execute
        } else {
            station.push(PendingScale { inst, delta });
            ScaleDecision::Reserve
        }
    }

    /// Pops every reservation that now fits `physical_available`, in FIFO
    /// order, stopping at the first that does not fit (head-of-line order
    /// preserves fairness). Call when a scale-down completes (§VII-C's
    /// notification) with the node's refreshed physical availability.
    pub fn release_reservations(
        &mut self,
        n: NodeId,
        mut physical_available: u64,
    ) -> Vec<PendingScale> {
        let Some(station) = self.stations.get_mut(&n) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while let Some(head) = station.first().copied() {
            if head.delta <= physical_available {
                physical_available -= head.delta;
                station.remove(0);
                out.push(head);
            } else {
                break;
            }
        }
        out
    }

    /// Cancels any reservation held by `inst`.
    pub fn cancel_reservations(&mut self, n: NodeId, inst: InstanceId) {
        if let Some(station) = self.stations.get_mut(&n) {
            station.retain(|p| p.inst != inst);
        }
    }

    /// Reservations currently parked on a node.
    pub fn reservation_count(&self, n: NodeId) -> usize {
        self.stations.get(&n).map_or(0, Vec::len)
    }

    /// Whether `inst` has a parked reservation on node `n`.
    pub fn has_reservation(&self, n: NodeId, inst: InstanceId) -> bool {
        self.stations
            .get(&n)
            .is_some_and(|s| s.iter().any(|p| p.inst == inst))
    }

    /// Discards every reservation parked on a node that stopped taking
    /// work (drain or failure). Idempotent.
    pub fn retire_node(&mut self, n: NodeId) {
        self.stations.remove(&n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::ModelSpec;
    use simcore::time::SimTime;
    use workload::request::{ModelId, Request, RequestId, SloClass};

    const GB: u64 = 1_000_000_000;

    fn rr(id: u64, input: u32, output: u32) -> RunningRequest {
        RunningRequest::new(Request {
            id: RequestId(id),
            model: ModelId(0),
            arrival: SimTime::ZERO,
            input_len: input,
            output_len: output,
            class: SloClass::default(),
            session: Default::default(),
        })
    }

    #[test]
    fn kv_required_follows_equation_two() {
        let c = ModelSpec::llama2_7b().kv_bytes_per_token();
        let bytes = |tokens: f64| (tokens * c as f64).ceil() as u64;
        // No requests: floor applies (L_min = 4096 tokens).
        assert_eq!(required_bytes(&[], None, 200.0, 4096, c), bytes(4096.0));
        // Two requests: Σ (I_r + max(O_r, Ō)) = (1000+200) + (3000+200).
        let mut live = vec![rr(1, 1000, 900), rr(2, 3000, 64)];
        let expect = bytes(1000.0 + 200.0 + 3000.0 + 200.0);
        assert_eq!(required_bytes(&live, None, 200.0, 4096, c), expect);
        // Produced tokens past the mean count in place of it.
        live[0].tokens_out = 500;
        let expect = bytes(1000.0 + 500.0 + 3000.0 + 200.0);
        assert_eq!(required_bytes(&live, None, 200.0, 4096, c), expect);
        // A candidate adds its prefill length plus Ō; after a migration
        // that is its whole context, the tokens it produced included.
        let mut cand = rr(3, 2000, 64);
        cand.tokens_out = 40;
        let expect = bytes(1000.0 + 500.0 + 3000.0 + 200.0 + 2040.0 + 200.0);
        assert_eq!(required_bytes(&live, Some(&cand), 200.0, 4096, c), expect);
        // Alone on a new instance, the candidate still meets the floor.
        assert_eq!(
            required_bytes(&[], Some(&cand), 200.0, 4096, c),
            bytes(4096.0)
        );
    }

    #[test]
    fn watermark_formulas() {
        assert_eq!(recommend_bytes(100, 0.25), 125);
        // Lazy scale-down: shrink only when recommend·(1+w) < current.
        assert!(!should_scale_down(125, 100, 0.25)); // 125 < 125 is false
        assert!(!should_scale_down(125, 110, 0.25));
        assert!(should_scale_down(200, 100, 0.25)); // 125 < 200
                                                    // Zero watermark collapses to exact tracking.
        assert_eq!(recommend_bytes(100, 0.0), 100);
        assert!(should_scale_down(101, 100, 0.0));
    }

    /// The Fig. 18 scenario: three instances at 30% each; A scales down 20%,
    /// B up 20%, C up 10%. Uncoordinated execution would spike to 120%;
    /// the planner approves B and C against the optimistic budget but parks
    /// them until A's release is physically visible.
    #[test]
    fn fig18_hazard_is_serialized() {
        // The budget the scheduler derives: capacity minus each instance's
        // planned grant.
        let budget = |planned: [u64; 3]| 100 - planned.iter().sum::<u64>();
        let mut p = MemoryPlanner::default();
        let n = NodeId(0);
        let (a, b, c) = (InstanceId(1), InstanceId(2), InstanceId(3));
        // 100 - 3×30 bytes are physically free.
        let free = 10;
        // A: down 30 → 10, freeing 20 of budget at approval.
        assert_eq!(
            p.plan_scale(n, a, 30, 10, budget([30, 30, 30]), free),
            ScaleDecision::Execute
        );
        assert_eq!(budget([10, 30, 30]), 30);
        // B: up 30 → 50. Budget fits (delta 20 ≤ 30) but physically only 10
        // free until A completes → reserved.
        assert_eq!(
            p.plan_scale(n, b, 30, 50, budget([10, 30, 30]), free),
            ScaleDecision::Reserve
        );
        // C: up 30 → 40. Budget fits (delta 10 ≤ 10) and 10 bytes are
        // physically free — but B holds the station's head (FIFO), so C
        // queues behind it.
        assert_eq!(
            p.plan_scale(n, c, 30, 40, budget([10, 50, 30]), free),
            ScaleDecision::Reserve
        );
        assert_eq!(budget([10, 50, 40]), 0);
        assert_eq!(p.reservation_count(n), 2);
        // A's scale-down completes: physical free becomes 10 + 20 = 30.
        let runnable = p.release_reservations(n, 30);
        assert_eq!(runnable.len(), 2, "both parked ops now run");
        assert_eq!(runnable[0].inst, b);
        assert_eq!(runnable[1].inst, c);
        assert_eq!(p.reservation_count(n), 0);
    }

    #[test]
    fn budget_exhaustion_rejects() {
        let mut p = MemoryPlanner::default();
        let n = NodeId(0);
        let d = p.plan_scale(n, InstanceId(1), GB, 5 * GB, 2 * GB, 2 * GB);
        assert_eq!(d, ScaleDecision::Reject);
        // A rejected op is not parked.
        assert!(!p.has_reservation(n, InstanceId(1)));
        assert_eq!(p.reservation_count(n), 0);
    }

    #[test]
    fn reservation_fifo_blocks_behind_head() {
        let mut p = MemoryPlanner::default();
        let n = NodeId(0);
        assert_eq!(
            p.plan_scale(n, InstanceId(1), 10, 40, 60, 0),
            ScaleDecision::Reserve
        );
        assert_eq!(
            p.plan_scale(n, InstanceId(2), 10, 15, 30, 0),
            ScaleDecision::Reserve
        );
        // 10 bytes free: head needs 30 → nothing pops, even though the
        // second op (delta 5) would fit.
        assert!(p.release_reservations(n, 10).is_empty());
        // 35 free: both pop.
        assert_eq!(p.release_reservations(n, 35).len(), 2);
    }

    #[test]
    fn cancellation_drops_the_reservation() {
        let mut p = MemoryPlanner::default();
        let n = NodeId(0);
        assert_eq!(
            p.plan_scale(n, InstanceId(7), 10, 40, 50, 0),
            ScaleDecision::Reserve
        );
        assert!(p.has_reservation(n, InstanceId(7)));
        p.cancel_reservations(n, InstanceId(7));
        assert!(!p.has_reservation(n, InstanceId(7)));
        // Nothing is left to pop, however much memory frees up.
        assert!(p.release_reservations(n, u64::MAX).is_empty());
    }
}
