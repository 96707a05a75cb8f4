//! Per-request execution state.

use serde::{Deserialize, Serialize};
use simcore::time::{SimDuration, SimTime};
use workload::request::{Request, Slo};

/// Lifecycle phase of a request inside an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReqPhase {
    /// Admitted; prefill has not run yet.
    Waiting,
    /// Prefill iteration currently executing.
    Prefilling,
    /// In the continuous batch, producing one token per decode iteration.
    Decoding,
    /// All output tokens produced.
    Finished,
}

/// A request bound to an instance, with its SLO clock.
///
/// The SLO clock starts at *arrival* (queueing counts against TTFT), plus a
/// grace window for cold starts: the paper relaxes TTFT by the cold-start
/// duration for requests that triggered a load (§IX-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunningRequest {
    /// The underlying workload request.
    pub req: Request,
    /// Current phase.
    pub phase: ReqPhase,
    /// Output tokens produced so far (the first comes from prefill).
    pub tokens_out: u32,
    /// Cold-start grace added to every deadline (§IX-A fairness rule).
    pub grace: SimDuration,
    /// KV blocks currently held in the instance pool.
    pub kv_blocks: u64,
}

impl RunningRequest {
    /// Wraps an arriving request.
    pub fn new(req: Request) -> Self {
        RunningRequest {
            req,
            phase: ReqPhase::Waiting,
            tokens_out: 0,
            grace: SimDuration::ZERO,
            kv_blocks: 0,
        }
    }

    /// Context tokens currently in the KV cache once decoding
    /// (prompt + produced tokens).
    pub fn context_tokens(&self) -> u32 {
        self.req.input_len + self.tokens_out
    }

    /// True once every output token has been produced.
    pub fn is_finished(&self) -> bool {
        self.tokens_out >= self.req.output_len
    }

    /// Absolute deadline of the *next* token under `slo`, including the
    /// cold-start grace.
    pub fn next_deadline(&self, slo: &Slo) -> SimTime {
        slo.token_deadline(
            self.req.arrival + self.grace,
            self.req.input_len,
            self.tokens_out,
        )
    }

    /// Headroom (Eq. 1) at `now`: seconds until the next-token deadline.
    pub fn headroom(&self, now: SimTime, slo: &Slo) -> f64 {
        self.next_deadline(slo).signed_secs_since(now)
    }

    /// Prefill length this request needs. After a migration the *entire
    /// context* (prompt + already-produced tokens) must be recomputed on the
    /// new instance.
    pub fn prefill_len(&self) -> u32 {
        self.context_tokens().max(1)
    }

    /// Marks the request as migrated (§VII-D eviction and §VIII-A
    /// preemption both re-prefill elsewhere): KV is dropped, phase returns
    /// to waiting, and the produced-token count is retained (users already
    /// streamed those tokens; only the cache must be rebuilt).
    pub fn begin_migration(&mut self) {
        self.phase = ReqPhase::Waiting;
        self.kv_blocks = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::request::{ModelId, RequestId, SloClass};

    fn req(input: u32, output: u32) -> RunningRequest {
        RunningRequest::new(Request {
            id: RequestId(1),
            model: ModelId(0),
            arrival: SimTime::from_secs(100),
            input_len: input,
            output_len: output,
            class: SloClass::default(),
            session: Default::default(),
        })
    }

    #[test]
    fn lifecycle_counters() {
        let mut r = req(1024, 3);
        assert_eq!(r.context_tokens(), 1024);
        assert!(!r.is_finished());
        r.tokens_out = 3;
        assert!(r.is_finished());
        assert_eq!(r.context_tokens(), 1027);
    }

    #[test]
    fn deadline_includes_grace() {
        let slo = Slo::paper();
        let mut r = req(1024, 10);
        // TTFT SLO = 2 s; first-token deadline at 102 s.
        assert_eq!(r.next_deadline(&slo), SimTime::from_secs(102));
        r.grace = SimDuration::from_secs(1);
        assert_eq!(r.next_deadline(&slo), SimTime::from_secs(103));
        r.tokens_out = 4;
        // + 4 × 0.25 s.
        assert_eq!(r.next_deadline(&slo), SimTime::from_secs(104));
    }

    #[test]
    fn headroom_sign() {
        let slo = Slo::paper();
        let r = req(1024, 10);
        assert!(r.headroom(SimTime::from_secs(101), &slo) > 0.0);
        assert!(r.headroom(SimTime::from_secs(103), &slo) < 0.0);
    }

    #[test]
    fn migration_rebuilds_context() {
        let mut r = req(100, 50);
        r.tokens_out = 20;
        r.phase = ReqPhase::Decoding;
        r.kv_blocks = 8;
        r.begin_migration();
        assert_eq!(r.phase, ReqPhase::Waiting);
        assert_eq!(r.kv_blocks, 0);
        // Re-prefill must cover prompt + the 20 already-produced tokens.
        assert_eq!(r.prefill_len(), 120);
        assert_eq!(r.tokens_out, 20, "streamed tokens are not re-produced");
    }
}
