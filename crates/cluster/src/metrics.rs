//! Run metrics: per-request SLO records plus cluster-level time series.
//!
//! Everything the paper's evaluation plots is derived from this structure:
//! SLO-met request counts and TTFT CDFs (Fig. 22), average nodes used and
//! per-node decode speed (Fig. 22), memory-utilization and batch-size CDFs
//! (Figs. 5 and 25), GPU-usage timelines (Fig. 23), scaling overhead
//! (Fig. 31), and OOM/preemption/migration counters.

use hwmodel::HardwareKind;
use serde::{Deserialize, Serialize};
use simcore::stats::{Summary, TimeWeighted};
use simcore::time::{SimDuration, SimTime};
use workload::request::{ModelId, Request, RequestId, SessionTag, Slo, SloClass};

/// Outcome record of one request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestRecord {
    /// Request id (index into [`RunMetrics::records`]).
    pub id: RequestId,
    /// Model invoked.
    pub model: ModelId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Prompt tokens.
    pub input_len: u32,
    /// Expected completion tokens.
    pub output_len: u32,
    /// Service class the request is held to (class 0 = run default).
    pub class: SloClass,
    /// When the first output token was produced.
    pub first_token: Option<SimTime>,
    /// When the last output token was produced.
    pub completed: Option<SimTime>,
    /// True if the system gave up on the request (queue timeout).
    pub dropped: bool,
    /// True if the first token missed the (grace-adjusted) TTFT SLO.
    pub ttft_violated: bool,
    /// True if any later token missed its TPOT deadline.
    pub tpot_violated: bool,
    /// Cold-start grace granted (§IX-A fairness rule).
    pub grace: SimDuration,
    /// Times this request was migrated/rescheduled.
    pub migrations: u32,
    /// True if this request triggered an instance cold start.
    pub cold_start: bool,
    /// Session membership (`SessionTag::NONE` for sessionless traffic).
    pub session: SessionTag,
    /// Prefix tokens served from parked session KV instead of recomputed
    /// (locally cached or migrated over the fabric).
    pub prefix_cached: u32,
}

impl RequestRecord {
    fn new(req: &Request) -> Self {
        RequestRecord {
            id: req.id,
            model: req.model,
            arrival: req.arrival,
            input_len: req.input_len,
            output_len: req.output_len,
            class: req.class,
            first_token: None,
            completed: None,
            dropped: false,
            ttft_violated: false,
            tpot_violated: false,
            grace: SimDuration::ZERO,
            migrations: 0,
            cold_start: false,
            session: req.session,
            prefix_cached: 0,
        }
    }

    /// Time to first token, if one was produced.
    pub fn ttft(&self) -> Option<SimDuration> {
        self.first_token.map(|t| t.since(self.arrival))
    }

    /// Mean time per output token after the first, if the request completed
    /// and produced more than one token.
    pub fn tpot(&self) -> Option<f64> {
        let first = self.first_token?;
        let done = self.completed?;
        if self.output_len <= 1 {
            return None;
        }
        Some(done.since(first).as_secs_f64() / (self.output_len - 1) as f64)
    }

    /// True for a session follow-up turn (turn ≥ 1) — the requests whose
    /// prefix can be served from parked KV.
    pub fn is_warm_turn(&self) -> bool {
        self.session.is_followup()
    }

    /// A request meets its SLO iff it completed with no TTFT or TPOT
    /// violation (§IX-A).
    pub fn slo_met(&self) -> bool {
        !self.dropped && self.completed.is_some() && !self.ttft_violated && !self.tpot_violated
    }
}

/// One sample of cluster occupancy, taken every sampling tick.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UsageSample {
    /// Sample time, seconds.
    pub t: f64,
    /// CPU nodes with at least one resident instance.
    pub cpu_nodes_used: u32,
    /// GPU nodes with at least one resident instance.
    pub gpu_nodes_used: u32,
}

/// All measurements from one simulation run.
#[derive(Debug, Default, Clone)]
pub struct RunMetrics {
    /// Per-request outcomes, indexed by `RequestId.0`.
    pub records: Vec<RequestRecord>,
    /// Occupancy timeline (Fig. 23), one sample per tick.
    pub usage_timeline: Vec<UsageSample>,
    /// Per-node-kind time-weighted "nodes used" integrators.
    cpu_nodes_used: TimeWeighted,
    gpu_nodes_used: TimeWeighted,
    /// Node-seconds during which ≥1 instance was resident, per kind.
    pub cpu_node_busy_s: f64,
    /// See [`Self::cpu_node_busy_s`].
    pub gpu_node_busy_s: f64,
    /// Decode tokens produced per kind.
    pub cpu_decode_tokens: u64,
    /// See [`Self::cpu_decode_tokens`].
    pub gpu_decode_tokens: u64,
    /// Per-instance memory-utilization samples, per kind.
    pub mem_util_cpu: Summary,
    /// See [`Self::mem_util_cpu`].
    pub mem_util_gpu: Summary,
    /// Batch-size samples over active instances (Fig. 25 right).
    pub batch_sizes: Summary,
    /// Batch-size samples over active GPU instances only (Fig. 25 is a GPU
    /// efficiency figure; CPU micro-instances would dilute it).
    pub batch_sizes_gpu: Summary,
    /// KV-pool utilization samples (Fig. 31).
    pub kv_util: Summary,
    /// Cold starts (instance loads) performed.
    pub cold_starts: u64,
    /// Cold starts begun, by checkpoint source tier — indexed by
    /// [`hwmodel::CheckpointTier::index`] (`[hbm, dram, ssd, remote]`).
    /// Under the flat default loader every load counts as a DRAM hit.
    pub cold_tier_loads: [u64; 4],
    /// Seconds of completed cold-start loading, by checkpoint source tier
    /// (same indexing as [`Self::cold_tier_loads`]). Contended loads
    /// report their stretched wall-clock duration.
    pub cold_tier_seconds: [f64; 4],
    /// Cold starts served over the peer-to-peer fabric (checkpoint
    /// distribution, [`crate::dist`]). These do *not* appear in
    /// [`Self::cold_tier_loads`]: `cold_starts == cold_tier_loads.sum() +
    /// peer_fetches` once distribution is on.
    pub peer_fetches: u64,
    /// Seconds of completed fabric loading (peer-fetch counterpart of
    /// [`Self::cold_tier_seconds`]).
    pub peer_fetch_seconds: f64,
    /// Peer fetches sourced from a peer that was itself still receiving
    /// the checkpoint — interior edges of a multicast relay tree.
    pub multicast_relays: u64,
    /// Fabric transfers re-sourced because their source node failed
    /// mid-stream.
    pub transfer_reroutes: u64,
    /// Instance activation log `(model, completed-at seconds)`, one entry
    /// per finished cold start (time-to-N-replicas in the `scale_burst`
    /// experiment).
    pub activations: Vec<(ModelId, f64)>,
    /// KV rescale operations completed.
    pub scale_ops: u64,
    /// Seconds instances spent blocked on KV rescales.
    pub scale_blocked_s: f64,
    /// Instance-lifetime seconds (for scaling-overhead ratios).
    pub instance_lifetime_s: f64,
    /// Rejected memory operations that would have overflowed a node
    /// (§VII-C hazards; a correct orchestrator keeps this at zero).
    pub oom_incidents: u64,
    /// Proactive consolidation preemptions executed (§VIII-A).
    pub preemptions: u64,
    /// Requests migrated/rescheduled (eviction §VII-D + preemption §VIII-A).
    pub migrations: u64,
    /// Requests dropped from admission queues.
    pub dropped: u64,
    /// Requests still live when the run hit its hard stop (last arrival +
    /// the driver's drain grace). The driver drops them there, so they are
    /// counted in [`Self::dropped`] too; a healthy run leaves none.
    pub hard_stop_drops: u64,
    /// Shadow validations performed (accepted + rejected), policy-reported.
    pub shadow_validations: u64,
    /// Node drains that started (scenario environment axis).
    pub node_drains: u64,
    /// Node failures injected.
    pub node_failures: u64,
    /// Nodes that joined mid-run.
    pub node_joins: u64,
    /// Prefix tokens served from parked session KV on the instance that
    /// already held them (no transfer paid). See [`crate::sessions`].
    pub prefix_hit_tokens: u64,
    /// Parked session KV entries migrated between instances over the fabric.
    pub kv_migrations: u64,
    /// Bytes of parked session KV shipped by those migrations.
    pub kv_migration_bytes: u64,
    /// Final simulated time.
    pub end_time: SimTime,
}

impl RunMetrics {
    /// Initializes records for every request in the trace.
    pub fn for_trace(requests: &[Request]) -> Self {
        let m = RunMetrics {
            records: requests.iter().map(RequestRecord::new).collect(),
            ..Default::default()
        };
        // RequestIds must index the record table.
        for (i, r) in m.records.iter().enumerate() {
            assert_eq!(r.id.0 as usize, i, "trace ids must be dense");
        }
        m
    }

    /// Mutable record lookup.
    pub fn record_mut(&mut self, id: RequestId) -> &mut RequestRecord {
        &mut self.records[id.0 as usize]
    }

    /// Records a produced token, updating TTFT/TPOT violation flags against
    /// `slo` (deadlines include the stored grace).
    pub fn on_token(&mut self, id: RequestId, tokens_out: u32, now: SimTime, slo: &Slo) {
        let rec = &mut self.records[id.0 as usize];
        let deadline = slo.token_deadline(rec.arrival + rec.grace, rec.input_len, tokens_out - 1);
        if tokens_out == 1 {
            rec.first_token = Some(now);
            if now > deadline {
                rec.ttft_violated = true;
            }
        } else if now > deadline {
            rec.tpot_violated = true;
        }
        if tokens_out >= rec.output_len {
            rec.completed = Some(now);
        }
    }

    /// Records occupancy at `t` seconds.
    pub fn sample_usage(&mut self, t: f64, cpu_used: u32, gpu_used: u32) {
        self.usage_timeline.push(UsageSample {
            t,
            cpu_nodes_used: cpu_used,
            gpu_nodes_used: gpu_used,
        });
        self.cpu_nodes_used.record(t, cpu_used as f64);
        self.gpu_nodes_used.record(t, gpu_used as f64);
        // Integrate node-busy seconds via the same samples (1-sample hold).
    }

    /// Closes the time-weighted integrators at `t` seconds.
    pub fn finish(&mut self, t: SimTime) {
        self.end_time = t;
        let secs = t.as_secs_f64();
        self.cpu_node_busy_s = self.cpu_nodes_used.finish(secs) * secs;
        self.gpu_node_busy_s = self.gpu_nodes_used.finish(secs) * secs;
    }

    /// Number of requests meeting their SLO.
    pub fn slo_met(&self) -> usize {
        self.records.iter().filter(|r| r.slo_met()).count()
    }

    /// Total requests.
    pub fn total(&self) -> usize {
        self.records.len()
    }

    /// SLO attainment rate in `[0, 1]`.
    pub fn slo_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.slo_met() as f64 / self.total() as f64
    }

    /// TTFT samples (seconds) over requests that produced a first token.
    pub fn ttft_summary(&self) -> Summary {
        self.records
            .iter()
            .filter_map(|r| r.ttft().map(|d| d.as_secs_f64()))
            .collect()
    }

    /// Fraction of requests with TTFT ≤ `secs` (CDF point, counting dropped
    /// requests as never-responding, which is how the paper's CDFs flatten
    /// below 1).
    pub fn ttft_cdf_at(&self, secs: f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let ok = self
            .records
            .iter()
            .filter(|r| r.ttft().map(|d| d.as_secs_f64() <= secs).unwrap_or(false))
            .count();
        ok as f64 / self.records.len() as f64
    }

    /// Time-weighted average of nodes used, per kind.
    pub fn avg_nodes_used(&self, kind: HardwareKind) -> f64 {
        let secs = self.end_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        match kind {
            HardwareKind::Gpu => self.gpu_node_busy_s / secs,
            _ => self.cpu_node_busy_s / secs,
        }
    }

    /// Decode throughput per used node, tokens/(node·s) (Fig. 22).
    pub fn decode_speed_per_node(&self, kind: HardwareKind) -> f64 {
        let (tokens, busy) = match kind {
            HardwareKind::Gpu => (self.gpu_decode_tokens, self.gpu_node_busy_s),
            _ => (self.cpu_decode_tokens, self.cpu_node_busy_s),
        };
        if busy <= 0.0 {
            0.0
        } else {
            tokens as f64 / busy
        }
    }

    /// Mean memory utilization of active instances of the given kind.
    pub fn mem_util_mean(&self, kind: HardwareKind) -> f64 {
        match kind {
            HardwareKind::Gpu => self.mem_util_gpu.mean(),
            _ => self.mem_util_cpu.mean(),
        }
    }

    /// Total seconds spent cold-start loading, across every tier.
    pub fn cold_start_seconds_total(&self) -> f64 {
        self.cold_tier_seconds.iter().sum()
    }

    /// Fraction of instance lifetime spent blocked on KV rescales (Fig. 31).
    pub fn scaling_overhead_fraction(&self) -> f64 {
        if self.instance_lifetime_s <= 0.0 {
            0.0
        } else {
            self.scale_blocked_s / self.instance_lifetime_s
        }
    }

    /// Count of requests whose record shows at least one migration.
    pub fn migrated_requests(&self) -> usize {
        self.records.iter().filter(|r| r.migrations > 0).count()
    }

    // ------------------------------------------------------------------
    // Per-SLO-class attainment (scenario workload axis)
    // ------------------------------------------------------------------

    /// The service classes present in this run, ascending (single-class
    /// runs report just `SloClass::DEFAULT`).
    pub fn classes(&self) -> Vec<SloClass> {
        let mut cs: Vec<SloClass> = self.records.iter().map(|r| r.class).collect();
        cs.sort_unstable();
        cs.dedup();
        if cs.is_empty() {
            cs.push(SloClass::DEFAULT);
        }
        cs
    }

    /// SLO-met and total request counts of one class.
    pub fn class_counts(&self, class: SloClass) -> (usize, usize) {
        let mut met = 0;
        let mut total = 0;
        for r in &self.records {
            if r.class == class {
                total += 1;
                met += usize::from(r.slo_met());
            }
        }
        (met, total)
    }

    /// Attainment of every class present, ascending by class: the per-class
    /// breakdown reported alongside the aggregate [`Self::slo_rate`].
    pub fn class_attainment(&self) -> Vec<(SloClass, usize, usize)> {
        self.classes()
            .into_iter()
            .map(|c| {
                let (met, total) = self.class_counts(c);
                (c, met, total)
            })
            .collect()
    }

    /// TTFT samples (seconds) of one class's responding requests.
    pub fn class_ttft_summary(&self, class: SloClass) -> Summary {
        self.records
            .iter()
            .filter(|r| r.class == class)
            .filter_map(|r| r.ttft().map(|d| d.as_secs_f64()))
            .collect()
    }

    // ------------------------------------------------------------------
    // Session turns (multi-turn prefix reuse)
    // ------------------------------------------------------------------

    /// TTFT samples (seconds) of *warm* turns — session follow-ups, the
    /// requests prefix reuse can shorten. Untagged and first-turn requests
    /// are the cold side ([`Self::cold_ttft_summary`]).
    pub fn warm_ttft_summary(&self) -> Summary {
        self.records
            .iter()
            .filter(|r| r.is_warm_turn())
            .filter_map(|r| r.ttft().map(|d| d.as_secs_f64()))
            .collect()
    }

    /// TTFT samples (seconds) of cold requests: session openers (turn 0)
    /// and sessionless traffic.
    pub fn cold_ttft_summary(&self) -> Summary {
        self.records
            .iter()
            .filter(|r| !r.is_warm_turn())
            .filter_map(|r| r.ttft().map(|d| d.as_secs_f64()))
            .collect()
    }

    /// Mean TPOT (seconds/token) over completed warm turns, or 0.0 when no
    /// warm turn produced more than one token.
    pub fn warm_tpot_mean(&self) -> f64 {
        let s: Summary = self
            .records
            .iter()
            .filter(|r| r.is_warm_turn())
            .filter_map(|r| r.tpot())
            .collect();
        if s.count() == 0 {
            0.0
        } else {
            s.mean()
        }
    }

    /// Warm turns whose prefill skipped at least one cached prefix token.
    pub fn prefix_hits(&self) -> usize {
        self.records.iter().filter(|r| r.prefix_cached > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::request::{Request, SloClass};

    fn requests(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                id: RequestId(i),
                model: ModelId(0),
                arrival: SimTime::from_secs(i),
                input_len: 1024,
                output_len: 2,
                class: SloClass::default(),
                session: Default::default(),
            })
            .collect()
    }

    #[test]
    fn token_recording_flags_violations() {
        let slo = Slo::paper();
        let reqs = requests(1);
        let mut m = RunMetrics::for_trace(&reqs);
        // TTFT SLO = 2 s. First token at 1.5 s: fine.
        m.on_token(RequestId(0), 1, SimTime::from_millis(1_500), &slo);
        assert!(!m.records[0].ttft_violated);
        // Second token deadline = 0 + 2 + 0.25 = 2.25 s. Produce at 3 s: late.
        m.on_token(RequestId(0), 2, SimTime::from_secs(3), &slo);
        assert!(m.records[0].tpot_violated);
        assert!(m.records[0].completed.is_some(), "output_len=2 reached");
        assert!(!m.records[0].slo_met());
    }

    #[test]
    fn grace_relaxes_ttft() {
        let slo = Slo::paper();
        let reqs = requests(1);
        let mut m = RunMetrics::for_trace(&reqs);
        m.record_mut(RequestId(0)).grace = SimDuration::from_secs(1);
        m.record_mut(RequestId(0)).cold_start = true;
        // 2.5 s TTFT would violate the plain 2 s SLO but not 2+1 s.
        m.on_token(RequestId(0), 1, SimTime::from_millis(2_500), &slo);
        assert!(!m.records[0].ttft_violated);
    }

    #[test]
    fn slo_rate_counts_drops() {
        let slo = Slo::paper();
        let reqs = requests(2);
        let mut m = RunMetrics::for_trace(&reqs);
        m.on_token(RequestId(0), 1, SimTime::from_millis(500), &slo);
        m.on_token(RequestId(0), 2, SimTime::from_millis(700), &slo);
        m.record_mut(RequestId(1)).dropped = true;
        assert_eq!(m.slo_met(), 1);
        assert_eq!(m.slo_rate(), 0.5);
    }

    #[test]
    fn ttft_cdf_flattens_below_one_with_drops() {
        let slo = Slo::paper();
        let reqs = requests(4);
        let mut m = RunMetrics::for_trace(&reqs);
        for i in 0..2u64 {
            m.on_token(
                RequestId(i),
                1,
                SimTime::from_secs(i) + SimDuration::from_millis(100),
                &slo,
            );
        }
        m.record_mut(RequestId(2)).dropped = true;
        m.record_mut(RequestId(3)).dropped = true;
        assert_eq!(m.ttft_cdf_at(10.0), 0.5);
    }

    #[test]
    fn usage_integration() {
        let reqs = requests(1);
        let mut m = RunMetrics::for_trace(&reqs);
        m.sample_usage(0.0, 2, 4);
        m.sample_usage(50.0, 2, 0);
        m.finish(SimTime::from_secs(100));
        assert!((m.avg_nodes_used(HardwareKind::CpuAccel) - 2.0).abs() < 1e-9);
        assert!((m.avg_nodes_used(HardwareKind::Gpu) - 2.0).abs() < 1e-9);
        // Decode speed: 1000 tokens over the GPU node-busy seconds.
        m.gpu_decode_tokens = 1000;
        let speed = m.decode_speed_per_node(HardwareKind::Gpu);
        assert!((speed - 1000.0 / 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_trace_ids_rejected() {
        let mut reqs = requests(2);
        reqs[1].id = RequestId(7);
        let _ = RunMetrics::for_trace(&reqs);
    }
}
