//! The analytic latency model and the oracle trait behind which it hides.
//!
//! `slinfer`'s quantifier (§VI-B) treats hardware as a black box that can be
//! sampled; in this reproduction the black box is [`AnalyticPerf`], accessed
//! through [`PerfOracle`]. The model:
//!
//! - **Prefill** (`TTFT` minus queueing): FLOPs = `2·P·L + 4·L²·hidden·layers`
//!   (dense GEMMs plus quadratic attention), divided by the node's effective
//!   prefill TFLOPs.
//! - **Decode** (one iteration = one token for every running sequence):
//!   `t = weights/BW + B·2P/C_dec + Σctx·kv_per_token/BW` — a weights pass
//!   shared by the whole batch (why batching is sub-linear, Fig. 7), a
//!   per-sequence compute term, and the KV-read term that grows with context.
//! - **Tensor parallelism**: a model deployed at TP degree `k > 1` adds
//!   its ring all-reduce time ([`AnalyticPerf::tp_comm_time`]) to every
//!   prefill and decode iteration; degree 1 adds nothing.
//! - **Load**: weights / tier bandwidth, where the tier is the warmest
//!   [`CheckpointTier`] holding the checkpoint (HBM co-resident copy, DRAM
//!   cache, local SSD, or a remote registry fetch — ServerlessLLM's
//!   multi-tier loader), divided further by the number of loads sharing
//!   the node's loading channel.
//! - **KV rescale**: `alloc·new + copy·moved` (Fig. 16/17 procedure).
//!
//! INT4 quantization (§X) shrinks the weights pass and load time via
//! [`ModelSpec::weights_bytes`]; compute terms are unchanged (AWQ kernels
//! dequantize on the fly).
//!
//! Every coefficient is validated against the paper in this module's tests.

use crate::hardware::{CheckpointTier, HardwareSpec};
use crate::model::ModelSpec;

/// A source of iteration-time estimates: what the simulator charges an
/// iteration ([`AnalyticPerf`] is the one implementation) and what
/// `slinfer`'s quantifier samples to build its interpolated profile
/// (§VI-B).
///
/// An iteration is timed on the model's deployed topology: `share` is the
/// summed compute share of the slots the instance spans, and a
/// tensor-parallel model (`model.tp_degree > 1`) also pays its all-reduce
/// overhead. A plain model takes the degree-1 path, which adds nothing.
pub trait PerfOracle {
    /// Seconds to run a prefill iteration over `input_len` tokens on
    /// hardware `hw` holding a `share` fraction of the node.
    fn prefill_time(&self, model: &ModelSpec, hw: &HardwareSpec, input_len: u32, share: f64)
        -> f64;

    /// Seconds to run one decode iteration for a batch of `batch` sequences
    /// whose contexts total `total_ctx_tokens` tokens. An empty batch
    /// takes no time.
    fn decode_time(
        &self,
        model: &ModelSpec,
        hw: &HardwareSpec,
        batch: u32,
        total_ctx_tokens: u64,
        share: f64,
    ) -> f64;

    /// Seconds to cold-start-load the model's weights into serving memory
    /// from checkpoint tier `tier`, while `concurrent` loads (including
    /// this one) share the node's loading channel: `k` simultaneous loads
    /// each see `1/k` of the tier's bandwidth (ServerlessLLM's multi-tier
    /// loader behind one shared staging pipeline). A tensor-parallel
    /// deployment is *one* load here — its shard streams are already
    /// aggregated in [`HardwareSpec::ganged`]'s `load_bw_gbps`, so a TP
    /// group must never be charged as `k` channel contenders.
    ///
    /// With `tier == Dram` and `concurrent <= 1` this is exactly the flat
    /// legacy loader (`weights / load_bw`), bit for bit.
    fn load_time(
        &self,
        model: &ModelSpec,
        hw: &HardwareSpec,
        tier: CheckpointTier,
        concurrent: u32,
    ) -> f64 {
        let k = concurrent.max(1) as f64;
        model.weights_bytes() as f64 / ((hw.tier_bw_gbps(tier) / k) * 1e9)
    }
}

/// The calibrated closed-form model (see module docs).
#[derive(Debug, Clone, Default)]
pub struct AnalyticPerf {
    _private: (),
}

impl AnalyticPerf {
    /// Creates the model. All coefficients come from the [`HardwareSpec`]
    /// and [`ModelSpec`] passed per call, so one instance serves any mix of
    /// hardware.
    pub fn new() -> Self {
        AnalyticPerf { _private: () }
    }

    /// Seconds to rescale a KV cache from `old_bytes` to `new_bytes` when
    /// `used_bytes` of it hold live pages that must be copied.
    ///
    /// Matches Figure 17: scale-*up* is dominated by allocating the enlarged
    /// block array (≈0.03 s/GB on an A100 — 32→64 GB ≈ 1.9 s), scale-*down*
    /// allocates only the small new array (32→16 GB ≈ 0.3 s). The copy moves
    /// `min(used, new)` bytes either way.
    pub fn kv_scale_time(
        &self,
        hw: &HardwareSpec,
        old_bytes: u64,
        new_bytes: u64,
        used_bytes: u64,
    ) -> f64 {
        let moved = used_bytes.min(new_bytes) as f64 / 1e9;
        let alloc = new_bytes as f64 / 1e9;
        let rate = if new_bytes >= old_bytes {
            hw.kv_up_s_per_gb
        } else {
            hw.kv_down_s_per_gb
        };
        rate * alloc + hw.kv_copy_s_per_gb * moved
    }

    /// Seconds of tensor-parallel collective overhead for one iteration
    /// that processes `tokens` tokens (prompt tokens for prefill, one per
    /// decoding sequence for decode) at TP degree `tp`.
    ///
    /// Each transformer layer runs two all-reduces over hidden-size FP16
    /// activations (post-attention and post-MLP): `2 · layers · hidden · 2`
    /// bytes per token, of which a ring all-reduce moves `2(tp−1)/tp` per
    /// device, at the node's effective link bandwidth — plus `2 · layers ·
    /// (tp−1)` latency hops per iteration. Degree 1 costs nothing, so every
    /// single-slot code path is numerically untouched.
    pub fn tp_comm_time(&self, model: &ModelSpec, hw: &HardwareSpec, tp: u32, tokens: u64) -> f64 {
        if tp <= 1 {
            return 0.0;
        }
        let bytes_per_token = 2.0 * model.layers as f64 * model.hidden as f64 * 2.0;
        let ring = 2.0 * (tp as f64 - 1.0) / tp as f64;
        let volume = tokens as f64 * bytes_per_token * ring;
        let hops = 2.0 * model.layers as f64 * (tp as f64 - 1.0);
        volume / (hw.link_bw_gbps * 1e9) + hops * hw.link_latency_s
    }

    /// Largest batch size whose steady-state decode iteration stays within
    /// `tpot_slo` seconds, with every sequence at context length `ctx`.
    ///
    /// Returns 0 when even a single sequence misses the SLO. This solves the
    /// compute side of Table II; callers intersect it with the KV-capacity
    /// bound for the memory side. The decode time includes the model's
    /// all-reduce overhead, so the bound matches what the simulation will
    /// actually time.
    pub fn max_batch_under_tpot(
        &self,
        model: &ModelSpec,
        hw: &HardwareSpec,
        ctx: u32,
        share: f64,
        tpot_slo: f64,
    ) -> u32 {
        let mut lo = 0u32;
        let mut hi = 4096u32;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let t = self.decode_time(model, hw, mid, mid as u64 * ctx as u64, share);
            if t <= tpot_slo {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

impl PerfOracle for AnalyticPerf {
    fn prefill_time(
        &self,
        model: &ModelSpec,
        hw: &HardwareSpec,
        input_len: u32,
        share: f64,
    ) -> f64 {
        assert!(share > 0.0 && share <= 1.0, "share must be in (0,1]");
        let l = input_len as f64;
        let dense = 2.0 * model.params as f64 * l;
        let attn = 4.0 * l * l * model.hidden as f64 * model.layers as f64;
        dense / (hw.prefill_tflops * share * 1e12)
            + attn / (hw.attn_tflops * share * 1e12)
            + self.tp_comm_time(model, hw, model.tp_degree, input_len as u64)
    }

    fn decode_time(
        &self,
        model: &ModelSpec,
        hw: &HardwareSpec,
        batch: u32,
        total_ctx_tokens: u64,
        share: f64,
    ) -> f64 {
        assert!(share > 0.0 && share <= 1.0, "share must be in (0,1]");
        if batch == 0 {
            return 0.0;
        }
        let bw = hw.mem_bw_gbps * share * 1e9;
        let weights_pass = model.weights_bytes() as f64 / bw;
        let per_seq = 2.0 * model.params as f64 / (hw.decode_tflops * share * 1e12);
        let kv_read = total_ctx_tokens as f64 * model.kv_bytes_per_token() as f64 / bw;
        weights_pass
            + batch as f64 * per_seq
            + kv_read
            + self.tp_comm_time(model, hw, model.tp_degree, batch as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn within(actual: f64, expected: f64, tol: f64) -> bool {
        (actual - expected).abs() / expected <= tol
    }

    /// Table I, 4th-gen row: TTFT 149 / 567 / 2748 ms at 256 / 1K / 4K.
    #[test]
    fn table1_xeon4_ttft() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        for (len, expect_ms) in [(256u32, 149.0), (1024, 567.0), (4096, 2748.0)] {
            let t = p.prefill_time(&m, &hw, len, 1.0) * 1e3;
            assert!(within(t, expect_ms, 0.10), "len {len}: {t} vs {expect_ms}");
        }
    }

    /// Table I, 3rd-gen row: TTFT 1003 / 4113 / 18612 ms.
    #[test]
    fn table1_xeon3_ttft() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon3_32c();
        for (len, expect_ms) in [(256u32, 1003.0), (1024, 4113.0), (4096, 18612.0)] {
            let t = p.prefill_time(&m, &hw, len, 1.0) * 1e3;
            assert!(within(t, expect_ms, 0.10), "len {len}: {t} vs {expect_ms}");
        }
    }

    /// Table I TPOT columns, 4th-gen: 71 / 196 / 80 / 459 ms at
    /// {1,32}bs × {1K,4K}.
    #[test]
    fn table1_xeon4_tpot() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let cases = [
            (1u32, 1024u64, 71.0),
            (32, 32 * 1024, 196.0),
            (1, 4096, 80.0),
            (32, 32 * 4096, 459.0),
        ];
        for (bs, total, expect_ms) in cases {
            let t = p.decode_time(&m, &hw, bs, total, 1.0) * 1e3;
            assert!(
                within(t, expect_ms, 0.10),
                "bs {bs} total {total}: {t} vs {expect_ms}"
            );
        }
    }

    /// Table I TPOT columns, 3rd-gen: 100 / 338 / 110 / 697 ms.
    #[test]
    fn table1_xeon3_tpot() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon3_32c();
        let cases = [
            (1u32, 1024u64, 100.0),
            (32, 32 * 1024, 338.0),
            (1, 4096, 110.0),
            (32, 32 * 4096, 697.0),
        ];
        for (bs, total, expect_ms) in cases {
            let t = p.decode_time(&m, &hw, bs, total, 1.0) * 1e3;
            assert!(
                within(t, expect_ms, 0.10),
                "bs {bs} total {total}: {t} vs {expect_ms}"
            );
        }
    }

    /// §IX-A: DeepSeek-R1-Distill-Qwen-7B-sized models behave like Llama-2-7B;
    /// and §X: decoding of Llama-3.1-8B takes at least 74 ms on the CPU.
    #[test]
    fn decode_floor_8b_cpu() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama3_1_8b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let t = p.decode_time(&m, &hw, 1, 1024, 1.0) * 1e3;
        assert!(within(t, 74.0, 0.15), "8B decode floor {t} ms");
    }

    /// §X: processing 32 K inputs takes ~84 s on the CPU (Llama-3.1-8B).
    #[test]
    fn cpu_32k_prefill_is_about_84s() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama3_1_8b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let t = p.prefill_time(&m, &hw, 32_768, 1.0);
        assert!(within(t, 84.0, 0.20), "32K prefill {t} s");
    }

    /// Figure 6 shape: CPU meets the 8 s TTFT SLO for 7B/13B at short inputs,
    /// 34B never on CPU at long inputs; GPU always comfortable.
    #[test]
    fn fig6_slo_feasibility_shape() {
        let p = AnalyticPerf::new();
        let cpu = HardwareSpec::xeon4_amx_32c();
        let gpu = HardwareSpec::a100_80g();
        let slo_8s = 8.0;
        assert!(p.prefill_time(&ModelSpec::llama2_7b(), &cpu, 4096, 1.0) < slo_8s);
        assert!(p.prefill_time(&ModelSpec::llama2_13b(), &cpu, 4096, 1.0) < slo_8s);
        assert!(p.prefill_time(&ModelSpec::codellama_34b(), &cpu, 8192, 1.0) > slo_8s);
        assert!(p.prefill_time(&ModelSpec::codellama_34b(), &gpu, 8192, 1.0) < slo_8s);
    }

    /// §IX-I1: CPUs handle inputs up to ~8.4 K tokens within the 8 s TTFT SLO
    /// (Llama-3.1-8B).
    #[test]
    fn cpu_ttft_crossover_near_8_4k() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama3_1_8b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let t_8k = p.prefill_time(&m, &hw, 8400, 1.0);
        assert!(
            within(t_8k, 8.0, 0.25),
            "8.4K prefill should sit near the 8 s SLO, got {t_8k}"
        );
    }

    /// Table II compute side: full-node CPU concurrency limits 27 (7B@2K)
    /// and 15 (7B@4K); halves/thirds/quarters match the paper's pattern.
    #[test]
    fn table2_cpu_limits() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let limit = |ctx, share| p.max_batch_under_tpot(&m, &hw, ctx, share, 0.25);
        let full_2k = limit(2048, 1.0);
        let half_2k = limit(2048, 0.5);
        let third_2k = limit(2048, 1.0 / 3.0);
        let quarter_2k = limit(2048, 0.25);
        assert!(
            (25..=29).contains(&full_2k),
            "C-7B-2K full {full_2k} (paper 27)"
        );
        assert!(
            (7..=10).contains(&half_2k),
            "C-7B-2K half {half_2k} (paper 9)"
        );
        assert!(
            (1..=3).contains(&third_2k),
            "C-7B-2K third {third_2k} (paper 2)"
        );
        assert_eq!(quarter_2k, 0, "C-7B-2K quarter infeasible (paper '-')");
        let full_4k = limit(4096, 1.0);
        assert!(
            (13..=17).contains(&full_4k),
            "C-7B-4K full {full_4k} (paper 15)"
        );
        // Fragmentation cost (§IV-C): two halves yield far less than one full.
        assert!(2 * half_2k < full_2k);
    }

    /// Figure 10 shape: A100 decode throughput ~1K+ tokens/s at batch 64.
    #[test]
    fn fig10_gpu_decode_throughput() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        let gpu = HardwareSpec::a100_80g();
        let t = p.decode_time(&m, &gpu, 64, 64 * 1024, 1.0);
        let tput = 64.0 / t;
        assert!(tput > 1000.0, "batch-64 decode throughput {tput} tok/s");
        // And batching is strongly sub-linear: 64× batch < 8× time.
        let t1 = p.decode_time(&m, &gpu, 1, 1024, 1.0);
        assert!(t < 8.0 * t1);
    }

    /// Figure 17: scaling a 32 GB cache down to 16 GB ≈ 0.3 s, up to
    /// 64 GB ≈ 1.9 s (GPU, cache full).
    #[test]
    fn fig17_kv_scale_costs() {
        let p = AnalyticPerf::new();
        let gpu = HardwareSpec::a100_80g();
        let gb = 1_000_000_000u64;
        let down = p.kv_scale_time(&gpu, 32 * gb, 16 * gb, 16 * gb);
        let up = p.kv_scale_time(&gpu, 32 * gb, 64 * gb, 32 * gb);
        assert!(within(down, 0.3, 0.25), "scale-down {down} s (paper 0.3)");
        assert!(within(up, 1.9, 0.25), "scale-up {up} s (paper 1.9)");
    }

    /// §IX-A: cold-start loads a 7B model in about 1 second (DRAM tier —
    /// the ServerlessLLM fast-loader path the flat legacy loader modeled).
    #[test]
    fn sllm_loader_speed() {
        let p = AnalyticPerf::new();
        let t = p.load_time(
            &ModelSpec::llama2_7b(),
            &HardwareSpec::a100_80g(),
            CheckpointTier::Dram,
            1,
        );
        assert!(within(t, 1.0, 0.10), "7B load {t} s");
    }

    /// Tier ordering: an HBM hit is ≈ 0 next to any real load, DRAM beats
    /// SSD beats a remote registry fetch, on both node classes.
    #[test]
    fn tier_load_times_are_ordered() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        for hw in [HardwareSpec::a100_80g(), HardwareSpec::xeon4_amx_32c()] {
            let t = |tier| p.load_time(&m, &hw, tier, 1);
            let (hbm, dram, ssd, remote) = (
                t(CheckpointTier::Hbm),
                t(CheckpointTier::Dram),
                t(CheckpointTier::Ssd),
                t(CheckpointTier::Remote),
            );
            assert!(
                hbm <= 0.1 * dram,
                "{}: HBM hit {hbm} s must be ≈ 0",
                hw.name
            );
            assert!(hbm < dram && dram < ssd && ssd < remote, "{}", hw.name);
            // Exact ratios: each tier is weights over its bandwidth.
            assert!(within(
                remote / dram,
                hw.load_bw_gbps / hw.remote_bw_gbps,
                1e-9
            ));
        }
    }

    /// The shared loading channel: k simultaneous loads each see bw/k, so
    /// per-load time scales exactly k× at any tier.
    #[test]
    fn contention_divides_bandwidth_exactly() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_13b();
        let hw = HardwareSpec::a100_80g();
        for tier in CheckpointTier::ALL {
            let alone = p.load_time(&m, &hw, tier, 1);
            for k in [2u32, 3, 7] {
                let contended = p.load_time(&m, &hw, tier, k);
                assert!(
                    within(contended, alone * k as f64, 1e-12),
                    "{tier:?} k={k}: {contended} vs {}",
                    alone * k as f64
                );
            }
        }
        // concurrent == 0 is clamped to the uncontended path.
        assert_eq!(
            p.load_time(&m, &hw, CheckpointTier::Dram, 0),
            p.load_time(&m, &hw, CheckpointTier::Dram, 1)
        );
    }

    /// `ganged(n)` scales the DRAM fast-loader path n× (each device
    /// ingests its shard in parallel) but not the host-level SSD/NIC
    /// tiers — and a TP group is one load, so loading a TP=n model on an
    /// n-gang from DRAM costs exactly what one device's full-model load
    /// costs (the shards split n ways across an n× channel).
    #[test]
    fn ganged_load_interacts_with_tiers() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_13b();
        let one = HardwareSpec::a100_80g();
        let gang = one.ganged(4);
        let dram_one = p.load_time(&m, &one, CheckpointTier::Dram, 1);
        let dram_gang = p.load_time(&m, &gang, CheckpointTier::Dram, 1);
        assert!(within(dram_gang * 4.0, dram_one, 1e-12));
        // SSD/remote fetches are host-bound: no speedup from more devices.
        assert_eq!(
            p.load_time(&m, &one, CheckpointTier::Ssd, 1),
            p.load_time(&m, &gang, CheckpointTier::Ssd, 1)
        );
        assert_eq!(
            p.load_time(&m, &one, CheckpointTier::Remote, 1),
            p.load_time(&m, &gang, CheckpointTier::Remote, 1)
        );
        // Two TP groups loading side by side contend 2-way — not 2·tp-way.
        let two_groups = p.load_time(&m, &gang, CheckpointTier::Dram, 2);
        assert!(within(two_groups, 2.0 * dram_gang, 1e-12));
    }

    /// §IV-A2 tight-SLO limits: at 100 ms TPOT only ≤7B works, batch ≤9 at
    /// 1K and ≤3 at 4K; at 50 ms even 7B is infeasible on CPU.
    #[test]
    fn tight_slo_limits() {
        let p = AnalyticPerf::new();
        let m7 = ModelSpec::llama2_7b();
        let m13 = ModelSpec::llama2_13b();
        let hw = HardwareSpec::xeon4_amx_32c();
        // The paper cites 9 (1K) and 3 (4K); a Table-I-consistent weights
        // pass of ~67 ms leaves a somewhat smaller budget, so we assert the
        // qualitative ordering (small limits, 4K < 1K) — see EXPERIMENTS.md.
        let b_100_1k = p.max_batch_under_tpot(&m7, &hw, 1024, 1.0, 0.10);
        let b_100_4k = p.max_batch_under_tpot(&m7, &hw, 4096, 1.0, 0.10);
        assert!(
            (3..=11).contains(&b_100_1k),
            "100ms/1K batch {b_100_1k} (paper 9)"
        );
        assert!(
            (1..=4).contains(&b_100_4k),
            "100ms/4K batch {b_100_4k} (paper 3)"
        );
        assert!(b_100_4k < b_100_1k);
        assert_eq!(p.max_batch_under_tpot(&m7, &hw, 1024, 1.0, 0.05), 0);
        assert_eq!(p.max_batch_under_tpot(&m13, &hw, 1024, 1.0, 0.10), 0);
    }

    /// Figure 8 shape: 13B on CPU at batch 32 violates the 250 ms TPOT SLO at
    /// 2K context but not at 512.
    #[test]
    fn fig8_13b_cpu_violation_crossover() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_13b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let t_512 = p.decode_time(&m, &hw, 32, 32 * 512, 1.0);
        let t_2k = p.decode_time(&m, &hw, 32, 32 * 2048, 1.0);
        // The paper's firm claims: the 2K point violates the SLO after a ≈2×
        // growth from the 512 point (which sits right at the SLO boundary).
        assert!(
            t_512 < 0.28,
            "13B bs32 @512 should sit near the SLO: {t_512}"
        );
        assert!(t_2k > 0.25, "13B bs32 @2K should violate SLO: {t_2k}");
        let growth = t_2k / t_512;
        assert!((1.6..2.4).contains(&growth), "≈2× growth: {growth}");
    }

    /// Figure 7 shape: 7B CPU TPOT at batch 4 is only ~14% above batch 1
    /// (1K token length).
    #[test]
    fn fig7_small_batch_penalty() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let t1 = p.decode_time(&m, &hw, 1, 1024, 1.0);
        let t4 = p.decode_time(&m, &hw, 4, 4 * 1024, 1.0);
        let growth = t4 / t1 - 1.0;
        assert!((0.08..0.22).contains(&growth), "batch-4 penalty {growth}");
    }

    /// INT4 shrinks the weights pass proportionally (§X).
    #[test]
    fn int4_speeds_decode_floor() {
        use crate::model::Precision;
        let p = AnalyticPerf::new();
        let gpu = HardwareSpec::a100_80g();
        let fp16 = ModelSpec::codestral_22b();
        let int4 = fp16.clone().with_precision(Precision::Int4);
        let t_fp16 = p.decode_time(&fp16, &gpu, 1, 1024, 1.0);
        let t_int4 = p.decode_time(&int4, &gpu, 1, 1024, 1.0);
        assert!(t_int4 < t_fp16);
        let t_load_fp16 = p.load_time(&fp16, &gpu, CheckpointTier::Dram, 1);
        let t_load_int4 = p.load_time(&int4, &gpu, CheckpointTier::Dram, 1);
        assert!(within(t_load_int4 * 4.0, t_load_fp16, 0.01));
    }

    #[test]
    fn zero_batch_decodes_instantly() {
        let p = AnalyticPerf::new();
        for m in [ModelSpec::llama2_7b(), ModelSpec::llama2_7b().with_tp(2)] {
            let t = p.decode_time(&m, &HardwareSpec::a100_80g(), 0, 0, 1.0);
            assert_eq!(t, 0.0, "TP degree {}", m.tp_degree);
        }
    }

    #[test]
    #[should_panic(expected = "share must be in (0,1]")]
    fn prefill_rejects_bad_share() {
        AnalyticPerf::new().prefill_time(
            &ModelSpec::llama2_7b(),
            &HardwareSpec::a100_80g(),
            128,
            0.0,
        );
    }

    /// TP degree 1 is the identity: a plain model pays no interconnect.
    #[test]
    fn tp_degree_one_is_free() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_13b();
        let hw = HardwareSpec::a100_80g().ganged(4);
        assert_eq!(p.tp_comm_time(&m, &hw, 1, 4096), 0.0);
    }

    /// The interconnect discount: on an n-device gang, a TP=k instance has
    /// k× the compute of a single slot but pays the all-reduce term, so
    /// its speedup over TP=1 is strictly below k (and still above 1).
    #[test]
    fn tp_speedup_is_sublinear() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_13b();
        let hw = HardwareSpec::a100_80g().ganged(4);
        let decode = |tp: u32| {
            let share = tp as f64 / 4.0;
            p.decode_time(&m.clone().with_tp(tp), &hw, 16, 16 * 2048, share)
        };
        let prefill = |tp: u32| {
            let share = tp as f64 / 4.0;
            p.prefill_time(&m.clone().with_tp(tp), &hw, 2048, share)
        };
        for t in [decode(1) / decode(2), prefill(1) / prefill(2)] {
            assert!(t > 1.0 && t < 2.0, "TP=2 speedup {t} must be in (1, 2)");
        }
        for t in [decode(1) / decode(4), prefill(1) / prefill(4)] {
            assert!(t > 1.0 && t < 4.0, "TP=4 speedup {t} must be in (1, 4)");
        }
        // Overhead grows with degree: each extra device adds hops + volume.
        let m2 = p.tp_comm_time(&m, &hw, 2, 16);
        let m4 = p.tp_comm_time(&m, &hw, 4, 16);
        assert!(m4 > m2 && m2 > 0.0);
    }

    /// Monotonicity invariants the schedulers rely on.
    #[test]
    fn monotone_in_inputs() {
        let p = AnalyticPerf::new();
        let m = ModelSpec::llama2_7b();
        let hw = HardwareSpec::xeon4_amx_32c();
        let mut last = 0.0;
        for len in [128u32, 256, 512, 1024, 2048, 4096, 8192] {
            let t = p.prefill_time(&m, &hw, len, 1.0);
            assert!(t > last);
            last = t;
        }
        let mut last = 0.0;
        for bs in [1u32, 2, 4, 8, 16, 32] {
            let t = p.decode_time(&m, &hw, bs, bs as u64 * 1024, 1.0);
            assert!(t > last);
            last = t;
        }
        // Less share => strictly slower.
        let full = p.decode_time(&m, &hw, 8, 8 * 1024, 1.0);
        let half = p.decode_time(&m, &hw, 8, 8 * 1024, 0.5);
        assert!(half > full);
    }
}
