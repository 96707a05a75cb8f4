//! Hardware node specifications.
//!
//! A [`HardwareSpec`] holds the *effective* (not peak) performance
//! coefficients of one node type, fitted to the paper's measurements. The
//! fitting rationale per preset:
//!
//! - [`HardwareSpec::xeon4_amx_32c`]: Table I gives 7B TTFT 149/567/2748 ms
//!   at 256/1K/4K inputs ⇒ ≈24 effective TFLOPs (vs. 105 peak BF16 — §X).
//!   TPOT 71/196/80/459 ms at {1,32}bs × {1K,4K} decomposes into a 67 ms
//!   weights pass (⇒ ≈200 GB/s effective bandwidth), 1.17 ms/sequence
//!   compute (⇒ ≈11.5 effective TFLOPs at decode batch sizes), and
//!   2.8 µs per cached token.
//! - [`HardwareSpec::xeon3_32c`]: Table I row one (1003/4113/18612 ms TTFT;
//!   100/338/110/697 ms TPOT) ⇒ 3.3 TFLOPs prefill, ~150 GB/s, 3.1 TFLOPs
//!   decode.
//! - [`HardwareSpec::a100_80g`]: 312 TFLOPs peak at ~50% efficiency for
//!   prefill; ~1300 GB/s effective HBM for decode. Figure 10's ≈1.5 K tok/s
//!   at batch 64 and the sub-100 ms TPOT curves of Figures 7–8 follow.

use serde::{Deserialize, Serialize};

use crate::model::ModelSpec;

/// The class of a node, which drives scheduling policy decisions
/// (e.g. SLINFER excludes CPUs without matrix acceleration, §V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HardwareKind {
    /// A discrete GPU (e.g. A100-80GB).
    Gpu,
    /// A CPU with a built-in matrix accelerator (e.g. Intel AMX).
    CpuAccel,
    /// A CPU without matrix acceleration — unusable for serving (§IV-A2).
    CpuLegacy,
}

impl HardwareKind {
    /// True for either CPU variant.
    pub fn is_cpu(self) -> bool {
        matches!(self, HardwareKind::CpuAccel | HardwareKind::CpuLegacy)
    }
}

/// Where a model checkpoint is resident relative to one node, warmest
/// first. Each tier maps to a loading bandwidth on [`HardwareSpec`]
/// (ServerlessLLM's multi-tier checkpoint loader):
///
/// - [`CheckpointTier::Hbm`] — another live instance already holds the
///   weights in this node's serving memory; a device-to-device copy at
///   `mem_bw_gbps` is all a new instance needs (≈ 0 versus any real load).
/// - [`CheckpointTier::Dram`] — the checkpoint sits in the node's host
///   DRAM cache and streams in at `load_bw_gbps` (the classic
///   ServerlessLLM fast-loader path; this is what the flat legacy loader
///   always modeled).
/// - [`CheckpointTier::Ssd`] — local NVMe holds the checkpoint; the load
///   is bounded by `ssd_bw_gbps`.
/// - [`CheckpointTier::Remote`] — nothing local: a registry fetch over
///   the datacenter network at `remote_bw_gbps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CheckpointTier {
    /// Weights already resident in serving memory (co-located instance).
    Hbm,
    /// Host-DRAM checkpoint cache hit.
    Dram,
    /// Local-SSD checkpoint hit.
    Ssd,
    /// Remote registry fetch (cold everywhere).
    Remote,
}

impl CheckpointTier {
    /// All tiers, warmest first (handy for per-tier reporting).
    pub const ALL: [CheckpointTier; 4] = [
        CheckpointTier::Hbm,
        CheckpointTier::Dram,
        CheckpointTier::Ssd,
        CheckpointTier::Remote,
    ];

    /// Dense index into per-tier tables (`ALL[self.index()] == self`).
    pub fn index(self) -> usize {
        match self {
            CheckpointTier::Hbm => 0,
            CheckpointTier::Dram => 1,
            CheckpointTier::Ssd => 2,
            CheckpointTier::Remote => 3,
        }
    }

    /// Short label for tables and JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            CheckpointTier::Hbm => "hbm",
            CheckpointTier::Dram => "dram",
            CheckpointTier::Ssd => "ssd",
            CheckpointTier::Remote => "remote",
        }
    }
}

/// Effective performance envelope of one node type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Display name.
    pub name: String,
    /// Node class.
    pub kind: HardwareKind,
    /// Memory available for serving (weights + KV) in bytes.
    pub mem_bytes: u64,
    /// Effective TFLOPs achieved by prefill dense GEMMs.
    pub prefill_tflops: f64,
    /// Effective TFLOPs achieved by the quadratic attention part of prefill
    /// (lower than GEMM efficiency on AMX CPUs — softmax and score matmuls
    /// do not map onto the tile unit as well).
    pub attn_tflops: f64,
    /// Effective TFLOPs achieved by decode-time per-sequence compute.
    pub decode_tflops: f64,
    /// Effective memory bandwidth for weight/KV streaming, GB/s.
    pub mem_bw_gbps: f64,
    /// Weight-loading bandwidth into this node's serving memory from the
    /// host-DRAM checkpoint cache, GB/s ([`CheckpointTier::Dram`]; the
    /// flat legacy loader charged every cold start this rate).
    pub load_bw_gbps: f64,
    /// Checkpoint read bandwidth of the node's local SSD, GB/s
    /// ([`CheckpointTier::Ssd`]). A host-level resource: unlike
    /// `load_bw_gbps` it does *not* scale with [`HardwareSpec::ganged`] —
    /// every device on a multi-accelerator server shares one NVMe array.
    pub ssd_bw_gbps: f64,
    /// Checkpoint fetch bandwidth from the remote model registry, GB/s
    /// ([`CheckpointTier::Remote`]). Host-level like the SSD: the NIC is
    /// shared across the server and does not scale with `ganged`.
    pub remote_bw_gbps: f64,
    /// Peer-to-peer checkpoint fabric bandwidth, GB/s: the rate at which
    /// this host can *receive* a checkpoint streamed out of another node's
    /// checkpoint cache over the cluster fabric (λScale-style RDMA fast
    /// path — far faster than the registry NIC). Host-level like the SSD
    /// and the registry NIC: one fabric port per server, so it does not
    /// scale with [`HardwareSpec::ganged`]. An actual transfer is
    /// additionally bounded by the *source's* tier read bandwidth.
    pub fabric_bw_gbps: f64,
    /// One-way setup latency of a fabric checkpoint transfer, seconds.
    pub fabric_latency_s: f64,
    /// KV rescale: seconds per GB of the enlarged cache (scale-up is
    /// allocation-dominated — Fig. 17's 2× curve).
    pub kv_up_s_per_gb: f64,
    /// KV rescale: seconds per GB of the shrunken cache (Fig. 17's 0.5×
    /// curve; cheaper because the new array is small).
    pub kv_down_s_per_gb: f64,
    /// KV rescale: seconds per GB of live cache pages copied over.
    pub kv_copy_s_per_gb: f64,
    /// Physical cores (CPU) or SM-share granularity; used for harvested-core
    /// scaling in §IX-I3.
    pub cores: u32,
    /// Effective inter-accelerator interconnect bandwidth within a node
    /// (NVLink between GPUs, UPI between CPU sockets), GB/s per device.
    /// Drives the tensor-parallel all-reduce volume term; irrelevant for
    /// single-slot instances.
    pub link_bw_gbps: f64,
    /// Latency of one inter-accelerator collective hop, seconds. Dominates
    /// the tensor-parallel decode overhead, where per-token volume is tiny
    /// but every layer still synchronizes twice.
    pub link_latency_s: f64,
}

impl HardwareSpec {
    /// NVIDIA A100-80GB (the paper's GPU node).
    pub fn a100_80g() -> Self {
        HardwareSpec {
            name: "A100-80GB".into(),
            kind: HardwareKind::Gpu,
            mem_bytes: 80 * GB,
            prefill_tflops: 156.0,
            attn_tflops: 120.0,
            decode_tflops: 100.0,
            mem_bw_gbps: 1300.0,
            load_bw_gbps: 14.0,
            // Local NVMe array ~6 GB/s; registry fetch over a 10 Gbps NIC.
            ssd_bw_gbps: 6.0,
            remote_bw_gbps: 1.25,
            // 200 Gbps RDMA-class fabric between GPU hosts; the effective
            // peer rate is still capped by the source's DRAM read path.
            fabric_bw_gbps: 25.0,
            fabric_latency_s: 5.0e-5,
            kv_up_s_per_gb: 0.027,
            kv_down_s_per_gb: 0.01625,
            kv_copy_s_per_gb: 0.0025,
            cores: 108,
            // NVLink 3: 600 GB/s aggregate per GPU, ~1/3 effective for
            // ring all-reduce traffic; ~10 µs per collective hop.
            link_bw_gbps: 200.0,
            link_latency_s: 1.0e-5,
        }
    }

    /// 32-core 4th-gen Xeon 6462C @3.3 GHz with AMX (the paper's CPU node).
    pub fn xeon4_amx_32c() -> Self {
        HardwareSpec {
            name: "Xeon4-AMX-32c".into(),
            kind: HardwareKind::CpuAccel,
            mem_bytes: 192 * GB,
            prefill_tflops: 25.9,
            attn_tflops: 10.5,
            decode_tflops: 11.5,
            mem_bw_gbps: 200.0,
            load_bw_gbps: 20.0,
            ssd_bw_gbps: 6.0,
            remote_bw_gbps: 1.25,
            // CPU hosts sit on a 100 Gbps fabric port.
            fabric_bw_gbps: 12.5,
            fabric_latency_s: 5.0e-5,
            kv_up_s_per_gb: 0.012,
            kv_down_s_per_gb: 0.008,
            kv_copy_s_per_gb: 0.002,
            cores: 32,
            // UPI cross-socket links are far slower than NVLink.
            link_bw_gbps: 40.0,
            link_latency_s: 2.0e-6,
        }
    }

    /// 32-core 3rd-gen Xeon 8369B @2.7 GHz, no AMX (Table I comparison;
    /// excluded from serving by SLINFER).
    pub fn xeon3_32c() -> Self {
        HardwareSpec {
            name: "Xeon3-32c".into(),
            kind: HardwareKind::CpuLegacy,
            mem_bytes: 192 * GB,
            prefill_tflops: 3.44,
            attn_tflops: 3.44,
            decode_tflops: 3.1,
            mem_bw_gbps: 150.0,
            load_bw_gbps: 20.0,
            ssd_bw_gbps: 6.0,
            remote_bw_gbps: 1.25,
            fabric_bw_gbps: 12.5,
            fabric_latency_s: 5.0e-5,
            kv_up_s_per_gb: 0.012,
            kv_down_s_per_gb: 0.008,
            kv_copy_s_per_gb: 0.002,
            cores: 32,
            link_bw_gbps: 30.0,
            link_latency_s: 2.0e-6,
        }
    }

    /// An `n`-accelerator aggregate of this node type: a multi-GPU server
    /// (or multi-socket CPU host) whose serving memory, compute, memory
    /// bandwidth, and weight-loading bandwidth all scale `n`× — each device
    /// keeps its own HBM and loads its weight shard in parallel, so a
    /// tensor-parallel group's `k` shard streams are one aggregate load,
    /// never `k` separate contenders on the node's loading channel. The
    /// interconnect envelope (`link_bw_gbps`, `link_latency_s`) is
    /// per-device and does not scale, and neither do the host-level
    /// checkpoint media (`ssd_bw_gbps`, `remote_bw_gbps`, `fabric_bw_gbps`):
    /// all devices share one NVMe array, one NIC, and one fabric port.
    ///
    /// Pair with [`crate::ModelSpec::with_tp`] and a node split into `n`
    /// equal slots so tensor-parallel instances can claim `k ≤ n` devices.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn ganged(&self, n: u32) -> HardwareSpec {
        assert!(n > 0, "a gang needs at least one accelerator");
        HardwareSpec {
            name: format!("{}x{n}", self.name),
            mem_bytes: self.mem_bytes * n as u64,
            prefill_tflops: self.prefill_tflops * n as f64,
            attn_tflops: self.attn_tflops * n as f64,
            decode_tflops: self.decode_tflops * n as f64,
            mem_bw_gbps: self.mem_bw_gbps * n as f64,
            load_bw_gbps: self.load_bw_gbps * n as f64,
            cores: self.cores * n,
            ..self.clone()
        }
    }

    /// A fractional view of this node: `share` of its compute, bandwidth and
    /// cores (used for harvested CPU cores, §IX-I3, and static partitioning).
    ///
    /// Memory is *not* scaled here — partitioned memory is tracked by the
    /// cluster ledger, while harvested-core CPUs still access full DRAM.
    ///
    /// # Panics
    /// Panics if `share` is not in `(0, 1]`.
    pub fn fraction(&self, share: f64) -> HardwareSpec {
        assert!(share > 0.0 && share <= 1.0, "share must be in (0,1]");
        HardwareSpec {
            name: format!("{}×{:.2}", self.name, share),
            prefill_tflops: self.prefill_tflops * share,
            attn_tflops: self.attn_tflops * share,
            decode_tflops: self.decode_tflops * share,
            mem_bw_gbps: self.mem_bw_gbps * share,
            cores: ((self.cores as f64 * share).round() as u32).max(1),
            ..self.clone()
        }
    }

    /// Checkpoint-loading bandwidth from the given storage tier, GB/s.
    ///
    /// HBM hits move device-to-device at the serving memory bandwidth;
    /// DRAM hits use the fast-loader path; SSD and remote fetches are
    /// bounded by the host's NVMe array and NIC respectively.
    pub fn tier_bw_gbps(&self, tier: CheckpointTier) -> f64 {
        match tier {
            CheckpointTier::Hbm => self.mem_bw_gbps,
            CheckpointTier::Dram => self.load_bw_gbps,
            CheckpointTier::Ssd => self.ssd_bw_gbps,
            CheckpointTier::Remote => self.remote_bw_gbps,
        }
    }

    /// Whether this node class can serve the given model at all.
    ///
    /// §IV-A2: CPUs are limited to small models (≤13B class) and require a
    /// matrix accelerator; legacy CPUs are excluded outright.
    pub fn can_serve(&self, model: &ModelSpec) -> bool {
        match self.kind {
            HardwareKind::Gpu => true,
            HardwareKind::CpuAccel => model.params <= 14_000_000_000,
            HardwareKind::CpuLegacy => false,
        }
    }
}

/// One gigabyte (10^9 bytes) — the unit the paper uses throughout.
pub const GB: u64 = 1_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_envelopes() {
        let gpu = HardwareSpec::a100_80g();
        let amx = HardwareSpec::xeon4_amx_32c();
        let old = HardwareSpec::xeon3_32c();
        assert!(gpu.prefill_tflops > amx.prefill_tflops);
        // §X: 4th-gen ≈ 105 peak vs 13 peak on 3rd-gen — effective ratio ~7×.
        let ratio = amx.prefill_tflops / old.prefill_tflops;
        assert!((6.0..9.0).contains(&ratio), "gen speedup {ratio}");
        assert_eq!(gpu.mem_bytes, 80 * GB);
    }

    #[test]
    fn fraction_scales_compute_not_memory() {
        let full = HardwareSpec::xeon4_amx_32c();
        let half = full.fraction(0.5);
        assert!((half.prefill_tflops - full.prefill_tflops / 2.0).abs() < 1e-9);
        assert!((half.mem_bw_gbps - full.mem_bw_gbps / 2.0).abs() < 1e-9);
        assert_eq!(half.mem_bytes, full.mem_bytes);
        assert_eq!(half.cores, 16);
    }

    #[test]
    #[should_panic(expected = "share must be in (0,1]")]
    fn fraction_rejects_zero() {
        HardwareSpec::a100_80g().fraction(0.0);
    }

    #[test]
    fn ganged_scales_everything_but_the_links() {
        let one = HardwareSpec::a100_80g();
        let four = one.ganged(4);
        assert_eq!(four.mem_bytes, 4 * one.mem_bytes);
        assert!((four.prefill_tflops - 4.0 * one.prefill_tflops).abs() < 1e-9);
        assert!((four.mem_bw_gbps - 4.0 * one.mem_bw_gbps).abs() < 1e-9);
        assert!((four.load_bw_gbps - 4.0 * one.load_bw_gbps).abs() < 1e-9);
        assert_eq!(four.cores, 4 * one.cores);
        // The interconnect is per-device: a bigger gang is not a faster link.
        assert_eq!(four.link_bw_gbps, one.link_bw_gbps);
        assert_eq!(four.link_latency_s, one.link_latency_s);
        // Host-level checkpoint media are shared, not per-device: the SSD
        // and the registry NIC do not get faster with more accelerators.
        assert_eq!(four.ssd_bw_gbps, one.ssd_bw_gbps);
        assert_eq!(four.remote_bw_gbps, one.remote_bw_gbps);
        // ... and neither does the peer-to-peer checkpoint fabric port.
        assert_eq!(four.fabric_bw_gbps, one.fabric_bw_gbps);
        assert_eq!(four.fabric_latency_s, one.fabric_latency_s);
        assert_eq!(four.kind, one.kind);
        // A quarter-share slot of the gang is exactly one device's compute.
        let slot = four.fraction(0.25);
        assert!((slot.prefill_tflops - one.prefill_tflops).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one accelerator")]
    fn ganged_rejects_zero() {
        HardwareSpec::a100_80g().ganged(0);
    }

    #[test]
    fn serving_eligibility() {
        let m7 = ModelSpec::llama2_7b();
        let m34 = ModelSpec::codellama_34b();
        assert!(HardwareSpec::a100_80g().can_serve(&m34));
        assert!(HardwareSpec::xeon4_amx_32c().can_serve(&m7));
        // CPUs can only handle small LLMs (≤13B): §IV-A2.
        assert!(!HardwareSpec::xeon4_amx_32c().can_serve(&m34));
        // Legacy CPUs are excluded entirely (§V).
        assert!(!HardwareSpec::xeon3_32c().can_serve(&m7));
    }

    use crate::model::ModelSpec;
}
