//! Per-node tiered checkpoint storage (ServerlessLLM-style) and the shared
//! loading channel cold starts stream through.
//!
//! Every cold start used to cost a flat `weights / load_bw` regardless of
//! where the checkpoint lived. In real serverless LLM clusters checkpoint
//! *placement* is the dominant cold-start lever: ServerlessLLM keeps a
//! multi-tier checkpoint cache (GPU memory → host DRAM → local SSD →
//! remote registry) and schedules onto the node with the lowest estimated
//! startup time, and λScale distributes models across nodes to dodge the
//! remote fetch entirely. This module models that hierarchy:
//!
//! - [`CheckpointConfig`] — the per-run knobs: the DRAM and SSD cache
//!   capacities. An unbounded DRAM tier ([`CheckpointConfig::flat`], the
//!   default) reproduces the legacy flat loader **bit for bit** (every
//!   checkpoint pre-staged, no contention, no HBM shortcut), which is what
//!   keeps all pre-existing experiment goldens byte-identical. A bounded
//!   one ([`CheckpointConfig::tiered`]) turns on the whole hierarchy:
//!   cache misses, a contended loading channel and HBM hits.
//! - [`CheckpointStore`] — one node's cache state machine: deterministic
//!   LRU lists for the DRAM and SSD tiers. Checkpoints are promoted into
//!   DRAM when a load fetches them, demoted to SSD when DRAM evicts them,
//!   dropped when SSD evicts them, and the whole store is dropped on a
//!   `NodeFail` (a drain leaves it intact, so a drained node re-joining
//!   the schedulable set still has its warm tiers).
//! - `LoadChannel` — one node's shared loading channel under the tiered
//!   configuration: its cold starts (and the peer transfers sourced from
//!   the node) share its bandwidth equally.
//!
//! [`crate::World`] owns one store and one channel per node and layers the
//! HBM tier on top (HBM residency is derived from the live instance table,
//! not cached here).

use std::collections::BTreeMap;

use engine::instance::InstanceId;
use hwmodel::CheckpointTier;
use simcore::events::EventQueue;
use simcore::time::{SimDuration, SimTime};
use workload::request::ModelId;

use crate::world::Event;

/// Run-level configuration of the checkpoint storage hierarchy.
///
/// The default ([`CheckpointConfig::flat`]) models the legacy flat loader:
/// an unbounded DRAM cache with every checkpoint pre-staged, no loading
/// contention, and no HBM shortcut — every cold start costs exactly
/// `weights / load_bw`, reproducing pre-hierarchy runs byte-identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointConfig {
    /// Per-node DRAM checkpoint-cache capacity in bytes. `None` models an
    /// unbounded, pre-staged cache: every checkpoint is always a DRAM hit,
    /// nothing is tracked or evicted, and every cold start runs alone (the
    /// flat legacy loader). `Some(cap)` tracks an LRU cache whose misses
    /// fall through to the SSD tier and whose evictions demote there, and
    /// turns on the rest of the hierarchy (see
    /// [`CheckpointConfig::is_tiered`]).
    pub dram_capacity_bytes: Option<u64>,
    /// Per-node SSD capacity in bytes. `None` models checkpoints stored on
    /// every node's local SSD (the ServerlessLLM deployment assumption);
    /// `Some(cap)` tracks an LRU cache whose misses are remote registry
    /// fetches (`Some(0)` disables the SSD tier outright). Irrelevant
    /// while the DRAM tier is unbounded.
    pub ssd_capacity_bytes: Option<u64>,
}

impl CheckpointConfig {
    /// The flat legacy loader (see struct docs). This is the default.
    pub fn flat() -> Self {
        CheckpointConfig::default()
    }

    /// The full hierarchy: a finite LRU DRAM cache, an SSD tier
    /// (`None` = every checkpoint SSD-local), loading contention, and HBM
    /// hits — the ServerlessLLM-style configuration the `cold_start`
    /// experiment sweeps.
    pub fn tiered(dram_capacity_bytes: u64, ssd_capacity_bytes: Option<u64>) -> Self {
        CheckpointConfig {
            dram_capacity_bytes: Some(dram_capacity_bytes),
            ssd_capacity_bytes,
        }
    }

    /// True for the full hierarchy (a bounded DRAM tier): `k` concurrent
    /// cold starts on a node each see `1/k` of their tier bandwidth, and a
    /// model with an *active* instance on the node is copied from HBM at
    /// serving memory bandwidth instead of re-loaded.
    pub fn is_tiered(&self) -> bool {
        self.dram_capacity_bytes.is_some()
    }
}

/// One LRU-tracked cache tier: entries ordered coldest-first, byte-capped.
#[derive(Debug, Clone, Default)]
struct LruTier {
    /// `(model, bytes)` in recency order — front is next to evict.
    entries: Vec<(ModelId, u64)>,
    used: u64,
}

impl LruTier {
    fn contains(&self, model: ModelId) -> bool {
        self.entries.iter().any(|&(m, _)| m == model)
    }

    /// Refreshes recency if present.
    fn touch(&mut self, model: ModelId) {
        if let Some(ix) = self.entries.iter().position(|&(m, _)| m == model) {
            let e = self.entries.remove(ix);
            self.entries.push(e);
        }
    }

    /// Inserts (or refreshes) `model`, evicting down to `cap`; returns the
    /// evicted entries in eviction order. A checkpoint larger than the
    /// whole tier is not cached at all (it would evict everything and then
    /// itself).
    ///
    /// Victim selection is cache-aware: each resident model may carry an
    /// eviction rank (lower = cheaper to re-load if evicted = evicted
    /// first); ties and unranked models fall back to LRU order, so an
    /// empty `ranks` slice is exactly plain LRU.
    fn insert(
        &mut self,
        model: ModelId,
        bytes: u64,
        cap: u64,
        ranks: &[(ModelId, u8)],
    ) -> Vec<(ModelId, u64)> {
        if self.contains(model) {
            self.touch(model);
            return Vec::new();
        }
        if bytes > cap {
            return Vec::new();
        }
        self.entries.push((model, bytes));
        self.used += bytes;
        let rank_of = |m: ModelId| {
            ranks
                .iter()
                .find(|&&(rm, _)| rm == m)
                .map(|&(_, r)| r)
                .unwrap_or(0)
        };
        let mut evicted = Vec::new();
        while self.used > cap {
            // The just-inserted entry sits at the back and is never the
            // victim (`bytes <= cap` guarantees someone else fits the bill).
            let vix = self.entries[..self.entries.len() - 1]
                .iter()
                .enumerate()
                .min_by_key(|&(ix, &(m, _))| (rank_of(m), ix))
                .map(|(ix, _)| ix)
                .expect("used > cap implies an older entry exists");
            let victim = self.entries.remove(vix);
            debug_assert!(victim.0 != model, "capacity check above");
            self.used -= victim.1;
            evicted.push(victim);
        }
        evicted
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }

    fn models(&self) -> Vec<ModelId> {
        self.entries.iter().map(|&(m, _)| m).collect()
    }
}

/// One node's checkpoint cache state machine (DRAM + SSD tiers; the HBM
/// tier is derived from the live instance table by [`crate::World`]).
/// Fully deterministic: recency lists, no hashing.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    dram: LruTier,
    ssd: LruTier,
}

impl CheckpointStore {
    /// A store with both tiers empty.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// The warmest tier currently holding `model`'s checkpoint, without
    /// touching any recency state (scheduling estimates use this).
    pub fn peek_tier(&self, model: ModelId, cfg: &CheckpointConfig) -> CheckpointTier {
        match cfg.dram_capacity_bytes {
            None => return CheckpointTier::Dram,
            Some(_) if self.dram.contains(model) => return CheckpointTier::Dram,
            Some(_) => {}
        }
        match cfg.ssd_capacity_bytes {
            None => CheckpointTier::Ssd,
            Some(_) if self.ssd.contains(model) => CheckpointTier::Ssd,
            Some(_) => CheckpointTier::Remote,
        }
    }

    /// Fetches `model`'s checkpoint for a cold start: returns the tier it
    /// was served from and promotes it through the hierarchy — into the
    /// DRAM LRU (evictions demote to SSD), and remote fetches persist to
    /// the SSD tier on the way in.
    ///
    /// `dram_ranks` scores resident models by how cheap they are to
    /// recover if evicted (lower = evicted first; see [`crate::dist`]).
    /// Ties and an empty slice degrade to plain LRU. The SSD tier
    /// deliberately stays LRU — a cache-aware SSD tier is an open ROADMAP
    /// item.
    pub fn fetch(
        &mut self,
        model: ModelId,
        bytes: u64,
        cfg: &CheckpointConfig,
        dram_ranks: &[(ModelId, u8)],
    ) -> CheckpointTier {
        let tier = self.peek_tier(model, cfg);
        if let Some(ssd_cap) = cfg.ssd_capacity_bytes {
            if tier == CheckpointTier::Remote {
                // Write-through: the downloaded checkpoint lands on disk.
                let _ = self.ssd.insert(model, bytes, ssd_cap, &[]);
            } else {
                self.ssd.touch(model);
            }
        }
        self.admit_dram(model, bytes, cfg, dram_ranks);
        tier
    }

    /// Admits a checkpoint that arrived over the peer-to-peer fabric: it
    /// lands straight in the DRAM cache (demotions as usual) but does
    /// *not* write through to the SSD tier — a fabric transfer is a
    /// DRAM-to-DRAM stream that never touches the disk, unlike a registry
    /// download.
    pub fn admit_fabric(
        &mut self,
        model: ModelId,
        bytes: u64,
        cfg: &CheckpointConfig,
        dram_ranks: &[(ModelId, u8)],
    ) {
        self.ssd.touch(model);
        self.admit_dram(model, bytes, cfg, dram_ranks);
    }

    /// Inserts into the DRAM LRU (rank-aware), demoting evictions to SSD.
    fn admit_dram(
        &mut self,
        model: ModelId,
        bytes: u64,
        cfg: &CheckpointConfig,
        dram_ranks: &[(ModelId, u8)],
    ) {
        if let Some(dram_cap) = cfg.dram_capacity_bytes {
            for (victim, victim_bytes) in self.dram.insert(model, bytes, dram_cap, dram_ranks) {
                // Demote on eviction; beyond-SSD spills are dropped.
                if let Some(ssd_cap) = cfg.ssd_capacity_bytes {
                    let _ = self.ssd.insert(victim, victim_bytes, ssd_cap, &[]);
                }
            }
        }
    }

    /// Refreshes `model`'s recency without a fetch (HBM hits read the
    /// co-resident copy, but the checkpoint is clearly hot).
    pub fn touch(&mut self, model: ModelId) {
        self.dram.touch(model);
        self.ssd.touch(model);
    }

    /// Drops everything — the `NodeFail` path (DRAM contents die with the
    /// host, and a failed node's disk never rejoins the fleet).
    pub fn clear(&mut self) {
        self.dram.clear();
        self.ssd.clear();
    }

    /// Models currently DRAM-cached, coldest first (empty while the DRAM
    /// tier is unbounded — nothing is tracked).
    pub fn dram_models(&self) -> Vec<ModelId> {
        self.dram.models()
    }

    /// Models currently on the SSD tier, coldest first.
    pub fn ssd_models(&self) -> Vec<ModelId> {
        self.ssd.models()
    }
}

/// One in-flight cold start on a [`LoadChannel`]. Work is in seconds at
/// the load's *uncontended* bandwidth, noise folded in.
#[derive(Debug, Clone)]
struct ActiveLoad {
    /// Work left as of the channel's last settle.
    remaining_s: f64,
    work_s: f64,
    /// When the load began (completion reports `now - started`).
    started: SimTime,
}

/// One node's shared loading channel (processor sharing): with `k` loads
/// in flight each completes `1/k` seconds of its work per second.
///
/// Every membership change settles progress to `now` and pushes a fresh
/// `LoadDone` for every load under a new epoch, which makes the earlier
/// ones stale ([`LoadChannel::is_live`]). The caller hands out epochs so
/// they are unique across channels: a load rerouted to another channel can
/// never be confirmed by a stale event from the old one.
#[derive(Debug, Clone, Default)]
pub(crate) struct LoadChannel {
    loads: BTreeMap<InstanceId, ActiveLoad>,
    /// Last time `loads` progress was settled.
    settled_at: SimTime,
    /// The epoch of the last reschedule; live `LoadDone` events carry it.
    epoch: u64,
}

impl LoadChannel {
    /// Loads in flight.
    pub(crate) fn len(&self) -> usize {
        self.loads.len()
    }

    /// Adds `inst`'s load of `work_s` uncontended seconds, begun at
    /// `started`, and reschedules the channel under `epoch`.
    pub(crate) fn join(
        &mut self,
        inst: InstanceId,
        work_s: f64,
        started: SimTime,
        now: SimTime,
        epoch: u64,
        events: &mut EventQueue<Event>,
    ) {
        self.settle(now);
        self.loads.insert(
            inst,
            ActiveLoad {
                remaining_s: work_s,
                work_s,
                started,
            },
        );
        self.reschedule(now, epoch, events);
    }

    /// Takes `inst`'s load off the channel (it finished, or its instance
    /// went away) and reschedules the rest under `epoch`. A load that is
    /// not on the channel changes nothing.
    pub(crate) fn leave(
        &mut self,
        inst: InstanceId,
        now: SimTime,
        epoch: u64,
        events: &mut EventQueue<Event>,
    ) {
        if self.loads.contains_key(&inst) {
            self.settle(now);
            self.loads.remove(&inst);
            self.reschedule(now, epoch, events);
        }
    }

    /// True when a `LoadDone` for `inst` stamped `epoch` is the channel's
    /// current schedule for a load still on it.
    pub(crate) fn is_live(&self, inst: InstanceId, epoch: u64) -> bool {
        epoch == self.epoch && self.loads.contains_key(&inst)
    }

    /// Uncontended seconds `inst`'s load still has to go at `now`, without
    /// settling the channel; `None` when the load is not on it.
    pub(crate) fn remaining_s(&self, inst: InstanceId, now: SimTime) -> Option<f64> {
        let l = self.loads.get(&inst)?;
        let k = self.loads.len() as f64;
        let elapsed = now.since(self.settled_at).as_secs_f64();
        Some((l.remaining_s - elapsed / k).max(0.0))
    }

    /// Empties the channel because its node failed: settles progress to
    /// `now` and returns every load as `(instance, fraction of its work
    /// still to transfer, start time)`, in instance order. Their pending
    /// `LoadDone` events go stale with them.
    pub(crate) fn fail(&mut self, now: SimTime) -> Vec<(InstanceId, f64, SimTime)> {
        self.settle(now);
        std::mem::take(&mut self.loads)
            .into_iter()
            .map(|(inst, l)| {
                let left = if l.work_s > 0.0 {
                    (l.remaining_s / l.work_s).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                (inst, left, l.started)
            })
            .collect()
    }

    /// Advances every load to `now`.
    fn settle(&mut self, now: SimTime) {
        let elapsed = now.since(self.settled_at).as_secs_f64();
        let rate = 1.0 / self.loads.len() as f64;
        for l in self.loads.values_mut() {
            l.remaining_s = (l.remaining_s - elapsed * rate).max(0.0);
        }
        self.settled_at = now;
    }

    /// Pushes each load's completion at `now + remaining · k` under
    /// `epoch`, which makes every previously pushed one stale.
    fn reschedule(&mut self, now: SimTime, epoch: u64, events: &mut EventQueue<Event>) {
        self.epoch = epoch;
        let k = self.loads.len() as f64;
        for (&inst, l) in &self.loads {
            let finish = now + SimDuration::from_secs_f64(l.remaining_s * k);
            events.push(
                finish,
                Event::LoadDone {
                    inst,
                    elapsed: finish.since(l.started),
                    epoch,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    fn tiered(dram_gb: u64, ssd_gb: Option<u64>) -> CheckpointConfig {
        CheckpointConfig::tiered(dram_gb * GB, ssd_gb.map(|g| g * GB))
    }

    #[test]
    fn flat_config_is_always_a_dram_hit() {
        let cfg = CheckpointConfig::flat();
        let mut s = CheckpointStore::new();
        for m in 0..100 {
            assert_eq!(s.peek_tier(ModelId(m), &cfg), CheckpointTier::Dram);
            assert_eq!(
                s.fetch(ModelId(m), 500 * GB, &cfg, &[]),
                CheckpointTier::Dram
            );
        }
        assert!(s.dram_models().is_empty(), "unbounded tier tracks nothing");
    }

    #[test]
    fn finite_dram_misses_fall_to_ssd_then_promote() {
        // 30 GB DRAM, SSD-local checkpoints (ssd = None → infinite).
        let cfg = tiered(30, None);
        let mut s = CheckpointStore::new();
        let m = ModelId(0);
        assert_eq!(s.fetch(m, 14 * GB, &cfg, &[]), CheckpointTier::Ssd);
        // Promoted: the next cold start is a DRAM hit.
        assert_eq!(s.fetch(m, 14 * GB, &cfg, &[]), CheckpointTier::Dram);
    }

    #[test]
    fn lru_evicts_coldest_and_demotes_to_ssd() {
        // 30 GB DRAM + 100 GB SSD, three 14 GB models: the third insert
        // evicts the coldest (model 0), which demotes to SSD.
        let cfg = tiered(30, Some(100));
        let mut s = CheckpointStore::new();
        for m in 0..3 {
            assert_eq!(
                s.fetch(ModelId(m), 14 * GB, &cfg, &[]),
                CheckpointTier::Remote
            );
        }
        assert_eq!(s.dram_models(), vec![ModelId(1), ModelId(2)]);
        assert_eq!(s.peek_tier(ModelId(0), &cfg), CheckpointTier::Ssd);
        // Touching model 1 protects it: model 2 is now the next victim.
        s.touch(ModelId(1));
        assert_eq!(
            s.fetch(ModelId(3), 14 * GB, &cfg, &[]),
            CheckpointTier::Remote
        );
        assert_eq!(s.dram_models(), vec![ModelId(1), ModelId(3)]);
        assert_eq!(s.peek_tier(ModelId(2), &cfg), CheckpointTier::Ssd);
    }

    #[test]
    fn ssd_evictions_drop_entirely() {
        // 14 GB DRAM + 28 GB SSD: filling the SSD pushes the coldest
        // checkpoint out of the cluster's reach — back to Remote.
        let cfg = tiered(14, Some(28));
        let mut s = CheckpointStore::new();
        for m in 0..4 {
            s.fetch(ModelId(m), 14 * GB, &cfg, &[]);
        }
        assert_eq!(s.peek_tier(ModelId(0), &cfg), CheckpointTier::Remote);
    }

    #[test]
    fn oversized_checkpoints_stream_through_uncached() {
        let cfg = tiered(10, Some(10));
        let mut s = CheckpointStore::new();
        assert_eq!(
            s.fetch(ModelId(0), 14 * GB, &cfg, &[]),
            CheckpointTier::Remote
        );
        // Still remote: nothing could hold it.
        assert_eq!(
            s.fetch(ModelId(0), 14 * GB, &cfg, &[]),
            CheckpointTier::Remote
        );
        assert!(s.dram_models().is_empty() && s.ssd_models().is_empty());
    }

    /// Mixed sizes: admitting a mid-size model into a DRAM tier filled by
    /// one large model must demote the large one to SSD *before* the new
    /// checkpoint is counted as resident — never overcommit the tier.
    #[test]
    fn large_model_demotes_before_mixed_size_admission() {
        let cfg = tiered(30, Some(100));
        let mut s = CheckpointStore::new();
        assert_eq!(
            s.fetch(ModelId(0), 26 * GB, &cfg, &[]),
            CheckpointTier::Remote
        );
        assert_eq!(s.dram_models(), vec![ModelId(0)]);
        // 26 + 14 > 30: the large model must make way.
        assert_eq!(
            s.fetch(ModelId(1), 14 * GB, &cfg, &[]),
            CheckpointTier::Remote
        );
        assert_eq!(s.dram_models(), vec![ModelId(1)]);
        assert!(s.ssd_models().contains(&ModelId(0)), "demoted, not dropped");
        assert_eq!(s.peek_tier(ModelId(0), &cfg), CheckpointTier::Ssd);
        // A small model then coexists with the mid-size one (14 + 7 ≤ 30).
        s.fetch(ModelId(2), 7 * GB, &cfg, &[]);
        assert_eq!(s.dram_models(), vec![ModelId(1), ModelId(2)]);
    }

    /// The oversized-streaming path must not perturb the LRU order of the
    /// resident mix: a checkpoint bigger than the tier streams through
    /// uncached and evicts nothing.
    #[test]
    fn oversized_streaming_leaves_lru_order_untouched() {
        let cfg = tiered(30, Some(100));
        let mut s = CheckpointStore::new();
        s.fetch(ModelId(0), 14 * GB, &cfg, &[]);
        s.fetch(ModelId(1), 7 * GB, &cfg, &[]);
        let before_dram = s.dram_models();
        let before_ssd = s.ssd_models();
        // 40 GB > 30 GB DRAM: streams through, cached on SSD only (write-
        // through), and the DRAM recency order is exactly as it was.
        assert_eq!(
            s.fetch(ModelId(9), 40 * GB, &cfg, &[]),
            CheckpointTier::Remote
        );
        assert_eq!(s.dram_models(), before_dram);
        assert_eq!(
            s.ssd_models(),
            before_ssd
                .iter()
                .copied()
                .chain([ModelId(9)])
                .collect::<Vec<_>>()
        );
        // Repeat fetches of the oversized model keep streaming from SSD
        // without ever entering (or reordering) the DRAM LRU.
        assert_eq!(s.fetch(ModelId(9), 40 * GB, &cfg, &[]), CheckpointTier::Ssd);
        assert_eq!(s.dram_models(), before_dram);
        // Model 0 is still the LRU victim — the stream never refreshed
        // anyone's recency.
        s.fetch(ModelId(2), 14 * GB, &cfg, &[]);
        assert_eq!(s.dram_models(), vec![ModelId(1), ModelId(2)]);
        assert_eq!(s.peek_tier(ModelId(0), &cfg), CheckpointTier::Ssd);
    }

    /// Rank-aware eviction: a higher-ranked (more precious) resident
    /// survives even when it is the coldest; unranked/tied entries keep
    /// LRU order exactly.
    #[test]
    fn ranked_eviction_overrides_lru_and_ties_degrade_to_lru() {
        let cfg = tiered(30, Some(100));
        let mut s = CheckpointStore::new();
        s.fetch(ModelId(0), 14 * GB, &cfg, &[]); // coldest, but precious
        s.fetch(ModelId(1), 14 * GB, &cfg, &[]);
        // Rank model 0 expensive to recover (2), model 1 cheap (0).
        let ranks = [(ModelId(0), 2u8), (ModelId(1), 0u8)];
        s.fetch(ModelId(2), 14 * GB, &cfg, &ranks);
        assert_eq!(s.dram_models(), vec![ModelId(0), ModelId(2)]);
        assert_eq!(s.peek_tier(ModelId(1), &cfg), CheckpointTier::Ssd);

        // Uniform ranks are plain LRU: same store shape, no ranks.
        let mut lru = CheckpointStore::new();
        lru.fetch(ModelId(0), 14 * GB, &cfg, &[]);
        lru.fetch(ModelId(1), 14 * GB, &cfg, &[]);
        lru.fetch(
            ModelId(2),
            14 * GB,
            &cfg,
            &[(ModelId(0), 1), (ModelId(1), 1)],
        );
        assert_eq!(lru.dram_models(), vec![ModelId(1), ModelId(2)]);
    }

    /// A fabric admission lands in DRAM without the SSD write-through a
    /// registry download gets.
    #[test]
    fn fabric_admission_skips_ssd_write_through() {
        let cfg = tiered(30, Some(100));
        let mut s = CheckpointStore::new();
        s.admit_fabric(ModelId(0), 14 * GB, &cfg, &[]);
        assert_eq!(s.dram_models(), vec![ModelId(0)]);
        assert!(s.ssd_models().is_empty(), "no disk copy from a DRAM stream");
        // If DRAM later evicts it, the demotion path still lands on SSD.
        s.fetch(ModelId(1), 14 * GB, &cfg, &[]);
        s.fetch(ModelId(2), 14 * GB, &cfg, &[]);
        assert_eq!(s.peek_tier(ModelId(0), &cfg), CheckpointTier::Ssd);
    }

    #[test]
    fn clear_drops_both_tiers() {
        let cfg = tiered(30, Some(100));
        let mut s = CheckpointStore::new();
        s.fetch(ModelId(0), 14 * GB, &cfg, &[]);
        s.clear();
        assert_eq!(s.peek_tier(ModelId(0), &cfg), CheckpointTier::Remote);
    }

    #[test]
    fn no_ssd_tier_means_remote_misses() {
        let cfg = CheckpointConfig::tiered(30 * GB, Some(0));
        let mut s = CheckpointStore::new();
        assert_eq!(
            s.fetch(ModelId(0), 14 * GB, &cfg, &[]),
            CheckpointTier::Remote
        );
        // DRAM-promoted, but an eviction has nowhere to demote to.
        assert_eq!(s.peek_tier(ModelId(0), &cfg), CheckpointTier::Dram);
        s.fetch(ModelId(1), 14 * GB, &cfg, &[]);
        s.fetch(ModelId(2), 14 * GB, &cfg, &[]);
        assert_eq!(s.peek_tier(ModelId(0), &cfg), CheckpointTier::Remote);
    }

    /// Drains the queue, keeping the `(finish time, instance)` of every
    /// completion stamped `live`.
    fn live_dones(events: &mut EventQueue<Event>, live: u64) -> Vec<(SimTime, InstanceId)> {
        std::iter::from_fn(|| events.pop())
            .filter_map(|(at, ev)| match ev {
                Event::LoadDone { inst, epoch, .. } => (epoch == live).then_some((at, inst)),
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    /// Processor sharing: `k` loads in flight do exactly one second of
    /// work per second between them, and a leaver settles everyone first.
    #[test]
    fn channel_settles_exactly_the_elapsed_seconds() {
        let (mut ch, mut events) = (LoadChannel::default(), EventQueue::new());
        for (i, w) in [8.0, 6.0, 10.0, 12.0].into_iter().enumerate() {
            let (id, t0) = (InstanceId(i as u64), SimTime::ZERO);
            ch.join(id, w, t0, t0, i as u64 + 1, &mut events);
        }
        let total = |ch: &LoadChannel, secs| -> f64 {
            let now = SimTime::from_secs(secs);
            (0..4)
                .filter_map(|i| ch.remaining_s(InstanceId(i), now))
                .sum()
        };
        assert_eq!(total(&ch, 2), 36.0 - 2.0);
        // Load 1 leaves at 2 s with 5.5 s to go; three share the rest.
        ch.leave(InstanceId(1), SimTime::from_secs(2), 5, &mut events);
        assert_eq!(total(&ch, 2), 36.0 - 2.0 - 5.5);
        assert_eq!(total(&ch, 5), 36.0 - 5.0 - 5.5);
        // Each survivor finishes at 2 s + remaining × 3.
        let at = SimTime::from_micros;
        let expect = [
            (at(24_500_000), 0),
            (at(30_500_000), 2),
            (at(36_500_000), 3),
        ];
        assert_eq!(
            live_dones(&mut events, 5),
            expect.map(|(t, i)| (t, InstanceId(i)))
        );
    }

    /// A completion pushed before a membership change is stale, and a
    /// load that left is never live.
    #[test]
    fn membership_change_makes_earlier_completions_stale() {
        let (mut ch, mut events) = (LoadChannel::default(), EventQueue::new());
        let (a, b, t1) = (InstanceId(1), InstanceId(2), SimTime::from_secs(1));
        ch.join(a, 4.0, SimTime::ZERO, SimTime::ZERO, 1, &mut events);
        ch.join(b, 4.0, t1, t1, 2, &mut events);
        assert!(!ch.is_live(a, 1) && ch.is_live(a, 2) && ch.is_live(b, 2));
        ch.leave(a, SimTime::from_secs(2), 3, &mut events);
        assert!(!ch.is_live(a, 3) && !ch.is_live(b, 2) && ch.is_live(b, 3));
        // b shared the channel for 1 s and finishes its last 3.5 s alone.
        assert_eq!(
            live_dones(&mut events, 3),
            [(SimTime::from_micros(5_500_000), b)]
        );
    }
}
