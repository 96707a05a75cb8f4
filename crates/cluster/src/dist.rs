//! Cross-node checkpoint distribution (λScale-style).
//!
//! The tiered store ([`crate::checkpoint`]) alone prices every DRAM/SSD
//! miss as a remote registry fetch, but in a real fleet the checkpoint is
//! usually sitting in a *peer's* DRAM a fabric hop away. λScale (PAPERS.md) shows the
//! dominant cold-start win is exactly that peer fetch, plus multicasting
//! the checkpoint along a dynamically built tree during scale-out bursts
//! — interior nodes of the tree begin serving (and relaying) while their
//! own transfer is still in flight. jito-solana's gossip/turbine
//! broadcast stages are the working Rust reference for this kind of
//! tree-structured dissemination; here the tree is implicit: every
//! transfer picks the cheapest ready (or, under multicast, arriving)
//! source at issue time, and source-channel contention fans new readers
//! out across the fleet, which is how binomial-ish trees emerge.
//!
//! Three pieces live here:
//!
//! - [`DistConfig`] — how far distribution goes. The default ([`DistConfig::off`])
//!   disables everything and replays pre-distribution runs **byte for
//!   byte**; [`DistConfig::peer`] streams cold starts from peers' caches;
//!   [`DistConfig::full`] adds multicast relays and cache-aware eviction.
//! - [`CheckpointDirectory`] — fleet-wide replica locations per tier:
//!   which nodes hold which checkpoints, and whether each copy is ready
//!   or still arriving (an in-flight transfer that multicast relays may
//!   attach to). Maintained by [`crate::World`] alongside each node's
//!   [`crate::CheckpointStore`]; all state is ordered (BTree) so lookups
//!   are deterministic.
//! - [`TransferPlan`] — the priced choice of a peer to stream one
//!   checkpoint from (possibly a relay). [`crate::World`] searches the
//!   directory for it in one place, which serves
//!   [`crate::World::estimate_load_s`], the create path and the reroute of
//!   a transfer whose source failed, so startup-time-estimated placement
//!   sees the fabric exactly as the transfers use it.
//!
//! # Example
//!
//! ```
//! use cluster::{DistConfig, WorldConfig};
//!
//! // Default: distribution off — bit-identical to pre-fabric runs.
//! let cfg = WorldConfig::default();
//! assert_eq!(cfg.dist, DistConfig::off());
//! assert!(!cfg.dist.enabled());
//!
//! // Flash-crowd configuration: peer fetch + multicast relay trees +
//! // cache-aware keep-alive/demotion.
//! let cfg = WorldConfig {
//!     dist: DistConfig::full(),
//!     ..WorldConfig::default()
//! };
//! assert!(cfg.dist.enabled() && cfg.dist.multicast() && cfg.dist.cache_aware());
//!
//! // Peer fetch alone (no relay trees, plain LRU eviction).
//! let peer_only = DistConfig::peer();
//! assert!(peer_only.enabled() && !peer_only.multicast());
//! ```

use std::collections::{BTreeMap, BTreeSet};

use hwmodel::CheckpointTier;
use workload::request::ModelId;

use crate::node::NodeId;

/// How many keep-alive periods the last warm copy of a model may defer
/// its unload under cache-aware keep-alive ([`DistConfig::full`]). The
/// bound lets an idle fleet still converge to empty.
pub(crate) const KEEPALIVE_DEFER_MAX: u32 = 3;

/// How far cross-node distribution goes; each level includes the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Level {
    #[default]
    Off,
    Peer,
    Full,
}

/// Run-level configuration of cross-node checkpoint distribution: one of
/// [`DistConfig::off`] (the default), [`DistConfig::peer`] or
/// [`DistConfig::full`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistConfig {
    level: Level,
}

impl DistConfig {
    /// Distribution fully off — the default. Replays pre-distribution
    /// runs byte-identically: no directory is maintained, no planner
    /// runs, no extra RNG draws happen.
    pub fn off() -> Self {
        DistConfig { level: Level::Off }
    }

    /// Peer-to-peer fetch only: a cold start streams the checkpoint from
    /// a peer node's cache over the fabric when that beats the local
    /// hierarchy. The transfer contends on the *source* node's loading
    /// channel, sharing bandwidth with the source's own cold starts. No
    /// relay trees, plain LRU eviction.
    pub fn peer() -> Self {
        DistConfig { level: Level::Peer }
    }

    /// Everything on: peer fetch, multicast relays and cache-aware
    /// keep-alive/demotion (see [`DistConfig::multicast`] and
    /// [`DistConfig::cache_aware`]).
    pub fn full() -> Self {
        DistConfig { level: Level::Full }
    }

    /// Peer fetch on: the world maintains the directory and the transfer
    /// planner runs.
    pub fn enabled(&self) -> bool {
        self.level != Level::Off
    }

    /// Transfers may attach to a peer whose own copy is still *arriving*
    /// (a relay): k simultaneous creates of one model form a λScale-style
    /// dissemination tree whose interior nodes serve mid-transfer.
    pub fn multicast(&self) -> bool {
        self.level == Level::Full
    }

    /// Eviction is cache-aware: DRAM demotion victims are scored by
    /// (re-load tier if evicted, fleet replica count) instead of bare LRU,
    /// and keep-alive defers unloading the last warm copy of a checkpoint
    /// in the fleet, up to three times.
    pub fn cache_aware(&self) -> bool {
        self.level == Level::Full
    }
}

/// State of one fleet replica of a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// The bytes are fully resident in the holder's cache hierarchy.
    Ready,
    /// The copy is still streaming in; only multicast relays may read it.
    Arriving,
}

/// One known fleet replica of a checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct Replica {
    /// Node holding (or receiving) the copy.
    pub node: NodeId,
    /// Warmest cache tier of the copy on that node (DRAM or SSD; HBM
    /// residency is derived from the live instance table, not tracked
    /// here).
    pub tier: CheckpointTier,
    /// Ready, or still arriving over the fabric/registry.
    pub state: ReplicaState,
}

/// Fleet-wide checkpoint replica locations, per model and tier.
///
/// The authoritative cache state lives in each node's
/// [`crate::CheckpointStore`]; the directory is the cluster-level view
/// the transfer planner and cache-aware eviction read. [`crate::World`]
/// refreshes a node's entries whenever its store mutates, marks
/// destinations of in-flight fabric/registry transfers as
/// [`ReplicaState::Arriving`], and drops a node's entries when it fails.
#[derive(Debug, Clone, Default)]
pub struct CheckpointDirectory {
    /// `(model, node) → warmest cached tier` for every tracked replica.
    tiers: BTreeMap<(ModelId, NodeId), CheckpointTier>,
    /// `(model, node)` pairs whose copy is still streaming in.
    arriving: BTreeSet<(ModelId, NodeId)>,
}

impl CheckpointDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        CheckpointDirectory::default()
    }

    /// Replaces `node`'s tracked replicas with its current store contents
    /// (DRAM entries shadow SSD entries — the directory keeps the warmest
    /// tier). Arriving markers are managed separately and survive.
    pub fn refresh_node(&mut self, node: NodeId, dram: &[ModelId], ssd: &[ModelId]) {
        self.tiers.retain(|&(_, n), _| n != node);
        for &m in ssd {
            self.tiers.insert((m, node), CheckpointTier::Ssd);
        }
        for &m in dram {
            self.tiers.insert((m, node), CheckpointTier::Dram);
        }
    }

    /// Marks `model`'s copy on `node` as still arriving.
    pub fn mark_arriving(&mut self, model: ModelId, node: NodeId) {
        self.arriving.insert((model, node));
    }

    /// Marks `model`'s copy on `node` as fully resident.
    pub fn mark_ready(&mut self, model: ModelId, node: NodeId) {
        self.arriving.remove(&(model, node));
    }

    /// Drops every replica (ready or arriving) tracked on `node` — the
    /// `NodeFail` path.
    pub fn clear_node(&mut self, node: NodeId) {
        self.tiers.retain(|&(_, n), _| n != node);
        self.arriving.retain(|&(_, n)| n != node);
    }

    /// All tracked replicas of `model`, in node order.
    pub fn replicas(&self, model: ModelId) -> Vec<Replica> {
        self.tiers
            .range((model, NodeId(0))..=(model, NodeId(u32::MAX)))
            .map(|(&(m, node), &tier)| Replica {
                node,
                tier,
                state: if self.arriving.contains(&(m, node)) {
                    ReplicaState::Arriving
                } else {
                    ReplicaState::Ready
                },
            })
            .collect()
    }

    /// Number of *ready* fleet replicas of `model` outside `exclude`.
    pub fn ready_replicas_elsewhere(&self, model: ModelId, exclude: NodeId) -> usize {
        self.tiers
            .range((model, NodeId(0))..=(model, NodeId(u32::MAX)))
            .filter(|(&(m, node), _)| node != exclude && !self.arriving.contains(&(m, node)))
            .count()
    }
}

/// The priced choice of one fabric transfer's source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPlan {
    /// Source node; the transfer contends on its loading channel.
    pub src: NodeId,
    /// True when the source's own copy is still arriving — this hop is a
    /// multicast relay and must wait out the tail of its parent's
    /// transfer.
    pub relay: bool,
    /// Uncontended seconds of work the transfer will occupy its loading
    /// channel with (what the in-flight load is priced from).
    pub work_s: f64,
    /// Estimated completion seconds including present channel contention
    /// (what placement scoring compares).
    pub est_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_default_and_fully_disabled() {
        assert_eq!(DistConfig::default(), DistConfig::off());
        assert!(!DistConfig::off().enabled());
        let peer = DistConfig::peer();
        assert!(peer.enabled() && !peer.multicast() && !peer.cache_aware());
        let full = DistConfig::full();
        assert!(full.enabled() && full.multicast() && full.cache_aware());
    }

    /// Whether `dir` lists a ready copy of `model` on `node`.
    fn ready_on(dir: &CheckpointDirectory, model: ModelId, node: NodeId) -> bool {
        dir.replicas(model)
            .iter()
            .any(|r| r.node == node && r.state == ReplicaState::Ready)
    }

    #[test]
    fn directory_tracks_warmest_tier_and_arrivals() {
        let mut dir = CheckpointDirectory::new();
        let (m, a, b) = (ModelId(3), NodeId(0), NodeId(1));
        dir.refresh_node(a, &[m], &[m]); // DRAM shadows SSD
        dir.refresh_node(b, &[], &[m]);
        let reps = dir.replicas(m);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].tier, CheckpointTier::Dram);
        assert_eq!(reps[1].tier, CheckpointTier::Ssd);
        assert!(ready_on(&dir, m, a) && ready_on(&dir, m, b));
        assert_eq!(dir.ready_replicas_elsewhere(m, a), 1);

        // An arriving copy is tracked but not ready.
        let c = NodeId(2);
        dir.refresh_node(c, &[m], &[]);
        dir.mark_arriving(m, c);
        assert!(!ready_on(&dir, m, c));
        assert_eq!(dir.ready_replicas_elsewhere(m, a), 1);
        let state = dir.replicas(m).last().unwrap().state;
        assert_eq!(state, ReplicaState::Arriving);
        dir.mark_ready(m, c);
        assert!(ready_on(&dir, m, c));

        // Refresh replaces exactly one node's entries.
        dir.refresh_node(a, &[], &[]);
        assert!(!ready_on(&dir, m, a) && ready_on(&dir, m, b) && ready_on(&dir, m, c));

        // NodeFail drops ready and arriving alike.
        dir.mark_arriving(m, c);
        dir.clear_node(c);
        assert_eq!(dir.replicas(m).len(), 1);
        assert_eq!(dir.ready_replicas_elsewhere(m, NodeId(99)), 1);
    }

    #[test]
    fn directory_separates_models() {
        let mut dir = CheckpointDirectory::new();
        dir.refresh_node(NodeId(0), &[ModelId(1)], &[ModelId(2)]);
        assert_eq!(dir.replicas(ModelId(1)).len(), 1);
        assert_eq!(dir.replicas(ModelId(2)).len(), 1);
        assert!(dir.replicas(ModelId(3)).is_empty());
    }
}
