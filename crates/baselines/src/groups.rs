//! The one launch path of the exclusive-allocation baselines.
//!
//! `sllm` and the PD variant launch instances the same way,
//! ServerlessLLM-style: claim idle slots of one node, grant the new
//! instance those slots' exclusive memory share, create it. A plain
//! instance is a one-slot group and a tensor-parallel one a `k`-slot
//! group, so [`claim_slot_group`] serves every degree and
//! [`free_slots`] is the one idle-slot scan: the grant formula and the
//! whole-node rule cannot drift between the two policies.
//!
//! Candidate nodes are ordered by estimated startup time from each
//! node's warmest checkpoint tier (HBM co-residency, DRAM cache, local
//! SSD, remote fetch — including loading-channel contention), CPUs still
//! first. Under the flat default checkpoint configuration every node of a
//! kind scores identically, so the legacy scan order replays
//! byte-for-byte.

use std::ops::Range;

use cluster::{NodeId, World};
use engine::instance::InstanceId;
use workload::request::ModelId;

/// An idle slot: `(kind rank, node, slot)`, with CPUs ranked 0 and GPUs 1.
pub type FreeSlot = (u8, NodeId, usize);

/// Every idle slot on a schedulable node, sorted `(rank, node, slot)`:
/// CPUs first, and each node's idle slots contiguous. Per-model usability
/// is checked at claim time, so one list serves a whole retry pass.
pub fn free_slots(w: &World) -> Vec<FreeSlot> {
    let mut slots = Vec::new();
    for node in w.node_ids() {
        if !w.node_schedulable(node) {
            continue;
        }
        let rank = u8::from(!w.node_hw(node).kind.is_cpu());
        for slot in 0..w.slot_count(node) {
            if w.slot_instances(node, slot).is_empty() {
                slots.push((rank, node, slot));
            }
        }
    }
    slots.sort();
    slots
}

/// Launches an instance of `model` on `k` idle slots of one node, `k`
/// being the model's tensor-parallel degree, and returns it with the
/// claimed range of `free`. Callers that keep the list across a retry
/// pass drain that range.
///
/// `free` is sorted as [`free_slots`] returns it, so each node's idle
/// slots form one run. Nodes with at least `k` idle slots that `usable`
/// accepts are tried warmest first ([`World::startup_score_ns`]), CPUs
/// before GPUs, list order on ties. The instance takes the node's first
/// `k` idle slots and owns their memory share exclusively: `k` slot
/// shares, capped by the node's free bytes. A model whose weights plus
/// 1,024 tokens of KV exceed that share takes the whole node's memory
/// instead, provided the node hosts nothing — the paper's whole-node
/// exception for oversized instances (34B on a half-A100).
pub fn claim_slot_group(
    w: &mut World,
    model: ModelId,
    free: &[FreeSlot],
    usable: impl Fn(&World, NodeId) -> bool,
) -> Option<(InstanceId, Range<usize>)> {
    let spec = w.model_spec(model);
    let k = spec.tp_degree.max(1) as usize;
    let weights = spec.weights_bytes();
    let min_bytes = weights + spec.kv_bytes_per_token() * 1024;
    // One candidate per node run, ordered (kind rank, startup score, list
    // position).
    let mut runs: Vec<(u8, u64, usize)> = Vec::new();
    let mut i = 0;
    while i < free.len() {
        let node = free[i].1;
        let mut j = i;
        while j < free.len() && free[j].1 == node {
            j += 1;
        }
        if j - i >= k {
            runs.push((free[i].0, w.startup_score_ns(model, node), i));
        }
        i = j;
    }
    runs.sort_unstable();
    for (_, _, i) in runs {
        let node = free[i].1;
        if !usable(w, node) {
            continue;
        }
        let node_mem = w.node_hw(node).mem_bytes;
        let share = node_mem / w.slot_count(node) as u64 * k as u64;
        let budget = if min_bytes > share && w.node_instances(node).is_empty() {
            node_mem
        } else {
            share
        };
        let grant = budget
            .saturating_sub(weights)
            .min(w.node_available_bytes(node).saturating_sub(weights));
        if grant == 0 {
            continue;
        }
        let slots: Vec<usize> = free[i..i + k].iter().map(|&(_, _, s)| s).collect();
        if let Ok(inst) = w.create_instance_group(model, node, &slots, grant) {
            return Some((inst, i..i + k));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterSpec, NodeSpec, WorldConfig};
    use hwmodel::{HardwareSpec, ModelSpec};

    const N0: NodeId = NodeId(0);

    fn world(cluster: &ClusterSpec, models: Vec<ModelSpec>) -> World {
        World::new(cluster, models, WorldConfig::default())
    }

    fn any(_: &World, _: NodeId) -> bool {
        true
    }

    #[test]
    fn oversized_model_takes_a_whole_empty_split_node() {
        // 34B weights (68 GB) overflow a 40 GB half-A100 slot.
        let mut w = world(
            &ClusterSpec::statically_shared(0, 1),
            vec![ModelSpec::codellama_34b()],
        );
        let free = free_slots(&w);
        assert_eq!(free, [(1, N0, 0), (1, N0, 1)]);
        let (inst, claimed) = claim_slot_group(&mut w, ModelId(0), &free, any).expect("placed");
        assert_eq!(claimed, 0..1);
        assert_eq!(w.instance_slots(inst), Some(&[0][..]));
        assert_eq!(w.node_available_bytes(N0), 0, "the grant is the whole node");
    }

    #[test]
    fn oversized_model_gets_nothing_on_an_occupied_split_node() {
        let mut w = world(
            &ClusterSpec::statically_shared(0, 1),
            vec![ModelSpec::llama2_7b(), ModelSpec::codellama_34b()],
        );
        let free = free_slots(&w);
        let (_, claimed) = claim_slot_group(&mut w, ModelId(0), &free, any).expect("7B fits");
        assert_eq!(claimed, 0..1);
        let free = free_slots(&w);
        assert_eq!(free, [(1, N0, 1)]);
        assert!(claim_slot_group(&mut w, ModelId(1), &free, any).is_none());
        assert_eq!(w.node_instances(N0).len(), 1);
    }

    #[test]
    fn tp_group_takes_the_first_idle_slots_around_a_taken_one() {
        let mut w = world(
            &ClusterSpec {
                nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4)],
            },
            vec![ModelSpec::llama2_7b(), ModelSpec::llama2_13b().with_tp(2)],
        );
        w.create_instance(ModelId(0), N0, 1, 1_000_000_000)
            .expect("fits");
        let free = free_slots(&w);
        assert_eq!(free, [(1, N0, 0), (1, N0, 2), (1, N0, 3)]);
        let (inst, claimed) = claim_slot_group(&mut w, ModelId(1), &free, any).expect("placed");
        assert_eq!(claimed, 0..2);
        assert_eq!(w.instance_slots(inst), Some(&[0, 2][..]));
    }
}
