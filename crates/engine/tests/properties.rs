//! Property-based tests for the engine substrate: block accounting can
//! never leak or go negative, whatever sequence of operations runs.

use proptest::prelude::*;

use engine::blocks::{BlockPool, BLOCK_TOKENS};
use engine::instance::{Instance, InstanceId};
use engine::request::{ReqPhase, RunningRequest};
use hwmodel::ModelSpec;
use simcore::time::SimTime;
use workload::request::{ModelId, Request, RequestId, SloClass};

#[derive(Debug, Clone)]
enum PoolOp {
    Alloc(u64),
    Free(u64),
    Resize(u64),
}

fn arb_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (1u64..64).prop_map(PoolOp::Alloc),
        (1u64..64).prop_map(PoolOp::Free),
        (0u64..8_000_000_000).prop_map(PoolOp::Resize),
    ]
}

proptest! {
    #[test]
    fn pool_accounting_is_sound(ops in prop::collection::vec(arb_op(), 1..200)) {
        let mut pool = BlockPool::new(524_288, 4_000_000_000);
        let mut live = 0u64;
        for op in ops {
            match op {
                PoolOp::Alloc(n) => {
                    if pool.try_alloc(n) {
                        live += n;
                    }
                }
                PoolOp::Free(n) => {
                    let n = n.min(live);
                    if n > 0 {
                        pool.free(n);
                        live -= n;
                    }
                }
                PoolOp::Resize(bytes) => {
                    let ok = pool.try_resize(bytes);
                    if ok {
                        prop_assert!(pool.capacity_blocks() >= live);
                    }
                }
            }
            prop_assert_eq!(pool.used_blocks(), live);
            prop_assert!(pool.used_blocks() <= pool.capacity_blocks());
            prop_assert!(pool.utilization() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn blocks_for_tokens_is_ceiling(tokens in 0u32..100_000) {
        let pool = BlockPool::new(1024, 1_000_000);
        let blocks = pool.blocks_for_tokens(tokens);
        prop_assert!(blocks * u64::from(BLOCK_TOKENS) >= u64::from(tokens));
        if blocks > 0 {
            prop_assert!((blocks - 1) * u64::from(BLOCK_TOKENS) < u64::from(tokens));
        }
    }

    /// Any admission order followed by full service drains the instance
    /// back to zero KV usage.
    #[test]
    fn instance_drains_to_zero(
        reqs in prop::collection::vec((16u32..2048, 1u32..16), 1..12),
    ) {
        let spec = ModelSpec::llama2_7b();
        let mut inst = Instance::new(
            InstanceId(1),
            ModelId(0),
            spec,
            64_000_000_000, // plenty of KV
            SimTime::ZERO,
        );
        inst.activate(SimTime::ZERO);
        for (i, &(input, output)) in reqs.iter().enumerate() {
            inst.admit(RunningRequest::new(Request {
                id: RequestId(i as u64),
                model: ModelId(0),
                arrival: SimTime::ZERO,
                input_len: input,
                output_len: output,
                class: SloClass::default(),
                session: Default::default(),
            }));
        }
        // Serve: prefill everything, then decode until empty.
        let now = SimTime::from_secs(1);
        let waiting: Vec<RequestId> = inst
            .requests()
            .iter()
            .map(|r| r.req.id)
            .collect();
        // Token accounting: prefill produces 1 token per request, decode
        // the rest.
        let mut produced = 0u64;
        for id in waiting {
            prop_assert!(inst.begin_prefill(id).is_some());
            inst.finish_prefill(id, now);
            produced += 1;
        }
        let mut guard = 0;
        while inst.batch_size() > 0 {
            inst.begin_decode();
            let out = inst.finish_decode(now);
            prop_assert!(out.alloc_failures.is_empty(), "KV was oversized");
            produced += out.produced.len() as u64;
            guard += 1;
            prop_assert!(guard < 64, "decode loop must terminate");
        }
        prop_assert_eq!(inst.live_count(), 0);
        prop_assert_eq!(inst.kv_used_bytes(), 0, "all KV returned");
        prop_assert!(inst.idle_since.is_some());
        let expected: u64 = reqs.iter().map(|&(_, o)| o as u64).sum();
        prop_assert_eq!(produced, expected);
    }

    /// Migration at any point conserves requests and frees exactly their KV.
    #[test]
    fn migration_conserves_requests(
        n in 1usize..8,
        migrate_ix in 0usize..8,
    ) {
        let spec = ModelSpec::llama2_7b();
        let mut inst = Instance::new(
            InstanceId(1),
            ModelId(0),
            spec,
            64_000_000_000,
            SimTime::ZERO,
        );
        inst.activate(SimTime::ZERO);
        for i in 0..n {
            inst.admit(RunningRequest::new(Request {
                id: RequestId(i as u64),
                model: ModelId(0),
                arrival: SimTime::ZERO,
                input_len: 256,
                output_len: 32,
                class: SloClass::default(),
                session: Default::default(),
            }));
        }
        let victim = RequestId((migrate_ix % n) as u64);
        let before = inst.live_count();
        let moved = inst.remove_for_migration(victim, SimTime::from_secs(1));
        prop_assert_eq!(inst.live_count(), before - 1);
        prop_assert_eq!(moved.req.id, victim);
        prop_assert_eq!(moved.kv_blocks, 0);
        prop_assert_eq!(moved.phase, ReqPhase::Waiting);
    }
}
