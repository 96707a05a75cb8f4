//! Determinism regression suite: the simulator must be a pure function of
//! (trace, seed). Two runs with the same root seed produce byte-identical
//! `RunMetrics`; different seeds diverge; and the parallel sweep driver
//! must return exactly what a serial run returns.
//!
//! This property is what makes every experiment reproducible and is
//! load-bearing for debugging: any failure here means nondeterministic
//! iteration order (e.g. hashing) or clock leakage crept into the stack.
//! (PR 2 caught exactly that: scale-op issue order leaked HashMap
//! randomness, so the same binary produced different SLINFER numbers in
//! different processes.)

use bench::runner::{world_cfg, System};
use bench::sweep::{Scenario, Sweep};
use bench::zoo;
use cluster::{ClusterSpec, NodeId, NodeSpec, RunMetrics};
use hwmodel::{HardwareSpec, ModelSpec};
use simcore::time::{SimDuration, SimTime};
use slinfer::SlinferConfig;
use workload::request::Slo;
use workload::serverless::TraceSpec;

/// A harder workload than the SLINFER smoke scenario: enough load on a
/// small cluster that baselines queue, drop, and retry — the paths where
/// iteration-order bugs hide.
fn run_system(sys: &System, cluster: &ClusterSpec, seed: u64) -> RunMetrics {
    // Noise stays ON (the default): determinism must hold because noise is
    // drawn from the seeded stream, not because noise is disabled.
    let trace = TraceSpec::azure_like(8, 5).with_load_scale(0.5).generate();
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
    sys.run(cluster, models, world_cfg(seed), &trace)
}

fn run_once(seed: u64) -> RunMetrics {
    let sys = System::Slinfer(SlinferConfig::default());
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
    run_system(&sys, &sys.cluster(1, 1, &models), seed)
}

/// Byte-exact projection of everything a run measures. `Debug` for `f64`
/// prints the shortest round-trippable decimal, so equal strings imply
/// bit-equal values.
fn fingerprint(m: &mut RunMetrics) -> String {
    let ttft_p50 = m.ttft_summary().percentile(50.0);
    let ttft_p99 = m.ttft_summary().percentile(99.0);
    let batch_p50 = m.batch_sizes.percentile(50.0);
    let kv_p95 = m.kv_util.percentile(95.0);
    format!(
        "records={:?}\nusage={:?}\noom={}\ncold={}\nscale_ops={}\npreempt={}\nmigr={}\n\
         dropped={}\nshadow={}\ncpu_tok={}\ngpu_tok={}\nbusy=({:?},{:?})\n\
         blocked={:?}\nlifetime={:?}\nend={:?}\n\
         ttft_p50={:?}\nttft_p99={:?}\nbatch_p50={:?}\nkv_p95={:?}",
        m.records,
        m.usage_timeline,
        m.oom_incidents,
        m.cold_starts,
        m.scale_ops,
        m.preemptions,
        m.migrations,
        m.dropped,
        m.shadow_validations,
        m.cpu_decode_tokens,
        m.gpu_decode_tokens,
        m.cpu_node_busy_s,
        m.gpu_node_busy_s,
        m.scale_blocked_s,
        m.instance_lifetime_s,
        m.end_time,
        ttft_p50,
        ttft_p99,
        batch_p50,
        kv_p95,
    )
}

#[test]
fn same_seed_is_byte_identical() {
    let mut a = run_once(42);
    let mut b = run_once(42);
    assert_eq!(
        fingerprint(&mut a),
        fingerprint(&mut b),
        "two runs with the same root seed must produce byte-identical RunMetrics"
    );
}

#[test]
fn trace_generation_is_seeded() {
    let a = TraceSpec::azure_like(8, 5).generate();
    let b = TraceSpec::azure_like(8, 5).generate();
    assert_eq!(format!("{:?}", a.requests), format!("{:?}", b.requests));
    let c = TraceSpec::azure_like(8, 6).generate();
    assert_ne!(
        format!("{:?}", a.requests),
        format!("{:?}", c.requests),
        "different trace seeds must produce different traces"
    );
}

#[test]
fn different_seeds_diverge() {
    let mut a = run_once(1);
    let mut b = run_once(2);
    // The same trace served under a different world seed (noise + policy
    // tie-breaking streams) must not replay token-for-token.
    assert_ne!(
        fingerprint(&mut a),
        fingerprint(&mut b),
        "different world seeds should perturb the run"
    );
}

#[test]
fn baseline_policies_replay_byte_identically() {
    // The whole `sllm` family: exclusive GPUs, CPU-preferring, and the
    // statically split variant (heterogeneous cluster form).
    for sys in [System::Sllm, System::SllmC, System::SllmCs] {
        let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
        let cluster = sys.cluster(1, 1, &models);
        let mut a = run_system(&sys, &cluster, 42);
        let mut b = run_system(&sys, &cluster, 42);
        assert_eq!(
            fingerprint(&mut a),
            fingerprint(&mut b),
            "{} must replay byte-identically",
            sys.name()
        );
    }
}

#[test]
fn statically_shared_cluster_replays_byte_identically() {
    // Half-node slots exercise the slot-share paths (concurrency limits,
    // per-slot grants) that whole-node runs never touch.
    let cluster = ClusterSpec::statically_shared(1, 2);
    for sys in [System::SllmCs, System::Slinfer(SlinferConfig::default())] {
        let mut a = run_system(&sys, &cluster, 42);
        let mut b = run_system(&sys, &cluster, 42);
        assert_eq!(
            fingerprint(&mut a),
            fingerprint(&mut b),
            "{} on a statically shared cluster must replay byte-identically",
            sys.name()
        );
    }
}

#[test]
fn pd_baselines_replay_byte_identically() {
    for sys in [System::PdSllmCs, System::PdSlinfer] {
        let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
        let cluster = sys.cluster(2, 2, &models);
        let mut a = run_system(&sys, &cluster, 42);
        let mut b = run_system(&sys, &cluster, 42);
        assert_eq!(
            fingerprint(&mut a),
            fingerprint(&mut b),
            "{} must replay byte-identically",
            sys.name()
        );
    }
}

/// An SLO-class-mix scenario: two azure-like segments interleaved, one
/// under the paper SLO and one under a relaxed class. New policy state
/// introduced for classes must keep same-seed replays byte-identical.
fn run_slo_mix(sys: &System, seed: u64) -> RunMetrics {
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
    let mut sc = Scenario::new(sys.cluster(1, 1, &models), models).config(world_cfg(seed));
    let relaxed = sc.slo_class(Slo::relaxed());
    let sc = sc
        .workload(TraceSpec::azure_like(8, 5).with_load_scale(0.3).generate())
        .classed_workload(
            TraceSpec::azure_like(8, 6).with_load_scale(0.3).generate(),
            relaxed,
        );
    sys.run_scenario(sc)
}

/// A churn scenario: one node drains mid-trace, another fails later. The
/// displaced-request handling (eviction order, re-placement, planner
/// cleanup) must not depend on hash-iteration order.
fn run_churn(sys: &System, seed: u64) -> RunMetrics {
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
    let sc = Scenario::new(sys.cluster(2, 2, &models), models)
        .config(world_cfg(seed))
        .workload(TraceSpec::azure_like(8, 5).with_load_scale(0.5).generate())
        .drain_at(SimTime::from_secs(300), NodeId(0))
        .fail_at(SimTime::from_secs(600), NodeId(2));
    sys.run_scenario(sc)
}

#[test]
fn slo_mix_runs_replay_byte_identically() {
    for sys in [System::SllmC, System::Slinfer(SlinferConfig::default())] {
        let mut a = run_slo_mix(&sys, 42);
        let mut b = run_slo_mix(&sys, 42);
        assert_eq!(
            fingerprint(&mut a),
            fingerprint(&mut b),
            "{} SLO-mix scenario must replay byte-identically",
            sys.name()
        );
        assert!(a.classes().len() == 2, "both classes must be present");
    }
}

/// FNV-1a over a fingerprint string. Stable across processes and
/// platforms — unlike `HashMap` iteration order, which randomizes per
/// process. Comparing against a *pinned* hash therefore catches exactly
/// the bug class a same-process replay-equality test cannot: state whose
/// iteration order leaks hash randomness produces a different fingerprint
/// in a different process, and every CI run is a different process.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Cross-process regression for the node-event path (the PR-2 bug class):
/// the drain/fail scenario sweeps SLINFER's parked/issued scale-op maps and
/// re-places displaced requests, so any hash-ordered policy state would
/// shift this fingerprint between processes. The pinned constants were
/// captured once; if a PR *intentionally* changes scheduling behaviour,
/// re-run with `--nocapture` and update them alongside the goldens.
#[test]
fn node_event_path_fingerprint_is_cross_process_stable() {
    let cases: [(System, u64); 2] = [
        (
            System::Slinfer(SlinferConfig::default()),
            0x7329_6ffd_43c6_acf1,
        ),
        (System::SllmC, 0x78f1_93b6_a8ac_3acc),
    ];
    for (sys, pinned) in cases {
        let mut m = run_churn(&sys, 42);
        let h = fnv1a(&fingerprint(&mut m));
        println!("{} node-event fingerprint hash: {h:#018x}", sys.name());
        assert_eq!(
            h,
            pinned,
            "{}'s drain/fail replay diverged from the cross-process pin — \
             either hash-ordered state leaked into the node-event path, or a \
             deliberate scheduling change needs this constant re-captured \
             (run with --nocapture and copy the printed hash)",
            sys.name()
        );
    }
}

#[test]
fn churn_runs_replay_byte_identically() {
    for sys in [
        System::Sllm,
        System::SllmC,
        System::Slinfer(SlinferConfig::default()),
    ] {
        let mut a = run_churn(&sys, 42);
        let mut b = run_churn(&sys, 42);
        assert_eq!(
            fingerprint(&mut a),
            fingerprint(&mut b),
            "{} drain/fail scenario must replay byte-identically",
            sys.name()
        );
        assert_eq!(a.node_drains, 1);
        assert_eq!(a.node_failures, 1);
    }
}

/// A tensor-parallel scenario: a multi-accelerator fleet serving TP=2
/// deployments under churn (one node fails mid-trace, displacing whole
/// slot groups). New TP state — slot-group claims, group busy-until
/// entries, TP-keyed quantifier profiles — must keep same-seed replays
/// byte-identical.
fn run_tp(sys: &System, seed: u64) -> RunMetrics {
    let models = zoo::replicas(&ModelSpec::llama2_13b().with_tp(2), 6);
    let fleet = ClusterSpec {
        nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4); 2],
    };
    let sc = Scenario::new(fleet, models)
        .config(world_cfg(seed))
        .workload(TraceSpec::azure_like(6, 5).with_load_scale(0.8).generate())
        .fail_at(SimTime::from_secs(400), NodeId(1));
    sys.run_scenario(sc)
}

#[test]
fn tp_runs_replay_byte_identically() {
    for sys in [System::Sllm, System::Slinfer(SlinferConfig::default())] {
        let mut a = run_tp(&sys, 42);
        let mut b = run_tp(&sys, 42);
        assert_eq!(
            fingerprint(&mut a),
            fingerprint(&mut b),
            "{} TP scenario must replay byte-identically",
            sys.name()
        );
        assert_eq!(a.node_failures, 1, "the TP fleet's node failure fired");
    }
}

/// The tp_scaling experiment's grid — TP degree as the sweep point — must
/// be bit-equal between a serial and a 2-worker run, mirroring the CI
/// cross-check on the full registry experiment.
#[test]
fn tp_sweep_threads_one_equals_two() {
    let build = || {
        Sweep::new()
            .points(vec![1u32, 2, 4])
            .systems(vec![
                System::Sllm,
                System::Slinfer(SlinferConfig::default()),
            ])
            .seeds(vec![42])
            .scenario(|cx| {
                let models = zoo::replicas(&ModelSpec::llama2_13b().with_tp(*cx.point), 4);
                let fleet = ClusterSpec {
                    nodes: vec![NodeSpec::multi_accel(HardwareSpec::a100_80g(), 4); 2],
                };
                Scenario::new(fleet, models)
                    .config(world_cfg(cx.seed))
                    .workload(TraceSpec::azure_like(4, 5).with_load_scale(0.5).generate())
            })
    };
    let mut serial = build().run(1);
    let mut two = build().run(2);
    for p in 0..3 {
        for s in 0..2 {
            assert_eq!(
                fingerprint(serial.metrics_mut(p, s, 0)),
                fingerprint(two.metrics_mut(p, s, 0)),
                "tp cell ({p},{s}) diverged between --threads 1 and 2"
            );
        }
    }
}

/// The scenario axes fan out across sweep workers exactly like plain runs:
/// a mixed-class, fault-injected grid must be bit-equal serial vs parallel.
#[test]
fn scenario_sweep_parallel_equals_serial() {
    let build = || {
        Sweep::new()
            .points(vec![false, true])
            .systems(vec![
                System::SllmC,
                System::Slinfer(SlinferConfig::default()),
            ])
            .seeds(vec![42])
            .scenario(|cx| {
                let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
                let mut sc = Scenario::new(cx.system.cluster(1, 2, &models), models)
                    .config(world_cfg(cx.seed));
                let relaxed = sc.slo_class(Slo::relaxed());
                let mut sc = sc
                    .workload(TraceSpec::azure_like(8, 5).with_load_scale(0.3).generate())
                    .classed_workload(
                        TraceSpec::azure_like(8, 6).with_load_scale(0.2).generate(),
                        relaxed,
                    );
                if *cx.point {
                    sc = sc.fail_at(SimTime::from_secs(400), NodeId(1));
                }
                sc
            })
    };
    let mut serial = build().run(1);
    let mut parallel = build().run(4);
    for p in 0..2 {
        for s in 0..2 {
            assert_eq!(
                fingerprint(serial.metrics_mut(p, s, 0)),
                fingerprint(parallel.metrics_mut(p, s, 0)),
                "scenario cell ({p},{s}) diverged between serial and parallel runs"
            );
        }
    }
}

/// The (point × system × seed) grid of a small end-to-end sweep, run
/// serially and on 4 workers: every cell must match bit-for-bit, in the
/// same axis order. This is the property that makes `--threads N` safe for
/// every experiment.
#[test]
fn parallel_sweep_equals_serial_bit_for_bit() {
    let build = || {
        Sweep::new()
            .points(vec![4u32, 8])
            .systems(vec![
                System::Sllm,
                System::SllmCs,
                System::Slinfer(SlinferConfig::default()),
            ])
            .seeds(vec![42, 43])
            .scenario(|cx| {
                let models = zoo::replicas(&ModelSpec::llama2_7b(), *cx.point as usize);
                Scenario::new(cx.system.cluster(1, 1, &models), models)
                    .config(world_cfg(cx.seed))
                    .workload(
                        TraceSpec::azure_like(*cx.point, 5)
                            .with_load_scale(0.3)
                            .generate(),
                    )
            })
    };
    let mut serial = build().run(1);
    let mut parallel = build().run(4);
    for p in 0..2 {
        for s in 0..3 {
            for k in 0..2 {
                assert_eq!(
                    fingerprint(serial.metrics_mut(p, s, k)),
                    fingerprint(parallel.metrics_mut(p, s, k)),
                    "cell ({p},{s},{k}) diverged between serial and parallel runs"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tiered checkpoint storage (the cold_start experiment's configuration)
// ---------------------------------------------------------------------

/// The shared fingerprint extended with the per-tier cold-start
/// accounting — tier residency is the state under test here, so the LRU
/// promote/demote/drop machinery and the loading-channel schedule must
/// all be captured.
fn cold_fingerprint(m: &mut RunMetrics) -> String {
    let tiers = format!(
        "\ncold_tiers={:?}\ncold_secs={:?}",
        m.cold_tier_loads, m.cold_tier_seconds
    );
    let mut s = fingerprint(m);
    s.push_str(&tiers);
    s
}

/// A cache-constrained scenario with a mid-trace node failure: per-node
/// DRAM/SSD LRU caches churn under a zoo bigger than they can hold, the
/// shared loading channel contends, and the failing node drops its cache
/// and its in-flight loads (their completion events go stale). Every bit
/// of that state machine must be deterministic.
fn run_cold(sys: &System, seed: u64) -> RunMetrics {
    const GB: u64 = 1_000_000_000;
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
    let sc = Scenario::new(ClusterSpec::heterogeneous(0, 2), models)
        .config(world_cfg(seed))
        .checkpoints(cluster::CheckpointConfig::tiered(30 * GB, Some(60 * GB)))
        .workload(TraceSpec::azure_like(8, 5).with_load_scale(0.5).generate())
        .fail_at(SimTime::from_secs(300), NodeId(0));
    sys.run_scenario(sc)
}

#[test]
fn cold_start_tiered_runs_replay_byte_identically() {
    for sys in [System::Sllm, System::Slinfer(SlinferConfig::default())] {
        let mut a = run_cold(&sys, 42);
        let mut b = run_cold(&sys, 42);
        assert_eq!(
            cold_fingerprint(&mut a),
            cold_fingerprint(&mut b),
            "{} tiered cold-start scenario must replay byte-identically",
            sys.name()
        );
        assert_eq!(a.node_failures, 1);
        let ssd_or_remote = a.cold_tier_loads[2] + a.cold_tier_loads[3];
        assert!(ssd_or_remote > 0, "the cache constraint must bite");
    }
}

/// Cross-process pin for the tiered cold-start path, NodeFail included —
/// the cache state machine (LRU recency lists, loading-channel epochs)
/// is new policy-visible state, and hash-ordered leaks in it would only
/// show up across processes (see the node-event pin above). Captured
/// once; re-capture with --nocapture on deliberate scheduling changes.
#[test]
fn cold_start_fingerprint_is_cross_process_stable() {
    let cases: [(System, u64); 2] = [
        (
            System::Slinfer(SlinferConfig::default()),
            0xb59f_cb87_a75d_cab8,
        ),
        (System::Sllm, 0xbdc5_7069_6832_f33f),
    ];
    for (sys, pinned) in cases {
        let mut m = run_cold(&sys, 42);
        let h = fnv1a(&cold_fingerprint(&mut m));
        println!("{} cold-start fingerprint hash: {h:#018x}", sys.name());
        assert_eq!(
            h,
            pinned,
            "{}'s tiered cold-start replay diverged from the cross-process \
             pin — either hash-ordered state leaked into the checkpoint \
             cache / loading channel, or a deliberate scheduling change \
             needs this constant re-captured (run with --nocapture and \
             copy the printed hash)",
            sys.name()
        );
    }
}

/// The cold_start experiment's grid — cache capacity as the sweep point —
/// must be bit-equal between a serial and a 2-worker run, mirroring the
/// registry-derived CI cross-check.
#[test]
fn cold_start_sweep_threads_one_equals_two() {
    const GB: u64 = 1_000_000_000;
    let build = || {
        Sweep::new()
            .points(vec![None, Some(15u64), Some(60)])
            .systems(vec![
                System::Sllm,
                System::Slinfer(SlinferConfig::default()),
            ])
            .seeds(vec![42])
            .scenario(|cx| {
                let models = zoo::replicas(&ModelSpec::llama2_7b(), 8);
                let ckpt = match cx.point {
                    None => cluster::CheckpointConfig::flat(),
                    Some(gb) => cluster::CheckpointConfig::tiered(gb * GB, Some(2 * gb * GB)),
                };
                Scenario::new(ClusterSpec::heterogeneous(0, 2), models)
                    .config(world_cfg(cx.seed))
                    .checkpoints(ckpt)
                    .workload(TraceSpec::azure_like(8, 5).with_load_scale(0.4).generate())
            })
    };
    let mut serial = build().run(1);
    let mut two = build().run(2);
    for p in 0..3 {
        for s in 0..2 {
            assert_eq!(
                cold_fingerprint(serial.metrics_mut(p, s, 0)),
                cold_fingerprint(two.metrics_mut(p, s, 0)),
                "cold-start cell ({p},{s}) diverged between --threads 1 and 2"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Cross-node checkpoint distribution (the scale_burst configuration)
// ---------------------------------------------------------------------

/// The tiered fingerprint extended with the fabric accounting — peer
/// fetches, relay attachment, and failure reroutes are the new state
/// under test.
fn dist_fingerprint(m: &mut RunMetrics) -> String {
    let extra = format!(
        "\npeer={}\npeer_secs={:?}\nrelays={}\nreroutes={}",
        m.peer_fetches, m.peer_fetch_seconds, m.multicast_relays, m.transfer_reroutes
    );
    let mut s = cold_fingerprint(m);
    s.push_str(&extra);
    s
}

/// The scale_burst-style staged trace: one pre-warm request parks a DRAM
/// copy, then a flash crowd forces the policy to fan the model out.
fn dist_burst_trace(burst: u32) -> workload::request::Trace {
    use workload::request::{ModelId, Request, RequestId, SloClass, Trace};
    let mut reqs = Vec::with_capacity(burst as usize + 1);
    let mut push = |arrival_s: f64, input_len: u32, output_len: u32| {
        let id = RequestId(reqs.len() as u64);
        reqs.push(Request {
            id,
            model: ModelId(0),
            arrival: SimTime::from_secs_f64(arrival_s),
            input_len,
            output_len,
            class: SloClass(0),
            session: Default::default(),
        });
    };
    push(1.0, 256, 64);
    for i in 0..burst {
        push(60.0 + 0.02 * f64::from(i), 3072, 256);
    }
    Trace::new(reqs, 1, SimDuration::from_secs(300))
}

/// A flash crowd under full distribution with the *seed node* failing
/// mid-transfer: the in-flight fabric stream sourced from the dead node
/// must reroute (to a ready replica, or a registry resume) and the whole
/// run must stay a pure function of the seed.
fn run_dist_burst(sys: &System, seed: u64) -> RunMetrics {
    const GB: u64 = 1_000_000_000;
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 1);
    let sc = Scenario::new(ClusterSpec::heterogeneous(0, 6), models)
        .config(world_cfg(seed))
        .checkpoints(cluster::CheckpointConfig::tiered(30 * GB, Some(0)))
        .dist(cluster::DistConfig::full())
        .workload(dist_burst_trace(96))
        .fail_at(SimTime::from_secs_f64(60.9), NodeId(0));
    sys.run_scenario(sc)
}

#[test]
fn dist_burst_replays_byte_identically() {
    for sys in [System::Sllm, System::Slinfer(SlinferConfig::default())] {
        let mut a = run_dist_burst(&sys, 42);
        let mut b = run_dist_burst(&sys, 42);
        assert_eq!(
            dist_fingerprint(&mut a),
            dist_fingerprint(&mut b),
            "{} distribution burst must replay byte-identically",
            sys.name()
        );
        assert_eq!(a.node_failures, 1);
        assert!(a.peer_fetches > 0, "the burst must fan out over the fabric");
        assert!(
            a.transfer_reroutes > 0,
            "the seed-node failure must catch a transfer mid-flight"
        );
    }
}

/// Cross-process pin for the distribution path, source-node failure
/// included — the directory, the cross-channel loads, and the reroute
/// planner are new policy-visible state; hash-ordered leaks in them only
/// show up across processes (see the node-event pin above). Captured
/// once; re-capture with --nocapture on deliberate scheduling changes.
#[test]
fn dist_fingerprint_is_cross_process_stable() {
    let cases: [(System, u64); 2] = [
        (
            System::Slinfer(SlinferConfig::default()),
            0x3e1d_4add_d262_14b1,
        ),
        (System::Sllm, 0x0096_fa1d_4216_32ca),
    ];
    for (sys, pinned) in cases {
        let mut m = run_dist_burst(&sys, 42);
        let h = fnv1a(&dist_fingerprint(&mut m));
        println!("{} dist fingerprint hash: {h:#018x}", sys.name());
        assert_eq!(
            h,
            pinned,
            "{}'s distribution burst diverged from the cross-process pin — \
             either hash-ordered state leaked into the replica directory / \
             fabric transfer path, or a deliberate scheduling change needs \
             this constant re-captured (run with --nocapture and copy the \
             printed hash)",
            sys.name()
        );
    }
}

// ---------------------------------------------------------------------
// Multi-turn sessions (the session_reuse configuration)
// ---------------------------------------------------------------------

/// The distribution fingerprint extended with the session accounting —
/// parked-prefix hits, KV migrations, and the warm/cold TTFT split are
/// the new state under test.
fn session_fingerprint(m: &mut RunMetrics) -> String {
    let warm_p50 = m.warm_ttft_summary().percentile(50.0);
    let cold_p50 = m.cold_ttft_summary().percentile(50.0);
    let extra = format!(
        "\nprefix_hits={}\nprefix_tokens={}\nkv_migr={}\nkv_migr_bytes={}\n\
         warm_p50={warm_p50:?}\ncold_p50={cold_p50:?}",
        m.prefix_hits(),
        m.prefix_hit_tokens,
        m.kv_migrations,
        m.kv_migration_bytes
    );
    let mut s = dist_fingerprint(m);
    s.push_str(&extra);
    s
}

/// A chat-like multi-turn scenario with affinity and KV migration on, and
/// a node failing mid-trace: parked session KV on the dead node is lost
/// with it, later turns of those sessions re-prefill cold elsewhere, and
/// the stale `session_home` entries must be skipped deterministically.
fn run_sessions(sys: &System, stickiness: f64, seed: u64) -> RunMetrics {
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 4);
    // Keep-alive must outlast the ~30 s think gaps or home instances
    // unload between turns and no prefix is ever parked long enough to hit
    // (matches the session_reuse experiment's configuration).
    let mut cfg = world_cfg(seed);
    cfg.keep_alive = SimDuration::from_secs(600);
    let sc = Scenario::new(ClusterSpec::heterogeneous(0, 4), models)
        .config(cfg)
        .sessions(cluster::SessionConfig::reuse(stickiness))
        .workload(workload::SessionSpec::chat_like(4, 5).generate())
        .fail_at(SimTime::from_secs(900), NodeId(1));
    sys.run_scenario(sc)
}

#[test]
fn session_runs_replay_byte_identically() {
    for sys in [System::Sllm, System::Slinfer(SlinferConfig::default())] {
        let mut a = run_sessions(&sys, 1.0, 42);
        let mut b = run_sessions(&sys, 1.0, 42);
        assert_eq!(
            session_fingerprint(&mut a),
            session_fingerprint(&mut b),
            "{} session scenario must replay byte-identically",
            sys.name()
        );
        assert_eq!(a.node_failures, 1, "the mid-session node failure fired");
        assert!(
            a.prefix_hit_tokens > 0,
            "follow-up turns must hit parked prefixes"
        );
    }
}

/// Cross-process pin for the session path, mid-session NodeFail included —
/// the parked-KV maps, the session-home directory, and the affinity
/// fast path are new policy-visible state; hash-ordered leaks in them
/// only show up across processes (see the node-event pin above). Captured
/// once; re-capture with --nocapture on deliberate scheduling changes.
#[test]
fn session_fingerprint_is_cross_process_stable() {
    let cases: [(System, u64); 2] = [
        (
            System::Slinfer(SlinferConfig::default()),
            0x4911_5f6b_fe69_0dfa,
        ),
        (System::Sllm, 0x1ffd_7e55_6667_3dcb),
    ];
    for (sys, pinned) in cases {
        let mut m = run_sessions(&sys, 1.0, 42);
        let h = fnv1a(&session_fingerprint(&mut m));
        println!("{} session fingerprint hash: {h:#018x}", sys.name());
        assert_eq!(
            h,
            pinned,
            "{}'s session replay diverged from the cross-process pin — \
             either hash-ordered state leaked into the parked-KV / affinity \
             path, or a deliberate scheduling change needs this constant \
             re-captured (run with --nocapture and copy the printed hash)",
            sys.name()
        );
    }
}

/// The session_reuse experiment's stickiness axis — off → full affinity —
/// must be bit-equal between a serial and a 2-worker run, mirroring the
/// registry-derived CI cross-check.
#[test]
fn session_sweep_threads_one_equals_two() {
    let build = || {
        Sweep::new()
            .points(vec![None, Some(0.0), Some(1.0)])
            .systems(vec![
                System::Sllm,
                System::Slinfer(SlinferConfig::default()),
            ])
            .seeds(vec![42])
            .scenario(|cx| {
                let sessions = match cx.point {
                    None => cluster::SessionConfig::off(),
                    Some(s) => cluster::SessionConfig::reuse(*s),
                };
                let models = zoo::replicas(&ModelSpec::llama2_7b(), 4);
                let mut cfg = world_cfg(cx.seed);
                cfg.keep_alive = SimDuration::from_secs(600);
                Scenario::new(ClusterSpec::heterogeneous(0, 4), models)
                    .config(cfg)
                    .sessions(sessions)
                    .workload(workload::SessionSpec::chat_like(4, 5).generate())
            })
    };
    let mut serial = build().run(1);
    let mut two = build().run(2);
    for p in 0..3 {
        for s in 0..2 {
            assert_eq!(
                session_fingerprint(serial.metrics_mut(p, s, 0)),
                session_fingerprint(two.metrics_mut(p, s, 0)),
                "session cell ({p},{s}) diverged between --threads 1 and 2"
            );
        }
    }
}

/// A sessionful trace under `SessionConfig::off()` must behave exactly
/// like plain independent requests: nothing parks, nothing migrates, and
/// no record reports a cached prefix. (The converse — sessionless configs
/// replaying pre-session runs byte-for-byte — is what the untouched
/// goldens prove.)
#[test]
fn sessions_off_is_inert_on_session_traces() {
    let models = zoo::replicas(&ModelSpec::llama2_7b(), 4);
    let sc = Scenario::new(ClusterSpec::heterogeneous(0, 4), models)
        .config(world_cfg(42))
        .workload(workload::SessionSpec::chat_like(4, 5).generate());
    let m = System::Slinfer(SlinferConfig::default()).run_scenario(sc);
    assert_eq!(m.prefix_hit_tokens, 0);
    assert_eq!(m.kv_migrations, 0);
    assert_eq!(m.prefix_hits(), 0);
    assert!(m.total() > 0);
}

/// The scale_burst experiment's mode axis — off/peer/full distribution —
/// must be bit-equal between a serial and a 2-worker run, mirroring the
/// registry-derived CI cross-check.
#[test]
fn dist_sweep_threads_one_equals_two() {
    const GB: u64 = 1_000_000_000;
    let build = || {
        Sweep::new()
            .points(vec![
                cluster::DistConfig::off(),
                cluster::DistConfig::peer(),
                cluster::DistConfig::full(),
            ])
            .systems(vec![
                System::Sllm,
                System::Slinfer(SlinferConfig::default()),
            ])
            .seeds(vec![42])
            .scenario(|cx| {
                let models = zoo::replicas(&ModelSpec::llama2_7b(), 1);
                Scenario::new(ClusterSpec::heterogeneous(0, 6), models)
                    .config(world_cfg(cx.seed))
                    .checkpoints(cluster::CheckpointConfig::tiered(30 * GB, Some(0)))
                    .dist(*cx.point)
                    .workload(dist_burst_trace(96))
            })
    };
    let mut serial = build().run(1);
    let mut two = build().run(2);
    for p in 0..3 {
        for s in 0..2 {
            assert_eq!(
                dist_fingerprint(serial.metrics_mut(p, s, 0)),
                dist_fingerprint(two.metrics_mut(p, s, 0)),
                "dist cell ({p},{s}) diverged between --threads 1 and 2"
            );
        }
    }
}
