//! Figure 33 — scheduling overhead vs cluster size (§IX-H), on the wall
//! clock.
//!
//! Times shadow validation and token-level scheduling decisions directly.
//! Paper: both stay below ~0.5 ms; validation cost grows mildly with the
//! number of candidate instances, token-level decisions are per-node and
//! scale-independent.
//!
//! This is the one experiment whose table is a *wall-clock measurement* of
//! the scheduler code itself — its numbers vary run-to-run by nature (and
//! are unaffected by `--threads`, which only drives simulation sweeps).
//!
//! The JSON output is therefore split: `fig33_sched_overhead.json` carries
//! only the deterministic payload (the validation verdicts and headroom
//! minima the timed code computes), so CI byte-diffs it against `goldens/`
//! like every other experiment, while the wall-clock milliseconds land in
//! the separate, non-goldened `fig33_sched_overhead_timing.json`.

use std::time::Instant;

use crate::cli::Cli;
use crate::report::{f, Report, Table};
use hwmodel::{AnalyticPerf, HardwareSpec, ModelSpec, NoiseModel};
use simcore::rng::SimRng;
use simcore::time::SimTime;
use slinfer::quantify::Quantifier;
use slinfer::shadow::{validate, InstView, ShadowReq};
use workload::request::Slo;

fn views(q: &Quantifier, instances: usize, batch: usize) -> Vec<InstView<'_>> {
    (0..instances)
        .map(|i| InstView {
            quant: q,
            reqs: (0..batch)
                .map(|k| ShadowReq {
                    anchor: SimTime::from_secs((i + k) as u64 % 7),
                    slo: Slo::paper(),
                    input_len: 1024,
                    tokens_done: 20 + k as u32,
                    prefill_len: 1024,
                    waiting: false,
                })
                .collect(),
        })
        .collect()
}

pub fn run(_cli: &Cli, r: &mut Report) {
    r.section("Fig 33 — scheduling overhead (wall clock)");
    let q = Quantifier::profile(
        &ModelSpec::llama2_7b(),
        &HardwareSpec::a100_80g(),
        1.0,
        &AnalyticPerf::new(),
        &NoiseModel::off(),
        &mut SimRng::new(1),
        256,
    );
    let slo = Slo::paper();
    let reps = 2_000u32;

    let mut table = Table::new(&["nodes", "shadow validation (ms)", "token-level (ms)"]);
    // Deterministic payload (goldened): what the timed code *computes* —
    // the validation verdict and the min-headroom pick per cluster size.
    let mut dump: Vec<(usize, String, f64)> = Vec::new();
    // Wall-clock payload (non-goldened): the measured milliseconds.
    let mut timing: Vec<(usize, f64, f64)> = Vec::new();
    for nodes in [2usize, 4, 6, 8] {
        // Validation probes more candidates as the cluster grows: model it
        // as validating against `nodes` instances on the busiest node.
        let candidate = || ShadowReq {
            anchor: SimTime::from_secs(30),
            slo: Slo::paper(),
            input_len: 1024,
            tokens_done: 0,
            prefill_len: 1024,
            waiting: true,
        };
        // The verdict is a pure function of the views; capture it once
        // outside the timed loop so the measurement stays allocation-free.
        let verdict = {
            let mut v = views(&q, nodes, 8);
            v[0].reqs.push(candidate());
            let cand = v[0].reqs.len() - 1;
            format!(
                "{:?}",
                validate(&mut v, 0, cand, SimTime::from_secs(30), 1.1)
            )
        };
        // detlint::allow(D003, "this experiment measures wall-clock overhead; output goes to the non-goldened timing blob")
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut v = views(&q, nodes, 8);
            v[0].reqs.push(candidate());
            let cand = v[0].reqs.len() - 1;
            std::hint::black_box(validate(&mut v, 0, cand, SimTime::from_secs(30), 1.1));
        }
        let shadow_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;

        let fixed = views(&q, 8, 8);
        let mut min_headroom = f64::INFINITY;
        // detlint::allow(D003, "this experiment measures wall-clock overhead; output goes to the non-goldened timing blob")
        let t1 = Instant::now();
        for _ in 0..reps {
            let now = 30.0f64;
            let mut best = f64::INFINITY;
            for v in &fixed {
                for req in &v.reqs {
                    let ttft = slo.ttft(req.input_len).as_secs_f64();
                    let h = req.anchor.as_secs_f64() + ttft + 0.25 * req.tokens_done as f64 - now;
                    if h < best {
                        best = h;
                    }
                }
            }
            min_headroom = best;
            std::hint::black_box(best);
        }
        let token_ms = t1.elapsed().as_secs_f64() * 1e3 / reps as f64;
        table.row(&[nodes.to_string(), f(shadow_ms, 3), f(token_ms, 4)]);
        dump.push((nodes, verdict, min_headroom));
        timing.push((nodes, shadow_ms, token_ms));
    }
    r.table(&table);
    r.paper_note("Fig 33: shadow validation grows mildly with nodes, stays <0.5 ms;");
    r.paper_note("token-level scheduling is per-node and scale-independent");
    r.dump_json("fig33_sched_overhead", &dump);
    r.dump_json("fig33_sched_overhead_timing", &timing);
}
