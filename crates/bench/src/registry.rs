//! The experiment registry.
//!
//! Every figure/table of the paper registers here, so tooling — the
//! `bench` binary (`list`, `run <name>`, `all`), the smoke tests, CI — can
//! enumerate the whole suite instead of hard-coding experiment names.

use crate::cli::Cli;
use crate::experiments;
use crate::report::Report;

/// One registered experiment: a stable name (also the `bench run` argument
/// and the JSON blob name), a human title, and the run function.
pub struct Experiment {
    /// Stable identifier, e.g. `fig04_sllm_capacity`.
    pub name: &'static str,
    /// Human-readable description of the figure/table reproduced.
    pub title: &'static str,
    /// Builds the experiment's [`Report`] under the given options.
    pub run: fn(&Cli, &mut Report),
    /// Sweep grid size — cells (points × systems × seeds) under
    /// quick (`true`) / full (`false`) — without running anything.
    /// `bench list --json` reports it so CI can reason about suite cost.
    /// Analytic experiments that drive no sweep report 0.
    pub grid: fn(bool) -> usize,
}

/// Grid of the analytic experiments: closed-form model evaluations and
/// trace characterizations drive no simulation sweep.
fn no_sweep(_quick: bool) -> usize {
    0
}

/// Every experiment in the suite, in paper order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "tab1_xeon_gens",
        title: "Table I — Llama-2-7B across Xeon generations",
        run: experiments::tab1_xeon_gens::run,
        grid: no_sweep,
    },
    Experiment {
        name: "tab2_partition_limits",
        title: "Table II — aggregated concurrency limits under static partitioning",
        run: experiments::tab2_partition_limits::run,
        grid: no_sweep,
    },
    Experiment {
        name: "tab3_pd_disagg",
        title: "Table III — aggregated vs disaggregated prefill–decode",
        run: experiments::tab3_pd_disagg::run,
        grid: experiments::tab3_pd_disagg::grid,
    },
    Experiment {
        name: "fig04_sllm_capacity",
        title: "Fig 4 — ServerlessLLM serving-capacity collapse",
        run: experiments::fig04_sllm_capacity::run,
        grid: experiments::fig04_sllm_capacity::grid,
    },
    Experiment {
        name: "fig05_sllm_memutil",
        title: "Fig 5 — GPU memory utilization under ServerlessLLM",
        run: experiments::fig05_sllm_memutil::run,
        grid: experiments::fig05_sllm_memutil::grid,
    },
    Experiment {
        name: "fig06_ttft_curves",
        title: "Fig 6 — TTFT vs input length across models and hardware",
        run: experiments::fig06_ttft_curves::run,
        grid: no_sweep,
    },
    Experiment {
        name: "fig07_08_tpot_curves",
        title: "Figs 7-8 — TPOT vs batch size for Llama-2-7B/13B",
        run: experiments::fig07_08_tpot_curves::run,
        grid: no_sweep,
    },
    Experiment {
        name: "fig09_12_footprint",
        title: "Figs 9 & 12 — footprint and concurrency under real workloads",
        run: experiments::fig09_12_footprint::run,
        grid: no_sweep,
    },
    Experiment {
        name: "fig17_kv_scaling",
        title: "Fig 17 — KV-cache rescale overhead on the GPU",
        run: experiments::fig17_kv_scaling::run,
        grid: no_sweep,
    },
    Experiment {
        name: "fig21_trace_stats",
        title: "Fig 21 — Azure-trace characterization",
        run: experiments::fig21_trace_stats::run,
        grid: no_sweep,
    },
    Experiment {
        name: "fig22_end_to_end",
        title: "Fig 22 — end-to-end comparison",
        run: experiments::fig22_end_to_end::run,
        grid: experiments::fig22_end_to_end::grid,
    },
    Experiment {
        name: "fig23_ablation",
        title: "Fig 23 — component ablation study",
        run: experiments::fig23_ablation::run,
        grid: experiments::fig23_ablation::grid,
    },
    Experiment {
        name: "fig24_cpu_scaling",
        title: "Fig 24 — CPU scalability",
        run: experiments::fig24_cpu_scaling::run,
        grid: experiments::fig24_cpu_scaling::grid,
    },
    Experiment {
        name: "fig25_gpu_efficiency",
        title: "Fig 25 — GPU efficiency under mixed sizes",
        run: experiments::fig25_gpu_efficiency::run,
        grid: experiments::fig25_gpu_efficiency::grid,
    },
    Experiment {
        name: "fig26_mixed_deploy",
        title: "Fig 26 — mixed model-size deployment",
        run: experiments::fig26_mixed_deploy::run,
        grid: experiments::fig26_mixed_deploy::grid,
    },
    Experiment {
        name: "fig27_burstgpt",
        title: "Fig 27 — BurstGPT trace at varying load levels",
        run: experiments::fig27_burstgpt::run,
        grid: experiments::fig27_burstgpt::grid,
    },
    Experiment {
        name: "fig28_colocation_cpu",
        title: "Fig 28 — host-CPU usage during multi-model GPU colocation",
        run: experiments::fig28_colocation_cpu::run,
        grid: no_sweep,
    },
    Experiment {
        name: "fig29_harvested_cores",
        title: "Fig 29 — harvested CPU cores per GPU",
        run: experiments::fig29_harvested_cores::run,
        grid: experiments::fig29_harvested_cores::grid,
    },
    Experiment {
        name: "fig30_keepalive",
        title: "Fig 30 — keep-alive threshold sensitivity",
        run: experiments::fig30_keepalive::run,
        grid: experiments::fig30_keepalive::grid,
    },
    Experiment {
        name: "fig31_watermark",
        title: "Fig 31 — KV-scaling watermark sensitivity",
        run: experiments::fig31_watermark::run,
        grid: experiments::fig31_watermark::grid,
    },
    Experiment {
        name: "fig32_node_scaling",
        title: "Fig 32 — performance under different node counts",
        run: experiments::fig32_node_scaling::run,
        grid: experiments::fig32_node_scaling::grid,
    },
    Experiment {
        name: "fig33_sched_overhead",
        title: "Fig 33 — scheduling overhead (wall clock)",
        run: experiments::fig33_sched_overhead::run,
        grid: no_sweep,
    },
    Experiment {
        name: "fig34_datasets",
        title: "Fig 34 — dataset length characterization",
        run: experiments::fig34_datasets::run,
        grid: no_sweep,
    },
    Experiment {
        name: "fig35_dataset_eval",
        title: "Fig 35 — evaluation across length datasets",
        run: experiments::fig35_dataset_eval::run,
        grid: experiments::fig35_dataset_eval::grid,
    },
    Experiment {
        name: "abl_overestimate",
        title: "Ablation — shadow-validation overestimation factor",
        run: experiments::abl_overestimate::run,
        grid: experiments::abl_overestimate::grid,
    },
    Experiment {
        name: "disc_quantization",
        title: "§X discussion — serving INT4-quantized 22B models",
        run: experiments::disc_quantization::run,
        grid: experiments::disc_quantization::grid,
    },
    Experiment {
        name: "slo_mix",
        title: "Scenario suite — SLO-class mix sweep (per-class attainment)",
        run: experiments::slo_mix::run,
        grid: experiments::slo_mix::grid,
    },
    Experiment {
        name: "fault_drain",
        title: "Scenario suite — node drain/failure resilience",
        run: experiments::fault_drain::run,
        grid: experiments::fault_drain::grid,
    },
    Experiment {
        name: "mixed_arrivals",
        title: "Scenario suite — mixed azure-like + BurstGPT arrivals",
        run: experiments::mixed_arrivals::run,
        grid: experiments::mixed_arrivals::grid,
    },
    Experiment {
        name: "tp_scaling",
        title: "Scenario suite — tensor-parallel degree × model size × load",
        run: experiments::tp_scaling::run,
        grid: experiments::tp_scaling::grid,
    },
    Experiment {
        name: "cold_start",
        title: "Scenario suite — cold starts across checkpoint tiers (cache × zoo × load)",
        run: experiments::cold_start::run,
        grid: experiments::cold_start::grid,
    },
    Experiment {
        name: "scale_burst",
        title: "Scenario suite — flash-crowd scale-out (registry vs peer fetch vs multicast)",
        run: experiments::scale_burst::run,
        grid: experiments::scale_burst::grid,
    },
    Experiment {
        name: "session_reuse",
        title: "Scenario suite — multi-turn sessions (prefix reuse × affinity stickiness)",
        run: experiments::session_reuse::run,
        grid: experiments::session_reuse::grid,
    },
    Experiment {
        name: "scale",
        title: "Fleet-scale throughput grid (sim-s/wall-s, peak RSS) — perf baseline",
        run: experiments::scale::run,
        grid: experiments::scale::grid,
    },
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// Runs one experiment under `cli` and returns its report.
pub fn run_experiment(exp: &Experiment, cli: &Cli) -> Report {
    let mut report = Report::new();
    (exp.run)(cli, &mut report);
    report
}

/// Prints a report the way `bench` presents it: text to stdout, blobs
/// to `results/`, and — under `--json` — the blobs echoed to stdout.
pub fn present(report: &Report, cli: &Cli) {
    print!("{}", report.text());
    report.write_dumps();
    if cli.json {
        for (name, blob) in report.dumps() {
            println!("--- {name}.json");
            println!("{blob}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_experiments() {
        // 26 paper figures/tables, the 7 scenario-suite experiments, and
        // the fleet-scale perf grid.
        assert_eq!(REGISTRY.len(), 34);
    }

    #[test]
    fn names_are_unique_and_findable() {
        for e in REGISTRY {
            assert_eq!(find(e.name).unwrap().name, e.name);
        }
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(find("fig99_nonexistent").is_none());
    }
}
