//! Declarative experiment sweeps with a parallel, deterministic driver.
//!
//! A [`Sweep`] names the three axes the paper's evaluation grids share —
//! sweep points, systems, seeds — plus a scenario closure that builds the
//! per-cell simulation inputs. [`Sweep::run`] fans the full
//! (point × system × seed) grid out across `std::thread` workers and
//! collects [`RunMetrics`] in axis order, so the rendered tables and JSON
//! blobs are byte-identical no matter how many workers ran or in which
//! order cells finished: every simulation is a pure function of its
//! scenario, and presentation happens serially afterwards.

use std::io::IsTerminal;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cluster::RunMetrics;

use crate::cli::Cli;
use crate::runner::{System, SystemResult};

pub use cluster::Scenario;

/// One cell of the sweep grid, handed to the scenario closure.
pub struct Cx<'a, P> {
    /// The sweep point.
    pub point: &'a P,
    /// The system under test.
    pub system: &'a System,
    /// Index of `point` in the points axis.
    pub point_ix: usize,
    /// Index of `system` in the systems axis.
    pub system_ix: usize,
    /// The seed for this cell (an element of the seeds axis).
    pub seed: u64,
    /// Index of `seed` in the seeds axis.
    pub seed_ix: usize,
}

type ScenarioFn<'a, P> = Box<dyn Fn(&Cx<'_, P>) -> Scenario + Sync + 'a>;

/// A declarative (point × system × seed) experiment grid.
///
/// ```
/// use bench::runner::{world_cfg, System};
/// use bench::sweep::{Scenario, Sweep};
/// use bench::zoo;
/// use hwmodel::ModelSpec;
/// use workload::serverless::TraceSpec;
///
/// let results = Sweep::new()
///     .points(vec![4u32, 8])
///     .systems(vec![System::Sllm])
///     .seeds(vec![5])
///     .scenario(|cx| {
///         let models = zoo::replicas(&ModelSpec::llama2_7b(), *cx.point as usize);
///         Scenario::new(cx.system.cluster(0, 1, &models), models)
///             .config(world_cfg(cx.seed))
///             .workload(
///                 TraceSpec::azure_like(*cx.point, cx.seed)
///                     .with_load_scale(0.2)
///                     .generate(),
///             )
///     })
///     .run(2);
/// assert_eq!(results.points.len(), 2);
/// assert!(results.metrics(0, 0, 0).total() > 0);
/// ```
pub struct Sweep<'a, P> {
    points: Vec<P>,
    systems: Vec<System>,
    seeds: Vec<u64>,
    scenario: Option<ScenarioFn<'a, P>>,
    progress: bool,
}

impl<'a, P> Default for Sweep<'a, P> {
    fn default() -> Self {
        Sweep {
            points: Vec::new(),
            systems: Vec::new(),
            seeds: Vec::new(),
            scenario: None,
            progress: false,
        }
    }
}

impl<'a, P: Sync> Sweep<'a, P> {
    /// An empty sweep; fill the axes with the builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the sweep-point axis.
    pub fn points(mut self, points: impl IntoIterator<Item = P>) -> Self {
        self.points = points.into_iter().collect();
        self
    }

    /// Sets the systems axis.
    pub fn systems(mut self, systems: impl IntoIterator<Item = System>) -> Self {
        self.systems = systems.into_iter().collect();
        self
    }

    /// Sets the seeds axis (most experiments use one seed; multi-seed
    /// sweeps average away placement tipping points).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the scenario closure building each cell's simulation inputs.
    /// It must be a pure function of the [`Cx`] — workers call it
    /// concurrently and cell order is unspecified.
    pub fn scenario(mut self, f: impl Fn(&Cx<'_, P>) -> Scenario + Sync + 'a) -> Self {
        self.scenario = Some(Box::new(f));
        self
    }

    /// Enables the completed/total + ETA line on stderr while the grid
    /// runs. [`Sweep::run_cli`] wires this to the environment; results are
    /// unaffected either way (progress never touches stdout).
    pub fn progress(mut self, enabled: bool) -> Self {
        self.progress = enabled;
        self
    }

    /// Runs the grid under the unified experiment CLI: worker count from
    /// `--threads`, with a progress/ETA line on stderr when that stream is
    /// a TTY — suppressed under `--json` piping and in CI (`CI` env set).
    pub fn run_cli(self, cli: &Cli) -> SweepResults<P> {
        // detlint::allow(D004, "TTY/CI detection gates the stderr progress line only; results never depend on it")
        let show = !cli.json && std::io::stderr().is_terminal() && std::env::var_os("CI").is_none();
        let threads = cli.worker_threads();
        self.progress(show).run(threads)
    }

    /// Runs the grid on `threads` workers (1 = serial) and returns results
    /// in deterministic (point-major, then system, then seed) order.
    ///
    /// # Panics
    /// Panics if no scenario closure was set, or if any axis is empty.
    pub fn run(self, threads: usize) -> SweepResults<P> {
        let scenario = self.scenario.expect("Sweep::scenario must be set");
        assert!(
            !self.points.is_empty() && !self.systems.is_empty() && !self.seeds.is_empty(),
            "every sweep axis (points, systems, seeds) needs at least one entry"
        );
        let (np, ns, nk) = (self.points.len(), self.systems.len(), self.seeds.len());
        let cells = np * ns * nk;
        let threads = threads.clamp(1, cells);

        let run_cell = |i: usize| -> RunMetrics {
            let (p, rest) = (i / (ns * nk), i % (ns * nk));
            let (s, k) = (rest / nk, rest % nk);
            let cx = Cx {
                point: &self.points[p],
                system: &self.systems[s],
                point_ix: p,
                system_ix: s,
                seed: self.seeds[k],
                seed_ix: k,
            };
            cx.system.run_scenario(scenario(&cx))
        };

        // detlint::allow(D003, "wall-clock feeds the stderr ETA line only, never the collected results")
        let started = Instant::now();
        let finished = AtomicUsize::new(0);
        let tick = |_: &RunMetrics| {
            if !self.progress {
                return;
            }
            let done = finished.fetch_add(1, Ordering::Relaxed) + 1;
            let elapsed = started.elapsed().as_secs_f64();
            let eta = elapsed / done as f64 * (cells - done) as f64;
            if done == cells {
                eprint!("\r\x1b[2K");
            } else {
                eprint!("\r{done}/{cells} cells  ETA {eta:.0}s ");
            }
        };

        let metrics: Vec<RunMetrics> = if threads <= 1 {
            (0..cells)
                .map(|i| {
                    let m = run_cell(i);
                    tick(&m);
                    m
                })
                .collect()
        } else {
            // A work-stealing-free pool: workers claim the next cell index
            // and write into its slot. Axis order survives because slots,
            // not completion order, define the layout.
            let slots: Vec<Mutex<Option<RunMetrics>>> =
                (0..cells).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cells {
                            break;
                        }
                        let m = run_cell(i);
                        tick(&m);
                        *slots[i].lock().expect("sweep slot poisoned") = Some(m);
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("sweep slot poisoned")
                        .expect("every cell ran")
                })
                .collect()
        };

        SweepResults {
            points: self.points,
            systems: self.systems,
            seeds: self.seeds,
            metrics,
        }
    }
}

/// Results of a sweep, laid out point-major, then system, then seed.
pub struct SweepResults<P> {
    /// The points axis, as declared.
    pub points: Vec<P>,
    /// The systems axis, as declared.
    pub systems: Vec<System>,
    /// The seeds axis, as declared.
    pub seeds: Vec<u64>,
    metrics: Vec<RunMetrics>,
}

impl<P> SweepResults<P> {
    fn ix(&self, point: usize, system: usize, seed: usize) -> usize {
        assert!(
            point < self.points.len(),
            "point index {point} out of range"
        );
        assert!(
            system < self.systems.len(),
            "system index {system} out of range"
        );
        assert!(seed < self.seeds.len(), "seed index {seed} out of range");
        (point * self.systems.len() + system) * self.seeds.len() + seed
    }

    /// Metrics of one cell.
    pub fn metrics(&self, point: usize, system: usize, seed: usize) -> &RunMetrics {
        &self.metrics[self.ix(point, system, seed)]
    }

    /// Mutable metrics of one cell (percentile queries sort lazily and
    /// need `&mut`).
    pub fn metrics_mut(&mut self, point: usize, system: usize, seed: usize) -> &mut RunMetrics {
        let i = self.ix(point, system, seed);
        &mut self.metrics[i]
    }

    /// Headline-number summary of one cell.
    pub fn summary(&self, point: usize, system: usize, seed: usize) -> SystemResult {
        SystemResult::from_metrics(
            self.systems[system].name(),
            &self.metrics[self.ix(point, system, seed)],
        )
    }

    /// The flat metrics in axis order (for fingerprinting the whole grid).
    pub fn all_metrics(&self) -> &[RunMetrics] {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::world_cfg;
    use crate::zoo;
    use workload::serverless::TraceSpec;

    fn small_sweep<'a>() -> Sweep<'a, u32> {
        Sweep::new()
            .points(vec![2u32, 4])
            .systems(vec![System::Sllm, System::SllmC])
            .seeds(vec![3, 4])
            .scenario(|cx| {
                let models = zoo::replicas(&hwmodel::ModelSpec::llama3_2_3b(), *cx.point as usize);
                Scenario::new(cx.system.cluster(1, 1, &models), models)
                    .config(world_cfg(cx.seed))
                    .workload(
                        TraceSpec::azure_like(*cx.point, cx.seed)
                            .with_load_scale(0.1)
                            .generate(),
                    )
            })
    }

    fn fingerprint(r: &SweepResults<u32>) -> String {
        r.all_metrics()
            .iter()
            .map(|m| format!("{:?};{:?};{}\n", m.records, m.usage_timeline, m.dropped))
            .collect()
    }

    #[test]
    fn parallel_equals_serial_bit_for_bit() {
        let serial = small_sweep().run(1);
        let parallel = small_sweep().run(4);
        assert_eq!(
            fingerprint(&serial),
            fingerprint(&parallel),
            "worker count must not leak into results"
        );
    }

    #[test]
    fn layout_is_point_major() {
        let r = small_sweep().run(2);
        assert_eq!(r.all_metrics().len(), 2 * 2 * 2);
        // Distinct cells come back as distinct runs: the 2-model and
        // 4-model points see different trace sizes.
        assert!(r.metrics(0, 0, 0).total() < r.metrics(1, 0, 0).total());
        // Seed axis varies within a (point, system) pair.
        let a = format!("{:?}", r.metrics(0, 0, 0).records);
        let b = format!("{:?}", r.metrics(0, 0, 1).records);
        assert_ne!(a, b, "different seeds must diverge");
    }

    #[test]
    fn summary_matches_direct_construction() {
        let r = small_sweep().run(1);
        let s = r.summary(0, 1, 0);
        assert_eq!(s.system, "sllm+c");
        assert_eq!(s.total, r.metrics(0, 1, 0).total());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_axis_panics() {
        let _ = Sweep::<u32>::new()
            .points(vec![1])
            .systems(vec![])
            .seeds(vec![1])
            .scenario(|_| unreachable!())
            .run(1);
    }
}
