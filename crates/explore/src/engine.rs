//! The exploration engine: evaluates every point of a [`DesignSpace`],
//! deduplicating against a [`ResultStore`] and fanning the cache misses out
//! over a work-stealing thread pool.
//!
//! Cache misses are evaluated in runs: consecutive points that share a
//! kernel, an allocator and a budget.  A run allocates once and computes the
//! allocation's cost terms once ([`srra_fpga::AllocationCost`]); each point
//! then adds only the terms of its RAM latency and device on its kernel's
//! [`CostTable`], which is built once per RAM latency for one explore call.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use srra_core::{CompiledKernel, MemoryCostModel};
use srra_fpga::{AllocationCost, CostTable, EvaluationOptions};
use srra_obs::{Counter, Histogram, Registry};

use crate::space::{DesignPoint, DesignSpace};
use crate::store::{PointRecord, ResultStore};

/// Handles into [`Registry::global`] for the engine's per-stage instruments,
/// resolved once so worker threads never touch the registry's name map.
struct EngineMetrics {
    evaluations: Arc<Counter>,
    infeasible: Arc<Counter>,
    store_reads: Arc<Counter>,
    store_writes: Arc<Counter>,
    reuse_analysis_us: Arc<Histogram>,
    allocation_us: Arc<Histogram>,
    cost_model_us: Arc<Histogram>,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        EngineMetrics {
            evaluations: registry.counter("explore_evaluations_total"),
            infeasible: registry.counter("explore_infeasible_total"),
            store_reads: registry.counter("explore_store_reads_total"),
            store_writes: registry.counter("explore_store_writes_total"),
            reuse_analysis_us: registry.histogram("explore_reuse_analysis_us"),
            allocation_us: registry.histogram("explore_allocation_us"),
            cost_model_us: registry.histogram("explore_cost_model_us"),
        }
    })
}

/// Wall time spent in each stage of one [`evaluate_point_timed`] call, in
/// microseconds.
///
/// The same three stages the engine's global histograms
/// (`explore_reuse_analysis_us` / `explore_allocation_us` /
/// `explore_cost_model_us`) aggregate, surfaced per call so a traced serve
/// request can attribute its evaluation time span by span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Memoized reuse analysis (0 when the kernel's analysis was already
    /// cached and the stage never ran).
    pub reuse_analysis_us: u64,
    /// Register allocation (the point's allocator strategy).
    pub allocation_us: u64,
    /// Hardware cost-model evaluation (0 for infeasible points, which never
    /// reach it).
    pub cost_model_us: u64,
}

impl StageTimings {
    /// Total stage time in microseconds.
    pub fn total_us(&self) -> u64 {
        self.reuse_analysis_us + self.allocation_us + self.cost_model_us
    }
}

/// Ends a stage that began at `started` with one clock read: records the
/// interval in the stage's histogram and returns it in microseconds, so the
/// histogram and a traced span report the same interval.
fn finish_stage(histogram: &Histogram, started: Instant) -> u64 {
    let micros = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    histogram.record_micros(micros);
    micros
}

/// The hardware evaluation options of a point: the defaults at its RAM latency.
fn options_for(ram_latency: u64) -> EvaluationOptions {
    EvaluationOptions {
        memory: MemoryCostModel::default().with_ram_latency(ram_latency),
        ..EvaluationOptions::default()
    }
}

/// One kernel's cost tables, one per RAM latency, each built at the first
/// feasible point that needs it and kept for one batch of evaluations.
struct KernelTables<'k> {
    kernel: &'k CompiledKernel,
    tables: Vec<(u64, OnceLock<CostTable<'k>>)>,
}

impl<'k> KernelTables<'k> {
    fn new(kernel: &'k CompiledKernel, ram_latencies: &[u64]) -> Self {
        Self {
            kernel,
            tables: ram_latencies
                .iter()
                .map(|&latency| (latency, OnceLock::new()))
                .collect(),
        }
    }

    fn get(&self, ram_latency: u64) -> &CostTable<'k> {
        let (_, table) = self
            .tables
            .iter()
            .find(|(latency, _)| *latency == ram_latency)
            .expect("a table slot for every RAM latency of the batch");
        table.get_or_init(|| {
            CostTable::new(
                self.kernel.kernel(),
                self.kernel.analysis(),
                self.kernel.dfg(),
                &options_for(ram_latency),
            )
        })
    }
}

/// A point waiting for evaluation, with the content address the cache pass
/// built for it and its slot in the point order.
struct Pending<'s> {
    point: &'s DesignPoint,
    canonical: String,
    key: u64,
    slot: usize,
}

impl Pending<'_> {
    /// The point's record before evaluation: its identity, marked infeasible.
    fn unevaluated(&self) -> PointRecord {
        let point = self.point;
        PointRecord {
            key: self.key,
            canonical: self.canonical.clone(),
            kernel: point.kernel.clone(),
            algorithm: point.allocator.label().to_owned(),
            version: point.allocator.version_name().to_owned(),
            budget: point.budget,
            ram_latency: point.ram_latency,
            device: point.device.name().to_owned(),
            feasible: false,
            fits: false,
            registers_used: 0,
            total_cycles: 0,
            compute_cycles: 0,
            memory_cycles: 0,
            transfer_cycles: 0,
            clock_period_ns: 0.0,
            execution_time_us: 0.0,
            slices: 0,
            block_rams: 0,
            distribution: String::new(),
        }
    }

    /// Whether `next` continues this point's run: same kernel, allocator and
    /// budget.
    fn same_run(&self, next: &Pending<'_>) -> bool {
        let (a, b) = (self.point, next.point);
        a.kernel_index == b.kernel_index && a.allocator == b.allocator && a.budget == b.budget
    }
}

/// Evaluates one run: consecutive points that share a kernel, an allocator
/// and a budget, so they share one allocation.  The run allocates once and
/// computes the allocation's cost terms once, through the table of its first
/// point; each point then adds only its RAM-latency and device terms.  An
/// infeasible allocation makes every point of the run infeasible.
///
/// `emit` receives each point's record, in run order, with the stage time it
/// paid: the first point carries the reuse analysis (if it ran) and the
/// allocation, and every feasible point its own cost-model time.
fn evaluate_run(
    tables: &KernelTables<'_>,
    run: &[Pending<'_>],
    mut emit: impl FnMut(PointRecord, StageTimings),
) {
    let metrics = engine_metrics();
    let kernel = tables.kernel;
    let mut timings = StageTimings::default();
    // Force the kernel's memoized reuse analysis now, so its cost (paid only
    // by the first run of each kernel) lands in its own histogram instead
    // of being folded into whichever stage happens to trigger it.
    if !kernel.analysis_is_cached() {
        let started = Instant::now();
        let _ = kernel.analysis();
        timings.reuse_analysis_us = finish_stage(&metrics.reuse_analysis_us, started);
    }
    let first = run[0].point;
    let started = Instant::now();
    let allocated = first.allocator.allocate(kernel, first.budget);
    timings.allocation_us = finish_stage(&metrics.allocation_us, started);
    let Ok(allocation) = allocated else {
        for pending in run {
            metrics.evaluations.inc();
            metrics.infeasible.inc();
            emit(pending.unevaluated(), std::mem::take(&mut timings));
        }
        return;
    };
    let mut cost: Option<AllocationCost> = None;
    for pending in run {
        metrics.evaluations.inc();
        let point = pending.point;
        let started = Instant::now();
        let table = tables.get(point.ram_latency);
        let cost = cost.get_or_insert_with(|| table.allocation_cost(&allocation));
        let terms = table.point_cost(cost, &point.device);
        timings.cost_model_us = finish_stage(&metrics.cost_model_us, started);
        let record = PointRecord {
            feasible: true,
            fits: terms.fits,
            registers_used: cost.registers_used(),
            total_cycles: terms.total_cycles,
            compute_cycles: terms.compute_cycles,
            memory_cycles: terms.memory_cycles,
            transfer_cycles: terms.transfer_cycles,
            clock_period_ns: cost.clock_period_ns(),
            execution_time_us: terms.execution_time_us,
            slices: cost.slices(),
            block_rams: terms.block_rams,
            distribution: cost.distribution().to_owned(),
            ..pending.unevaluated()
        };
        emit(record, std::mem::take(&mut timings));
    }
}

/// Evaluates one design point from scratch (no cache involved).
///
/// The kernel's [`CompiledKernel`] context supplies the (memoized) reuse
/// analysis and data-flow graph, so evaluating many points of one kernel
/// derives each once, on first use.  The point's RAM latency parameterises
/// both the steady-state memory-cycle metric and the hardware evaluation, so
/// `ram_latency = 2` reproduces `srra_bench::evaluate_compiled`'s numbers and
/// `ram_latency = 1` reproduces the abstract `T_mem` metric of the Figure 2
/// reproduction.
pub fn evaluate_point(kernel: &CompiledKernel, point: &DesignPoint) -> PointRecord {
    evaluate_point_timed(kernel, point).0
}

/// [`evaluate_point`] plus per-stage wall timings for span emission.
///
/// The point is a run of one with a fresh cost table, so it does the work of
/// one whole design point.  The global stage histograms record exactly as in
/// [`evaluate_point`]; the returned [`StageTimings`] additionally surfaces
/// this call's own stage durations so callers can attach them to a trace.
pub fn evaluate_point_timed(
    kernel: &CompiledKernel,
    point: &DesignPoint,
) -> (PointRecord, StageTimings) {
    let canonical = point.canonical();
    let key = crate::space::fnv1a_64(canonical.as_bytes());
    let run = [Pending {
        point,
        canonical,
        key,
        slot: 0,
    }];
    let mut evaluated = None;
    evaluate_run(
        &KernelTables::new(kernel, &[point.ram_latency]),
        &run,
        |record, timings| evaluated = Some((record, timings)),
    );
    evaluated.expect("a run of one point emits one record")
}

/// The outcome of one [`Explorer::explore`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct Exploration {
    /// One record per design point, in the space's deterministic point order.
    pub records: Vec<PointRecord>,
    /// Points answered from the store without evaluation.
    pub cache_hits: usize,
    /// Points evaluated this run (and written back to the store).
    pub evaluated: usize,
}

impl Exploration {
    /// The records belonging to one kernel, in point order.
    pub fn kernel_records(&self, kernel: &str) -> Vec<&PointRecord> {
        self.records
            .iter()
            .filter(|record| record.kernel == kernel)
            .collect()
    }

    /// The distinct kernel names, in first-appearance order.
    pub fn kernel_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for record in &self.records {
            if !names.contains(&record.kernel.as_str()) {
                names.push(&record.kernel);
            }
        }
        names
    }
}

/// Runs design-space explorations with a configurable degree of parallelism.
#[derive(Debug, Clone)]
pub struct Explorer {
    jobs: usize,
}

impl Explorer {
    /// An explorer running at most `jobs` worker threads (`0` is treated as
    /// `1`; one job means fully serial evaluation on the calling thread).
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates every point of `space`, answering from `store` where possible
    /// and writing every fresh result back to it.
    ///
    /// Results are deterministic: the record list is in the space's point order
    /// and each record's content depends only on the design point, never on the
    /// worker count or the store's prior contents.  Fresh records are written
    /// to the store in point order too, so a persistent store's bytes do not
    /// depend on the worker count.
    ///
    /// # Errors
    ///
    /// Propagates the store's error type (I/O or corrupt-cache errors for
    /// persistent backends; [`std::convert::Infallible`] for the in-memory
    /// store).
    pub fn explore<S: ResultStore>(
        &self,
        space: &DesignSpace,
        store: &mut S,
    ) -> Result<Exploration, S::Error> {
        let points = space.points();

        // Cache pass: answer what we can, queue the rest.  A repeated design
        // point within one run (a duplicated axis value) is a twin: its slot
        // is filled from the one pending evaluation of its first occurrence.
        // Each point's canonical string is built exactly once here.
        let metrics = engine_metrics();
        let mut records: Vec<Option<PointRecord>> = vec![None; points.len()];
        let mut pending: Vec<Pending<'_>> = Vec::new();
        let mut twins: Vec<(usize, usize)> = Vec::new();
        let mut seen: HashMap<u64, usize> = HashMap::with_capacity(points.len());
        let mut cache_hits = 0;
        for (slot, point) in points.iter().enumerate() {
            let canonical = point.canonical();
            let key = crate::space::fnv1a_64(canonical.as_bytes());
            if let Some(&twin) = seen.get(&key) {
                if pending[twin].canonical == canonical {
                    twins.push((slot, twin));
                    continue;
                }
                // A key collision between distinct points: fall through and
                // evaluate separately (the store keeps both colliding
                // records).
            }
            metrics.store_reads.inc();
            match store.get(key, &canonical)? {
                Some(record) => {
                    records[slot] = Some(record);
                    cache_hits += 1;
                }
                None => {
                    seen.insert(key, pending.len());
                    pending.push(Pending {
                        point,
                        canonical,
                        key,
                        slot,
                    });
                }
            }
        }

        // Runs: maximal stretches of pending points that share a kernel, an
        // allocator and a budget (point order puts the RAM latency and the
        // device innermost), so each run allocates once.
        let mut runs: Vec<Range<usize>> = Vec::new();
        for end in 1..=pending.len() {
            if end == pending.len() || !pending[end - 1].same_run(&pending[end]) {
                let start = runs.last().map_or(0, |run| run.end);
                runs.push(start..end);
            }
        }

        // Each kernel's `CompiledKernel` context memoizes its reuse analysis
        // and DFG, and its cost tables live for this call: the first feasible
        // point of a kernel at a RAM latency builds the table, every other
        // point (on any worker thread) reuses it, and a fully warm run builds
        // none of them.
        let mut ram_latencies: Vec<u64> = Vec::new();
        for pending in &pending {
            if !ram_latencies.contains(&pending.point.ram_latency) {
                ram_latencies.push(pending.point.ram_latency);
            }
        }
        let tables: Vec<KernelTables<'_>> = space
            .kernels()
            .iter()
            .map(|kernel| KernelTables::new(kernel, &ram_latencies))
            .collect();
        let evaluated = pending.len();
        let fresh: Vec<PointRecord> = if self.jobs == 1 || runs.len() <= 1 {
            let mut fresh = Vec::with_capacity(pending.len());
            for run in &runs {
                let run = &pending[run.clone()];
                evaluate_run(&tables[run[0].point.kernel_index], run, |record, _| {
                    fresh.push(record);
                });
            }
            fresh
        } else {
            self.evaluate_parallel(&tables, &pending, &runs)
        };

        // Fresh records reach the store in point order, so a persistent
        // store's bytes never depend on the worker count or thread timing.
        for (queued, record) in pending.iter().zip(fresh) {
            metrics.store_writes.inc();
            store.put(&record)?;
            records[queued.slot] = Some(record);
        }
        for (slot, twin) in twins {
            records[slot] = records[pending[twin].slot].clone();
        }

        Ok(Exploration {
            records: records
                .into_iter()
                .map(|slot| slot.expect("every point is either cached or freshly evaluated"))
                .collect(),
            cache_hits,
            evaluated,
        })
    }

    /// Fans the runs out over scoped worker threads.  Work distribution is a
    /// shared atomic cursor: each worker claims the next unclaimed run, so
    /// fast workers steal the load of slow ones without any queue structure.
    /// Returns the fresh records in pending order.
    fn evaluate_parallel(
        &self,
        tables: &[KernelTables<'_>],
        pending: &[Pending<'_>],
        runs: &[Range<usize>],
    ) -> Vec<PointRecord> {
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, Vec<PointRecord>)>> =
            Mutex::new(Vec::with_capacity(runs.len()));
        let workers = self.jobs.min(runs.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(run) = runs.get(index) else {
                        break;
                    };
                    let run = &pending[run.clone()];
                    let mut records = Vec::with_capacity(run.len());
                    evaluate_run(&tables[run[0].point.kernel_index], run, |record, _| {
                        records.push(record);
                    });
                    results
                        .lock()
                        .expect("no worker panics while holding the result lock")
                        .push((index, records));
                });
            }
        });
        let mut results = results.into_inner().expect("workers have finished");
        results.sort_unstable_by_key(|(index, _)| *index);
        results
            .into_iter()
            .flat_map(|(_, records)| records)
            .collect()
    }
}

impl Default for Explorer {
    /// One worker per available CPU.
    fn default() -> Self {
        let jobs = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::new(jobs)
    }
}

// The unit tests compare the engine's records with the one-shot wrapper's.
#[cfg(test)]
use srra_fpga::HardwareDesign;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use srra_core::critical_path_aware;
    use srra_ir::examples::paper_example;
    use srra_kernels::paper_suite;
    use srra_reuse::ReuseAnalysis;

    fn small_space() -> DesignSpace {
        DesignSpace::new()
            .with_kernel(paper_example())
            .with_budgets(&[16, 32, 64])
            .with_ram_latencies(&[1, 2])
    }

    #[test]
    fn exploration_matches_the_bench_pipeline() {
        let space = DesignSpace::new()
            .with_kernel(paper_example())
            .with_budgets(&[64]);
        let run = Explorer::new(1)
            .explore(&space, &mut MemoryStore::new())
            .unwrap();
        assert_eq!(run.records.len(), 3);
        let cpa = run
            .records
            .iter()
            .find(|r| r.algorithm == "CPA-RA")
            .unwrap();
        // Same numbers as srra_bench::evaluate_compiled (RAM latency 2 default).
        let kernel = paper_example();
        let analysis = ReuseAnalysis::of(&kernel);
        let allocation = critical_path_aware(&kernel, &analysis, 64).unwrap();
        let design = HardwareDesign::evaluate(
            &kernel,
            &analysis,
            &allocation,
            &srra_fpga::DeviceModel::xcv1000(),
            &EvaluationOptions::default(),
        );
        assert_eq!(cpa.total_cycles, design.total_cycles);
        assert_eq!(cpa.slices, design.slices);
        assert_eq!(cpa.registers_used, design.registers_used);
        assert!((cpa.clock_period_ns - design.clock_period_ns).abs() < 1e-12);
    }

    #[test]
    fn infeasible_budgets_are_recorded_not_dropped() {
        let space = DesignSpace::new()
            .with_kernel(paper_example())
            .with_budgets(&[1]);
        let run = Explorer::new(1)
            .explore(&space, &mut MemoryStore::new())
            .unwrap();
        assert_eq!(run.records.len(), 3);
        for record in &run.records {
            assert!(!record.feasible);
            assert_eq!(record.total_cycles, 0);
        }
    }

    #[test]
    fn second_run_is_all_cache_hits() {
        let space = small_space();
        let mut store = MemoryStore::new();
        let cold = Explorer::new(2).explore(&space, &mut store).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.evaluated, space.len());
        let warm = Explorer::new(2).explore(&space, &mut store).unwrap();
        assert_eq!(warm.cache_hits, space.len());
        assert_eq!(warm.evaluated, 0);
        assert_eq!(warm.records, cold.records);
    }

    #[test]
    fn duplicate_axis_values_are_evaluated_once() {
        let space = DesignSpace::new()
            .with_kernel(paper_example())
            .with_budgets(&[32, 32, 64]);
        let run = Explorer::new(2)
            .explore(&space, &mut MemoryStore::new())
            .unwrap();
        assert_eq!(run.records.len(), 9, "3 algorithms x 3 budget entries");
        assert_eq!(
            run.evaluated, 6,
            "the repeated budget re-uses its twin's result"
        );
        assert_eq!(run.cache_hits, 0);
        for chunk in run.records.chunks(3) {
            assert_eq!(
                chunk[0], chunk[1],
                "duplicate budget slots share one record"
            );
        }
    }

    #[test]
    fn warm_runs_skip_the_reuse_analysis_entirely() {
        let space = small_space();
        let mut store = MemoryStore::new();
        Explorer::new(1).explore(&space, &mut store).unwrap();
        // All-hit run: nothing pending, so no ReuseAnalysis is built (this is
        // a behavioural check that it still returns the right records).
        let warm = Explorer::new(1).explore(&space, &mut store).unwrap();
        assert_eq!(warm.evaluated, 0);
        assert_eq!(warm.records.len(), space.len());
    }

    #[test]
    fn timed_evaluation_matches_untimed_and_reports_its_stages() {
        let space = DesignSpace::new()
            .with_kernel(paper_example())
            .with_budgets(&[64, 1]);
        let points = space.points();
        let kernel = &space.kernels()[0];
        let feasible = &points[0];
        let (timed, timings) = evaluate_point_timed(kernel, feasible);
        assert_eq!(timed, evaluate_point(kernel, feasible));
        assert!(timed.feasible);
        assert!(timings.total_us() >= timings.cost_model_us);
        // The infeasible budget never reaches the cost model.
        let infeasible = points.iter().find(|p| p.budget == 1).unwrap();
        let (record, timings) = evaluate_point_timed(kernel, infeasible);
        assert!(!record.feasible);
        assert_eq!(timings.cost_model_us, 0);
        // The analysis was cached by the calls above, so the stage is skipped.
        assert_eq!(timings.reuse_analysis_us, 0);
    }

    #[test]
    fn parallel_and_serial_agree_on_the_full_suite() {
        let space = DesignSpace::new()
            .with_kernels(paper_suite().into_iter().map(|spec| spec.kernel))
            .with_budgets(&[8, 32]);
        let serial = Explorer::new(1)
            .explore(&space, &mut MemoryStore::new())
            .unwrap();
        let parallel = Explorer::new(4)
            .explore(&space, &mut MemoryStore::new())
            .unwrap();
        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.kernel_names().len(), 6);
        assert_eq!(
            serial.kernel_records("fir").len(),
            3 * 2,
            "3 algorithms x 2 budgets"
        );
    }
}
