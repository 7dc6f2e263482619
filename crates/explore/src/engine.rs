//! The exploration engine: evaluates every point of a [`DesignSpace`],
//! deduplicating against a [`ResultStore`] and fanning the cache misses out
//! over a work-stealing thread pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use srra_core::{CompiledKernel, MemoryCostModel};
use srra_fpga::{EvaluationOptions, HardwareDesign};
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

fn elapsed_us(started: Instant) -> u64 {
    started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
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
/// The global stage histograms record exactly as in [`evaluate_point`]; the
/// returned [`StageTimings`] additionally surfaces this call's own stage
/// durations so callers can attach them to a trace.
pub fn evaluate_point_timed(
    kernel: &CompiledKernel,
    point: &DesignPoint,
) -> (PointRecord, StageTimings) {
    let canonical = point.canonical();
    let key = point.key();
    let base = PointRecord {
        key,
        canonical,
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
    };
    let metrics = engine_metrics();
    metrics.evaluations.inc();
    let mut timings = StageTimings::default();
    // Force the kernel's memoized reuse analysis now, so its cost (paid only
    // by the first point of each kernel) lands in its own histogram instead
    // of being folded into whichever stage happens to trigger it.
    if !kernel.analysis_is_cached() {
        let started = Instant::now();
        let _ = kernel.analysis();
        metrics.reuse_analysis_us.record(started.elapsed());
        timings.reuse_analysis_us = elapsed_us(started);
    }
    let started = Instant::now();
    let allocated = point.allocator.allocate(kernel, point.budget);
    metrics.allocation_us.record(started.elapsed());
    timings.allocation_us = elapsed_us(started);
    let Ok(allocation) = allocated else {
        metrics.infeasible.inc();
        return (base, timings);
    };
    let options = EvaluationOptions {
        memory: MemoryCostModel::default().with_ram_latency(point.ram_latency),
        ..EvaluationOptions::default()
    };
    let started = Instant::now();
    let design = HardwareDesign::evaluate_on_dfg(
        kernel.kernel(),
        kernel.analysis(),
        kernel.dfg(),
        &allocation,
        &point.device,
        &options,
    );
    metrics.cost_model_us.record(started.elapsed());
    timings.cost_model_us = elapsed_us(started);
    let record = PointRecord {
        feasible: true,
        fits: point.device.fits(design.slices, design.block_rams),
        registers_used: design.registers_used,
        total_cycles: design.total_cycles,
        compute_cycles: design.compute_cycles,
        memory_cycles: design.memory_cycles,
        transfer_cycles: design.transfer_cycles,
        clock_period_ns: design.clock_period_ns,
        execution_time_us: design.execution_time_us,
        slices: design.slices,
        block_rams: design.block_rams,
        distribution: design.register_distribution,
        ..base
    };
    (record, timings)
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
    /// worker count or the store's prior contents.
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

        // Cache pass: answer what we can, queue the rest.  Repeated design
        // points within one run (a duplicated axis value) are collapsed onto a
        // single pending evaluation whose result fans out to every slot.  Each
        // point's canonical string is built exactly once here.
        let canonicals: Vec<String> = points.iter().map(DesignPoint::canonical).collect();
        let mut records: Vec<Option<PointRecord>> = vec![None; points.len()];
        let mut pending: Vec<&DesignPoint> = Vec::new();
        let mut pending_slots: Vec<Vec<usize>> = Vec::new();
        let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut cache_hits = 0;
        for (index, point) in points.iter().enumerate() {
            let canonical = &canonicals[index];
            let key = crate::space::fnv1a_64(canonical.as_bytes());
            if let Some(&slot) = seen.get(&key) {
                if canonicals[pending_slots[slot][0]] == *canonical {
                    pending_slots[slot].push(index);
                    continue;
                }
                // A key collision between distinct points: fall through and
                // evaluate separately (the store indexes a vec per key, so
                // both colliding records are cached).
            }
            engine_metrics().store_reads.inc();
            match store.get(key, canonical)? {
                Some(record) => {
                    records[index] = Some(record);
                    cache_hits += 1;
                }
                None => {
                    seen.insert(key, pending.len());
                    pending.push(point);
                    pending_slots.push(vec![index]);
                }
            }
        }

        // Each kernel's `CompiledKernel` context memoizes its reuse analysis:
        // the first pending point of a kernel computes it, every other point
        // (on any worker thread) reuses it, and a fully warm run computes none.
        let evaluated = pending.len();
        let fresh: Vec<(usize, PointRecord)> = if self.jobs == 1 || pending.len() <= 1 {
            pending
                .iter()
                .enumerate()
                .map(|(slot, point)| {
                    (
                        slot,
                        evaluate_point(&space.kernels()[point.kernel_index], point),
                    )
                })
                .collect()
        } else {
            self.evaluate_parallel(space, &pending)
        };

        for (slot, record) in fresh {
            engine_metrics().store_writes.inc();
            store.put(&record)?;
            for &index in &pending_slots[slot] {
                records[index] = Some(record.clone());
            }
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

    /// Fans `pending` out over scoped worker threads.  Work distribution is a
    /// shared atomic cursor: each worker claims the next unclaimed point, so
    /// fast workers steal the load of slow ones without any queue structure.
    /// Returned pairs are `(pending slot, record)`.
    fn evaluate_parallel(
        &self,
        space: &DesignSpace,
        pending: &[&DesignPoint],
    ) -> Vec<(usize, PointRecord)> {
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, PointRecord)>> =
            Mutex::new(Vec::with_capacity(pending.len()));
        let workers = self.jobs.min(pending.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let slot = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&point) = pending.get(slot) else {
                        break;
                    };
                    let record = evaluate_point(&space.kernels()[point.kernel_index], point);
                    results
                        .lock()
                        .expect("no worker panics while holding the result lock")
                        .push((slot, record));
                });
            }
        });
        results.into_inner().expect("workers have finished")
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
