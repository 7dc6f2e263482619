//! The exploration engine: evaluates every point of a [`DesignSpace`],
//! deduplicating against a [`ResultStore`] and fanning the cache misses out
//! over a work-stealing thread pool, and evaluates a served batch's fresh
//! points one at a time through a [`BatchEvaluator`].
//!
//! The explorer's cache pass walks the space in place: each point borrows
//! its kernel name and device from the space, so the pass allocates nothing
//! for a point but its canonical string and, for a hit, the store's copy of
//! its record.  The canonical is rendered once and moved into the point's
//! record when it is evaluated.  A map from queued canonicals to their first
//! occurrence is kept only for a space that can repeat a canonical (an axis
//! value listed twice, or a name holding the canonical's `;` separator);
//! without one every canonical is distinct.
//!
//! Cache misses are evaluated in runs: consecutive points that share a
//! kernel, an allocator and a budget.  A run allocates once and takes the
//! allocation's cost terms ([`srra_fpga::AllocationCost`]) once.  Those terms
//! depend on the allocation's β vector alone, so each kernel keeps them by β
//! vector for one explore call or one batch: a run whose vector an earlier
//! run already costed, under any allocator, budget or worker, reuses that
//! run's terms.  Each point then adds only the terms of its RAM latency and
//! device on its kernel's [`CostTable`], one per RAM latency for one explore
//! call or one batch.  The first table a kernel needs runs its list
//! schedule; a table for another RAM latency is derived from one already
//! built and differs only in its memory stages.  The explorer and the batch
//! evaluator share one per-point step, so their records are the same.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use srra_core::{AllocatorRef, CompiledKernel, MemoryCostModel, RegisterAllocation};
use srra_fpga::{AllocationCost, CostTable, EvaluationOptions};
use srra_obs::{Counter, Histogram, Registry};

use crate::space::{fnv1a_64, DesignPoint, DesignSpace, PointRef};
use crate::store::{PointRecord, ResultStore};

/// Handles into [`Registry::global`] for the engine's per-stage instruments,
/// resolved once so worker threads never touch the registry's name map.
struct EngineMetrics {
    evaluations: Arc<Counter>,
    infeasible: Arc<Counter>,
    store_reads: Arc<Counter>,
    store_writes: Arc<Counter>,
    shared_costs: Arc<Counter>,
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
            shared_costs: registry.counter("explore_shared_costs_total"),
            reuse_analysis_us: registry.histogram("explore_reuse_analysis_us"),
            allocation_us: registry.histogram("explore_allocation_us"),
            cost_model_us: registry.histogram("explore_cost_model_us"),
        }
    })
}

/// Wall time spent in each stage of one point's evaluation by a
/// [`BatchEvaluator`], in microseconds.
///
/// The same three stages the engine's global histograms
/// (`explore_reuse_analysis_us` / `explore_allocation_us` /
/// `explore_cost_model_us`) aggregate, surfaced per point so a traced serve
/// request can attribute its evaluation time span by span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Memoized reuse analysis (0 when the kernel's analysis was already
    /// cached and the stage never ran).
    pub reuse_analysis_us: u64,
    /// Register allocation (the point's allocator strategy); `None` when the
    /// point took its run's allocation and the stage never ran.
    pub allocation_us: Option<u64>,
    /// Hardware cost-model evaluation (0 for infeasible points, which never
    /// reach it).
    pub cost_model_us: u64,
}

impl StageTimings {
    /// Total stage time in microseconds.
    pub fn total_us(&self) -> u64 {
        self.reuse_analysis_us + self.allocation_us.unwrap_or(0) + self.cost_model_us
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

/// One kernel's cost state for one batch of evaluations: a cost table per RAM
/// latency, each built at the first feasible point that needs it, and the
/// cost terms of every β vector costed so far.
struct KernelTables<'k> {
    kernel: &'k CompiledKernel,
    tables: Vec<(u64, OnceLock<CostTable<'k>>)>,
    costs: Mutex<HashMap<Box<[u64]>, Arc<AllocationCost>>>,
}

impl<'k> KernelTables<'k> {
    fn new(kernel: &'k CompiledKernel, ram_latencies: &[u64]) -> Self {
        Self {
            kernel,
            tables: ram_latencies
                .iter()
                .map(|&latency| (latency, OnceLock::new()))
                .collect(),
            costs: Mutex::new(HashMap::new()),
        }
    }

    /// Adds a table slot for `ram_latency`, unless one exists.
    fn add_latency(&mut self, ram_latency: u64) {
        if !self
            .tables
            .iter()
            .any(|(latency, _)| *latency == ram_latency)
        {
            self.tables.push((ram_latency, OnceLock::new()));
        }
    }

    fn get(&self, ram_latency: u64) -> &CostTable<'k> {
        let (_, table) = self
            .tables
            .iter()
            .find(|(latency, _)| *latency == ram_latency)
            .expect("a table slot for every RAM latency of the batch");
        table.get_or_init(|| {
            // Only the memory stages depend on the RAM latency, so a table
            // built for another latency lends its schedule.
            match self.tables.iter().find_map(|(_, built)| built.get()) {
                Some(built) => built.at_ram_latency(ram_latency),
                None => CostTable::new(
                    self.kernel.kernel(),
                    self.kernel.analysis(),
                    self.kernel.dfg(),
                    &options_for(ram_latency),
                ),
            }
        })
    }

    /// The cost terms of `allocation`: an earlier allocation's, when it had
    /// the same β vector, otherwise computed on `table`.  Costing holds the
    /// kernel's lock, so each vector is costed once whatever the worker count.
    fn cost(&self, table: &CostTable<'k>, allocation: &RegisterAllocation) -> Arc<AllocationCost> {
        let betas: Box<[u64]> = allocation.iter().map(|r| r.beta()).collect();
        let mut costs = self
            .costs
            .lock()
            .expect("no worker panics while holding a kernel's cost lock");
        match costs.entry(betas) {
            Entry::Occupied(shared) => {
                engine_metrics().shared_costs.inc();
                Arc::clone(shared.get())
            }
            Entry::Vacant(fresh) => {
                Arc::clone(fresh.insert(Arc::new(table.allocation_cost(allocation))))
            }
        }
    }
}

/// A point's record before evaluation: its identity, marked infeasible.
fn unevaluated(point: &PointRef<'_>, canonical: String, key: u64) -> PointRecord {
    PointRecord {
        key,
        canonical,
        kernel: point.kernel.to_owned(),
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

/// What the points of one run share: consecutive evaluated points with one
/// kernel, allocator and budget have one allocation (`None` when it is
/// infeasible) and, once the run's first feasible point took them, its cost
/// terms.
struct Run {
    allocation: Option<RegisterAllocation>,
    cost: Option<Arc<AllocationCost>>,
}

impl Run {
    /// Starts the run whose first point is `point`: allocates once.  The
    /// kernel's memoized reuse analysis is forced first, so its cost (paid
    /// only by the first run of each kernel) lands in its own histogram
    /// instead of being folded into the allocation.
    fn start(kernel: &CompiledKernel, point: &PointRef<'_>, timings: &mut StageTimings) -> Self {
        let metrics = engine_metrics();
        if !kernel.analysis_is_cached() {
            let started = Instant::now();
            let _ = kernel.analysis();
            timings.reuse_analysis_us = finish_stage(&metrics.reuse_analysis_us, started);
        }
        let started = Instant::now();
        let allocated = point.allocator.allocate(kernel, point.budget);
        timings.allocation_us = Some(finish_stage(&metrics.allocation_us, started));
        Self {
            allocation: allocated.ok(),
            cost: None,
        }
    }

    /// The per-point step: evaluates `point`, one of this run's points,
    /// content-addressed by `canonical` (which the record takes) and `key`.
    /// The run takes its allocation's cost terms once, from its kernel's
    /// costs by β vector or through this point's table; each point then adds
    /// only its RAM-latency and device terms.  An infeasible allocation makes
    /// the point infeasible.
    fn evaluate(
        &mut self,
        tables: &KernelTables<'_>,
        point: &PointRef<'_>,
        canonical: String,
        key: u64,
        timings: &mut StageTimings,
    ) -> PointRecord {
        let metrics = engine_metrics();
        metrics.evaluations.inc();
        let record = unevaluated(point, canonical, key);
        let Some(allocation) = &self.allocation else {
            metrics.infeasible.inc();
            return record;
        };
        let started = Instant::now();
        let table = tables.get(point.ram_latency);
        let cost = self
            .cost
            .get_or_insert_with(|| tables.cost(table, allocation));
        let terms = table.point_cost(cost, point.device);
        timings.cost_model_us = finish_stage(&metrics.cost_model_us, started);
        PointRecord {
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
            ..record
        }
    }
}

/// A point waiting for evaluation, with the content address the cache pass
/// built for it and its slot in the point order.  Its evaluation moves the
/// canonical string into the point's record.
struct Pending<'s> {
    point: PointRef<'s>,
    canonical: String,
    key: u64,
    slot: usize,
}

impl Pending<'_> {
    /// Whether `next` continues this point's run: same kernel, allocator and
    /// budget.
    fn same_run(&self, next: &Pending<'_>) -> bool {
        let (a, b) = (&self.point, &next.point);
        a.kernel_index == b.kernel_index && a.allocator == b.allocator && a.budget == b.budget
    }
}

/// Splits the explorer's pending points into runs: maximal stretches that
/// share a kernel, an allocator and a budget (point order puts the RAM
/// latency and the device innermost), so each run allocates once.
fn runs<'a, 's>(mut pending: &'a mut [Pending<'s>]) -> Vec<&'a mut [Pending<'s>]> {
    let mut runs = Vec::new();
    while !pending.is_empty() {
        let len = 1 + pending
            .windows(2)
            .take_while(|pair| pair[0].same_run(&pair[1]))
            .count();
        let (run, rest) = std::mem::take(&mut pending).split_at_mut(len);
        runs.push(run);
        pending = rest;
    }
    runs
}

/// Evaluates one run of the explorer's pending points, appending their
/// records to `fresh` in run order.
fn evaluate_run(tables: &KernelTables<'_>, run: &mut [Pending<'_>], fresh: &mut Vec<PointRecord>) {
    // The explorer reports no per-point stage times.
    let mut timings = StageTimings::default();
    let mut shared = Run::start(tables.kernel, &run[0].point, &mut timings);
    for pending in run {
        let canonical = std::mem::take(&mut pending.canonical);
        let record = shared.evaluate(tables, &pending.point, canonical, pending.key, &mut timings);
        fresh.push(record);
    }
}

/// The run a [`BatchEvaluator`] evaluated last, with what identifies it.
struct LastRun<'k> {
    kernel: &'k CompiledKernel,
    allocator: AllocatorRef,
    budget: u64,
    run: Run,
}

/// Evaluates the fresh points of one batch, one at a time in the caller's
/// order, sharing what [`Explorer::explore`] shares within one call: each
/// kernel's cost tables (one per RAM latency) and cost terms by β vector,
/// and the allocation and cost terms of a run, consecutive evaluated points
/// with one kernel, allocator and budget.
///
/// Every record equals [`evaluate_point`]'s for its point: an allocation
/// depends only on its kernel, allocator and budget, and a point's cost terms
/// only on its allocation's β vector, its RAM latency and its device.  The
/// shared state lives as long as the evaluator, and a new evaluator builds
/// nothing until its first point arrives.
#[derive(Default)]
pub struct BatchEvaluator<'k> {
    kernels: Vec<KernelTables<'k>>,
    last: Option<LastRun<'k>>,
}

impl<'k> BatchEvaluator<'k> {
    /// An evaluator with nothing shared yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates `point` of `kernel`, content-addressed by `canonical` and
    /// `key` (the caller's own, so each canonical is rendered once; the
    /// record holds a copy), and reports the stage times it paid.  A point
    /// that starts a run carries the reuse analysis (if it ran) and the
    /// allocation; a point that continues the last run reports no
    /// allocation.  Every feasible point carries its own cost-model time.
    pub fn evaluate(
        &mut self,
        kernel: &'k CompiledKernel,
        point: &DesignPoint,
        canonical: &str,
        key: u64,
    ) -> (PointRecord, StageTimings) {
        let point = point.borrowed();
        let mut timings = StageTimings::default();
        let continues = self.last.as_ref().is_some_and(|last| {
            std::ptr::eq(last.kernel, kernel)
                && last.allocator == point.allocator
                && last.budget == point.budget
        });
        if !continues {
            self.last = Some(LastRun {
                kernel,
                allocator: point.allocator,
                budget: point.budget,
                run: Run::start(kernel, &point, &mut timings),
            });
        }
        let known = self
            .kernels
            .iter()
            .position(|tables| std::ptr::eq(tables.kernel, kernel));
        let tables = match known {
            Some(index) => &mut self.kernels[index],
            None => {
                self.kernels.push(KernelTables::new(kernel, &[]));
                self.kernels.last_mut().expect("just pushed")
            }
        };
        tables.add_latency(point.ram_latency);
        let last = self.last.as_mut().expect("the point's run is the last run");
        let record = last
            .run
            .evaluate(tables, &point, canonical.to_owned(), key, &mut timings);
        (record, timings)
    }
}

/// Evaluates one design point from scratch (no cache involved), as a batch
/// of one.
///
/// The kernel's [`CompiledKernel`] context supplies the (memoized) reuse
/// analysis and data-flow graph, so evaluating many points of one kernel
/// derives each once, on first use.  The point's RAM latency parameterises
/// both the steady-state memory-cycle metric and the hardware evaluation, so
/// `ram_latency = 2` reproduces `srra_bench::evaluate_compiled`'s numbers and
/// `ram_latency = 1` reproduces the abstract `T_mem` metric of the Figure 2
/// reproduction.
pub fn evaluate_point(kernel: &CompiledKernel, point: &DesignPoint) -> PointRecord {
    let canonical = point.canonical();
    let key = fnv1a_64(canonical.as_bytes());
    BatchEvaluator::new()
        .evaluate(kernel, point, &canonical, key)
        .0
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
    /// depend on the worker count, and the store is flushed once at the end,
    /// so a persistent store's file holds every record when this returns.
    ///
    /// The cache pass walks the space in place: its points borrow their
    /// kernel names and devices from `space`, so no point is materialised.
    /// Each point's canonical string is rendered once, and a fresh point's is
    /// moved into its record.  Only a space that can repeat a canonical (an
    /// axis value listed twice, or a name holding the canonical's `;`
    /// separator) keeps a map of the canonicals it has queued, so that a
    /// twin, a later point with a queued canonical, takes its first
    /// occurrence's record instead of a second evaluation.
    ///
    /// # Errors
    ///
    /// Propagates the store's error type (I/O or corrupt-cache errors for
    /// persistent backends, a failed flush included;
    /// [`std::convert::Infallible`] for the in-memory store).
    pub fn explore<S: ResultStore>(
        &self,
        space: &DesignSpace,
        store: &mut S,
    ) -> Result<Exploration, S::Error> {
        // Cache pass: answer what we can, queue the rest.  A twin's slot is
        // filled from the slot of its first occurrence once that is
        // evaluated.
        let metrics = engine_metrics();
        let mut records: Vec<Option<PointRecord>> = vec![None; space.len()];
        let mut pending: Vec<Pending<'_>> = Vec::new();
        let mut twins: Vec<(usize, usize)> = Vec::new();
        let mut seen: Option<HashMap<u64, usize>> = space.can_repeat_canonical().then(HashMap::new);
        let mut cache_hits = 0;
        for (slot, point) in space.walk().enumerate() {
            let canonical = point.canonical();
            let key = fnv1a_64(canonical.as_bytes());
            if let Some(&twin) = seen.as_ref().and_then(|seen| seen.get(&key)) {
                if pending[twin].canonical == canonical {
                    twins.push((slot, pending[twin].slot));
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
                    if let Some(seen) = &mut seen {
                        seen.insert(key, pending.len());
                    }
                    pending.push(Pending {
                        point,
                        canonical,
                        key,
                        slot,
                    });
                }
            }
        }

        // Each kernel's `CompiledKernel` context memoizes its reuse analysis
        // and DFG, and its cost tables and costs by β vector live for this
        // call: the first feasible point of a kernel at a RAM latency builds
        // or derives the table, every other point (on any worker thread)
        // reuses it, and a fully warm run builds none of them.
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
        let runs = runs(&mut pending);
        let fresh: Vec<PointRecord> = if self.jobs == 1 || runs.len() <= 1 {
            let mut fresh = Vec::with_capacity(evaluated);
            for run in runs {
                evaluate_run(&tables[run[0].point.kernel_index], run, &mut fresh);
            }
            fresh
        } else {
            self.evaluate_parallel(&tables, runs)
        };

        // Fresh records reach the store in point order, so a persistent
        // store's bytes never depend on the worker count or thread timing.
        for (queued, record) in pending.iter().zip(fresh) {
            metrics.store_writes.inc();
            store.put(&record)?;
            records[queued.slot] = Some(record);
        }
        store.flush()?;
        for (slot, first) in twins {
            records[slot] = records[first].clone();
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

    /// Fans the runs out over scoped worker threads.  Work distribution is
    /// a shared queue of runs: each worker takes the next untaken run, so
    /// fast workers steal the load of slow ones.  Returns the fresh records
    /// in run order.
    fn evaluate_parallel(
        &self,
        tables: &[KernelTables<'_>],
        runs: Vec<&mut [Pending<'_>]>,
    ) -> Vec<PointRecord> {
        let results: Mutex<Vec<(usize, Vec<PointRecord>)>> =
            Mutex::new(Vec::with_capacity(runs.len()));
        let workers = self.jobs.min(runs.len());
        let queue = Mutex::new(runs.into_iter().enumerate());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let next = queue
                        .lock()
                        .expect("no worker panics while holding the run queue")
                        .next();
                    let Some((index, run)) = next else {
                        break;
                    };
                    let mut records = Vec::with_capacity(run.len());
                    evaluate_run(&tables[run[0].point.kernel_index], run, &mut records);
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
        let mut batch = BatchEvaluator::new();
        let mut timed = |point: &DesignPoint| {
            let canonical = point.canonical();
            batch.evaluate(kernel, point, &canonical, point.key())
        };
        let feasible = &points[0];
        let (record, timings) = timed(feasible);
        assert_eq!(record, evaluate_point(kernel, feasible));
        assert!(record.feasible);
        assert!(timings.total_us() >= timings.cost_model_us);
        assert!(
            timings.allocation_us.is_some(),
            "a run's first point allocates"
        );
        // The next RAM latency continues the run: it takes the allocation.
        let next = DesignPoint {
            ram_latency: 1,
            ..feasible.clone()
        };
        let (record, timings) = timed(&next);
        assert_eq!(record, evaluate_point(kernel, &next));
        assert_eq!(timings.allocation_us, None);
        // The infeasible budget never reaches the cost model.
        let infeasible = points.iter().find(|p| p.budget == 1).unwrap();
        let (record, timings) = timed(infeasible);
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
