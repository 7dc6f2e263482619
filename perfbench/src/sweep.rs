//! `sweep_cold`: cold design-space sweeps of freshly compiled kernels, the
//! paper's compiler path with no sockets.
//!
//! One request is one kernel: build it, wrap it in a fresh
//! `CompiledKernel`, and sweep every registry allocator × [`BUDGETS`] × 2
//! RAM latencies × 2 devices with a default-jobs `Explorer` (one job, as
//! the process runs on one CPU) into the round's fresh `MemoryStore`.  A round covers the six paper kernels and
//! the seed's seven synthetic kernels, so its median request is the
//! smallest synthetic kernel and its slowest the largest.  Rounds repeat
//! until the phase ends; each complete round is one measurement window.

use std::time::Instant;

use srra_core::{
    memory_cost, AllocatorRef, AllocatorRegistry, CompiledKernel, MemoryCostModel, ReplacementPlan,
};
use srra_dfg::{find_cuts, CriticalPathAnalysis, DataFlowGraph, LatencyModel, Storage, StorageMap};
use srra_explore::{
    evaluate_point, fnv1a_64, DesignSpace, Explorer, MemoryStore, PointRecord, ResultStore,
};
use srra_fpga::{DeviceModel, EvaluationOptions, HardwareDesign, ListScheduler};
use srra_ir::{IrError, Kernel};
use srra_reuse::ReuseAnalysis;

use crate::calib;
use crate::gen;
use crate::run::{self, Config, Outcome, Timed, Window};
use crate::stats;
use crate::trace::Tracer;

/// The register-budget ladder of every kernel's sweep.
pub const BUDGETS: [u64; 5] = [8, 16, 32, 64, 128];
/// RAM latencies of every kernel's sweep.
pub const RAM_LATENCIES: [u64; 2] = [1, 2];
/// Latency limit of one request, for `slo_met_ratio`.
pub const LIMIT_US: f64 = 2_000_000.0;
/// The seed whose full-suite checksum is golden.
pub const DEFAULT_SEED: u64 = 1;
/// `find_cuts` stops at this many cuts.
const CUT_CAP: usize = 4096;

const GOLDEN_TABLE1: &str = include_str!("../golden/table1.txt");
const GOLDEN_SWEEP: &str = include_str!("../golden/sweep_cold.txt");

const PAPER: [fn() -> Result<Kernel, IrError>; 6] = [
    srra_kernels::fir::paper,
    srra_kernels::dec_fir::paper,
    srra_kernels::mat::paper,
    srra_kernels::imi::paper,
    srra_kernels::pat::paper,
    srra_kernels::bic::paper,
];

/// Kernels per round: the paper suite, then the synthetic slots.
const SUITE: usize = PAPER.len() + gen::SYNTHETIC_KERNELS;

/// Builds suite kernel `index` afresh.
fn build_kernel(seed: u64, index: usize) -> Kernel {
    let built = match PAPER.get(index) {
        Some(paper) => paper(),
        None => gen::synthetic_kernel(seed, index - PAPER.len()),
    };
    built.expect("suite kernels validate")
}

fn allocators() -> Vec<AllocatorRef> {
    AllocatorRegistry::global().iter().collect()
}

fn space(kernel: CompiledKernel, allocators: &[AllocatorRef]) -> DesignSpace {
    DesignSpace::new()
        .with_kernel(kernel)
        .with_allocators(allocators)
        .with_budgets(&BUDGETS)
        .with_ram_latencies(&RAM_LATENCIES)
        .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()])
}

/// FNV-1a over the JSONL rendering of `records`.
fn checksum<'a>(records: impl IntoIterator<Item = &'a PointRecord>) -> u64 {
    let mut text = String::new();
    for record in records {
        record.write_json_line(&mut text);
        text.push('\n');
    }
    fnv1a_64(text.as_bytes())
}

/// The golden checksum named `name` in `golden/sweep_cold.txt`.
fn golden(name: &str) -> Option<u64> {
    GOLDEN_SWEEP.lines().find_map(|line| {
        let (key, value) = line.split_once(' ')?;
        (key == name)
            .then(|| u64::from_str_radix(value.trim(), 16).ok())
            .flatten()
    })
}

/// The set-up state: the records of one cold round, per kernel.
struct Reference {
    records: Vec<Vec<PointRecord>>,
}

/// One round over the suite, every kernel into one fresh store, until
/// `deadline`.  Calls `done(kernel, records, latency)` per request and
/// returns whether the round completed.
fn round(
    seed: u64,
    deadline: Option<Instant>,
    tracer: &mut Tracer,
    mut done: impl FnMut(usize, Vec<PointRecord>, u64),
) -> bool {
    let explorer = Explorer::default();
    let allocators = allocators();
    let mut store = MemoryStore::new();
    for index in 0..SUITE {
        if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return false;
        }
        let op = index as u64;
        let started = Instant::now();
        let root = tracer.begin("loadgen.request", op);
        let kernel = tracer.time("ir.build", op, || build_kernel(seed, index));
        let space = space(CompiledKernel::new(kernel), &allocators);
        let explored = tracer.time("explore.explorer", op, || {
            explorer.explore(&space, &mut store)
        });
        let records = match explored {
            Ok(exploration) => exploration.records,
            Err(never) => match never {},
        };
        tracer.end(root);
        done(index, records, started.elapsed().as_nanos() as u64);
    }
    true
}

/// One untimed cold round: the warm-up and the reference of every check.
fn setup(seed: u64) -> Reference {
    let mut records = Vec::new();
    round(
        seed,
        None,
        &mut Tracer::new(Instant::now(), false),
        |_, found, _| {
            records.push(found);
        },
    );
    Reference { records }
}

/// Sweeps rounds until the phase ends, comparing every kernel's records
/// with the reference.  Each complete round is one window.
fn timed_phase(
    config: &Config,
    reference: &Reference,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Timed {
    let mut timed = Timed::default();
    let deadline = Instant::now() + config.phase();
    while Instant::now() < deadline {
        let (cpu, began) = (stats::process_cpu_ms(), Instant::now());
        let mut window = Window::default();
        let complete = round(
            config.seed,
            Some(deadline),
            tracer,
            |kernel, records, latency| {
                let correct = records == reference.records[kernel];
                if !correct {
                    out.fail(format!(
                        "sweep of kernel {kernel} differs from the reference"
                    ));
                }
                window.record(records.len() as u64, correct.then_some(latency));
            },
        );
        let ended = Instant::now();
        window.wall_s = (ended - began).as_secs_f64();
        window.cpu_ms = stats::process_cpu_ms() - cpu;
        window.slowdown = calib::slowdown(began, ended);
        if complete {
            timed.windows.push(window);
        } else {
            timed.spill = window;
        }
    }
    out.attempted += timed.requests();
    timed
}

/// The golden checks: Table 1 byte for byte, the paper kernels' records for
/// every seed, and the whole suite's records for the default seed.
fn golden_checks(config: &Config, reference: &Reference, out: &mut Outcome) {
    out.attempted += 1;
    if srra_bench::table1::render_table1(&srra_bench::table1::table1()) != GOLDEN_TABLE1 {
        out.fail("render_table1(&table1()) differs from golden/table1.txt");
    }
    let paper = checksum(reference.records[..PAPER.len()].iter().flatten());
    let suite = checksum(reference.records.iter().flatten());
    out.attempted += 1;
    if golden("paper") != Some(paper) {
        out.fail(format!(
            "paper-kernel sweep checksum {paper:016x} is not golden"
        ));
    }
    if config.seed == DEFAULT_SEED {
        out.attempted += 1;
        if golden(&format!("seed-{DEFAULT_SEED}")) != Some(suite) {
            out.fail(format!(
                "seed-{DEFAULT_SEED} sweep checksum {suite:016x} is not golden"
            ));
        }
    }
    out.note(format!(
        "sweep checksums: paper {paper:016x}, suite {suite:016x}"
    ));
}

pub fn run(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (reference, setups) = run::repeated_setup(|_| setup(config.seed), drop);
    let epoch = Instant::now();
    let mut untraced = Tracer::new(epoch, false);
    let timed = timed_phase(config, &reference, &mut out, &mut untraced);
    let points_per_round: usize = reference.records.iter().map(Vec::len).sum();
    out.note(format!(
        "{SUITE} kernel sweeps per round, {points_per_round} design points"
    ));
    if config.trace {
        let mut tracer = Tracer::new(epoch, true);
        let traced = timed_phase(config, &reference, &mut out, &mut tracer);
        run::record_overhead(&mut out, &timed, &traced);
        probe_layers(config.seed, &mut out, &mut tracer);
        run::probe_histogram(&mut tracer);
        run::finish_trace(&mut out, "sweep_cold", &[tracer]);
    } else {
        run::record_end_to_end(
            &mut out,
            &setups,
            &timed,
            LIMIT_US,
            &run::cpa_cycles(reference.records.iter().flatten()),
            true,
        );
    }
    golden_checks(config, &reference, &mut out);
    out
}

/// Counters of the layer probe that are not span times.
#[derive(Default)]
struct ProbeCounts {
    cuts_calls: u64,
    cuts_returned: u64,
    cuts_capped: u64,
    allocations: u64,
    infeasible: u64,
    evaluate_ns: u64,
    pieces_ns: u64,
}

/// Calls each layer's public functions one by one over a cold round of the
/// suite, each inside its own span.
fn probe_layers(seed: u64, out: &mut Outcome, tracer: &mut Tracer) {
    let allocators = allocators();
    let mut counts = ProbeCounts::default();
    for index in 0..SUITE {
        let op = index as u64;
        let kernel = tracer.time("ir.build", op, || build_kernel(seed, index));
        let analysis = tracer.time("reuse.analysis", op, || ReuseAnalysis::of(&kernel));
        let dfg = tracer.time("dfg.build", op, || DataFlowGraph::from_kernel(&kernel));
        let critical = tracer.time("dfg.critical", op, || {
            CriticalPathAnalysis::new(&dfg, &LatencyModel::default(), &StorageMap::all_ram())
        });
        let cuts = tracer.time("dfg.cuts", op, || {
            find_cuts(&dfg, critical.critical_graph())
        });
        counts.cuts_calls += 1;
        counts.cuts_returned += cuts.len() as u64;
        counts.cuts_capped += u64::from(cuts.len() == CUT_CAP);

        let space = space(CompiledKernel::with_analysis(kernel, analysis), &allocators);
        let compiled = &space.kernels()[0];
        let mut records = Vec::new();
        for point in space.points() {
            let record = tracer.time("explore.evaluate_point", op, || {
                evaluate_point(compiled, &point)
            });
            let span = allocate_span(point.allocator.name());
            let allocated = tracer.time(span, op, || {
                point.allocator.allocate(compiled, point.budget)
            });
            counts.allocations += 1;
            match allocated {
                Err(_) => counts.infeasible += 1,
                Ok(allocation) => {
                    let (kernel, analysis) = (compiled.kernel(), compiled.analysis());
                    let options = EvaluationOptions {
                        memory: MemoryCostModel::default().with_ram_latency(point.ram_latency),
                        ..EvaluationOptions::default()
                    };
                    let started = Instant::now();
                    let design = tracer.time("fpga.evaluate", op, || {
                        HardwareDesign::evaluate(
                            kernel,
                            analysis,
                            &allocation,
                            &point.device,
                            &options,
                        )
                    });
                    let evaluated = started.elapsed();
                    if design.total_cycles != record.total_cycles {
                        out.fail(format!(
                            "{}: evaluate disagrees with evaluate_point",
                            record.canonical
                        ));
                    }
                    // The public pieces `evaluate` is made of, on the same inputs.
                    let started = Instant::now();
                    let plan = tracer.time("core.replacement_plan", op, || {
                        ReplacementPlan::new(kernel, analysis, &allocation)
                    });
                    let dfg = tracer.time("dfg.build", op, || DataFlowGraph::from_kernel(kernel));
                    let mut registers = StorageMap::all_ram();
                    for summary in analysis.iter() {
                        registers.set(summary.ref_id(), Storage::Register);
                    }
                    tracer.time("fpga.schedule", op, || {
                        ListScheduler::new(options.limits.clone()).schedule(
                            &dfg,
                            &options.latency,
                            &registers,
                        )
                    });
                    tracer.time("core.memory_cost", op, || {
                        memory_cost(kernel, analysis, &allocation, &options.memory)
                    });
                    tracer.time("fpga.clock", op, || options.clock.period_ns(&plan));
                    tracer.time("fpga.area", op, || {
                        options.area.estimate(kernel, &plan, &point.device)
                    });
                    counts.pieces_ns += started.elapsed().as_nanos() as u64;
                    counts.evaluate_ns += evaluated.as_nanos() as u64;
                }
            }
            records.push(record);
        }
        let mut store = MemoryStore::new();
        let n = records.len() as u64;
        tracer.time_batch("explore.store_put", op, n, || {
            for record in &records {
                match store.put(record) {
                    Ok(_) => {}
                    Err(never) => match never {},
                }
            }
        });
        tracer.time_batch("explore.store_get", op, n, || {
            for record in &records {
                match store.get(record.key, &record.canonical) {
                    Ok(found) => std::hint::black_box(found),
                    Err(never) => match never {},
                };
            }
        });
    }
    out.set(
        "dfg.cuts_returned",
        counts.cuts_returned as f64 / counts.cuts_calls.max(1) as f64,
        counts.cuts_calls,
    );
    out.set(
        "dfg.cuts_capped",
        counts.cuts_capped as f64,
        counts.cuts_calls,
    );
    out.set(
        "core.infeasible_ratio",
        counts.infeasible as f64 / counts.allocations.max(1) as f64,
        counts.allocations,
    );
    let feasible = counts.allocations - counts.infeasible;
    out.set(
        "fpga.pieces_over_evaluate",
        counts.pieces_ns as f64 / counts.evaluate_ns.max(1) as f64,
        feasible,
    );
    out.note(format!(
        "pieces of HardwareDesign::evaluate (plan, DFG rebuild, schedule, memory_cost, clock, area) sum to {:.3}x evaluate; memory_cost and area each rebuild the DFG again inside",
        counts.pieces_ns as f64 / counts.evaluate_ns.max(1) as f64
    ));
}

/// The span name of one allocator's `allocate` call.
fn allocate_span(name: &str) -> &'static str {
    match name {
        "none" => "core.allocate.none",
        "fr" => "core.allocate.fr",
        "pr" => "core.allocate.pr",
        "cpa" => "core.allocate.cpa",
        "ks" => "core.allocate.ks",
        "greedy" => "core.allocate.greedy",
        _ => "core.allocate.other",
    }
}
