//! `cluster_mix`: the serve layer behind a 2-node cluster with
//! `replicas = 2`, over the JSON codec.  One generator thread drives one
//! `ClusterClient` in an open loop at [`RATE_PER_S`]: mostly routed `mget`
//! batches, plus `explore` batches in which a seeded share of the points is
//! fresh (a never-seen budget), so the run also evaluates, appends segments
//! under the shard write lock and tees replica `put`s.  Each request is
//! timed from when it was due.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use srra_cluster::{ClusterClient, ClusterConfig};
use srra_core::{AllocatorRegistry, CompiledKernel};
use srra_explore::{evaluate_point, fnv1a_64, DesignPoint, PointRecord, ResultStore, SegmentStore};
use srra_serve::{canonical_for, device_by_name, PointOutcome, QueryPoint, ShardedStore};

use crate::gen::Rng;
use crate::hot::grid;
use crate::run::{self, Config, Node, Outcome, Timed};
use crate::stats;
use crate::trace::Tracer;

/// Arrival rate of the open loop, well below the single generator's
/// capacity on a 2-CPU machine.
pub const RATE_PER_S: f64 = 400.0;
/// Latency limit of one request, measured from its due time.
pub const LIMIT_US: f64 = 20_000.0;
/// Canonicals per `mget`.
pub const MGET_BATCH: usize = 16;
/// Points per `explore`.
pub const EXPLORE_BATCH: usize = 8;
/// Share of requests that are `explore` batches.
pub const EXPLORE_SHARE: f64 = 0.2;
/// Share of explore points that are fresh.
pub const FRESH_SHARE: f64 = 0.25;
/// Stored budgets of the base grid.
const BASE_BUDGETS: [u64; 8] = [4, 8, 12, 16, 24, 32, 48, 64];
/// Fresh budgets start just above the base ladder.
const FRESH_BUDGETS: u64 = 65;

/// One planned request.
enum Op {
    Mget {
        keys: Vec<usize>,
        canonicals: Vec<String>,
    },
    Explore {
        points: Vec<QueryPoint>,
        /// The base-grid index of each point; `None` for a fresh one.
        base: Vec<Option<usize>>,
    },
}

/// The seeded request sequence: `count` requests over the base grid.  A
/// fresh point takes a random base point's kernel, allocator, latency and
/// device with the next budget above the ladder for that combination, so
/// fresh points never repeat and cost the same early and late in a run.
fn plan(seed: u64, base: &[QueryPoint], canonicals: &[String], count: usize) -> Vec<Op> {
    let mut rng = Rng::stream(seed, 20);
    let mut next_budget: HashMap<(String, String, u64, String), u64> = HashMap::new();
    let n = base.len() as u64;
    (0..count)
        .map(|_| {
            if rng.unit() < EXPLORE_SHARE {
                let mut points = Vec::with_capacity(EXPLORE_BATCH);
                let mut indices = Vec::with_capacity(EXPLORE_BATCH);
                for _ in 0..EXPLORE_BATCH {
                    let index = rng.below(n) as usize;
                    let mut point = base[index].clone();
                    if rng.unit() < FRESH_SHARE {
                        let combination = (
                            point.kernel.clone(),
                            point.algorithm.clone(),
                            point.ram_latency,
                            point.device.clone(),
                        );
                        let budget = next_budget.entry(combination).or_insert(FRESH_BUDGETS);
                        point.budget = *budget;
                        *budget += 1;
                        indices.push(None);
                    } else {
                        indices.push(Some(index));
                    }
                    points.push(point);
                }
                Op::Explore {
                    points,
                    base: indices,
                }
            } else {
                let keys: Vec<usize> = (0..MGET_BATCH).map(|_| rng.below(n) as usize).collect();
                let canonicals = keys.iter().map(|&k| canonicals[k].clone()).collect();
                Op::Mget { keys, canonicals }
            }
        })
        .collect()
}

fn fresh_points(ops: &[Op]) -> u64 {
    ops.iter()
        .map(|op| match op {
            Op::Explore { base, .. } => base.iter().filter(|b| b.is_none()).count() as u64,
            Op::Mget { .. } => 0,
        })
        .sum()
}

struct Setup {
    nodes: Vec<Node>,
    client: ClusterClient,
    records: Vec<PointRecord>,
}

fn setup(config: &Config, index: usize, base: &[QueryPoint], canonicals: &[String]) -> Setup {
    let nodes: Vec<Node> = (0..2)
        .map(|node| Node::start(config.work.join(format!("cluster_mix-{index}-node{node}"))))
        .collect();
    let cluster = ClusterConfig::new(nodes.iter().map(|node| node.addr.clone())).with_replicas(2);
    let mut client = ClusterClient::connect(&cluster).expect("cluster connects");
    let mut records = Vec::with_capacity(base.len());
    for batch in base.chunks(128) {
        let reply = client.explore(batch).expect("populate explore");
        for outcome in reply.outcomes {
            match outcome {
                PointOutcome::Answered { record, .. } => records.push(record),
                PointOutcome::Failed { error } => panic!("populate point failed: {error}"),
            }
        }
    }
    for batch in canonicals.chunks(MGET_BATCH).take(32) {
        client.mget(batch).expect("warm-up mget");
    }
    Setup {
        nodes,
        client,
        records,
    }
}

fn teardown(mut state: Setup) {
    drop(state.client);
    for node in state.nodes.drain(..) {
        node.stop();
    }
}

/// Evaluations and replica `put` ops the nodes have counted so far.
fn node_counters(client: &mut ClusterClient) -> (u64, u64) {
    let stats = client.stats();
    let puts = stats
        .nodes
        .iter()
        .filter_map(|node| node.stats.as_ref())
        .filter_map(|server| server.op("put"))
        .map(|op| op.count)
        .sum();
    (stats.total_evaluated(), puts)
}

/// What one open-loop phase saw besides its latencies.
#[derive(Default)]
struct PhaseRun {
    lags_ns: Vec<u64>,
    failures: u64,
    answers: Vec<(QueryPoint, PointRecord)>,
}

fn timed_phase(
    state: &mut Setup,
    ops: &[Op],
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> (Timed, PhaseRun) {
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let mut timed = Timed::default();
    let mut run = PhaseRun::default();
    let ((), marks) = run::windowed(|start| {
        for (k, op) in ops.iter().enumerate() {
            let due = start + interval * k as u32;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            run.lags_ns.push(due.elapsed().as_nanos() as u64);
            let root = tracer.begin("loadgen.request", k as u64);
            let mut reason = None;
            let correct = match op {
                Op::Mget { keys, canonicals } => {
                    let rtt = tracer.begin("cluster.mget_rtt", k as u64);
                    let reply = state.client.mget(canonicals);
                    tracer.end(rtt);
                    match reply {
                        Ok(records) => {
                            records.len() == keys.len()
                                && records.iter().zip(keys).all(|(record, &key)| {
                                    record.as_ref() == Some(&state.records[key])
                                })
                        }
                        Err(err) => {
                            run.failures += 1;
                            reason = Some(format!("mget: {err}"));
                            false
                        }
                    }
                }
                Op::Explore { points, base } => {
                    let rtt = tracer.begin("cluster.explore_rtt", k as u64);
                    let reply = state.client.explore(points);
                    tracer.end(rtt);
                    match reply {
                        Ok(reply) => {
                            let mut correct = reply.outcomes.len() == points.len();
                            for ((outcome, point), index) in
                                reply.outcomes.into_iter().zip(points).zip(base)
                            {
                                match outcome {
                                    PointOutcome::Answered { record, .. } => {
                                        if let Some(index) = index {
                                            correct &= record == state.records[*index];
                                        }
                                        run.answers.push((point.clone(), record));
                                    }
                                    PointOutcome::Failed { error } => {
                                        run.failures += 1;
                                        reason = Some(format!("explore point: {error}"));
                                        correct = false;
                                    }
                                }
                            }
                            correct
                        }
                        Err(err) => {
                            run.failures += 1;
                            reason = Some(format!("explore: {err}"));
                            false
                        }
                    }
                }
            };
            tracer.end(root);
            // Windowed by completion, so a generator that falls behind a
            // slow server completes fewer requests per window.
            let finished = Instant::now();
            let latency = (finished - due).as_nanos() as u64;
            timed.record_at(finished - start, 1, correct.then_some(latency));
            if !correct {
                out.fail(reason.unwrap_or_else(|| format!("request {k} answered a wrong record")));
            }
        }
    });
    timed.close_windows(&marks);
    out.attempted += timed.requests();
    (timed, run)
}

/// Every answered record must equal a direct `evaluate_point` of its point.
fn verify_answers<'a>(
    answers: impl IntoIterator<Item = (&'a QueryPoint, &'a PointRecord)>,
    out: &mut Outcome,
) {
    let mut kernels: HashMap<String, CompiledKernel> = srra_kernels::paper_suite()
        .iter()
        .map(|spec| (spec.kernel.name().to_owned(), spec.compiled()))
        .collect();
    kernels.insert(
        "example".to_owned(),
        CompiledKernel::new(srra_ir::examples::paper_example()),
    );
    let mut checked = 0u64;
    for (point, record) in answers {
        checked += 1;
        let design = DesignPoint {
            kernel_index: 0,
            kernel: point.kernel.clone(),
            allocator: AllocatorRegistry::global()
                .get(&point.algorithm)
                .expect("planned allocators are registered"),
            budget: point.budget,
            ram_latency: point.ram_latency,
            device: device_by_name(&point.device).expect("planned devices resolve"),
        };
        if evaluate_point(&kernels[&point.kernel], &design) != *record {
            out.fail(format!(
                "{}: answer differs from evaluate_point",
                record.canonical
            ));
        }
    }
    out.attempted += 1;
    out.note(format!(
        "{checked} explore answers equal a direct evaluate_point"
    ));
}

pub fn run(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let base: Vec<QueryPoint> = grid(BASE_BUDGETS.iter().copied());
    let canonicals: Vec<String> = base
        .iter()
        .map(|point| canonical_for(point).expect("grid resolves"))
        .collect();
    let (mut state, setups) =
        run::repeated_setup(|index| setup(config, index, &base, &canonicals), teardown);
    let per_phase = (RATE_PER_S * config.phase().as_secs_f64()).round() as usize;
    let phases = if config.trace { 2 } else { 1 };
    let ops = plan(config.seed, &base, &canonicals, per_phase * phases);
    let (untraced_ops, traced_ops) = ops.split_at(per_phase);
    out.note(format!(
        "open loop at {RATE_PER_S} req/s over {} base records on 2 nodes, replicas 2, JSON codec; {} fresh points planned",
        state.records.len(),
        fresh_points(&ops)
    ));
    let (evaluated_before, puts_before) = node_counters(&mut state.client);

    let epoch = Instant::now();
    let mut untraced = Tracer::new(epoch, false);
    let (timed, mut first) = timed_phase(&mut state, untraced_ops, &mut out, &mut untraced);
    let mut lags = std::mem::take(&mut first.lags_ns);
    lags.sort_unstable();
    let lag_p99_us = stats::percentile(&lags, 0.99) as f64 / 1e3;
    let lag_max_us = *lags.last().expect("the phase sent requests") as f64 / 1e3;
    out.note(format!(
        "the generator ran late by p99 {lag_p99_us:.1} us, max {lag_max_us:.1} us (limit {LIMIT_US} us)"
    ));
    let mut runs = vec![first];
    if config.trace {
        let mut tracer = Tracer::new(epoch, true);
        let (traced, second) = timed_phase(&mut state, traced_ops, &mut out, &mut tracer);
        run::record_overhead(&mut out, &timed, &traced);
        runs.push(second);
        probe_layers(config, &state, &runs, &canonicals, &mut out, &mut tracer);
        run::probe_histogram(&mut tracer);
        run::finish_trace(&mut out, "cluster_mix", &[tracer]);
        out.set("loadgen.send_lag_p99_us", lag_p99_us, lags.len() as u64);
        out.set("loadgen.max_lag_us", lag_max_us, lags.len() as u64);
    } else {
        let cycles = run::cpa_cycles(&state.records);
        run::record_end_to_end(&mut out, &setups, &timed, LIMIT_US, &cycles, false);
    }

    let planned = fresh_points(&ops);
    let (evaluated_after, puts_after) = node_counters(&mut state.client);
    let evaluated = evaluated_after - evaluated_before;
    out.attempted += 1;
    if evaluated != planned {
        out.fail(format!(
            "nodes evaluated {evaluated} points, {planned} fresh were planned"
        ));
    }
    let failures: u64 = runs.iter().map(|run| run.failures).sum();
    if config.trace {
        out.set("serve.evaluated", evaluated as f64, planned);
        out.set(
            "cluster.tee_puts_per_fresh_point",
            (puts_after - puts_before) as f64 / planned.max(1) as f64,
            planned,
        );
        out.set("cluster.failures", failures as f64, ops.len() as u64);
    }
    verify_answers(
        runs.iter()
            .flat_map(|run| &run.answers)
            .map(|(point, record)| (point, record))
            .chain(base.iter().zip(&state.records)),
        &mut out,
    );
    teardown(state);
    out
}

/// Ring placement, the JSON codec, segment appends and sharded puts, each
/// on the workload's own keys and records.
fn probe_layers(
    config: &Config,
    state: &Setup,
    runs: &[PhaseRun],
    canonicals: &[String],
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let ring = state.client.ring();
    let keys: Vec<u64> = canonicals.iter().map(|c| fnv1a_64(c.as_bytes())).collect();
    for round in 0..8u64 {
        for chunk in keys.chunks(256) {
            tracer.time_batch("cluster.ring_owners", round, chunk.len() as u64, || {
                for &key in chunk {
                    std::hint::black_box(ring.owners(key, 2));
                }
            });
        }
    }
    for (batch, chunk) in state.records.chunks(256).enumerate() {
        let lines: Vec<String> = tracer.time_batch(
            "explore.json_render",
            batch as u64,
            chunk.len() as u64,
            || chunk.iter().map(PointRecord::to_json_line).collect(),
        );
        let parsed: Vec<Result<PointRecord, String>> = tracer.time_batch(
            "explore.json_parse",
            batch as u64,
            chunk.len() as u64,
            || {
                lines
                    .iter()
                    .map(|line| PointRecord::from_json_line(line))
                    .collect()
            },
        );
        if parsed
            .iter()
            .zip(chunk)
            .any(|(back, record)| back.as_ref() != Ok(record))
        {
            out.fail("JSON round trip changed a record");
        }
    }

    let fresh: Vec<&PointRecord> = runs
        .iter()
        .flat_map(|run| &run.answers)
        .filter(|(point, _)| point.budget >= FRESH_BUDGETS)
        .map(|(_, record)| record)
        .collect();
    let segment = config.work.join("cluster_mix-probe.seg");
    let shards = config.work.join("cluster_mix-probe-shards");
    let _ = std::fs::remove_file(&segment);
    let _ = std::fs::remove_dir_all(&shards);
    let mut segments = SegmentStore::open(&segment).expect("probe segment opens");
    let store = ShardedStore::open(&shards, 4).expect("probe shards open");
    for (i, record) in fresh.iter().enumerate() {
        tracer.time("explore.segment_append", i as u64, || {
            segments.put(record).expect("append")
        });
        tracer.time("serve.store_put", i as u64, || {
            store.put_record(record).expect("put")
        });
    }
    drop((segments, store));
    let _ = std::fs::remove_file(&segment);
    let _ = std::fs::remove_dir_all(&shards);
}
