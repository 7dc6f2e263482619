//! `get_hot`: the serve read path.  Two closed-loop clients send binary
//! keep-alive `get`s for Zipf-drawn keys, a tenth of them never stored,
//! against one in-process node holding [`grid`]'s ~10k records.  Every reply
//! must equal the record set-up stored under its key; the engine does no
//! work.

use std::time::Instant;

use srra_core::AllocatorRegistry;
use srra_explore::codec::{from_bytes, to_bytes};
use srra_explore::{fnv1a_64, PointRecord};
use srra_serve::{canonical_for, Connection, PointOutcome, QueryPoint, ShardedStore};

use crate::gen;
use crate::run::{self, Config, Node, Outcome, Timed};
use crate::trace::Tracer;

/// Every kernel the server knows.
pub const KERNELS: [&str; 7] = ["example", "fir", "dec_fir", "mat", "imi", "pat", "bic"];
/// Stored budgets: `1..=BUDGETS`.
pub const BUDGETS: u64 = 64;
pub const DEVICES: [&str; 2] = ["xcv1000", "xcv300"];
/// Closed-loop clients, one keep-alive connection each.
pub const CLIENTS: usize = 2;
/// Share of draws that ask for a key never stored.
pub const MISS_SHARE: f64 = 0.1;
/// Zipf exponent of the key popularity.
pub const ZIPF_S: f64 = 1.0;
/// Latency limit of one `get`, for `slo_met_ratio`.
pub const LIMIT_US: f64 = 1_000.0;
/// Draws per client; a client cycles through its draws.
const DRAWS: usize = 1 << 16;
/// A traced phase records the spans of one request in this many, which
/// keeps its span file to a few megabytes.  Only those requests measure
/// the tracing overhead.
const TRACE_EVERY: usize = 8;
/// Pings per connection in the transport-floor probe.
const PINGS: u64 = 20_000;

/// `KERNELS` × every registry allocator × budgets × 2 RAM latencies × 2
/// devices.
pub fn grid(budgets: impl Iterator<Item = u64> + Clone) -> Vec<QueryPoint> {
    let mut points = Vec::new();
    for kernel in KERNELS {
        for allocator in AllocatorRegistry::global().iter() {
            for budget in budgets.clone() {
                for ram_latency in [1, 2] {
                    for device in DEVICES {
                        points.push(QueryPoint {
                            kernel: kernel.to_owned(),
                            algorithm: allocator.name().to_owned(),
                            budget,
                            ram_latency,
                            device: device.to_owned(),
                        });
                    }
                }
            }
        }
    }
    points
}

/// Explores `points` through `connection` in batches; the records in
/// request order.
fn populate(connection: &mut Connection, points: &[QueryPoint]) -> Vec<PointRecord> {
    let mut records = Vec::with_capacity(points.len());
    for batch in points.chunks(512) {
        let reply = connection.mexplore(batch).expect("populate explore");
        for outcome in reply.outcomes {
            match outcome {
                PointOutcome::Answered { record, .. } => records.push(record),
                PointOutcome::Failed { error, .. } => panic!("populate point failed: {error}"),
            }
        }
    }
    records
}

struct Setup {
    node: Node,
    records: Vec<PointRecord>,
    misses: Vec<String>,
    clients: Vec<Connection>,
}

fn setup(config: &Config, index: usize) -> Setup {
    let node = Node::start(config.work.join(format!("get_hot-{index}")));
    let mut loader = Connection::connect_binary(&node.addr).expect("connects");
    let records = populate(&mut loader, &grid(1..=BUDGETS));
    // Budgets above the stored ladder: keys that are never stored.
    let misses: Vec<String> = grid(1_000..1_008)
        .iter()
        .map(|point| canonical_for(point).expect("grid resolves"))
        .collect();
    let mut clients: Vec<Connection> = (0..CLIENTS)
        .map(|_| Connection::connect_binary(&node.addr).expect("connects"))
        .collect();
    for client in &mut clients {
        for record in records.iter().take(256) {
            client.get(&record.canonical).expect("warm-up get");
        }
    }
    Setup {
        node,
        records,
        misses,
        clients,
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientRun {
    timed: Timed,
    /// The requests a traced phase traces, alone.
    traced: Timed,
    hits: u64,
    failures: Vec<String>,
}

fn client_loop(
    connection: &mut Connection,
    draws: &[Option<usize>],
    state: (&[PointRecord], &[String]),
    (start, deadline): (Instant, Instant),
    tracer: &mut Tracer,
) -> ClientRun {
    let (records, misses) = state;
    let mut run = ClientRun::default();
    let mut untraced = Tracer::new(start, false);
    for i in 0.. {
        if i % 64 == 0 && Instant::now() >= deadline {
            break;
        }
        let draw = draws[i % draws.len()];
        let key = match draw {
            Some(index) => records[index].canonical.as_str(),
            None => misses[i % misses.len()].as_str(),
        };
        let sampled = i % TRACE_EVERY == 0;
        let tracer = if sampled { &mut *tracer } else { &mut untraced };
        let started = Instant::now();
        let root = tracer.begin("loadgen.request", i as u64);
        let rtt = tracer.begin("serve.get_rtt", i as u64);
        let reply = connection.get(key);
        tracer.end(rtt);
        let correct = match (draw, &reply) {
            (Some(index), Ok(Some(record))) => *record == records[index],
            (None, Ok(None)) => true,
            _ => false,
        };
        tracer.end(root);
        let latency = started.elapsed().as_nanos() as u64;
        run.timed
            .record_at(started - start, 1, correct.then_some(latency));
        if sampled {
            run.traced
                .record_at(started - start, 1, correct.then_some(latency));
        }
        if correct {
            run.hits += u64::from(draw.is_some());
        } else {
            run.failures.push(format!("get {key}: {reply:?}"));
        }
    }
    run
}

/// Runs the clients until the phase ends; returns the merged measurements,
/// those of the one-in-[`TRACE_EVERY`] requests alone, hits and the client
/// tracers.
fn timed_phase(
    config: &Config,
    state: &mut Setup,
    draws: &[Vec<Option<usize>>],
    out: &mut Outcome,
    traced: bool,
) -> (Timed, Timed, u64, Vec<Tracer>) {
    let (records, misses) = (&state.records[..], &state.misses[..]);
    let clients = &mut state.clients;
    let (runs, marks) = run::windowed(|start| {
        let deadline = start + config.phase();
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(draws)
                .map(|(connection, draws)| {
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(start, traced);
                        let run = client_loop(
                            connection,
                            draws,
                            (records, misses),
                            (start, deadline),
                            &mut tracer,
                        );
                        (run, tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("client thread"))
                .collect::<Vec<(ClientRun, Tracer)>>()
        })
    });
    let mut timed = Timed::default();
    let mut sampled = Timed::default();
    let mut hits = 0;
    let mut tracers = Vec::new();
    for (run, tracer) in runs {
        timed.merge(run.timed);
        sampled.merge(run.traced);
        hits += run.hits;
        for failure in run.failures {
            out.fail(failure);
        }
        tracers.push(tracer);
    }
    timed.close_windows(&marks);
    sampled.close_windows(&marks);
    out.attempted += timed.requests();
    (timed, sampled, hits, tracers)
}

pub fn run(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (mut state, setups) = run::repeated_setup(
        |index| setup(config, index),
        |s| {
            drop(s.clients);
            s.node.stop();
        },
    );
    let draws: Vec<Vec<Option<usize>>> = (0..CLIENTS)
        .map(|client| {
            gen::zipf_draws(
                config.seed,
                10 + client as u64,
                state.records.len(),
                DRAWS,
                ZIPF_S,
                MISS_SHARE,
            )
        })
        .collect();
    out.note(format!(
        "{} stored records, {CLIENTS} closed-loop binary keep-alive clients, Zipf s={ZIPF_S}, {}% misses",
        state.records.len(),
        MISS_SHARE * 100.0
    ));
    let (timed, _, _, _) = timed_phase(config, &mut state, &draws, &mut out, false);
    if config.trace {
        let (traced, sampled, hits, mut tracers) =
            timed_phase(config, &mut state, &draws, &mut out, true);
        run::record_overhead(&mut out, &timed, &sampled);
        out.set(
            "serve.hit_ratio",
            hits as f64 / traced.requests().max(1) as f64,
            traced.requests(),
        );
        let mut probe = Tracer::new(Instant::now(), true);
        let pingers = probe_layers(config, &mut state, &draws[0], &mut out, &mut probe);
        run::probe_histogram(&mut probe);
        tracers.push(probe);
        tracers.extend(pingers);
        run::finish_trace(&mut out, "get_hot", &tracers);
        let residual = out.metrics["serve.get_rtt_us"]
            - out.metrics["serve.ping_rtt_us"]
            - (out.metrics["serve.store_get_ns"]
                + out.metrics["explore.wire_encode_ns"]
                + out.metrics["explore.wire_decode_ns"])
                / 1e3;
        out.set("serve.residual_us", residual, traced.requests());
        out.note(format!(
            "attribution: get RTT {:.2} us = ping {:.2} us + store {:.3} us + codec {:.3} us + residual {residual:.2} us",
            out.metrics["serve.get_rtt_us"],
            out.metrics["serve.ping_rtt_us"],
            out.metrics["serve.store_get_ns"] / 1e3,
            (out.metrics["explore.wire_encode_ns"] + out.metrics["explore.wire_decode_ns"]) / 1e3,
        ));
    } else {
        let cycles = run::cpa_cycles(&state.records);
        run::record_end_to_end(&mut out, &setups, &timed, LIMIT_US, &cycles, true);
    }
    drop(state.clients);
    state.node.stop();
    out
}

/// The transport floor, the in-process store read and the codec, each on
/// the workload's own keys and records; returns the ping threads' tracers.
fn probe_layers(
    config: &Config,
    state: &mut Setup,
    draws: &[Option<usize>],
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Vec<Tracer> {
    // The transport floor under the same two concurrent connections the
    // gets ran on.
    let epoch = Instant::now();
    let pingers: Vec<(Tracer, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .map(|connection| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch, true);
                    let mut failed = 0;
                    for i in 0..PINGS {
                        let rtt = tracer.begin("serve.ping_rtt", i);
                        failed += u64::from(connection.ping().is_err());
                        tracer.end(rtt);
                    }
                    (tracer, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("ping thread"))
            .collect()
    });
    let mut tracers = Vec::new();
    for (pinger, failed) in pingers {
        if failed > 0 {
            out.fail(format!("{failed} pings failed"));
        }
        tracers.push(pinger);
    }

    let dir = config.work.join("get_hot-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ShardedStore::open(&dir, 4).expect("probe store opens");
    for record in &state.records {
        store.put_record(record).expect("probe store put");
    }
    let keys: Vec<(u64, &str)> = draws
        .iter()
        .take(32_768)
        .enumerate()
        .map(|(i, draw)| {
            let canonical = match draw {
                Some(index) => state.records[*index].canonical.as_str(),
                None => state.misses[i % state.misses.len()].as_str(),
            };
            (fnv1a_64(canonical.as_bytes()), canonical)
        })
        .collect();
    for (batch, chunk) in keys.chunks(256).enumerate() {
        tracer.time_batch("serve.store_get", batch as u64, chunk.len() as u64, || {
            for &(key, canonical) in chunk {
                std::hint::black_box(store.get_record(key, canonical).expect("probe store get"));
            }
        });
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let served: Vec<&PointRecord> = draws
        .iter()
        .take(32_768)
        .flatten()
        .map(|&index| &state.records[index])
        .collect();
    for (batch, chunk) in served.chunks(256).enumerate() {
        let encoded: Vec<Vec<u8>> = tracer.time_batch(
            "explore.wire_encode",
            batch as u64,
            chunk.len() as u64,
            || {
                chunk
                    .iter()
                    .map(|record| to_bytes(*record).expect("encodes"))
                    .collect()
            },
        );
        let decoded: Vec<PointRecord> = tracer.time_batch(
            "explore.wire_decode",
            batch as u64,
            chunk.len() as u64,
            || {
                encoded
                    .iter()
                    .map(|bytes| from_bytes(bytes).expect("decodes"))
                    .collect()
            },
        );
        if decoded
            .iter()
            .zip(chunk)
            .any(|(back, record)| back != *record)
        {
            out.fail("wire codec round trip changed a record");
        }
    }
    tracers
}
