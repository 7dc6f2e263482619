//! What every workload shares: the run configuration, the outcome it
//! reports, the end-to-end metric math, repeated set-up, in-process server
//! nodes and the environment stamp.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use srra_core::AllocatorRegistry;
use srra_explore::PointRecord;
use srra_serve::{Connection, Server, ServerConfig};

use crate::calib;
use crate::gen::Rng;
use crate::stats;
use crate::trace::{self, LayerStat, Tracer};

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The command-line configuration of one run.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for shard files, inside the current directory.
    pub work: PathBuf,
    /// CPUs the process could use before it was pinned.
    pub nproc: usize,
    /// The CPU every thread runs on ([`calib::pin_to_one_cpu`]); `None`
    /// when pinning failed.
    pub cpu: Option<usize>,
}

impl Config {
    /// The measured duration of one timed phase.  A traced run measures an
    /// untraced and a traced phase, each half as long.
    pub fn phase(&self) -> Duration {
        let share = if self.trace { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each metric.
    pub samples: BTreeMap<&'static str, u64>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(name, value);
        self.samples.insert(name, samples);
    }

    /// Counts one failed check, keeping the first few reasons.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.failed <= 10 {
            self.notes.push(format!("FAILED: {}", reason.into()));
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Sets every span-derived per-layer metric from `layers` (0 where the
    /// workload never entered the layer).
    pub fn set_layers(&mut self, layers: &BTreeMap<&'static str, LayerStat>) {
        for (metric, span, unit_ns) in crate::manifest::SPAN_METRICS {
            let stat = layers.get(span).copied().unwrap_or_default();
            self.set(metric, stat.mean(unit_ns), stat.calls);
        }
    }
}

/// Length of one measurement window of the server workloads: short enough
/// that most windows miss the occasional multi-millisecond stall of a
/// shared machine, so the median window reflects the code, not the host.
pub const WINDOW: Duration = Duration::from_millis(250);

/// One measurement window of a timed phase: a [`WINDOW`] of a server
/// workload, or one round of `sweep_cold`.  Per-window figures are combined by their
/// median, so a burst of noise from outside moves one window, not the run.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// Units of work done (design points or requests).
    pub ops: u64,
    /// Requests recorded, failed ones included.
    pub requests: u64,
    pub wall_s: f64,
    pub cpu_ms: f64,
    /// How much slower than the reference core the machine ran during the
    /// window ([`calib::slowdown`]).
    pub slowdown: f64,
    /// A uniform sample of at most [`SAMPLE_CAP`] request latencies per
    /// recording thread, in ns, saturating at 4.29 s; a failed request is
    /// [`FAILED`], so it misses every limit.
    pub latencies_ns: Vec<u32>,
}

/// The latency recorded for a failed request.
pub const FAILED: u32 = u32::MAX;

/// Latencies one thread keeps per window.  Past this many requests the
/// window keeps a reservoir sample, so the benchmark's own memory, which
/// `peak_rss_mb` sees, does not grow with the program's throughput.
pub const SAMPLE_CAP: usize = 2048;

impl Window {
    /// Adds one request doing `ops` units of work; `None` marks a failure.
    pub fn record(&mut self, ops: u64, latency_ns: Option<u64>) {
        self.ops += ops;
        let latency = latency_ns.map_or(FAILED, |ns| {
            u32::try_from(ns).unwrap_or(FAILED - 1).min(FAILED - 1)
        });
        let seen = self.requests;
        self.requests += 1;
        if self.latencies_ns.len() < SAMPLE_CAP {
            self.latencies_ns.push(latency);
        } else {
            // Algorithm R: request `seen` replaces a kept one with
            // probability SAMPLE_CAP / (seen + 1).
            let slot = Rng::new(seen).below(seen + 1) as usize;
            if let Some(kept) = self.latencies_ns.get_mut(slot) {
                *kept = latency;
            }
        }
    }

    /// Adds another thread's window of the same time.  Both samples weigh
    /// the same, which fits threads that run the same closed loop.
    fn absorb(&mut self, other: Window) {
        self.ops += other.ops;
        self.requests += other.requests;
        self.latencies_ns.extend(other.latencies_ns);
    }

    /// The share of the requests answered within `limit_ns`, as the sample
    /// shows it.
    fn met_share(&self, limit_ns: u32) -> f64 {
        let met = self
            .latencies_ns
            .iter()
            .filter(|&&ns| ns <= limit_ns)
            .count();
        met as f64 / self.latencies_ns.len().max(1) as f64
    }
}

/// The measurements of one timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    /// Complete windows only.
    pub windows: Vec<Window>,
    /// Requests outside a complete window (the tail after the last one).
    pub spill: Window,
}

impl Timed {
    fn all(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().chain([&self.spill])
    }

    pub fn ops(&self) -> u64 {
        self.all().map(|w| w.ops).sum()
    }

    pub fn requests(&self) -> u64 {
        self.all().map(|w| w.requests).sum()
    }

    /// Median latency of the sampled successful requests of the complete
    /// windows in ns, so two `sweep_cold` phases weigh the same kernels.
    pub fn median_latency_ns(&self) -> f64 {
        let mut ok: Vec<u32> = self
            .windows
            .iter()
            .flat_map(|w| w.latencies_ns.iter().copied())
            .filter(|&ns| ns != FAILED)
            .collect();
        ok.sort_unstable();
        ok.get(ok.len() / 2).map_or(0.0, |&ns| f64::from(ns))
    }

    /// Adds a request to the window holding `offset` into the phase.
    pub fn record_at(&mut self, offset: Duration, ops: u64, latency_ns: Option<u64>) {
        let index = (offset.as_nanos() / WINDOW.as_nanos()) as usize;
        if self.windows.len() <= index {
            self.windows.resize_with(index + 1, Window::default);
        }
        self.windows[index].record(ops, latency_ns);
    }

    /// Merges another thread's windows of the same phase.
    pub fn merge(&mut self, other: Timed) {
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.absorb(theirs);
        }
    }

    /// Gives the time windows their wall and CPU time from the boundary
    /// `marks`, and moves the windows after the last complete one to the
    /// spill.
    pub fn close_windows(&mut self, marks: &[Mark]) {
        let complete = marks.len().saturating_sub(1);
        for extra in self.windows.drain(complete.min(self.windows.len())..) {
            self.spill.absorb(extra);
        }
        for (window, pair) in self.windows.iter_mut().zip(marks.windows(2)) {
            window.wall_s = pair[1].wall_s - pair[0].wall_s;
            window.cpu_ms = pair[1].cpu_ms - pair[0].cpu_ms;
            window.slowdown = calib::slowdown(pair[0].at, pair[1].at);
        }
    }
}

/// Wall and process CPU time at one window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    at: Instant,
    wall_s: f64,
    cpu_ms: f64,
}

/// Runs `body` while a monitor thread marks the wall and process CPU time
/// at every [`WINDOW`] boundary from the start; a window's length is the
/// time between its marks as read.  Returns the body's value and the
/// marks, the first at the start.
pub fn windowed<T>(body: impl FnOnce(Instant) -> T) -> (T, Vec<Mark>) {
    let (stop, stopped) = mpsc::channel::<()>();
    let start = Instant::now();
    let mark = move || Mark {
        at: Instant::now(),
        wall_s: start.elapsed().as_secs_f64(),
        cpu_ms: stats::process_cpu_ms(),
    };
    let first = mark();
    std::thread::scope(|scope| {
        let monitor = scope.spawn(move || {
            let mut marks = vec![first];
            for k in 1u32.. {
                let wait = (start + WINDOW * k).saturating_duration_since(Instant::now());
                match stopped.recv_timeout(wait) {
                    Err(mpsc::RecvTimeoutError::Timeout) => marks.push(mark()),
                    _ => break,
                }
            }
            marks
        });
        let value = body(start);
        drop(stop);
        (value, monitor.join().expect("CPU monitor thread"))
    })
}

/// Records the end-to-end metrics of an untraced run: medians over its
/// windows, except `slo_met_ratio`, which weighs every window by its
/// requests.  Times are stated for the reference CPU ([`calib`]), and so is
/// the throughput of a closed loop; an open loop's throughput is its
/// offered rate unless the program falls behind, so it stays as measured.  `peak_rss_mb` is the whole process's: the program under test
/// plus the benchmark's set-up data and bounded latency samples.
pub fn record_end_to_end(
    out: &mut Outcome,
    setups: &[f64],
    timed: &Timed,
    limit_us: f64,
    cpa_cycles: &[u64],
    closed_loop: bool,
) {
    out.set("setup_s", stats::median(setups), setups.len() as u64);
    out.set("peak_rss_mb", stats::peak_rss_mb(), 1);
    out.set(
        "design_cycles_geomean",
        stats::geomean(cpa_cycles),
        cpa_cycles.len() as u64,
    );
    let requests = timed.requests();
    let limit_ns = (limit_us * 1e3) as u32;
    let met: f64 = timed
        .all()
        .map(|w| w.met_share(limit_ns) * w.requests as f64)
        .sum();
    out.set("slo_met_ratio", met / requests.max(1) as f64, requests);
    // Each window's successful latencies, sorted; a window of failures
    // alone misses every limit.
    let windows: Vec<(&Window, Vec<u32>)> = timed
        .windows
        .iter()
        .filter(|w| w.ops > 0)
        .map(|w| {
            let mut ok: Vec<u32> = w
                .latencies_ns
                .iter()
                .copied()
                .filter(|&ns| ns != FAILED)
                .collect();
            ok.sort_unstable();
            (w, ok)
        })
        .collect();
    if windows.is_empty() {
        out.fail("no complete measurement window");
        return;
    }
    let per_window = |f: &dyn Fn(&Window, &[u32]) -> f64| -> f64 {
        stats::median(&windows.iter().map(|(w, ok)| f(w, ok)).collect::<Vec<f64>>())
    };
    let percentile = |ok: &[u32], q: f64| -> f64 {
        if ok.is_empty() {
            f64::INFINITY
        } else {
            f64::from(stats::percentile(ok, q)) / 1e3
        }
    };
    // Rates are multiplied and times divided by each window's slowdown.
    let rate_scale = |w: &Window| if closed_loop { w.slowdown } else { 1.0 };
    out.set(
        "throughput_ops_s",
        per_window(&|w, _| w.ops as f64 / w.wall_s * rate_scale(w)),
        timed.ops(),
    );
    out.set(
        "latency_p50_us",
        per_window(&|w, ok| percentile(ok, 0.50) / w.slowdown),
        requests,
    );
    out.set(
        "latency_p99_us",
        per_window(&|w, ok| percentile(ok, 0.99) / w.slowdown),
        requests,
    );
    out.set(
        "cpu_ms_per_kop",
        per_window(&|w, _| stats::cpu_ms_per_kop(w.cpu_ms, w.ops) / w.slowdown),
        timed.ops(),
    );
    out.note(format!(
        "medians over {} windows; latency limit {limit_us} us per request; as measured: {:.1} ops/s, p50 {:.2} us, p99 {:.2} us, {:.3} CPU ms per 1000 ops, slowdown {:.3}",
        windows.len(),
        per_window(&|w, _| w.ops as f64 / w.wall_s),
        per_window(&|_, ok| percentile(ok, 0.50)),
        per_window(&|_, ok| percentile(ok, 0.99)),
        per_window(&|w, _| stats::cpu_ms_per_kop(w.cpu_ms, w.ops)),
        per_window(&|w, _| w.slowdown),
    ));
}

/// `total_cycles` of the feasible CPA-RA records among `records`: the inputs
/// of `design_cycles_geomean`.
pub fn cpa_cycles<'a>(records: impl IntoIterator<Item = &'a PointRecord>) -> Vec<u64> {
    let cpa = AllocatorRegistry::global()
        .get("cpa")
        .expect("cpa is registered")
        .label();
    records
        .into_iter()
        .filter(|record| record.feasible && record.algorithm == cpa)
        .map(|record| record.total_cycles)
        .collect()
}

/// Records the tracing overhead of a traced run: how much longer the median
/// traced request took than the median request of the untraced phase, in
/// percent.  Latency serves the open loop too, whose throughput is fixed.
pub fn record_overhead(out: &mut Outcome, untraced: &Timed, traced: &Timed) {
    let overhead =
        (traced.median_latency_ns() / untraced.median_latency_ns().max(1.0) - 1.0) * 100.0;
    out.set("trace.overhead_pct", overhead, traced.requests());
}

/// Times `Histogram::record` on a fresh `obs` histogram, in batches.
pub fn probe_histogram(tracer: &mut Tracer) {
    let histogram = srra_obs::Histogram::new();
    for round in 0..20u64 {
        tracer.time_batch("obs.histogram_record", round, 10_000, || {
            for i in 0..10_000u64 {
                histogram.record(Duration::from_nanos(std::hint::black_box(i * 37 + round)));
            }
        });
    }
}

/// Writes the spans of a traced run and records their count.
pub fn finish_trace(out: &mut Outcome, workload: &str, tracers: &[Tracer]) {
    let layers = trace::self_times(tracers);
    out.set_layers(&layers);
    let path = PathBuf::from(".bench_out").join(format!("spans-{workload}.tsv"));
    match trace::write_spans(&path, tracers) {
        Ok(count) => {
            out.set("trace.spans", count as f64, count as u64);
            out.note(format!("{count} spans written to {}", path.display()));
        }
        Err(err) => out.fail(format!("writing spans to {}: {err}", path.display())),
    }
}

/// Sets the workload up `SETUP_REPEATS` times, tearing down all but the
/// last; returns it with every set-up duration in seconds on the reference
/// core (divided by the slowdown while it ran).
pub fn repeated_setup<S>(
    mut setup: impl FnMut(usize) -> S,
    mut teardown: impl FnMut(S),
) -> (S, Vec<f64>) {
    let mut durations = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for index in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            teardown(previous);
        }
        let started = Instant::now();
        kept = Some(setup(index));
        let ended = Instant::now();
        durations.push((ended - started).as_secs_f64() / calib::slowdown(started, ended));
    }
    (kept.expect("SETUP_REPEATS > 0"), durations)
}

/// One in-process `srra serve` node over its own shard directory.
pub struct Node {
    pub addr: String,
    dir: PathBuf,
    handle: std::thread::JoinHandle<()>,
}

impl Node {
    /// Binds a loopback node with the metrics sampler at 1 s.
    pub fn start(dir: PathBuf) -> Self {
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig {
            workers: 4,
            sample_interval_ms: 1_000,
            ..ServerConfig::ephemeral(dir.clone())
        })
        .expect("node binds");
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || {
            server.run().expect("node runs");
        });
        Self { addr, dir, handle }
    }

    /// Shuts the node down, waits for it and removes its shards.
    pub fn stop(self) {
        Connection::connect(&self.addr)
            .and_then(|mut connection| connection.shutdown())
            .expect("node acknowledges shutdown");
        self.handle.join().expect("node thread");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The environment stamp printed with every result.
pub fn stamp(config: &Config, workload: &str) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"rustc\":\"{}\",\"nproc\":{},\"cpu\":{},\"calibration_reference_ns\":{},\"commit\":\"{}\",\"cluster_mix_rate_per_s\":{},\"cluster_mix_limit_us\":{}}}",
        config.seed,
        config.seconds,
        u8::from(config.trace),
        env!("PERFBENCH_RUSTC"),
        config.nproc,
        config.cpu.map_or_else(|| "null".to_owned(), |cpu| cpu.to_string()),
        calib::REFERENCE_NS,
        commit(),
        crate::mix::RATE_PER_S,
        crate::mix::LIMIT_US,
    )
}

/// The commit of the repository in the current directory, or `unknown`
/// outside one.  `GIT_DIR` keeps git from searching the directories above.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |text| text.trim().to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_keep_a_bounded_uniform_sample_and_exact_counts() {
        let mut window = Window::default();
        for ns in 0..100_000u64 {
            window.record(2, Some(ns * 7 % 100_000));
        }
        window.record(2, None);
        assert_eq!((window.requests, window.ops), (100_001, 200_002));
        assert_eq!(window.latencies_ns.len(), SAMPLE_CAP);
        // The sample's share under the 90th percentile is close to 0.9.
        assert!((window.met_share(90_000) - 0.9).abs() < 0.03);

        let mut timed = Timed::default();
        timed.record_at(Duration::from_millis(10), 1, Some(5));
        timed.record_at(WINDOW + Duration::from_millis(10), 1, Some(7));
        let mut other = Timed::default();
        other.record_at(Duration::from_millis(20), 3, Some(9));
        timed.merge(other);
        assert_eq!(
            (timed.windows.len(), timed.ops(), timed.requests()),
            (2, 5, 3)
        );
        assert_eq!(timed.windows[0].latencies_ns, vec![5, 9]);
        assert_eq!(timed.median_latency_ns(), 7.0);
    }
}
