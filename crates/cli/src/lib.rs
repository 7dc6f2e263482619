//! Command-line front end for the `srra` workspace.
//!
//! The `srra` binary exposes the analysis and reproduction pipeline without writing any
//! Rust code:
//!
//! ```text
//! srra kernels                      # list the built-in kernels
//! srra analyze mat                  # reuse analysis of a kernel
//! srra allocate fir cpa 32          # run one allocator and print the design point
//! srra dot example                  # Graphviz dump of the DFG + critical graph
//! srra figure2                      # reproduce Figure 2(c)
//! srra table1                       # reproduce Table 1
//! srra explore --kernel fir --budgets 8,16,32,64 --jobs 4 --cache /tmp/srra.jsonl
//!                                   # parallel design-space sweep + Pareto table
//! srra serve --cache-dir /tmp/srra-cache --shards 4 --addr 127.0.0.1:0
//!                                   # sharded result store + TCP query server
//! srra query --addr 127.0.0.1:PORT get fir cpa 32
//!                                   # one query against a running server
//! ```
//!
//! The argument handling lives in this library crate (so it is unit-testable); the
//! `main` binary only forwards `std::env::args` and prints the result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use srra_bench::{evaluate_compiled, figure2, render_figure2, render_table1, table1};
use srra_cluster::{ClusterClient, ClusterConfig};
use srra_core::{AllocatorRef, AllocatorRegistry, CompiledKernel};
use srra_explore::codec::to_json;
use srra_explore::{
    exploration_csv, render_exploration, DesignSpace, Exploration, Explorer, JsonlStore,
    MemoryStore, ResultStore,
};
use srra_fpga::DeviceModel;
use srra_ir::examples::paper_example;
use srra_kernels::paper_suite;
use srra_serve::{
    Connection, QueryPoint, Request, Response, Server, ServerConfig, ShardedStore, SnapshotDelta,
    Span,
};

/// Usage text printed for `srra help` and on argument errors.
///
/// The algorithm lists are generated from the [`AllocatorRegistry`], so a new
/// registered strategy shows up here without touching the CLI.
pub fn usage() -> &'static str {
    static USAGE: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    USAGE.get_or_init(|| {
        let algos = AllocatorRegistry::global()
            .names()
            .collect::<Vec<_>>()
            .join(" | ");
        format!(
            "usage: srra <command> [args]\n\
  kernels                        list built-in kernels\n\
  analyze  <kernel>              print the data-reuse analysis\n\
  allocate <kernel> <algo> <N>   allocate N registers (algo: {algos})\n\
  dot      <kernel>              print the DFG + critical graph in Graphviz format\n\
  figure2                        reproduce the paper's Figure 2(c)\n\
  table1                         reproduce the paper's Table 1\n\
  explore [options]              parallel design-space sweep with Pareto output\n\
    --kernel  <k[,k...]|all>     kernels to sweep (default: all six paper kernels)\n\
    --algos   <a[,a...]>         algorithms (default: fr,pr,cpa; available: {algos})\n\
    --budgets <n[,n...]>         register budgets (default: 32)\n\
    --latencies <n[,n...]>       RAM latencies in cycles (default: 2)\n\
    --devices <d[,d...]>         xcv1000 and/or xcv300 (default: xcv1000)\n\
    --jobs    <n>                worker threads (default: all CPUs)\n\
    --cache   <path>             persistent single-file JSONL result cache\n\
    --cache-dir <dir>            persistent *sharded* JSONL result cache\n\
    --shards  <n>                shard count for --cache-dir (default 4)\n\
    --csv                        emit every design point as CSV instead of tables\n\
    --stats-json <path>          write cache statistics as JSON to a file\n\
    (cache statistics go to stderr so stdout is identical across cached re-runs)\n\
  serve [options]                sharded result store + TCP query server\n\
    --cache-dir <dir>            shard directory (required)\n\
    --addr    <host:port>        bind address (default 127.0.0.1:0 = ephemeral port)\n\
    --shards  <n>                shard files (default 4)\n\
    --workers <n>                serving threads (default: all CPUs)\n\
    --slow-query-us <n>          log requests slower than n µs to stderr (default: off)\n\
    --report-interval <secs>     periodic stats report to stderr (default: off)\n\
    --idle-timeout-secs <n>      reap client connections idle for n secs\n\
                                 (default: off; counted by serve_idle_reaped_total)\n\
    --sample-interval-ms <n>     metrics sampler: push one timestamped telemetry\n\
                                 snapshot every n ms into the ring the `series`\n\
                                 op answers from (default: off)\n\
    --slo <rule>                 SLO rule evaluated every sampler tick; repeatable;\n\
                                 e.g. 'serve_op_get_latency_us p99 < 500us over 60s'\n\
                                 or 'serve_misses_total / serve_requests_total < 1%\n\
                                 over 60s' (breaches count obs_slo_breaches_total)\n\
  query --addr <host:port> [--binary] [--timeout-ms <n>] <op>\n\
                                 queries against a running server; prints\n\
                                 the raw JSON response line(s) (see docs/serving.md)\n\
    --binary                     speak the length-prefixed binary wire codec\n\
                                 instead of JSON lines (same output; the server\n\
                                 auto-detects the codec per frame)\n\
    --trace <id>                 stamp every request with a trace id: the server\n\
                                 records a span tree for it, readable afterwards\n\
                                 via `trace <id>` (see docs/observability.md)\n\
    --timeout-ms <n>             I/O deadline on the dial and every read/write\n\
                                 (default: none; 0 also means none)\n\
    get <kernel> <algo> <N> [--latency <n>] [--device <d>]\n\
    explore [axis flags as for explore]     (--batch uses one mexplore line)\n\
    stats | shutdown\n\
    metrics [--prom]             full telemetry snapshot (JSON, or Prometheus\n\
                                 text exposition with --prom; see docs/observability.md)\n\
    trace <id>                   span waterfall the server's flight recorder\n\
                                 retains for a trace id\n\
    series (--last <n> | --window-us <n>)\n\
                                 raw time-series op: the last n sampler snapshots,\n\
                                 or the counter/histogram delta over a trailing\n\
                                 window (needs --sample-interval-ms on the server)\n\
    top [--interval-ms <n>] [--once]\n\
                                 refreshing req/s + hit% + p50/p99 dashboard over\n\
                                 the `series` op (default interval 2000 ms;\n\
                                 --once prints a single frame for scripts)\n\
    pipe                         read raw request lines from stdin, pipeline\n\
                                 them over ONE keep-alive connection, print\n\
                                 the reply lines in request order\n\
  cluster --nodes <a:p,b:p,...> [--replicas <R>] [--vnodes <V>] [--binary] <op>\n\
                                 consistent-hash routed queries over several\n\
                                 serve nodes (see docs/cluster.md); --binary\n\
                                 uses the binary codec on every node connection\n\
    get <kernel> <algo> <N> [--latency <n>] [--device <d>]\n\
    mget [axis flags as for explore]        routed batched lookups\n\
    explore [axis flags as for explore]     routed batched explore (+tee to\n\
                                            replicas when --replicas > 1)\n\
    stats                        one JSON line per node plus a totals line\n\
    ping                         probe every node's liveness\n\
    metrics                      scrape every node, print the merged telemetry\n\
    trace <id>                   scrape every node's flight recorder, print the\n\
                                 merged cluster-wide span waterfall\n\
    repair                       anti-entropy pass: compare per-node digests and\n\
                                 copy records to the replica owners lacking them\n\
    rebalance --to <a:p,...>     move every record to its owners under a new\n\
                                 node list (client-side add/remove of nodes)\n\
    top [--interval-ms <n>] [--once]\n\
                                 fleet dashboard over the `series` op: per-node\n\
                                 and fleet-merged req/s, hit%, p50/p99, open\n\
                                 connections, up/down and SLO state\n\
    --trace <id>                 stamp every routed request with one trace id\n\
                                 across all per-node sub-batches\n\
    --timeout-ms <n>             per-node I/O deadline in ms (default 2000;\n\
                                 0 disables — a hung node then blocks forever)\n\
  help                           show this text"
        )
    })
}

/// Errors reported to the user as text plus a non-zero exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn kernel_by_name(name: &str) -> Result<CompiledKernel, CliError> {
    if name == "example" {
        return Ok(CompiledKernel::new(paper_example()));
    }
    paper_suite()
        .into_iter()
        .find(|spec| spec.kernel.name() == name)
        .map(|spec| spec.compiled())
        .ok_or_else(|| {
            CliError(format!(
                "unknown kernel `{name}`; expected example, fir, dec_fir, mat, imi, pat or bic"
            ))
        })
}

fn algorithm_by_name(name: &str) -> Result<AllocatorRef, CliError> {
    AllocatorRegistry::global().get(name).ok_or_else(|| {
        let known = AllocatorRegistry::global()
            .names()
            .collect::<Vec<_>>()
            .join(", ");
        CliError(format!(
            "unknown algorithm `{name}`; expected one of: {known}"
        ))
    })
}

fn cmd_kernels() -> String {
    let mut out =
        String::from("built-in kernels:\n  example  (the paper's Figure 1 running example)\n");
    for spec in paper_suite() {
        out.push_str(&format!(
            "  {:<8} {}\n",
            spec.kernel.name(),
            spec.description
        ));
    }
    out
}

fn cmd_analyze(name: &str) -> Result<String, CliError> {
    let kernel = kernel_by_name(name)?;
    let analysis = kernel.analysis();
    let mut out = format!("{}\n", kernel.kernel());
    out.push_str(&format!(
        "{:<20} {:>10} {:>12} {:>12} {:>10}\n",
        "reference", "R_full", "accesses", "eliminable", "gamma"
    ));
    for summary in analysis {
        out.push_str(&format!(
            "{:<20} {:>10} {:>12} {:>12} {:>10.1}\n",
            summary.rendered(),
            summary.registers_full(),
            summary.access_counts().total,
            summary.saved_full(),
            summary.benefit_cost()
        ));
    }
    out.push_str(&format!(
        "total registers for full replacement: {}\n",
        analysis.total_registers_full()
    ));
    Ok(out)
}

fn cmd_allocate(name: &str, algo: &str, budget: &str) -> Result<String, CliError> {
    let kernel = kernel_by_name(name)?;
    let allocator = algorithm_by_name(algo)?;
    let budget: u64 = budget
        .parse()
        .map_err(|_| CliError(format!("invalid register budget `{budget}`")))?;
    let outcome = evaluate_compiled(&kernel, allocator, budget)
        .map_err(|e| CliError(format!("allocation failed: {e}")))?;
    let mut out = format!(
        "{} on {} with {budget} registers\n",
        allocator.label(),
        kernel.name()
    );
    out.push_str(&format!(
        "  distribution : {}\n  registers    : {}\n  memory cycles: {}\n  total cycles : {}\n  clock        : {:.1} ns\n  exec time    : {:.1} us\n  slices       : {}  ({:.1}% of the XCV1000)\n  BlockRAMs    : {}\n",
        outcome.allocation.distribution(),
        outcome.allocation.total_registers(),
        outcome.cost.memory_cycles,
        outcome.design.total_cycles,
        outcome.design.clock_period_ns,
        outcome.design.execution_time_us,
        outcome.design.slices,
        outcome.design.slice_occupancy * 100.0,
        outcome.design.block_rams
    ));
    Ok(out)
}

/// Parsed form of the `explore` subcommand's flags.
struct ExploreArgs {
    kernels: Vec<CompiledKernel>,
    allocators: Vec<AllocatorRef>,
    budgets: Vec<u64>,
    latencies: Vec<u64>,
    devices: Vec<DeviceModel>,
    jobs: usize,
    cache: Option<String>,
    cache_dir: Option<String>,
    shards: Option<usize>,
    csv: bool,
    stats_json: Option<String>,
}

fn parse_u64_list(flag: &str, value: &str) -> Result<Vec<u64>, CliError> {
    value
        .split(',')
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.trim()
                .parse::<u64>()
                .map_err(|_| CliError(format!("invalid {flag} value `{part}`")))
        })
        .collect()
}

fn device_by_name(name: &str) -> Result<DeviceModel, CliError> {
    // One resolver for both the local explore path and the serve protocol,
    // so `--devices` accepts the same spellings everywhere.
    srra_serve::device_by_name(name).map_err(CliError)
}

fn parse_explore_args(args: &[String]) -> Result<ExploreArgs, CliError> {
    let mut parsed = ExploreArgs {
        kernels: Vec::new(),
        allocators: AllocatorRegistry::paper_versions().to_vec(),
        budgets: vec![32],
        latencies: vec![2],
        devices: vec![DeviceModel::xcv1000()],
        jobs: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        cache: None,
        cache_dir: None,
        shards: None,
        csv: false,
        stats_json: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--kernel" | "--kernels" => {
                for name in value("--kernel")?.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        continue;
                    }
                    if name == "all" {
                        parsed
                            .kernels
                            .extend(paper_suite().iter().map(|spec| spec.compiled()));
                    } else {
                        parsed.kernels.push(kernel_by_name(name)?);
                    }
                }
            }
            "--algos" | "--algo" => {
                let list = value("--algos")?;
                parsed.allocators = list
                    .split(',')
                    .filter(|n| !n.is_empty())
                    .map(|name| algorithm_by_name(name.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--budgets" => parsed.budgets = parse_u64_list("--budgets", &value("--budgets")?)?,
            "--latencies" => {
                parsed.latencies = parse_u64_list("--latencies", &value("--latencies")?)?;
            }
            "--devices" => {
                let list = value("--devices")?;
                parsed.devices = list
                    .split(',')
                    .filter(|n| !n.is_empty())
                    .map(|name| device_by_name(name.trim()))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "--jobs" => {
                let raw = value("--jobs")?;
                parsed.jobs = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&jobs| jobs >= 1)
                    .ok_or_else(|| CliError(format!("invalid --jobs value `{raw}`")))?;
            }
            "--cache" => parsed.cache = Some(value("--cache")?),
            "--cache-dir" => parsed.cache_dir = Some(value("--cache-dir")?),
            "--shards" => {
                let raw = value("--shards")?;
                parsed.shards = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| CliError(format!("invalid --shards value `{raw}`")))?,
                );
            }
            "--csv" => parsed.csv = true,
            "--stats-json" => parsed.stats_json = Some(value("--stats-json")?),
            other => {
                return Err(CliError(format!(
                    "unknown explore flag `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    if parsed.kernels.is_empty() {
        parsed.kernels = paper_suite().iter().map(|spec| spec.compiled()).collect();
    }
    if parsed.budgets.is_empty()
        || parsed.latencies.is_empty()
        || parsed.allocators.is_empty()
        || parsed.devices.is_empty()
    {
        return Err(CliError(
            "explore: every axis needs at least one value".into(),
        ));
    }
    if parsed.cache.is_some() && parsed.cache_dir.is_some() {
        return Err(CliError(
            "explore: --cache and --cache-dir are mutually exclusive".into(),
        ));
    }
    if parsed.shards.is_some() && parsed.cache_dir.is_none() {
        return Err(CliError("explore: --shards needs --cache-dir".into()));
    }
    Ok(parsed)
}

/// Machine-readable summary of one exploration's cache behaviour.
struct ExploreStats {
    points: usize,
    cache_hits: usize,
    evaluated: usize,
    jobs: usize,
    store_records: usize,
    /// Store backend the run used: `memory`, `jsonl` or `sharded`.
    backend: &'static str,
    /// Per-shard record counts, present only for the sharded backend.
    shard_records: Option<Vec<usize>>,
}

impl ExploreStats {
    /// Hand-rolled JSON (the workspace's serde is an offline no-op shim).
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"points\":{},\"cache_hits\":{},\"evaluated\":{},\"jobs\":{},\"store_records\":{},\"backend\":\"{}\"",
            self.points, self.cache_hits, self.evaluated, self.jobs, self.store_records, self.backend
        );
        if let Some(shards) = &self.shard_records {
            out.push_str(",\"shards\":[");
            for (index, count) in shards.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                out.push_str(&count.to_string());
            }
            out.push(']');
        }
        out.push_str("}\n");
        out
    }
}

fn explore_with_store<S>(
    space: &DesignSpace,
    jobs: usize,
    store: &mut S,
    backend: &'static str,
) -> Result<(Exploration, ExploreStats), CliError>
where
    S: ResultStore,
    S::Error: std::fmt::Display,
{
    let run = Explorer::new(jobs)
        .explore(space, store)
        .map_err(|err| CliError(format!("exploration failed: {err}")))?;
    let stored = store
        .len()
        .map_err(|err| CliError(format!("exploration failed: {err}")))?;
    let stats = ExploreStats {
        points: run.records.len(),
        cache_hits: run.cache_hits,
        evaluated: run.evaluated,
        jobs,
        store_records: stored,
        backend,
        shard_records: None,
    };
    // Stats go to stderr so stdout stays byte-identical between a cold run and
    // a fully cached re-run.
    eprintln!(
        "explore: {} points, {} cache hits, {} evaluated with {} jobs (store holds {} records)",
        stats.points, stats.cache_hits, stats.evaluated, stats.jobs, stats.store_records
    );
    Ok((run, stats))
}

fn cmd_explore(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_explore_args(args)?;
    let space = DesignSpace::new()
        .with_kernels(parsed.kernels)
        .with_allocators(&parsed.allocators)
        .with_budgets(&parsed.budgets)
        .with_ram_latencies(&parsed.latencies)
        .with_devices(parsed.devices);
    let (run, stats) = match (&parsed.cache, &parsed.cache_dir) {
        (Some(path), None) => {
            let mut store = JsonlStore::open(path)
                .map_err(|err| CliError(format!("cannot open cache `{path}`: {err}")))?;
            explore_with_store(&space, parsed.jobs, &mut store, "jsonl")?
        }
        (None, Some(dir)) => {
            let shards = parsed.shards.unwrap_or(4);
            let mut store = ShardedStore::open(dir, shards)
                .map_err(|err| CliError(format!("cannot open cache dir `{dir}`: {err}")))?;
            let (run, mut stats) = explore_with_store(&space, parsed.jobs, &mut store, "sharded")?;
            stats.shard_records = Some(
                store
                    .shard_sizes()
                    .map_err(|err| CliError(format!("cannot read shard sizes: {err}")))?,
            );
            (run, stats)
        }
        _ => explore_with_store(&space, parsed.jobs, &mut MemoryStore::new(), "memory")?,
    };
    if let Some(path) = &parsed.stats_json {
        std::fs::write(path, stats.to_json())
            .map_err(|err| CliError(format!("cannot write stats to `{path}`: {err}")))?;
    }
    Ok(if parsed.csv {
        exploration_csv(&run)
    } else {
        render_exploration(&run)
    })
}

/// Parsed form of the `serve` subcommand's flags.
struct ServeArgs {
    addr: String,
    cache_dir: String,
    shards: usize,
    workers: usize,
    slow_query_us: u64,
    report_interval_secs: u64,
    idle_timeout_secs: u64,
    sample_interval_ms: u64,
    slos: Vec<String>,
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut addr = "127.0.0.1:0".to_owned();
    let mut cache_dir: Option<String> = None;
    let mut shards = 4usize;
    let mut workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut slow_query_us = 0u64;
    let mut report_interval_secs = 0u64;
    let mut idle_timeout_secs = 0u64;
    let mut sample_interval_ms = 0u64;
    let mut slos: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        let positive = |name: &str, raw: String| {
            raw.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| CliError(format!("invalid {name} value `{raw}`")))
        };
        let threshold = |name: &str, raw: String| {
            raw.parse::<u64>()
                .map_err(|_| CliError(format!("invalid {name} value `{raw}`")))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--cache-dir" => cache_dir = Some(value("--cache-dir")?),
            "--shards" => shards = positive("--shards", value("--shards")?)?,
            "--workers" => workers = positive("--workers", value("--workers")?)?,
            "--slow-query-us" => {
                slow_query_us = threshold("--slow-query-us", value("--slow-query-us")?)?;
            }
            "--report-interval" => {
                report_interval_secs = threshold("--report-interval", value("--report-interval")?)?;
            }
            "--idle-timeout-secs" => {
                idle_timeout_secs =
                    threshold("--idle-timeout-secs", value("--idle-timeout-secs")?)?;
            }
            "--sample-interval-ms" => {
                sample_interval_ms =
                    threshold("--sample-interval-ms", value("--sample-interval-ms")?)?;
            }
            "--slo" => slos.push(value("--slo")?),
            other => {
                return Err(CliError(format!(
                    "unknown serve flag `{other}`\n{}",
                    usage()
                )))
            }
        }
    }
    let cache_dir = cache_dir.ok_or_else(|| CliError("serve needs --cache-dir".into()))?;
    Ok(ServeArgs {
        addr,
        cache_dir,
        shards,
        workers,
        slow_query_us,
        report_interval_secs,
        idle_timeout_secs,
        sample_interval_ms,
        slos,
    })
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_serve_args(args)?;
    let config = ServerConfig {
        addr: parsed.addr,
        cache_dir: parsed.cache_dir.clone().into(),
        shards: parsed.shards,
        workers: parsed.workers,
        slow_query_us: parsed.slow_query_us,
        report_interval_secs: parsed.report_interval_secs,
        idle_timeout_secs: parsed.idle_timeout_secs,
        sample_interval_ms: parsed.sample_interval_ms,
        slos: parsed.slos,
    };
    let server = Server::bind(&config).map_err(|err| CliError(format!("serve: {err}")))?;
    // Announce the bound address immediately (the config may have asked for
    // an ephemeral port); scripts and ci.sh scrape this line.
    println!(
        "srra-serve listening on {} ({} shards under {}, {} workers)",
        server.local_addr(),
        parsed.shards,
        parsed.cache_dir,
        parsed.workers
    );
    let report = server
        .run()
        .map_err(|err| CliError(format!("serve: {err}")))?;
    let stats = report.stats;
    Ok(format!(
        "srra-serve stopped after {} connections, {} requests ({} hits, {} misses, {} evaluated; {} records across {} shards)",
        stats.connections,
        stats.requests,
        stats.hits,
        stats.misses,
        stats.evaluated,
        stats.records(),
        stats.shard_records.len()
    ))
}

/// Builds the `explore` request points for `srra query explore` from the same
/// axis flags the local `explore` command takes — but resolved server-side,
/// so only names travel over the wire.
fn parse_query_points(args: &[String]) -> Result<Vec<QueryPoint>, CliError> {
    let mut kernels: Vec<String> = Vec::new();
    let mut algos: Vec<String> = vec!["fr".into(), "pr".into(), "cpa".into()];
    let mut budgets: Vec<u64> = vec![32];
    let mut latencies: Vec<u64> = vec![2];
    let mut devices: Vec<String> = vec!["xcv1000".into()];
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        let names = |raw: String| -> Vec<String> {
            raw.split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .map(str::to_owned)
                .collect()
        };
        match flag.as_str() {
            "--kernel" | "--kernels" => {
                for name in names(value("--kernel")?) {
                    if name == "all" {
                        kernels.extend(paper_suite().iter().map(|s| s.kernel.name().to_owned()));
                    } else {
                        kernels.push(name);
                    }
                }
            }
            "--algos" | "--algo" => algos = names(value("--algos")?),
            "--budgets" => budgets = parse_u64_list("--budgets", &value("--budgets")?)?,
            "--latencies" => latencies = parse_u64_list("--latencies", &value("--latencies")?)?,
            "--devices" => devices = names(value("--devices")?),
            other => {
                return Err(CliError(format!("unknown query explore flag `{other}`")));
            }
        }
    }
    if kernels.is_empty() {
        kernels = paper_suite()
            .iter()
            .map(|s| s.kernel.name().to_owned())
            .collect();
    }
    if algos.is_empty() || budgets.is_empty() || latencies.is_empty() || devices.is_empty() {
        return Err(CliError(
            "query explore: every axis needs at least one value".into(),
        ));
    }
    let mut points = Vec::new();
    for kernel in &kernels {
        for algo in &algos {
            for &budget in &budgets {
                for &ram_latency in &latencies {
                    for device in &devices {
                        points.push(QueryPoint {
                            kernel: kernel.clone(),
                            algorithm: algo.clone(),
                            budget,
                            ram_latency,
                            device: device.clone(),
                        });
                    }
                }
            }
        }
    }
    Ok(points)
}

/// Splits an optional `--timeout-ms <n>` pair out of `args`, mapping `0` to
/// "no deadline" (`std` rejects zero-duration socket timeouts); the
/// remaining arguments come back in order.
fn take_timeout_flag(
    args: &[String],
) -> Result<(Option<std::time::Duration>, Vec<String>), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut timeout = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--timeout-ms" {
            let raw = iter
                .next()
                .ok_or_else(|| CliError("--timeout-ms needs a value".into()))?;
            let ms = raw
                .parse::<u64>()
                .map_err(|_| CliError(format!("invalid --timeout-ms value `{raw}`")))?;
            timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((timeout, rest))
}

/// Splits an optional `--trace <id>` pair out of `args`; the remaining
/// arguments come back in order.  Shared by `srra query` and `srra cluster`.
fn take_trace_flag(args: &[String]) -> Result<(Option<String>, Vec<String>), CliError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--trace" {
            let id = iter
                .next()
                .ok_or_else(|| CliError("--trace needs a value".into()))?;
            trace = Some(id.clone());
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((trace, rest))
}

/// Renders a span list as an indented waterfall: one line per span with its
/// offset from the trace's earliest span, its duration and its annotations,
/// children nested under their parents in start order.  A span whose parent
/// is absent (evicted from the ring, or held by an unreachable node) prints
/// at the root level rather than disappearing.
fn render_waterfall(spans: &[Span]) -> String {
    use std::collections::{BTreeMap, BTreeSet};
    let ids: BTreeSet<u64> = spans.iter().map(|span| span.span_id).collect();
    let base = spans.iter().map(|span| span.start_us).min().unwrap_or(0);
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    let mut roots: Vec<&Span> = Vec::new();
    for span in spans {
        if span.parent_id != 0 && ids.contains(&span.parent_id) {
            children.entry(span.parent_id).or_default().push(span);
        } else {
            roots.push(span);
        }
    }
    roots.sort_by_key(|span| (span.start_us, span.span_id));
    for list in children.values_mut() {
        list.sort_by_key(|span| (span.start_us, span.span_id));
    }
    let mut out = String::new();
    let mut stack: Vec<(&Span, usize)> = roots.iter().rev().map(|span| (*span, 0)).collect();
    while let Some((span, depth)) = stack.pop() {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} +{}us {}us",
            span.name,
            span.start_us.saturating_sub(base),
            span.dur_us
        ));
        for (key, value) in &span.annotations {
            out.push_str(&format!(" {key}={value}"));
        }
        out.push('\n');
        if let Some(kids) = children.get(&span.span_id) {
            stack.extend(kids.iter().rev().map(|span| (*span, depth + 1)));
        }
    }
    out
}

/// The text of one `trace <id>` reply: a headline plus the waterfall, or a
/// clear "nothing retained" line for unknown/evicted ids.
fn render_trace_output(id: &str, spans: &[Span]) -> String {
    if spans.is_empty() {
        return format!("trace {id}: no spans retained");
    }
    let mut out = format!("trace {id}: {} span(s)\n", spans.len());
    out.push_str(&render_waterfall(spans));
    out.trim_end().to_owned()
}

fn cmd_query(args: &[String]) -> Result<String, CliError> {
    // `--binary`, `--trace <id>` and `--timeout-ms <n>` are positionally
    // free: they select the wire codec / stamp a trace id / set the I/O
    // deadline and every other argument keeps its meaning.
    let binary = args.iter().any(|flag| flag == "--binary");
    let args: Vec<String> = args
        .iter()
        .filter(|flag| *flag != "--binary")
        .cloned()
        .collect();
    let (trace, args) = take_trace_flag(&args)?;
    let (timeout, args) = take_timeout_flag(&args)?;
    let connect = |addr: &str| -> Result<Connection, CliError> {
        let mut connection = Connection::connect_with_codec(addr, binary, timeout)
            .map_err(|err| CliError(format!("query: {err}")))?;
        connection
            .set_trace(trace.as_deref())
            .map_err(|err| CliError(format!("query: {err}")))?;
        Ok(connection)
    };
    let (addr, rest) = match &args[..] {
        [flag, addr, rest @ ..] if flag == "--addr" => (addr.clone(), rest),
        _ => {
            return Err(CliError(format!(
                "query needs --addr <host:port>\n{}",
                usage()
            )))
        }
    };
    if let [op] = rest {
        if op == "pipe" {
            return cmd_query_pipe(connect(&addr)?, std::io::stdin().lock());
        }
    }
    let request = match rest {
        [op, kernel, algo, budget, opts @ ..] if op == "get" => {
            let point = parse_get_point(kernel, algo, budget, opts)?;
            let canonical = srra_serve::canonical_for(&point).map_err(CliError)?;
            Request::Get { canonical }
        }
        [op, rest @ ..] if op == "explore" => {
            // `--batch` switches to the batched `mexplore` op: same points,
            // one line each way, per-point outcomes instead of all-or-nothing.
            let batch = rest.iter().any(|flag| flag == "--batch");
            let axes: Vec<String> = rest.iter().filter(|f| *f != "--batch").cloned().collect();
            let points = parse_query_points(&axes)?;
            if batch {
                Request::MultiExplore { points }
            } else {
                Request::Explore { points }
            }
        }
        [op] if op == "stats" => Request::Stats,
        [op] if op == "shutdown" => Request::Shutdown,
        [op, flags @ ..] if op == "metrics" => {
            // The Prometheus exposition is multi-line text: print it raw
            // rather than wrapped in the single-line JSON reply envelope.
            let prom = match flags {
                [] => false,
                [flag] if flag == "--prom" => true,
                _ => {
                    return Err(CliError(format!(
                        "query metrics takes only --prom, got `{}`",
                        flags.join(" ")
                    )))
                }
            };
            let mut connection = connect(&addr)?;
            return if prom {
                connection.metrics_text()
            } else {
                connection.metrics().map(|snapshot| to_json(&snapshot))
            }
            .map(|text| text.trim_end().to_owned())
            .map_err(|err| CliError(format!("query: {err}")));
        }
        [op, id] if op == "trace" => {
            // The waterfall is multi-line text, like the Prometheus path:
            // print it directly instead of the single-line JSON envelope.
            let spans = connect(&addr)?
                .trace_spans(id)
                .map_err(|err| CliError(format!("query: {err}")))?;
            return Ok(render_trace_output(id, &spans));
        }
        [op, flags @ ..] if op == "series" => {
            let mut last = 0u64;
            let mut window_us = 0u64;
            let mut iter = flags.iter();
            while let Some(flag) = iter.next() {
                let mut value = |name: &str| -> Result<u64, CliError> {
                    let raw = iter
                        .next()
                        .ok_or_else(|| CliError(format!("{name} needs a value")))?;
                    raw.parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| CliError(format!("invalid {name} value `{raw}`")))
                };
                match flag.as_str() {
                    "--last" => last = value("--last")?,
                    "--window-us" => window_us = value("--window-us")?,
                    other => return Err(CliError(format!("unknown series flag `{other}`"))),
                }
            }
            if (last == 0) == (window_us == 0) {
                return Err(CliError(
                    "query series needs exactly one of --last <n> or --window-us <n>".into(),
                ));
            }
            Request::Series { last, window_us }
        }
        [op, flags @ ..] if op == "top" => {
            let (interval_ms, once) = parse_top_flags(flags)?;
            // The delta window trails two refresh intervals, so every frame
            // overlaps the previous one and a single missed sample cannot
            // blank a column.
            let window_us = interval_ms.saturating_mul(2_000);
            let mut connection = connect(&addr)?;
            let label = addr.clone();
            return run_top(interval_ms, once, window_us, move || {
                vec![(label.clone(), connection.series_delta(window_us).ok())]
            });
        }
        _ => {
            return Err(CliError(format!(
            "query expects get/explore/stats/metrics/trace/series/top/shutdown/pipe, got `{}`\n{}",
            rest.join(" "),
            usage()
        )))
        }
    };
    let response = connect(&addr)?
        .roundtrip(&request)
        .map_err(|err| CliError(format!("query: {err}")))?;
    Ok(response.render())
}

/// Pipelined requests in flight per window of `srra query pipe`, bounded by
/// line count *and* request bytes so a window cannot fill both sockets'
/// buffers while neither side reads (the classic pipelining deadlock);
/// within a window all request lines go out before any reply is read.  The
/// byte bound keeps even reply-heavy windows (an explore line's reply is an
/// order of magnitude larger than its request) well inside default socket
/// buffer sizes.
const PIPE_WINDOW: usize = 256;

/// Request bytes per pipelined window of `srra query pipe`.
const PIPE_WINDOW_BYTES: usize = 8 * 1024;

/// `srra query ... pipe`: reads raw request lines from `input`, validates
/// them, pipelines them over one keep-alive connection in windows of
/// [`PIPE_WINDOW`] (each window fully written *before any of its replies are
/// read*), and returns the reply lines in request order.
///
/// Windows are dispatched *while stdin is still being read*, so a slow or
/// endless producer sees its earlier requests answered and the in-memory
/// request backlog never exceeds one window.  (The reply text itself is
/// accumulated — the CLI contract returns one string — so output stays
/// proportional to the replies.)
fn cmd_query_pipe(
    mut connection: Connection,
    input: impl std::io::BufRead,
) -> Result<String, CliError> {
    let mut window: Vec<Request> = Vec::with_capacity(PIPE_WINDOW);
    let mut out = String::new();
    let mut flush_window = |window: &mut Vec<Request>, out: &mut String| -> Result<(), CliError> {
        if window.is_empty() {
            return Ok(());
        }
        let responses = connection
            .pipeline(window)
            .map_err(|err| CliError(format!("query: {err}")))?;
        window.clear();
        for response in &responses {
            if !out.is_empty() {
                out.push('\n');
            }
            response.render_into(out);
        }
        Ok(())
    };
    let mut any = false;
    let mut window_bytes = 0usize;
    for (number, line) in input.lines().enumerate() {
        let line = line.map_err(|err| CliError(format!("query pipe: stdin: {err}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(request) => request,
            Err(err) => {
                // Earlier windows already executed server-side: surface their
                // replies before failing rather than discarding served work.
                if !out.is_empty() {
                    println!("{out}");
                }
                return Err(CliError(format!(
                    "query pipe: line {}: {err}{}",
                    number + 1,
                    if out.is_empty() {
                        ""
                    } else {
                        " (replies to the already-dispatched requests are printed above; \
                         the remaining lines were not sent)"
                    }
                )));
            }
        };
        any = true;
        window.push(request);
        window_bytes += line.len();
        if window.len() == PIPE_WINDOW || window_bytes >= PIPE_WINDOW_BYTES {
            flush_window(&mut window, &mut out)?;
            window_bytes = 0;
        }
    }
    if !any {
        return Err(CliError("query pipe: no request lines on stdin".into()));
    }
    flush_window(&mut window, &mut out)?;
    Ok(out)
}

/// Parses the `get <kernel> <algo> <budget> [--latency <n>] [--device <d>]`
/// positional shape shared by `srra query get` and `srra cluster get`.
fn parse_get_point(
    kernel: &str,
    algo: &str,
    budget: &str,
    opts: &[String],
) -> Result<QueryPoint, CliError> {
    let mut point = QueryPoint::new(kernel, algo, 0);
    point.budget = budget
        .parse()
        .map_err(|_| CliError(format!("invalid register budget `{budget}`")))?;
    let mut iter = opts.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--latency" => {
                let raw = value("--latency")?;
                point.ram_latency = raw
                    .parse()
                    .map_err(|_| CliError(format!("invalid --latency value `{raw}`")))?;
            }
            "--device" => point.device = value("--device")?,
            other => return Err(CliError(format!("unknown get flag `{other}`"))),
        }
    }
    Ok(point)
}

/// Renders one cluster stats node entry as a flat JSON line, greppable by
/// scripts (`ci.sh` asserts every node saw traffic through these lines).
/// Parses the shared flags of `srra query top` / `srra cluster top`:
/// `(interval_ms, once)`, defaulting to a 2-second refresh.
fn parse_top_flags(flags: &[String]) -> Result<(u64, bool), CliError> {
    let mut interval_ms = 2_000u64;
    let mut once = false;
    let mut iter = flags.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--once" => once = true,
            "--interval-ms" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| CliError("--interval-ms needs a value".into()))?;
                interval_ms = raw
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError(format!("invalid --interval-ms value `{raw}`")))?;
            }
            other => return Err(CliError(format!("unknown top flag `{other}`"))),
        }
    }
    Ok((interval_ms, once))
}

/// One dashboard row of a `top` frame, computed from one node's window
/// delta; `None` (node unreachable, or its sampler off / too fresh) renders
/// as dashes so the fleet table keeps its shape.
fn render_top_row(label: &str, state: &str, delta: Option<&SnapshotDelta>) -> String {
    let columns =
        |req_s: String, hit: String, p50: String, p99: String, conns: String, slo: String| {
            format!(
                "{label:<24} {state:<5} {req_s:>9} {hit:>6} {p50:>7} {p99:>7} {conns:>6}  {slo}"
            )
        };
    let dash = || "-".to_owned();
    let Some(delta) = delta else {
        return columns(dash(), dash(), dash(), dash(), dash(), dash());
    };
    let req_s = delta
        .rate("serve_requests_total")
        .map_or_else(dash, |rate| format!("{rate:.1}"));
    let hits = delta.diff.counter("serve_hits_total").unwrap_or(0);
    let misses = delta.diff.counter("serve_misses_total").unwrap_or(0);
    let hit = if hits + misses == 0 {
        dash()
    } else {
        format!("{:.1}", hits as f64 * 100.0 / (hits + misses) as f64)
    };
    // Overall request latency: every per-op histogram of the window folded
    // into one, so the quantiles cover the node's whole mix of ops.
    let mut overall = None;
    for (name, histogram) in &delta.diff.histograms {
        if name.starts_with("serve_op_") && name.ends_with("_latency_us") {
            match overall.as_mut() {
                None => overall = Some(histogram.clone()),
                Some(merged) => merged.merge(histogram),
            }
        }
    }
    let busy = overall.filter(|histogram| histogram.count() > 0);
    let p50 = busy
        .as_ref()
        .map_or_else(dash, |histogram| histogram.quantile(0.50).to_string());
    let p99 = busy
        .as_ref()
        .map_or_else(dash, |histogram| histogram.quantile(0.99).to_string());
    let conns = delta
        .diff
        .gauge("serve_open_connections")
        .map_or_else(dash, |open| open.to_string());
    let slo = match delta.diff.gauge("obs_slos_breached") {
        None => dash(),
        Some(0) => "ok".to_owned(),
        Some(breached) => format!("BREACH:{breached}"),
    };
    columns(req_s, hit, p50, p99, conns, slo)
}

/// One full `top` frame: the column header, one row per node, and (for more
/// than one node) a fleet row merging every answering node's delta — sound
/// because merging per-node deltas equals the delta of merged snapshots.
fn render_top_frame(rows: &[(String, Option<SnapshotDelta>)], window_us: u64) -> String {
    let mut out = format!(
        "srra top: {} node(s), {:.1}s window\n{:<24} {:<5} {:>9} {:>6} {:>7} {:>7} {:>6}  {}\n",
        rows.len(),
        window_us as f64 / 1e6,
        "NODE",
        "STATE",
        "REQ/S",
        "HIT%",
        "P50_US",
        "P99_US",
        "CONNS",
        "SLO"
    );
    let mut fleet: Option<SnapshotDelta> = None;
    let mut up = 0usize;
    for (addr, delta) in rows {
        let state = if delta.is_some() { "up" } else { "DOWN" };
        out.push_str(&render_top_row(addr, state, delta.as_ref()));
        out.push('\n');
        if let Some(delta) = delta {
            up += 1;
            match fleet.as_mut() {
                None => fleet = Some(delta.clone()),
                Some(merged) => merged.merge(delta),
            }
        }
    }
    if rows.len() > 1 {
        let label = format!("fleet ({up}/{} up)", rows.len());
        out.push_str(&render_top_row(&label, "-", fleet.as_ref()));
        out.push('\n');
    }
    out.trim_end().to_owned()
}

/// The shared refresh loop of `srra query top` / `srra cluster top`.  With
/// `once` the first frame is returned for scripts and CI; otherwise each
/// tick repaints the terminal (ANSI clear + home) until interrupted.
fn run_top(
    interval_ms: u64,
    once: bool,
    window_us: u64,
    mut poll: impl FnMut() -> Vec<(String, Option<SnapshotDelta>)>,
) -> Result<String, CliError> {
    if once {
        return Ok(render_top_frame(&poll(), window_us));
    }
    loop {
        println!("\x1b[2J\x1b[H{}", render_top_frame(&poll(), window_us));
        let _ = std::io::Write::flush(&mut std::io::stdout());
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn render_node_stats_line(node: &srra_cluster::NodeStats) -> String {
    let mut line = format!(
        "{{\"addr\":\"{}\",\"up\":{},\"routed\":{}",
        node.addr, node.up, node.routed
    );
    if let Some(stats) = &node.stats {
        line.push_str(&format!(
            ",\"requests\":{},\"hits\":{},\"misses\":{},\"evaluated\":{},\"records\":{}",
            stats.requests,
            stats.hits,
            stats.misses,
            stats.evaluated,
            stats.records()
        ));
    }
    line.push('}');
    line
}

fn cmd_cluster(args: &[String]) -> Result<String, CliError> {
    let mut nodes: Option<Vec<String>> = None;
    let mut replicas = 1usize;
    let mut vnodes = srra_cluster::Ring::DEFAULT_VNODES;
    let mut binary = false;
    let mut trace: Option<String> = None;
    let mut timeout: Option<Option<std::time::Duration>> = None;
    let mut rest: &[String] = &[];
    let mut iter_index = 0;
    while iter_index < args.len() {
        let flag = &args[iter_index];
        let value = |name: &str| {
            args.get(iter_index + 1)
                .cloned()
                .ok_or_else(|| CliError(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--nodes" => {
                let list = value("--nodes")?;
                nodes = Some(
                    list.split(',')
                        .map(str::trim)
                        .filter(|node| !node.is_empty())
                        .map(str::to_owned)
                        .collect(),
                );
                iter_index += 2;
            }
            "--replicas" => {
                let raw = value("--replicas")?;
                replicas = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError(format!("invalid --replicas value `{raw}`")))?;
                iter_index += 2;
            }
            "--vnodes" => {
                let raw = value("--vnodes")?;
                vnodes = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError(format!("invalid --vnodes value `{raw}`")))?;
                iter_index += 2;
            }
            "--binary" => {
                binary = true;
                iter_index += 1;
            }
            "--trace" => {
                trace = Some(value("--trace")?);
                iter_index += 2;
            }
            "--timeout-ms" => {
                let raw = value("--timeout-ms")?;
                let ms = raw
                    .parse::<u64>()
                    .map_err(|_| CliError(format!("invalid --timeout-ms value `{raw}`")))?;
                timeout = Some((ms > 0).then(|| std::time::Duration::from_millis(ms)));
                iter_index += 2;
            }
            _ => {
                rest = &args[iter_index..];
                break;
            }
        }
    }
    let nodes = nodes
        .filter(|nodes| !nodes.is_empty())
        .ok_or_else(|| CliError(format!("cluster needs --nodes <a:p,b:p,...>\n{}", usage())))?;
    let mut config = ClusterConfig::new(nodes)
        .with_replicas(replicas)
        .with_vnodes(vnodes)
        .with_binary(binary);
    if let Some(timeout) = timeout {
        config = config.with_timeout(timeout);
    }
    let mut cluster =
        ClusterClient::connect(&config).map_err(|err| CliError(format!("cluster: {err}")))?;
    cluster
        .set_trace(trace.as_deref())
        .map_err(|err| CliError(format!("cluster: {err}")))?;
    match rest {
        [op, kernel, algo, budget, opts @ ..] if op == "get" => {
            let point = parse_get_point(kernel, algo, budget, opts)?;
            let canonical = srra_serve::canonical_for(&point).map_err(CliError)?;
            let record = cluster
                .get(&canonical)
                .map_err(|err| CliError(format!("cluster: {err}")))?;
            Ok(match record {
                Some(record) => {
                    let mut line = String::new();
                    record.write_json_line(&mut line);
                    line
                }
                None => "null".to_owned(),
            })
        }
        [op, axes @ ..] if op == "mget" => {
            let points = parse_query_points(axes)?;
            let canonicals = points
                .iter()
                .map(|point| srra_serve::canonical_for(point).map_err(CliError))
                .collect::<Result<Vec<_>, _>>()?;
            let records = cluster
                .mget(&canonicals)
                .map_err(|err| CliError(format!("cluster: {err}")))?;
            Ok(Response::MultiGot { records }.render())
        }
        [op, axes @ ..] if op == "explore" => {
            let points = parse_query_points(axes)?;
            let reply = cluster
                .explore(&points)
                .map_err(|err| CliError(format!("cluster: {err}")))?;
            // Routing/replication summary to stderr, the outcomes to stdout —
            // stdout stays byte-identical between a cold and a warm run.
            eprintln!(
                "cluster explore: {} points over {} nodes, {} hits, {} evaluated, {} replicated",
                reply.outcomes.len(),
                cluster.ring().len(),
                reply.hits,
                reply.evaluated,
                reply.replicated
            );
            Ok(Response::MultiExplored {
                outcomes: reply.outcomes,
                hits: reply.hits,
                evaluated: reply.evaluated,
            }
            .render())
        }
        [op] if op == "stats" => {
            let stats = cluster.stats();
            let mut out = String::new();
            for node in &stats.nodes {
                out.push_str(&render_node_stats_line(node));
                out.push('\n');
            }
            out.push_str(&format!(
                "{{\"nodes_up\":{},\"replicas\":{},\"total_requests\":{},\"total_evaluated\":{},\"total_records\":{}}}",
                stats.nodes_up(),
                stats.replicas,
                stats.total_requests(),
                stats.total_evaluated(),
                stats.total_records()
            ));
            Ok(out)
        }
        [op] if op == "ping" => {
            let mut out = String::new();
            for (addr, up) in cluster.ping_all() {
                out.push_str(&format!("{{\"addr\":\"{addr}\",\"up\":{up}}}\n"));
            }
            Ok(out.trim_end().to_owned())
        }
        [op] if op == "metrics" => {
            let metrics = cluster.metrics();
            let mut out = String::new();
            for (addr, snapshot) in &metrics.nodes {
                out.push_str(&format!(
                    "{{\"addr\":\"{addr}\",\"scraped\":{}}}\n",
                    snapshot.is_some()
                ));
            }
            // One merged line: every reachable node's telemetry plus this
            // process's own client_*/cluster_* instruments.
            let mut combined = metrics.aggregate.clone();
            combined.merge(&metrics.client);
            out.push_str(&to_json(&combined));
            Ok(out)
        }
        [op, id] if op == "trace" => {
            let scraped = cluster.trace(id);
            let mut out = String::new();
            for (addr, spans) in &scraped.nodes {
                out.push_str(&format!(
                    "{{\"addr\":\"{addr}\",\"scraped\":{},\"spans\":{}}}\n",
                    spans.is_some(),
                    spans.as_ref().map_or(0, Vec::len)
                ));
            }
            out.push_str(&render_trace_output(id, &scraped.merged));
            Ok(out)
        }
        [op] if op == "repair" => {
            let report = cluster
                .repair()
                .map_err(|err| CliError(format!("cluster: {err}")))?;
            Ok(format!(
                "{{\"digests_equal\":{},\"records_seen\":{},\"records_copied\":{}}}",
                report.digests_equal, report.records_seen, report.records_copied
            ))
        }
        [op, to_flag, list] if op == "rebalance" && to_flag == "--to" => {
            let to: Vec<String> = list
                .split(',')
                .map(str::trim)
                .filter(|node| !node.is_empty())
                .map(str::to_owned)
                .collect();
            let report = cluster
                .rebalance(&to)
                .map_err(|err| CliError(format!("cluster: {err}")))?;
            Ok(format!(
                "{{\"records_walked\":{},\"records_stored\":{}}}",
                report.records_walked, report.records_stored
            ))
        }
        [op, flags @ ..] if op == "top" => {
            let (interval_ms, once) = parse_top_flags(flags)?;
            let window_us = interval_ms.saturating_mul(2_000);
            run_top(interval_ms, once, window_us, || {
                cluster.series_delta(window_us)
            })
        }
        _ => Err(CliError(format!(
            "cluster expects get/mget/explore/stats/ping/metrics/trace/repair/rebalance --to/top, got `{}`\n{}",
            rest.join(" "),
            usage()
        ))),
    }
}

fn cmd_dot(name: &str) -> Result<String, CliError> {
    let kernel = kernel_by_name(name)?;
    Ok(srra_dfg::to_dot(kernel.dfg(), Some(kernel.critical_path())))
}

/// Runs one CLI invocation and returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for unknown commands, unknown
/// kernels/algorithms or malformed numbers.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args {
        [] => Ok(usage().to_owned()),
        [cmd] if cmd == "help" || cmd == "--help" || cmd == "-h" => Ok(usage().to_owned()),
        [cmd] if cmd == "kernels" => Ok(cmd_kernels()),
        [cmd] if cmd == "figure2" => Ok(render_figure2(&figure2())),
        [cmd] if cmd == "table1" => Ok(render_table1(&table1())),
        [cmd, kernel] if cmd == "analyze" => cmd_analyze(kernel),
        [cmd, kernel] if cmd == "dot" => cmd_dot(kernel),
        [cmd, kernel, algo, budget] if cmd == "allocate" => cmd_allocate(kernel, algo, budget),
        [cmd, rest @ ..] if cmd == "explore" => cmd_explore(rest),
        [cmd, rest @ ..] if cmd == "serve" => cmd_serve(rest),
        [cmd, rest @ ..] if cmd == "query" => cmd_query(rest),
        [cmd, rest @ ..] if cmd == "cluster" => cmd_cluster(rest),
        _ => Err(CliError(format!(
            "unrecognised arguments: {}\n{}",
            args.join(" "),
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn help_and_empty_invocations_print_usage() {
        assert_eq!(run(&args(&[])).unwrap(), usage());
        assert_eq!(run(&args(&["help"])).unwrap(), usage());
        assert_eq!(run(&args(&["--help"])).unwrap(), usage());
    }

    #[test]
    fn usage_lists_every_registered_algorithm() {
        // The algo lists are generated from the registry: a strategy that only
        // exists as a registry entry (greedy) still shows up.
        for name in AllocatorRegistry::global().names() {
            assert!(usage().contains(name), "usage misses {name}");
        }
        assert!(usage().contains("greedy"));
        assert!(usage().contains("--stats-json"));
        assert!(usage().contains("serve"));
        assert!(usage().contains("query"));
        assert!(usage().contains("--cache-dir"));
    }

    #[test]
    fn kernels_lists_all_seven_entries() {
        let out = run(&args(&["kernels"])).unwrap();
        for name in ["example", "fir", "dec_fir", "mat", "imi", "pat", "bic"] {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn analyze_prints_requirements() {
        let out = run(&args(&["analyze", "example"])).unwrap();
        assert!(out.contains("b[k][j]"));
        assert!(out.contains("600"));
        assert!(out.contains("total registers for full replacement: 681"));
    }

    #[test]
    fn allocate_runs_every_algorithm_alias() {
        for algo in [
            "fr", "pr", "cpa", "ks", "none", "v3", "CPA-RA", "greedy", "GR-RA",
        ] {
            let out = run(&args(&["allocate", "example", algo, "64"])).unwrap();
            assert!(out.contains("distribution"), "algo {algo}");
        }
    }

    #[test]
    fn registry_only_strategies_flow_through_explore_untouched() {
        // `greedy` is never named by the explore/bench/cli layers; resolving
        // it here proves a new allocator needs only its impl + registry entry.
        let out = run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--algos",
            "greedy,cpa",
            "--budgets",
            "8,32",
            "--jobs",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("GR-RA"));
        assert!(out.contains("CPA-RA"));
    }

    #[test]
    fn explore_stats_json_writes_machine_readable_stats() {
        // Per-process dir: concurrent test runs must not share cache files.
        let dir = std::env::temp_dir().join(format!("srra-cli-stats-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let stats_path = dir.join("stats.json");
        let cache_path = dir.join("cache.jsonl");
        let _ = std::fs::remove_file(&stats_path);
        let _ = std::fs::remove_file(&cache_path);
        let explore_args = |stats: &std::path::Path| {
            args(&[
                "explore",
                "--kernel",
                "fir",
                "--budgets",
                "8,16",
                "--jobs",
                "1",
                "--cache",
                cache_path.to_str().unwrap(),
                "--stats-json",
                stats.to_str().unwrap(),
            ])
        };
        let cold_out = run(&explore_args(&stats_path)).unwrap();
        let cold_stats = std::fs::read_to_string(&stats_path).unwrap();
        assert_eq!(
            cold_stats.trim(),
            "{\"points\":6,\"cache_hits\":0,\"evaluated\":6,\"jobs\":1,\"store_records\":6,\"backend\":\"jsonl\"}"
        );
        // Warm re-run: stdout stays byte-identical, the stats file tells the
        // two runs apart.
        let warm_out = run(&explore_args(&stats_path)).unwrap();
        let warm_stats = std::fs::read_to_string(&stats_path).unwrap();
        assert_eq!(warm_out, cold_out);
        assert_eq!(
            warm_stats.trim(),
            "{\"points\":6,\"cache_hits\":6,\"evaluated\":0,\"jobs\":1,\"store_records\":6,\"backend\":\"jsonl\"}"
        );
        let _ = std::fs::remove_file(&stats_path);
        let _ = std::fs::remove_file(&cache_path);
    }

    #[test]
    fn explore_stats_json_requires_a_value() {
        assert!(run(&args(&["explore", "--stats-json"])).is_err());
    }

    #[test]
    fn explore_with_a_sharded_cache_reports_per_shard_statistics() {
        let dir = std::env::temp_dir().join(format!("srra-cli-shards-test-{}", std::process::id()));
        let cache_dir = dir.join("cache");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stats_path = dir.join("stats.json");
        let explore_args = || {
            args(&[
                "explore",
                "--kernel",
                "fir",
                "--budgets",
                "8,16",
                "--jobs",
                "1",
                "--cache-dir",
                cache_dir.to_str().unwrap(),
                "--shards",
                "3",
                "--stats-json",
                stats_path.to_str().unwrap(),
            ])
        };
        let cold_out = run(&explore_args()).unwrap();
        let cold_stats = std::fs::read_to_string(&stats_path).unwrap();
        assert!(
            cold_stats.contains("\"backend\":\"sharded\""),
            "{cold_stats}"
        );
        assert!(cold_stats.contains("\"evaluated\":6"), "{cold_stats}");
        assert!(cold_stats.contains(",\"shards\":["), "{cold_stats}");
        // The shard list has exactly three entries summing to the store size.
        let shards: Vec<usize> = cold_stats
            .split("\"shards\":[")
            .nth(1)
            .unwrap()
            .split(']')
            .next()
            .unwrap()
            .split(',')
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().sum::<usize>(), 6);
        // Warm re-run: stdout byte-identical, everything a cache hit.
        let warm_out = run(&explore_args()).unwrap();
        let warm_stats = std::fs::read_to_string(&stats_path).unwrap();
        assert_eq!(warm_out, cold_out);
        assert!(warm_stats.contains("\"cache_hits\":6"), "{warm_stats}");
        assert!(
            warm_stats.contains("\"backend\":\"sharded\""),
            "{warm_stats}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explore_rejects_conflicting_cache_flags() {
        assert!(run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--cache",
            "/tmp/x.jsonl",
            "--cache-dir",
            "/tmp/xdir"
        ]))
        .is_err());
        assert!(run(&args(&["explore", "--kernel", "fir", "--shards", "4"])).is_err());
        assert!(run(&args(&[
            "explore",
            "--shards",
            "0",
            "--cache-dir",
            "/tmp/y"
        ]))
        .is_err());
    }

    #[test]
    fn serve_and_query_round_trip_over_a_live_socket() {
        let dir = std::env::temp_dir().join(format!("srra-cli-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache");

        // Bind directly (not via `run`) so the test learns the port without
        // scraping stdout, then exercise the `query` command end to end.
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::ephemeral(cache_dir.clone())
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        let query = |rest: &[&str]| {
            let mut full = vec!["query", "--addr", addr.as_str()];
            full.extend_from_slice(rest);
            run(&args(&full))
        };
        let miss = query(&["get", "fir", "cpa", "32"]).unwrap();
        assert_eq!(miss, "{\"ok\":true,\"found\":false}");
        let explored = query(&["explore", "--kernel", "fir", "--algos", "cpa"]).unwrap();
        assert!(explored.contains("\"evaluated\":1"), "{explored}");
        let hit = query(&["get", "fir", "cpa", "32"]).unwrap();
        assert!(hit.contains("\"found\":true"), "{hit}");
        assert!(hit.contains("\"kernel\":\"fir\""), "{hit}");
        let stats = query(&["stats"]).unwrap();
        assert!(stats.contains("\"evaluated\":1"), "{stats}");
        assert_eq!(
            query(&["shutdown"]).unwrap(),
            "{\"ok\":true,\"shutting_down\":true}"
        );
        handle.join().unwrap();

        // Bad query invocations fail client-side with usage hints.
        assert!(run(&args(&["query", "get", "fir", "cpa", "32"])).is_err());
        assert!(query(&["get", "fir", "cpa", "many"]).is_err());
        assert!(query(&["frobnicate"]).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_pipe_and_batch_drive_one_keepalive_connection() {
        let dir = std::env::temp_dir().join(format!("srra-cli-pipe-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::ephemeral(dir.join("cache"))
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());

        // `explore --batch` switches to one mexplore line with per-point
        // outcomes.
        let batched = run(&args(&[
            "query", "--addr", &addr, "explore", "--kernel", "fir", "--algos", "cpa", "--batch",
        ]))
        .unwrap();
        assert!(
            batched.contains("\"outcomes\":[{\"hit\":false"),
            "{batched}"
        );

        // `pipe`: several ops pipelined over ONE connection, replies in
        // request order, one line each.
        let input = concat!(
            "{\"op\":\"explore\",\"points\":[{\"kernel\":\"fir\",\"algo\":\"cpa\",\"budget\":32}]}\n",
            "\n",
            "{\"op\":\"mget\",\"canonicals\":[\"kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560\",\"nope\"]}\n",
            "{\"op\":\"stats\"}\n",
        );
        let out = cmd_query_pipe(Connection::connect(&addr).unwrap(), input.as_bytes()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].starts_with("{\"ok\":true,\"records\":["), "{out}");
        assert!(
            lines[1].starts_with("{\"ok\":true,\"got\":[{") && lines[1].ends_with(",null]}"),
            "{out}"
        );
        assert!(lines[2].contains("\"ops\":{"), "{out}");

        // The same pipe over the binary codec: stdin stays JSON lines, only
        // the wire format changes, and the data-bearing replies (not the
        // stats line, whose latency digests move between runs) come back
        // byte-identical to the JSON-codec run.
        let binary_out =
            cmd_query_pipe(Connection::connect_binary(&addr).unwrap(), input.as_bytes()).unwrap();
        let binary_lines: Vec<&str> = binary_out.lines().collect();
        assert_eq!(binary_lines.len(), 3, "{binary_out}");
        assert_eq!(binary_lines[..2], lines[..2], "{binary_out}");
        assert!(binary_lines[2].contains("\"ops\":{"), "{binary_out}");

        // `--binary get` speaks the binary codec and prints the same JSON.
        let hit = run(&args(&[
            "query", "--addr", &addr, "--binary", "get", "fir", "cpa", "32",
        ]))
        .unwrap();
        assert!(hit.contains("\"found\":true"), "{hit}");
        assert!(hit.contains("\"kernel\":\"fir\""), "{hit}");

        // Malformed or empty stdin fails client-side, before any bytes move.
        assert!(
            cmd_query_pipe(Connection::connect(&addr).unwrap(), "not json\n".as_bytes()).is_err()
        );
        assert!(cmd_query_pipe(Connection::connect(&addr).unwrap(), "".as_bytes()).is_err());

        let down = run(&args(&["query", "--addr", &addr, "shutdown"])).unwrap();
        assert!(down.contains("shutting_down"));
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_trace_records_and_prints_span_waterfalls() {
        let dir = std::env::temp_dir().join(format!("srra-cli-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::bind(&ServerConfig {
            shards: 2,
            workers: 2,
            ..ServerConfig::ephemeral(dir.join("cache"))
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let query = |rest: &[&str]| {
            let mut full = vec!["query", "--addr", addr.as_str()];
            full.extend_from_slice(rest);
            run(&args(&full))
        };

        // A traced cold explore leaves a span tree in the flight recorder;
        // `trace <id>` prints it as a waterfall with the engine stages as
        // children of the root request span.
        let explored = query(&[
            "--trace", "cli.q.t1", "explore", "--kernel", "fir", "--algos", "cpa",
        ])
        .unwrap();
        assert!(explored.contains("\"evaluated\":1"), "{explored}");
        let waterfall = query(&["trace", "cli.q.t1"]).unwrap();
        assert!(waterfall.starts_with("trace cli.q.t1:"), "{waterfall}");
        assert!(waterfall.contains("\nexplore +0us "), "{waterfall}");
        assert!(waterfall.contains("codec=json"), "{waterfall}");
        assert!(waterfall.contains("  engine.allocation +"), "{waterfall}");
        assert!(waterfall.contains("  render +"), "{waterfall}");

        // An unknown id answers cleanly, and a malformed one fails
        // client-side before any bytes move.
        assert_eq!(
            query(&["trace", "nope"]).unwrap(),
            "trace nope: no spans retained"
        );
        assert!(query(&["--trace", "bad id", "stats"]).is_err());

        query(&["shutdown"]).unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cluster_routes_queries_over_two_nodes() {
        let dir =
            std::env::temp_dir().join(format!("srra-cli-cluster-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for index in 0..2 {
            let server = Server::bind(&ServerConfig {
                shards: 2,
                workers: 2,
                ..ServerConfig::ephemeral(dir.join(format!("node-{index}")))
            })
            .unwrap();
            addrs.push(server.local_addr().to_string());
            handles.push(std::thread::spawn(move || server.run().unwrap()));
        }
        let nodes = addrs.join(",");
        let cluster = |rest: &[&str]| {
            let mut full = vec!["cluster", "--nodes", nodes.as_str(), "--replicas", "2"];
            full.extend_from_slice(rest);
            run(&args(&full))
        };

        let ping = cluster(&["ping"]).unwrap();
        assert_eq!(ping.matches("\"up\":true").count(), 2, "{ping}");

        // 36 points: even at the worst tested balance bound (a 2/3 key
        // share) the chance of one node owning all of them is < 1e-6, so
        // the per-node traffic assertions below cannot realistically flake.
        let axes = [
            "--kernel",
            "fir,mat,pat",
            "--algos",
            "fr,pr,cpa",
            "--budgets",
            "8,16,32,64",
        ];
        let explored = cluster(&[&["explore"], &axes[..]].concat()).unwrap();
        assert!(explored.contains("\"outcomes\":["), "{explored}");
        assert!(explored.contains("\"evaluated\":36"), "{explored}");

        // Warm mget: every record answered, none null.
        let got = cluster(&[&["mget"], &axes[..]].concat()).unwrap();
        assert!(got.starts_with("{\"ok\":true,\"got\":["), "{got}");
        assert!(!got.contains("null"), "{got}");

        // The same warm mget over the binary codec routes identically and
        // prints byte-identical output.
        let binary_got = cluster(&[&["--binary", "mget"], &axes[..]].concat()).unwrap();
        assert_eq!(binary_got, got);

        // Single get against a replicated record.
        let hit = cluster(&["get", "fir", "cpa", "8"]).unwrap();
        assert!(hit.contains("\"kernel\":\"fir\""), "{hit}");
        let miss = cluster(&["get", "fir", "cpa", "127"]).unwrap();
        assert_eq!(miss, "null");

        // Stats: one line per node plus the totals line; both nodes saw
        // evaluations (the ring split the grid) and replication doubled the
        // stored records.
        let stats = cluster(&["stats"]).unwrap();
        let lines: Vec<&str> = stats.lines().collect();
        assert_eq!(lines.len(), 3, "{stats}");
        for line in &lines[..2] {
            assert!(line.contains("\"up\":true"), "{stats}");
            assert!(!line.contains("\"evaluated\":0,"), "{stats}");
        }
        assert!(lines[2].contains("\"nodes_up\":2"), "{stats}");
        assert!(lines[2].contains("\"total_evaluated\":36"), "{stats}");
        assert!(lines[2].contains("\"total_records\":72"), "{stats}");

        // A traced explore stamps one id across every node's sub-batch;
        // `cluster trace` scrapes both flight recorders and merges the spans
        // into one cluster-wide waterfall.
        let traced = cluster(&[
            "--trace",
            "cli.c.t1",
            "explore",
            "--kernel",
            "imi",
            "--algos",
            "cpa",
            "--budgets",
            "8,16,32,64",
        ])
        .unwrap();
        assert!(traced.contains("\"outcomes\":["), "{traced}");
        let waterfall = cluster(&["trace", "cli.c.t1"]).unwrap();
        assert_eq!(
            waterfall.matches("\"scraped\":true").count(),
            2,
            "{waterfall}"
        );
        assert!(waterfall.contains("trace cli.c.t1:"), "{waterfall}");
        assert!(waterfall.contains("mexplore +"), "{waterfall}");
        assert!(waterfall.contains("  engine.allocation +"), "{waterfall}");

        // Config errors fail before any traffic.
        assert!(run(&args(&["cluster", "stats"])).is_err(), "needs --nodes");
        assert!(cluster(&["frobnicate"]).is_err());
        assert!(run(&args(&[
            "cluster",
            "--nodes",
            nodes.as_str(),
            "--replicas",
            "3",
            "stats"
        ]))
        .is_err());

        for addr in &addrs {
            run(&args(&["query", "--addr", addr, "shutdown"])).unwrap();
        }
        for handle in handles {
            handle.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_rejects_missing_or_malformed_flags() {
        assert!(run(&args(&["serve"])).is_err(), "serve needs --cache-dir");
        assert!(run(&args(&["serve", "--cache-dir"])).is_err());
        assert!(run(&args(&["serve", "--cache-dir", "/tmp/x", "--shards", "0"])).is_err());
        assert!(run(&args(&["serve", "--cache-dir", "/tmp/x", "--frobnicate"])).is_err());
    }

    #[test]
    fn figure2_and_dot_commands_work() {
        assert!(run(&args(&["figure2"])).unwrap().contains("1184"));
        let dot = run(&args(&["dot", "example"])).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn explore_prints_pareto_tables_and_summary() {
        let out = run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--budgets",
            "8,16,32",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("Pareto frontier for fir"));
        assert!(out.contains("best allocator per kernel:"));
        assert!(out.contains("CPA-RA"));
    }

    #[test]
    fn explore_csv_covers_every_design_point() {
        let out = run(&args(&[
            "explore",
            "--kernel",
            "fir",
            "--budgets",
            "8,32",
            "--algos",
            "fr,cpa",
            "--latencies",
            "1,2",
            "--csv",
            "--jobs",
            "1",
        ]))
        .unwrap();
        // header + 1 kernel x 2 algorithms x 2 budgets x 2 latencies
        assert_eq!(out.lines().count(), 1 + 8);
        assert!(out.starts_with("kernel,algorithm,"));
    }

    #[test]
    fn explore_is_deterministic_across_job_counts() {
        let serial = run(&args(&[
            "explore",
            "--kernel",
            "mat",
            "--budgets",
            "16,32",
            "--jobs",
            "1",
        ]));
        let parallel = run(&args(&[
            "explore",
            "--kernel",
            "mat",
            "--budgets",
            "16,32",
            "--jobs",
            "8",
        ]));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn explore_rejects_bad_flags_and_values() {
        assert!(run(&args(&["explore", "--frobnicate"])).is_err());
        assert!(run(&args(&["explore", "--kernel", "nope"])).is_err());
        assert!(run(&args(&["explore", "--budgets", "abc"])).is_err());
        assert!(run(&args(&["explore", "--budgets"])).is_err());
        assert!(run(&args(&["explore", "--jobs", "0"])).is_err());
        assert!(run(&args(&["explore", "--devices", "xcv9000"])).is_err());
        assert!(run(&args(&["explore", "--algos", ","])).is_err());
    }

    #[test]
    fn errors_are_reported_with_usage_hints() {
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&["analyze", "nope"])).is_err());
        assert!(run(&args(&["allocate", "fir", "zzz", "32"])).is_err());
        assert!(run(&args(&["allocate", "fir", "cpa", "many"])).is_err());
        let err = run(&args(&["allocate", "fir", "cpa", "1"])).unwrap_err();
        assert!(err.to_string().contains("allocation failed"));
    }

    #[test]
    fn series_and_top_render_the_sampled_time_dimension() {
        let dir = std::env::temp_dir().join(format!("srra-cli-top-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A malformed SLO rule is rejected at bind time, before serving.
        let bad = run(&args(&[
            "serve",
            "--cache-dir",
            dir.join("bad").to_str().unwrap(),
            "--sample-interval-ms",
            "10",
            "--slo",
            "nonsense",
        ]));
        assert!(bad.is_err(), "{bad:?}");

        // Two sampled nodes; node traffic below arms the deliberately
        // impossible latency SLO, so `top` shows a breach.
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for index in 0..2 {
            let server = Server::bind(&ServerConfig {
                shards: 2,
                workers: 2,
                sample_interval_ms: 10,
                slos: vec!["serve_op_explore_latency_us p99 < 1us over 30s".to_owned()],
                ..ServerConfig::ephemeral(dir.join(format!("node-{index}")))
            })
            .unwrap();
            addrs.push(server.local_addr().to_string());
            handles.push(std::thread::spawn(move || server.run().unwrap()));
        }
        let query = |addr: &str, rest: &[&str]| {
            let mut full = vec!["query", "--addr", addr];
            full.extend_from_slice(rest);
            run(&args(&full))
        };
        let explored = query(&addrs[0], &["explore", "--kernel", "fir", "--algos", "cpa"]).unwrap();
        assert!(explored.contains("\"evaluated\":1"), "{explored}");
        std::thread::sleep(std::time::Duration::from_millis(60));

        // Raw sample mode: at least two timestamped snapshots by now.
        let series = query(&addrs[0], &["series", "--last", "16"]).unwrap();
        assert!(series.contains("\"series\":["), "{series}");
        assert!(series.matches("\"at_us\":").count() >= 2, "{series}");

        // Raw window mode: the delta envelope with the window bounds.
        let delta = query(&addrs[0], &["series", "--window-us", "30000000"]).unwrap();
        assert!(delta.contains("\"delta\":{"), "{delta}");
        assert!(delta.contains("\"from_us\":"), "{delta}");

        // Exactly one of --last / --window-us, and only known flags.
        assert!(query(&addrs[0], &["series"]).is_err());
        assert!(query(&addrs[0], &["series", "--last", "4", "--window-us", "1000"]).is_err());
        assert!(query(&addrs[0], &["series", "--last", "0"]).is_err());
        assert!(query(&addrs[0], &["top", "--frobnicate"]).is_err());

        // Single-node dashboard frame: header, the node row, the breach.
        let frame = query(&addrs[0], &["top", "--once"]).unwrap();
        assert!(frame.contains("NODE"), "{frame}");
        assert!(frame.contains(&addrs[0]), "{frame}");
        assert!(frame.contains(" up "), "{frame}");
        assert!(frame.contains("BREACH:1"), "{frame}");

        // Fleet dashboard: both node rows plus the merged fleet row; the
        // idle node is up but SLO-clean, so the fleet inherits one breach.
        let nodes = addrs.join(",");
        let top = run(&args(&["cluster", "--nodes", &nodes, "top", "--once"])).unwrap();
        for addr in &addrs {
            assert!(top.contains(addr.as_str()), "{top}");
        }
        assert!(top.contains("fleet (2/2 up)"), "{top}");
        assert!(top.contains("BREACH:1"), "{top}");

        for addr in &addrs {
            query(addr, &["shutdown"]).unwrap();
        }
        for handle in handles {
            handle.join().unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
