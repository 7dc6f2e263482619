//! The srra benchmark: seeded workloads with end-to-end and per-layer
//! metrics.
//!
//! ```text
//! srra-perfbench --workload <sweep_cold|get_hot|cluster_mix> [--seed N]
//!                [--seconds S] [--trace 0|1] [--out results.jsonl]
//! srra-perfbench compare <base.jsonl> <new.jsonl>
//! srra-perfbench manifest          # prints BENCHMARK.json
//! ```
//!
//! A run prints one line per metric with its unit and sample count, the
//! environment stamp, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`.  It exits 1 when a check failed.

mod calib;
mod compare;
mod gen;
mod hot;
mod manifest;
mod mix;
mod run;
mod stats;
mod sweep;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{Config, Outcome};

struct Args {
    workload: String,
    config: Config,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = sweep::DEFAULT_SEED;
    let mut seconds = manifest::RUN_SECONDS as f64;
    let mut trace = false;
    let mut out = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !manifest::WORKLOADS
        .iter()
        .any(|(name, _)| *name == workload)
    {
        return Err(format!("unknown workload `{workload}`"));
    }
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        config: Config {
            seed,
            seconds,
            trace,
            work,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu: None,
        },
        out,
    })
}

/// A finite JSON number with all its digits.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn report(args: &Args, outcome: &Outcome) -> (String, bool) {
    let Args {
        workload, config, ..
    } = args;
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics = if config.trace {
        &manifest::PER_LAYER[..]
    } else {
        &manifest::END_TO_END[..]
    };
    let mut fields = Vec::with_capacity(metrics.len());
    for metric in metrics {
        let value = outcome.metrics.get(metric.name).copied().unwrap_or(0.0);
        let samples = outcome.samples.get(metric.name).copied().unwrap_or(0);
        println!(
            "{workload} {} = {} {} (n={samples})",
            metric.name,
            number(value),
            metric.unit
        );
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            metric.name,
            number(value),
            metric.unit
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{workload} error_rate = {} ratio (failed {} of {} attempted)",
        number(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        outcome.failed,
        outcome.attempted
    );
    let stamp = run::stamp(config, workload);
    println!("stamp {stamp}");
    let body = format!(
        "\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
    println!("{{{body}}}");
    (format!("{{\"stamp\":{stamp},{body}}}"), correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::render());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, base, new] = &args[..] else {
                eprintln!("usage: srra-perfbench compare <base.jsonl> <new.jsonl>");
                return ExitCode::from(2);
            };
            return match compare::compare(base, new) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::from(1),
                Err(err) => {
                    eprintln!("compare: {err}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let mut args = match parse(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("srra-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    args.config.cpu = calib::pin_to_one_cpu();
    let config = &args.config;
    let _ = std::fs::remove_dir_all(&config.work);
    if let Err(err) = std::fs::create_dir_all(&config.work) {
        eprintln!("srra-perfbench: {}: {err}", config.work.display());
        return ExitCode::from(2);
    }
    let calibrator = calib::Calibrator::start();
    let outcome = match args.workload.as_str() {
        "sweep_cold" => sweep::run(config),
        "get_hot" => hot::run(config),
        _ => mix::run(config),
    };
    calibrator.stop();
    let _ = std::fs::remove_dir_all(&config.work);
    let (line, correct) = report(&args, &outcome);
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{line}"));
        if let Err(err) = appended {
            eprintln!("srra-perfbench: {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
