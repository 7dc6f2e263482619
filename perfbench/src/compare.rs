//! `compare BASE NEW`: medians of two result files, metric by metric and
//! workload by workload, judged against the benchmark's bounds.
//!
//! A result file holds one JSON result per line, as `--out` appends them.
//! A metric whose run-to-run spread (interquartile distance over median) is
//! wider than its bound in either file is reported as unresolved rather
//! than as changed or unchanged.

use std::collections::BTreeMap;

use srra_serve::JsonValue;

use crate::manifest::{self, Better};
use crate::stats;

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Every metric value of every result in `path`, by (workload, metric).
fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("{path}: {err}"))?;
    parse(path, &text)
}

fn parse(path: &str, text: &str) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", number + 1);
        let value = JsonValue::parse(line).map_err(|err| at(&err))?;
        let workload = value
            .get("stamp")
            .and_then(|stamp| stamp.get("workload"))
            .and_then(JsonValue::as_str)
            .ok_or_else(|| at("no stamp.workload"))?;
        let Some(JsonValue::Object(metrics)) = value.get("metrics") else {
            return Err(at("no metrics object"));
        };
        for (name, metric) in metrics {
            let reading = metric
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| at(&format!("metric {name} has no value")))?;
            samples
                .entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(reading);
        }
    }
    Ok(samples)
}

/// The verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Improved,
    WithinBound,
    Unresolved,
    NoBound,
}

/// Judges `new` against `base`: the worsening of the medians as a share of
/// the base median, against `bound`, unless either spread exceeds it.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: Option<f64>) -> (f64, f64, Verdict) {
    let (base_median, new_median) = (stats::median(base), stats::median(new));
    let change = if base_median == 0.0 {
        0.0
    } else {
        (new_median - base_median) / base_median.abs()
    };
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = stats::spread(base).max(stats::spread(new));
    let verdict = match bound {
        None => Verdict::NoBound,
        Some(bound) if spread > bound => Verdict::Unresolved,
        Some(bound) if worse > bound => Verdict::Regression,
        Some(bound) if worse < -bound => Verdict::Improved,
        Some(_) => Verdict::WithinBound,
    };
    (change, spread, verdict)
}

/// Prints the comparison; `Ok(true)` when some metric regressed.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let mut regressed = false;
    println!("workload     metric                           base median      new median   change  spread  verdict");
    for ((workload, name), base_values) in &base {
        let Some(new_values) = new.get(&(workload.clone(), name.clone())) else {
            println!("{workload:<12} {name:<32} missing from {new_path}");
            continue;
        };
        let Some(metric) = manifest::metric(name) else {
            println!("{workload:<12} {name:<32} not a benchmark metric");
            continue;
        };
        let (change, spread, verdict) = judge(base_values, new_values, metric.better, metric.bound);
        regressed |= verdict == Verdict::Regression;
        println!(
            "{workload:<12} {name:<32} {:>15.4} {:>15.4} {:>+7.2}% {:>6.2}%  {verdict:?} (n={}/{})",
            stats::median(base_values),
            stats::median(new_values),
            change * 100.0,
            spread * 100.0,
            base_values.len(),
            new_values.len(),
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let (change, _, verdict) = judge(&base, &slower, Better::Lower, Some(0.1));
        assert!((change - 0.2).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regression);
        assert_eq!(
            judge(&base, &slower, Better::Higher, Some(0.1)).2,
            Verdict::Improved
        );
        assert_eq!(
            judge(&base, &base, Better::Lower, Some(0.1)).2,
            Verdict::WithinBound
        );
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(
            judge(&base, &noisy, Better::Lower, Some(0.1)).2,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&base, &slower, Better::Lower, None).2,
            Verdict::NoBound
        );
    }

    #[test]
    fn result_lines_parse_by_workload_and_metric() {
        let line = |value: f64| {
            format!("{{\"stamp\":{{\"workload\":\"get_hot\",\"seed\":1}},\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{{\"latency_p50_us\":{{\"value\":{value},\"unit\":\"us\"}}}}}}\n")
        };
        let samples = parse("runs", &(line(10.0) + "\n" + &line(12.0))).unwrap();
        assert_eq!(
            samples[&("get_hot".to_owned(), "latency_p50_us".to_owned())],
            vec![10.0, 12.0]
        );
        assert!(parse("runs", "{\"metrics\":{}}")
            .unwrap_err()
            .contains("runs:1"));
    }
}
