//! Summary math (percentiles, geometric mean, quartiles, CPU per op) and the
//! process-level readers behind the CPU and memory metrics.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it.  `q` is in `[0, 1]`.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean of positive values (0 for an empty set).
pub fn geomean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|&v| (v as f64).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Process CPU milliseconds per 1,000 operations.
pub fn cpu_ms_per_kop(cpu_ms: f64, ops: u64) -> f64 {
    cpu_ms * 1_000.0 / ops.max(1) as f64
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.  Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// Linux's 64-bit `struct rusage`: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Resource usage of this process: all threads, live and exited.
fn usage() -> Option<Rusage> {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` is valid, writable memory laid out as the C `struct
    // rusage` of 64-bit Linux, which is all `getrusage` writes to.
    let status = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    // SAFETY: zeroed memory is a valid `Rusage` (plain integers), and a
    // successful call filled it in.
    (status == 0).then(|| unsafe { usage.assume_init() })
}

/// User plus system CPU time of this process in milliseconds, at
/// microsecond resolution.
pub fn process_cpu_ms() -> f64 {
    usage().map_or(0.0, |usage| {
        let micros = |tv: [i64; 2]| tv[0] as f64 * 1e6 + tv[1] as f64;
        (micros(usage.utime) + micros(usage.stime)) / 1e3
    })
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    usage().map_or(0.0, |usage| usage.maxrss_kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.50), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[7, 9, 30], 0.5), 9);
        assert_eq!(percentile(&[7, 9, 30], 0.99), 30);
        assert_eq!(percentile(&[5], 0.99), 5);
    }

    #[test]
    fn geomean_matches_hand_values() {
        assert!((geomean(&[2, 8]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1, 10, 100]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[5, 5, 5, 5]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn cpu_per_kop_matches_hand_values() {
        // 1,500 ms of CPU over 30,000 ops is 50 ms per 1,000 ops.
        assert!((cpu_ms_per_kop(1_500.0, 30_000) - 50.0).abs() < 1e-12);
        assert!((cpu_ms_per_kop(20.0, 500) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0]), 2.0);
        assert!((spread(&values) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn process_readers_see_this_process() {
        let before = process_cpu_ms();
        let spin: u64 = (0..20_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(process_cpu_ms() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
