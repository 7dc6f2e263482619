//! Steadiness on a shared machine.  Two measures keep the host out of the
//! figures:
//!
//! * [`pin_to_one_cpu`] runs every thread of the process on one CPU, so
//!   the program's threads hand requests to each other by a context switch
//!   on that CPU, not by a cross-CPU wake-up whose cost depends on where
//!   the scheduler happened to put them.
//! * The host's neighbours still make that CPU run the same code up to a
//!   third slower or faster from one few-second stretch to the next, CPU
//!   time included.  A [`Calibrator`] thread therefore runs one fixed unit
//!   of the benchmark's own work every [`PERIOD`] through the whole run and
//!   times it in thread CPU time.  A measurement over an interval is scaled
//!   by the interval's [`slowdown`]: the median unit time within it over
//!   [`REFERENCE_NS`].  Timing metrics are thereby stated for a reference
//!   CPU, on which one unit takes [`REFERENCE_NS`], and a host-wide
//!   slowdown cancels out.
//!
//! The unit is socket round trips to an echo thread plus plain system
//! calls: the kernel entries, wake-ups and context switches that the
//! program's request paths and worker pools are made of.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between two calibration units; a unit takes about half a
/// millisecond of CPU, so the calibrator keeps near 2% of the CPU.
pub const PERIOD: Duration = Duration::from_millis(25);
/// Echo round trips of one unit.
const ROUND_TRIPS: usize = 100;
/// Bytes of one round trip.
const MESSAGE: usize = 48;
/// `getppid` calls of one unit.
const SYSCALLS: usize = 1_500;
/// Calibrator-thread CPU time of one unit on the reference CPU.
pub const REFERENCE_NS: f64 = 500_000.0;
/// Fewest samples a slowdown is the median of; a shorter interval takes the
/// samples nearest to its middle.
const MIN_SAMPLES: usize = 5;

/// `(start, calibrator-thread CPU ns)` of every unit run so far.
static SAMPLES: Mutex<Vec<(Instant, u64)>> = Mutex::new(Vec::new());

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Restricts the calling thread, and so every thread it starts after, to
/// the highest-numbered CPU it may run on.  Returns that CPU, or `None`
/// when the affinity could not be read or set.  Call it before starting any
/// thread.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is valid, writable memory of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is valid memory of `size` bytes naming an allowed CPU.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// CPU time of the calling thread in ns.
fn thread_cpu_ns() -> u64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, writable `struct timespec` of 64-bit Linux.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    if status == 0 {
        time.sec as u64 * 1_000_000_000 + time.nsec as u64
    } else {
        0
    }
}

/// One calibration unit over `stream`, whose peer echoes; returns the
/// calling thread's CPU time for it in ns.
fn timed_unit(stream: &mut UnixStream) -> std::io::Result<u64> {
    let before = thread_cpu_ns();
    let mut reply = [0u8; MESSAGE];
    for trip in 0..ROUND_TRIPS {
        stream.write_all(&[trip as u8; MESSAGE])?;
        stream.read_exact(&mut reply)?;
    }
    for _ in 0..SYSCALLS {
        black_box(std::os::unix::process::parent_id());
    }
    Ok(thread_cpu_ns().saturating_sub(before))
}

/// Echoes everything it reads until the peer closes.
fn echo(mut stream: UnixStream) {
    let mut buffer = [0u8; 4 * MESSAGE];
    while let Ok(read) = stream.read(&mut buffer) {
        if read == 0 || stream.write_all(&buffer[..read]).is_err() {
            break;
        }
    }
}

/// The running calibrator and its echo thread.
pub struct Calibrator {
    stop: mpsc::Sender<()>,
    threads: [JoinHandle<()>; 2],
}

impl Calibrator {
    /// Starts sampling; the first sample is taken before this returns.
    pub fn start() -> Self {
        let (mut stream, peer) = UnixStream::pair().expect("calibration socket pair");
        let echo = std::thread::spawn(move || echo(peer));
        let mut record = move || {
            let started = Instant::now();
            let ns = timed_unit(&mut stream).expect("calibration round trips");
            SAMPLES
                .lock()
                .expect("calibration samples")
                .push((started, ns));
        };
        record();
        let (stop, stopped) = mpsc::channel::<()>();
        // The stream moves into the sampler and closes when it ends, which
        // ends the echo thread too.
        let sampler = std::thread::spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(PERIOD) {
                record();
            }
        });
        Self {
            stop,
            threads: [sampler, echo],
        }
    }

    /// Stops sampling and waits for both threads.
    pub fn stop(self) {
        drop(self.stop);
        for thread in self.threads {
            thread.join().expect("calibrator thread");
        }
    }
}

/// How much slower than the reference CPU this machine ran between `from`
/// and `to`: the median unit time of the samples started in the interval
/// (or of the [`MIN_SAMPLES`] nearest its middle) over [`REFERENCE_NS`].
/// 1 when no calibrator ran.
pub fn slowdown(from: Instant, to: Instant) -> f64 {
    let samples = SAMPLES.lock().expect("calibration samples");
    slowdown_of(&samples, from, to)
}

fn slowdown_of(samples: &[(Instant, u64)], from: Instant, to: Instant) -> f64 {
    if samples.is_empty() {
        return 1.0;
    }
    let mut within: Vec<f64> = samples
        .iter()
        .filter(|(at, _)| (from..=to).contains(at))
        .map(|&(_, ns)| ns as f64)
        .collect();
    if within.len() < MIN_SAMPLES {
        let middle = from + to.saturating_duration_since(from) / 2;
        let distance = |at: Instant| {
            if at > middle {
                at - middle
            } else {
                middle - at
            }
        };
        let mut nearest: Vec<&(Instant, u64)> = samples.iter().collect();
        nearest.sort_by_key(|(at, _)| distance(*at));
        within = nearest
            .iter()
            .take(MIN_SAMPLES)
            .map(|&&(_, ns)| ns as f64)
            .collect();
    }
    crate::stats::median(&within) / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_unit_time_over_the_reference() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let ns = REFERENCE_NS as u64;
        let samples: Vec<(Instant, u64)> = (0..10)
            .map(|k| (at(k * 10), if k < 5 { ns } else { 2 * ns }))
            .collect();
        assert_eq!(slowdown_of(&samples, at(0), at(40)), 1.0);
        assert_eq!(slowdown_of(&samples, at(50), at(90)), 2.0);
        // Too few samples inside: the five nearest the middle (70 ms).
        assert_eq!(slowdown_of(&samples, at(69), at(71)), 2.0);
        assert_eq!(slowdown_of(&[], at(0), at(1)), 1.0);
    }

    #[test]
    fn a_unit_takes_thread_cpu_time() {
        let (mut stream, peer) = UnixStream::pair().unwrap();
        let echo = std::thread::spawn(move || echo(peer));
        assert!(timed_unit(&mut stream).unwrap() > 0);
        drop(stream);
        echo.join().unwrap();
    }
}
