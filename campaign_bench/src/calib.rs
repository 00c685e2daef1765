//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose speed changes by
//! up to twofold within minutes, with no change to the code: the
//! process's own CPU time stretches with its wall time. So each measured round is
//! bracketed by a fixed piece of work of the benchmark's own — integer
//! hashing, ordered-map inserts and removals, linked-list traversal and
//! string formatting, none of it from the measured crates — and the
//! round's time is scaled by how long that fixed work took, relative to
//! [`REFERENCE_SECONDS`]. A change to the program moves the scaled time;
//! a change in host speed moves both and cancels.

use std::collections::{BTreeMap, LinkedList};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// What one calibration took on the reference host (one thread of an
/// idle 2-vCPU Intel Xeon virtual machine, release build). Scaled times
/// read as seconds on that host.
pub const REFERENCE_SECONDS: f64 = 0.010;

/// Keys in the calibration's ordered map.
const KEYS: u64 = 2_000;

/// Passes over the map per calibration.
const PASSES: usize = 24;

/// Timed runs of the fixed work per calibration.
const REPEATS: usize = 5;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed calibration work on one thread; returns a checksum so the
/// work cannot be optimised away.
fn work() -> u64 {
    let mut x = 0x5EED_u64;
    let mut acc = 0u64;
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    let mut text = String::new();
    for _ in 0..PASSES {
        for i in 0..KEYS {
            let k = splitmix(&mut x) % (4 * KEYS);
            map.insert(k, i);
        }
        let list: LinkedList<u64> = map.values().copied().collect();
        acc = list.iter().fold(acc, |a, &v| a.rotate_left(5) ^ v);
        text.clear();
        for (k, v) in map.iter().step_by(3) {
            let _ = write!(text, "{k}:{v};");
        }
        acc = acc.wrapping_add(text.len() as u64);
        map.retain(|k, _| k % 3 != 0);
    }
    acc ^ map.len() as u64
}

/// Times the fixed work run once on each of `threads` threads at the
/// same time, so that a multi-threaded round is calibrated under the
/// same load it runs under. The threads' times are combined as a
/// harmonic mean: the rounds hand work to whichever thread is free, so
/// what sets their pace is the threads' summed speed, not the slowest
/// thread. Returns the median of [`REPEATS`] such calibrations, so one
/// preempted run does not skew it.
pub fn calibrate(threads: usize) -> f64 {
    let threads = threads.max(1);
    let mut times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let timed = || {
                let start = Instant::now();
                black_box(work());
                start.elapsed().as_secs_f64()
            };
            let each: Vec<f64> = if threads == 1 {
                vec![timed()]
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..threads).map(|_| s.spawn(timed)).collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("calibration thread does not panic"))
                        .collect()
                })
            };
            threads as f64 / each.iter().map(|t| 1.0 / t).sum::<f64>()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPEATS / 2]
}

/// How much slower the host ran than the reference host across one
/// measured stretch: the mean of the calibrations taken just before and
/// just after it, over [`REFERENCE_SECONDS`]. Divide a time by it (or
/// multiply a rate by it) to express it on the reference host.
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / REFERENCE_SECONDS
}
