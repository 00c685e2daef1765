//! Exact order statistics over raw samples.
//!
//! Quantiles here are nearest-rank values of the samples themselves, never
//! histogram bucket bounds. A tail percentile is refused unless at least
//! [`MIN_BEYOND`] samples lie beyond it, so a "p90 of five reruns" (really
//! the maximum) can never be reported.

use std::fmt;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` (0 < q ≤ 1) among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The exact nearest-rank quantile `q` (in `[0, 1]`) of `samples`, found by
/// selection rather than a full sort. `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut scratch = samples.to_vec();
    let k = rank(scratch.len(), q) - 1;
    let (_, value, _) = scratch.select_nth_unstable_by(k, |a, b| a.total_cmp(b));
    Some(*value)
}

/// The median (nearest-rank p50) of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// A tail percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Why a tail percentile was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooFewBeyond {
    /// The requested percentile (0–100).
    pub percentile: u32,
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond it.
    pub beyond: usize,
}

impl fmt::Display for TooFewBeyond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} of {} samples has only {} beyond it (need {MIN_BEYOND})",
            self.percentile, self.samples, self.beyond
        )
    }
}

impl std::error::Error for TooFewBeyond {}

/// The exact `percentile` (0 < percentile < 100) of `samples`, refused
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
///
/// # Errors
///
/// [`TooFewBeyond`] when the tail is too thin to resolve the percentile.
pub fn tail_percentile(samples: &[f64], percentile: u32) -> Result<Tail, TooFewBeyond> {
    let n = samples.len();
    let q = f64::from(percentile) / 100.0;
    let beyond = if n == 0 { 0 } else { n - rank(n, q) };
    if beyond < MIN_BEYOND {
        return Err(TooFewBeyond {
            percentile,
            samples: n,
            beyond,
        });
    }
    let value = quantile(samples, q).expect("a non-empty sample set has every quantile");
    Ok(Tail {
        value,
        samples: n,
        beyond,
    })
}

/// Nanoseconds to a float number of `unit_nanos`-sized units.
pub fn nanos_in(samples: &[u64], unit_nanos: f64) -> Vec<f64> {
    samples.iter().map(|&n| n as f64 / unit_nanos).collect()
}
