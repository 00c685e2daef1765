//! Helpers of the campaign benchmark: exact order statistics, outside-in
//! timing decorators, span-stream reading, host facts, host-speed
//! calibration and result output.
//! The workloads themselves live in the `campaign-bench` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod host;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;

/// Derives the `stream`-th independent seed from a workload seed
/// (SplitMix64 finalizer), so every input of a run follows from `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
