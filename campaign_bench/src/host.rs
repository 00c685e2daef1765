//! Facts about the host and the process, recorded with every result.

use std::process::Command;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc --version` of the toolchain on `PATH`, or `"unknown"`.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// User plus system CPU seconds this process has used, all threads
/// included (exited ones too), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    // Linux reports these fields in clock ticks of USER_HZ, which is 100.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok());
    match (ticks(14), ticks(15)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
