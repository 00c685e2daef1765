//! Campaign benchmark: runs one workload for a fixed time and prints its
//! metrics, then one JSON result line.
//!
//! ```text
//! campaign-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `sortable-cold`, `coblist-fleet`, `coblist-warm`,
//! `invariant-walk`. With `--trace 0` the result carries the end-to-end
//! metrics of untraced rounds; with `--trace 1` it carries every per-layer
//! metric, read from traced rounds that alternate with untraced ones.

mod workloads;

use campaign_bench::report::Report;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Args;

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2001),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    workloads::describe(&mut report, &args);
    match args.workload.as_str() {
        "sortable-cold" => workloads::cold::run(&args, &mut report),
        "coblist-fleet" => workloads::fleet::run(&args, &mut report),
        "coblist-warm" => workloads::warm::run(&args, &mut report),
        "invariant-walk" => workloads::walk::run(&args, &mut report),
        other => {
            eprintln!("campaign-bench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render_table());
    println!("{}", report.render_info());
    println!("{}", report.render_result());
    ExitCode::SUCCESS
}
