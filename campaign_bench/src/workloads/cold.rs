//! `sortable-cold`: the paper's Table-2 campaign on `CSortableObList`,
//! run solo on the parallel engine with the `Consumer` default worker
//! count, in thread isolation and without a journal.

use super::{
    common_layers, emit_common, emit_layers, failed_verdicts, mean_layers, measure, repeated_setup,
    timed, Args, Campaign, Subject, Tracer,
};
use campaign_bench::report::Report;
use campaign_bench::stats::median;
use concat_obs::Telemetry;

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let setup = repeated_setup(|| Campaign::prepare(Subject::Sortable, args.seed));
    let campaign = &setup.value;
    let reference = campaign.reference();
    let plain = (
        campaign.shards(None),
        campaign.config(None, Telemetry::disabled()),
    );
    let tracer = Tracer::new();
    let traced = (
        campaign.shards(Some(&tracer.probes)),
        campaign.config(None, tracer.telemetry()),
    );
    let mutants = campaign.mutants.len() as u64;
    let mut layers = Vec::new();
    let measured = measure(args.seconds, args.trace, campaign.workers(), |is_traced| {
        let (shards, config) = if is_traced { &traced } else { &plain };
        let (run, timing) = timed(|| campaign.run(shards.as_ref(), config));
        report.attempted += mutants;
        report.failed += failed_verdicts(&run, &reference);
        if is_traced {
            let (index, probes) = tracer.drain();
            let mut l = common_layers(report, &index, &probes, 1.0);
            l.insert(
                "cases.per_kill",
                l["cases.executed"] / run.killed().max(1) as f64,
            );
            layers.push(l);
        }
        timing
    });
    report.number("workers", campaign.workers() as f64);
    report.number("mutants", mutants as f64);
    report.number("cases", campaign.suite.len() as f64);
    let walls = measured.walls();
    if args.trace {
        let mut l = mean_layers(&layers);
        l.insert("generate.ms", campaign.generate_nanos as f64 / 1e6);
        l.insert("generate.cases", campaign.suite.len() as f64);
        l.insert("obs.overhead_pct", measured.overhead_pct());
        l.insert(
            "mutants_per_s",
            (mutants * walls.len() as u64) as f64 / walls.iter().sum::<f64>(),
        );
        emit_layers(report, &l);
    } else {
        let wall = median(&walls).expect("at least one round");
        emit_common(report, &measured, wall, setup.seconds, setup.samples, 1.0);
    }
}
