//! `coblist-warm`: an unchanged `CObList` campaign rerun in incremental
//! mode, replaying its write-ahead journal every time. No mutant executes,
//! so the time goes to journal open, verify and replay, fingerprinting and
//! the golden run.

use super::{
    common_layers, emit_common, emit_layers, failed_verdicts, mean_layers, measure, repeated_setup,
    timed, Args, Campaign, Subject, Timing, Tracer, WorkDir,
};
use campaign_bench::report::Report;
use campaign_bench::stats::tail_percentile;
use concat_mutation::MutationConfig;
use concat_obs::Telemetry;
use std::path::{Path, PathBuf};

/// Reruns per measured round; rounds alternate when tracing.
const BATCH: usize = 25;

fn journal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn incremental(mut config: MutationConfig) -> MutationConfig {
    config.incremental = true;
    config
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let work = WorkDir::new(&args.workload);
    let mut fills = 0;
    let setup = repeated_setup(|| {
        fills += 1;
        let journal: PathBuf = work.file(&format!("fill{fills}.journal"));
        let campaign = Campaign::prepare(Subject::CObList, args.seed);
        let config = incremental(campaign.config(Some(journal.clone()), Telemetry::disabled()));
        let fill = campaign.run(campaign.shards(None).as_ref(), &config);
        (campaign, journal, fill)
    });
    let (campaign, journal, fill) = &setup.value;
    let reference = campaign.reference();
    let fill_failed = failed_verdicts(fill, &reference);
    let mutants = campaign.mutants.len() as u64;

    let plain_shards = campaign.shards(None);
    let plain = incremental(campaign.config(Some(journal.clone()), Telemetry::disabled()));
    let tracer = Tracer::new();
    let traced_shards = campaign.shards(Some(&tracer.probes));
    let traced = incremental(campaign.config(Some(journal.clone()), tracer.telemetry()));

    // Rerun times of each untraced round, in round order.
    let mut rerun_ms: Vec<Vec<f64>> = Vec::new();
    let mut layers = Vec::new();
    let mut traced_fills = 0;
    let measured = measure(args.seconds, args.trace, 1, |is_traced| {
        let (shards, config) = if is_traced {
            (&traced_shards, &traced)
        } else {
            (&plain_shards, &plain)
        };
        let mut round = Timing::default();
        let mut times = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let before = journal_len(journal);
            let (run, timing) = timed(|| campaign.run(shards.as_ref(), config));
            round.wall += timing.wall;
            round.cpu += timing.cpu;
            times.push(timing.wall * 1e3);
            // A rerun that executed a mutant would have appended its
            // verdict to the journal.
            let executed = journal_len(journal) != before;
            report.attempted += 1;
            report.failed +=
                u64::from(executed || fill_failed > 0 || failed_verdicts(&run, &reference) > 0);
        }
        if is_traced {
            let (index, probes) = tracer.drain();
            let replayed = index.counter("mutation.replayed");
            if replayed != BATCH as u64 * mutants || index.count("mutant") > 0 {
                report.failed += BATCH as u64;
            }
            let mut l = common_layers(report, &index, &probes, BATCH as f64);
            l.insert("journal.bytes", journal_len(journal) as f64);

            // Replays never append, so the append path is traced on one
            // untimed cold fill into a fresh journal.
            traced_fills += 1;
            let fresh = work.file(&format!("traced{traced_fills}.journal"));
            let config = incremental(campaign.config(Some(fresh), tracer.telemetry()));
            let fill = campaign.run(traced_shards.as_ref(), &config);
            report.attempted += mutants;
            report.failed += failed_verdicts(&fill, &reference);
            let (index, _) = tracer.drain();
            l.insert(
                "journal.records",
                index.count_labelled("journal", "append") as f64,
            );
            l.insert(
                "journal.append_s",
                index.busy_labelled("journal", "append") as f64 / 1e9,
            );
            layers.push(l);
        } else {
            rerun_ms.push(times);
        }
        round
    });
    // Each untraced round's reruns on the reference host, pooled.
    let rerun_ms: Vec<f64> = measured
        .plain
        .iter()
        .zip(&rerun_ms)
        .flat_map(|(round, ts)| ts.iter().map(move |t| t / round.slowdown))
        .collect();
    report.number("workers", campaign.workers() as f64);
    report.number("mutants", mutants as f64);
    report.number("reruns_per_round", BATCH as f64);
    if args.trace {
        let mut l = mean_layers(&layers);
        l.insert("generate.ms", campaign.generate_nanos as f64 / 1e6);
        l.insert("generate.cases", campaign.suite.len() as f64);
        if let Ok(p90) = tail_percentile(&rerun_ms, 90) {
            l.insert("rerun_p90_ms", p90.value);
            report.number("rerun_p90_ms.samples", p90.samples as f64);
            report.number("rerun_p90_ms.beyond", p90.beyond as f64);
        }
        l.insert("obs.overhead_pct", measured.overhead_pct());
        emit_layers(report, &l);
    } else {
        // One rerun is the unit of work, so `wall_s` is the median rerun.
        let p50 = tail_percentile(&rerun_ms, 50).expect("enough reruns for a median");
        report.number("wall_s.samples", p50.samples as f64);
        report.number("wall_s.beyond", p50.beyond as f64);
        emit_common(
            report,
            &measured,
            p50.value / 1e3,
            setup.seconds,
            setup.samples,
            BATCH as f64,
        );
    }
}
