//! `coblist-fleet`: an open-loop burst of 40 `CObList` Table-3 campaigns,
//! all due at t=0 to one `Orchestrator` with `nproc` thread-lease slots.
//! The campaigns cycle through four suites generated from seeds derived
//! from the workload seed. They run without journals: a per-verdict fsync
//! made the burst's wall time follow the shared disk (see the README).

use super::{
    common_layers, elapsed_nanos, emit_common, emit_layers, failed_verdicts, mean_layers, measure,
    repeated_setup, Args, Campaign, Subject, Timing, Tracer,
};
use campaign_bench::report::Report;
use campaign_bench::stats::{median, nanos_in, tail_percentile};
use campaign_bench::{derive_seed, host};
use concat_mutation::{CampaignEnd, CampaignId, CampaignRequest, Orchestrator, OrchestratorConfig};
use concat_obs::Telemetry;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Campaigns due at the start of each burst.
const CAMPAIGNS: usize = 40;

/// Distinct suites the campaigns cycle through.
const SUITES: usize = 4;

/// How often the burst's completion is polled; bounds the turnaround
/// resolution.
const POLL: Duration = Duration::from_millis(5);

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let setup = repeated_setup(|| {
        (0..SUITES as u64)
            .map(|i| Campaign::prepare(Subject::CObList, derive_seed(args.seed, 10 + i)))
            .collect::<Vec<_>>()
    });
    let templates = &setup.value;
    let references: Vec<_> = templates.iter().map(Campaign::reference).collect();
    let slots = host::nproc();
    let tracer = Tracer::new();

    // Turnarounds of each untraced burst, in round order.
    let mut turnarounds: Vec<Vec<f64>> = Vec::new();
    let mut verdicts = 0u64;
    let mut submit_nanos = Vec::new();
    let mut layers = Vec::new();
    let measured = measure(args.seconds, args.trace, slots, |is_traced| {
        let telemetry = if is_traced {
            tracer.telemetry()
        } else {
            Telemetry::disabled()
        };
        let probes = is_traced.then_some(&tracer.probes);
        let requests: Vec<CampaignRequest> = (0..CAMPAIGNS)
            .map(|j| {
                let t = &templates[j % SUITES];
                CampaignRequest {
                    name: format!("c{j}"),
                    shards: t.shards(probes),
                    suite: t.suite.clone(),
                    mutants: t.mutants.clone(),
                    config: t.config(None, telemetry.clone()),
                    priority: 0,
                    mutant_budget: None,
                    slot: None,
                }
            })
            .collect();
        let orch = Orchestrator::start(OrchestratorConfig {
            slots,
            capacity: CAMPAIGNS,
            telemetry: telemetry.clone(),
            ..OrchestratorConfig::default()
        });

        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let mut index: HashMap<CampaignId, usize> = HashMap::new();
        for (j, request) in requests.into_iter().enumerate() {
            let start = Instant::now();
            let id = orch
                .submit(request)
                .expect("the fleet admits every campaign");
            if is_traced {
                submit_nanos.push(elapsed_nanos(start));
            }
            index.insert(id, j);
        }
        let mut done: Vec<Option<f64>> = vec![None; CAMPAIGNS];
        let mut pending = CAMPAIGNS;
        while pending > 0 {
            std::thread::sleep(POLL);
            let now = t0.elapsed().as_secs_f64();
            for status in orch.list() {
                let j = index[&status.id];
                if status.phase.is_terminal() && done[j].is_none() {
                    done[j] = Some(now);
                    pending -= 1;
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let timing = Timing {
            wall,
            cpu: host::cpu_seconds() - cpu0,
            ..Timing::default()
        };

        let mut burst_verdicts = 0u64;
        let mut burst_killed = 0u64;
        for (id, j) in &index {
            let reference = &references[j % SUITES];
            let outcome = orch.wait(*id).expect("campaign reaches a terminal phase");
            report.attempted += reference.total() as u64;
            match outcome.end {
                CampaignEnd::Completed(run) => {
                    report.failed += failed_verdicts(&run, reference);
                    burst_verdicts += run.total() as u64;
                    burst_killed += run.killed() as u64;
                }
                _ => report.failed += reference.total() as u64,
            }
        }
        orch.shutdown();

        if is_traced {
            let (spans, totals) = tracer.drain();
            let mut l = common_layers(report, &spans, &totals, 1.0);
            l.insert(
                "cases.per_kill",
                l["cases.executed"] / burst_killed.max(1) as f64,
            );
            l.insert("slot.util", l["lease.busy_s"] / (slots as f64 * wall));
            l.insert("prepare.ms", l["golden.ms"] / CAMPAIGNS as f64);
            layers.push(l);
        } else {
            turnarounds.push(done.into_iter().flatten().collect());
            verdicts += burst_verdicts;
        }
        timing
    });

    report.number("slots", slots as f64);
    report.number("campaigns_per_burst", CAMPAIGNS as f64);
    report.number(
        "mutants_per_campaign",
        templates.iter().map(|t| t.mutants.len()).sum::<usize>() as f64 / SUITES as f64,
    );
    let makespans = measured.walls();
    if args.trace {
        let mut l = mean_layers(&layers);
        l.insert(
            "generate.ms",
            templates.iter().map(|t| t.generate_nanos).sum::<u64>() as f64 / 1e6,
        );
        l.insert(
            "generate.cases",
            templates.iter().map(|t| t.suite.len()).sum::<usize>() as f64,
        );
        l.insert(
            "submit.us",
            median(&nanos_in(&submit_nanos, 1e3)).unwrap_or(0.0),
        );
        l.insert("obs.overhead_pct", measured.overhead_pct());
        l.insert(
            "mutants_per_s",
            verdicts as f64 / makespans.iter().sum::<f64>(),
        );
        // Each untraced burst's turnarounds on the reference host, pooled.
        let turnarounds: Vec<f64> = measured
            .plain
            .iter()
            .zip(&turnarounds)
            .flat_map(|(round, ts)| ts.iter().map(move |t| t / round.slowdown))
            .collect();
        for (p, name) in [(50, "campaign_p50_s"), (75, "campaign_p75_s")] {
            let tail = tail_percentile(&turnarounds, p).expect("every burst has 40 campaigns");
            report.number(&format!("{name}.samples"), tail.samples as f64);
            report.number(&format!("{name}.beyond"), tail.beyond as f64);
            l.insert(name, tail.value);
        }
        emit_layers(report, &l);
    } else {
        // One burst is the unit of work: `wall_s` is its median makespan.
        let wall = median(&makespans).expect("at least one burst");
        emit_common(report, &measured, wall, setup.seconds, setup.samples, 1.0);
    }
}
