//! `invariant-walk`: `Consumer::invariant_campaign` on `CSortableObList`,
//! 2 objects, 120 calls per walk and 2,048 walks, on the default build.
//! It never touches the mutation engine.

use super::{
    common_layers, elapsed_nanos, emit_common, emit_layers, mean_layers, measure, repeated_setup,
    timed, Args, Tracer,
};
use campaign_bench::derive_seed;
use campaign_bench::probes::{Probes, TimedFactory};
use campaign_bench::report::Report;
use campaign_bench::stats::median;
use concat_bit::BitControl;
use concat_components::{sortable_spec, CSortableObListFactory};
use concat_core::{Consumer, InvariantCampaign, SelfTestable, SelfTestableBuilder};
use concat_driver::{execute_sequence, generate_walk, WalkConfig};
use concat_mutation::MutationSwitch;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

const WALKS: usize = 2048;
const CALLS_PER_WALK: usize = 120;
const OBJECTS: usize = 2;

fn bundle(probes: Option<&Arc<Probes>>) -> SelfTestable {
    let factory = CSortableObListFactory::new(MutationSwitch::new());
    match probes {
        Some(p) => SelfTestableBuilder::new(
            sortable_spec(),
            Rc::new(TimedFactory::new(Box::new(factory), Arc::clone(p))),
        ),
        None => SelfTestableBuilder::new(sortable_spec(), Rc::new(factory)),
    }
    .build()
}

/// What the benchmark's own walk loop observed for each walk.
struct Reference {
    transcripts: Vec<String>,
    failing: Vec<bool>,
    calls: u64,
    checks: u64,
    gen_nanos: u64,
    exec_nanos: u64,
}

/// Generates and executes every walk directly, timing both halves.
fn reference(bundle: &SelfTestable, config: &WalkConfig) -> Reference {
    let spec = bundle.spec();
    let ctl = BitControl::new_enabled();
    let mut r = Reference {
        transcripts: Vec::with_capacity(config.walks),
        failing: Vec::with_capacity(config.walks),
        calls: 0,
        checks: 0,
        gen_nanos: 0,
        exec_nanos: 0,
    };
    for index in 0..config.walks {
        let start = Instant::now();
        let seq = generate_walk(spec, config, config.walk_seed(index));
        r.gen_nanos += elapsed_nanos(start);
        let start = Instant::now();
        let outcome = execute_sequence(bundle.factory(), spec, &seq, &ctl, None);
        r.exec_nanos += elapsed_nanos(start);
        r.calls += outcome.executed_steps as u64;
        r.checks += outcome.checks;
        r.failing
            .push(outcome.failure.is_some() || outcome.interrupted);
        r.transcripts.push(outcome.transcript);
    }
    r
}

/// Walks of `campaign` that broke an invariant or whose transcript differs
/// from the reference; every walk fails when the totals disagree.
fn failed_walks(campaign: &InvariantCampaign, reference: &Reference) -> u64 {
    let s = &campaign.summary;
    if s.walks != WALKS as u64 || s.calls != reference.calls || s.checks != reference.checks {
        return WALKS as u64;
    }
    let broken: Vec<usize> = campaign.breakers.iter().filter_map(|b| b.walk).collect();
    (0..WALKS)
        .filter(|&i| {
            reference.failing[i]
                || broken.contains(&i)
                || campaign.transcripts.get(i) != Some(&reference.transcripts[i])
        })
        .count() as u64
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report) {
    let setup = repeated_setup(|| bundle(None));
    let plain_bundle = &setup.value;
    let config = WalkConfig::new(derive_seed(args.seed, 0))
        .with_walks(WALKS)
        .with_calls_per_walk(CALLS_PER_WALK)
        .with_objects(OBJECTS);
    let reference = reference(plain_bundle, &config);
    let plain = Consumer::new();
    let tracer = Tracer::new();
    let traced_bundle = bundle(Some(&tracer.probes));
    let traced = Consumer::new().with_telemetry(tracer.telemetry());

    let mut calls = 0u64;
    let mut layers = Vec::new();
    let measured = measure(args.seconds, args.trace, 1, |is_traced| {
        let (consumer, bundle) = if is_traced {
            (&traced, &traced_bundle)
        } else {
            (&plain, plain_bundle)
        };
        let (campaign, timing) = timed(|| consumer.invariant_campaign(bundle, &config));
        report.attempted += WALKS as u64;
        report.failed += failed_walks(&campaign, &reference);
        if is_traced {
            let (index, probes) = tracer.drain();
            let mut l = common_layers(report, &index, &probes, 1.0);
            l.insert("walk.count", index.count("walk") as f64);
            l.insert("walk.calls", campaign.summary.calls as f64);
            l.insert("walk.checks", campaign.summary.checks as f64);
            layers.push(l);
        } else {
            calls += campaign.summary.calls;
        }
        timing
    });

    report.number("walks", WALKS as f64);
    report.number("calls_per_walk", CALLS_PER_WALK as f64);
    report.number("objects", OBJECTS as f64);
    let walls = measured.walls();
    if args.trace {
        let mut l = mean_layers(&layers);
        l.insert("walk.gen_ms", reference.gen_nanos as f64 / 1e6);
        l.insert("walk.exec_ms", reference.exec_nanos as f64 / 1e6);
        l.insert("obs.overhead_pct", measured.overhead_pct());
        l.insert("calls_per_s", calls as f64 / walls.iter().sum::<f64>());
        emit_layers(report, &l);
    } else {
        let wall = median(&walls).expect("at least one round");
        emit_common(report, &measured, wall, setup.seconds, setup.samples, 1.0);
    }
}
