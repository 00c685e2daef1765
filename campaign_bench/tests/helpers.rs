//! Tests of the benchmark's helpers: exact quantiles, the tail-percentile
//! sample rule, verdict transparency of the timing decorators, and the
//! host-speed calibration.

use campaign_bench::calib;
use campaign_bench::probes::{Probes, TimedFactory, TimedShards};
use campaign_bench::stats::{quantile, tail_percentile, MIN_BEYOND};
use concat_components::{coblist_inventory, coblist_spec, CObListFactory};
use concat_core::{Consumer, SelfTestableBuilder};
use concat_mutation::{
    run_mutation_analysis, run_mutation_analysis_parallel, ClonableFactory, MutationSwitch,
};
use std::rc::Rc;
use std::sync::Arc;

/// Deterministic pseudo-random samples with ties and a long tail.
fn samples(n: usize, seed: u64) -> Vec<f64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let u = (x >> 33) % 1000;
            if u > 990 {
                (u * 1000) as f64
            } else {
                (u % 37) as f64
            }
        })
        .collect()
}

#[test]
fn quantile_matches_a_sorted_vector_reference() {
    for (n, seed) in [(1, 1), (2, 2), (7, 3), (100, 4), (1001, 5)] {
        let data = samples(n, seed);
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        for step in 0..=20 {
            let q = f64::from(step) / 20.0;
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            assert_eq!(quantile(&data, q), Some(sorted[rank - 1]), "n={n} q={q}");
        }
    }
    assert_eq!(quantile(&[], 0.5), None);
}

#[test]
fn tail_percentile_refuses_fewer_than_ten_samples_beyond() {
    // (percentile, smallest sample count that leaves ten beyond it)
    for (p, enough) in [(50, 20), (75, 40), (90, 100), (99, 1000)] {
        let too_few = samples(enough - 1, 9);
        let err = tail_percentile(&too_few, p).expect_err("a thin tail is refused");
        assert!(err.beyond < MIN_BEYOND, "p{p}: {err}");
        assert_eq!(err.samples, enough - 1);

        let data = samples(enough, 9);
        let tail = tail_percentile(&data, p).expect("ten samples beyond is enough");
        assert_eq!(tail.beyond, MIN_BEYOND, "p{p}");
        assert_eq!(tail.samples, enough);
        assert_eq!(Some(tail.value), quantile(&data, f64::from(p) / 100.0));
    }
    assert!(tail_percentile(&[], 50).is_err());
}

#[test]
fn decorators_leave_verdicts_unchanged_on_a_small_campaign() {
    let switch = MutationSwitch::new();
    let bundle =
        SelfTestableBuilder::new(coblist_spec(), Rc::new(CObListFactory::new(switch.clone())))
            .mutation(coblist_inventory(), switch.clone())
            .mutation_shards(Arc::new(CObListFactory::default()))
            .build();
    let consumer = Consumer::with_seed(7).with_workers(2);
    let suite = consumer.generate(&bundle).expect("spec generates");
    let request = consumer
        .campaign_request(&bundle, &suite, &["RemoveHead"], &[11])
        .expect("bundle has mutation support");
    let shards: &dyn ClonableFactory = request.shards.as_ref();

    let plain = run_mutation_analysis_parallel(shards, &suite, &request.mutants, &request.config);
    assert!(plain.total() > 0);

    let probes = Probes::new();
    let timed = TimedShards::new(Arc::clone(&request.shards), Arc::clone(&probes));
    let parallel =
        run_mutation_analysis_parallel(&timed, &suite, &request.mutants, &request.config);
    assert_eq!(parallel, plain, "timed shards change no verdict");
    let parallel_totals = probes.take();
    assert!(!parallel_totals.invoke_nanos.is_empty());
    assert!(parallel_totals.constructs > 0 && parallel_totals.checks > 0);

    let factory = TimedFactory::new(
        Box::new(CObListFactory::new(switch.clone())),
        Arc::clone(&probes),
    );
    let sequential =
        run_mutation_analysis(&factory, &switch, &suite, &request.mutants, &request.config);
    assert_eq!(sequential, plain, "a timed factory changes no verdict");
    assert!(!probes.take().invoke_nanos.is_empty());
}

#[test]
fn calibration_scales_times_by_the_host_slowdown() {
    for threads in [1, 2] {
        let seconds = calib::calibrate(threads);
        assert!(seconds > 0.0 && seconds.is_finite(), "{threads} threads");
    }
    // A host that took twice the reference time is twice as slow.
    let r = calib::REFERENCE_SECONDS;
    assert_eq!(calib::slowdown(2.0 * r, 2.0 * r), 2.0);
    assert_eq!(calib::slowdown(r, 3.0 * r), 2.0);
    assert_eq!(calib::slowdown(r, r), 1.0);
}
