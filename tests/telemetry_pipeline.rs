//! Cross-crate integration for the telemetry spine: a real pipeline run
//! (generate → execute → mutation analysis) recorded into a `MemorySink`
//! must account for every case and every mutant, and `JsonlSink` output
//! must be parseable one-object-per-line.

use concat::core::Consumer;
use concat::driver::{Expansion, GeneratorConfig};
use concat::mutation::{KillReason, MutantStatus};
use concat::obs::{JsonlSink, MemorySink, Telemetry};
use concat_bench::coblist_bundle;
use std::sync::Arc;

fn consumer_with(seed: u64, telemetry: Telemetry) -> Consumer {
    Consumer::with_config(GeneratorConfig {
        seed,
        expansion: Expansion::Covering { repeats: 1 },
        ..GeneratorConfig::default()
    })
    .with_telemetry(telemetry)
}

#[test]
fn generation_and_execution_account_for_every_case() {
    let sink = Arc::new(MemorySink::new());
    let consumer = consumer_with(81, Telemetry::new(sink.clone()));
    let bundle = coblist_bundle();

    let suite = consumer.generate(&bundle).unwrap();
    assert_eq!(sink.span_count("generate"), 1);
    assert_eq!(sink.counter_total("gen.cases"), suite.len() as u64);
    assert!(
        sink.gauge_value("gen.transactions").unwrap() > 0,
        "transaction gauge set during generation"
    );

    let report = consumer.run_suite(&bundle, &suite).unwrap();
    let summary = sink.summary();
    assert_eq!(summary.span("suite").unwrap().count, 1);
    assert_eq!(
        summary.span("case").unwrap().count,
        suite.len() as u64,
        "one case span per generated case"
    );
    let outcomes = summary.counter("case.passed")
        + summary.counter("case.assertion_violated")
        + summary.counter("case.exception")
        + summary.counter("case.panicked");
    assert_eq!(
        outcomes,
        suite.len() as u64,
        "every case lands in exactly one outcome"
    );
    assert_eq!(
        summary.counter("case.passed"),
        report.result.passed() as u64
    );
    assert!(
        summary.counter("call.ok") + summary.counter("call.raised") > 0,
        "per-call counters recorded"
    );
    assert!(
        summary.counter("bit.invariant.checks") > 0,
        "BIT assertions report through the same spine"
    );
}

#[test]
fn mutation_analysis_accounts_for_every_mutant() {
    let sink = Arc::new(MemorySink::new());
    let consumer = consumer_with(82, Telemetry::new(sink.clone()));
    let bundle = coblist_bundle();
    let suite = consumer.generate(&bundle).unwrap();
    sink.clear();

    let run = consumer
        .evaluate_quality(&bundle, &suite, &["AddHead", "RemoveAt"], &[])
        .unwrap();

    let summary = sink.summary();
    assert_eq!(summary.span("mutation").unwrap().count, 1);
    assert_eq!(summary.span("golden").unwrap().count, 1);
    assert_eq!(
        summary.span("mutant").unwrap().count,
        run.total() as u64,
        "one mutant span per enumerated mutant"
    );

    let count = |f: &dyn Fn(&MutantStatus) -> bool| {
        run.results.iter().filter(|r| f(&r.status)).count() as u64
    };
    let killed_by = |want: KillReason| {
        count(&|s| matches!(s, MutantStatus::Killed { reason, .. } if *reason == want))
    };
    assert_eq!(
        summary.counter("mutant.killed.crash"),
        killed_by(KillReason::Crash)
    );
    assert_eq!(
        summary.counter("mutant.killed.assertion"),
        killed_by(KillReason::Assertion)
    );
    assert_eq!(
        summary.counter("mutant.killed.output_diff"),
        killed_by(KillReason::OutputDiff)
    );
    assert_eq!(
        summary.counter("mutant.survived"),
        count(&|s| matches!(s, MutantStatus::Survived))
    );
    assert_eq!(
        summary.counter("mutant.equivalent.presumed"),
        run.equivalent() as u64
    );
    let accounted = summary.counter("mutant.killed.crash")
        + summary.counter("mutant.killed.assertion")
        + summary.counter("mutant.killed.output_diff")
        + summary.counter("mutant.survived")
        + summary.counter("mutant.equivalent.presumed");
    assert_eq!(
        accounted,
        run.total() as u64,
        "every mutant lands in exactly one bucket"
    );
    assert_eq!(
        summary.gauge("mutant.equivalent"),
        Some(run.equivalent() as i64)
    );
}

#[test]
fn jsonl_sink_emits_one_parseable_object_per_line() {
    let sink = Arc::new(JsonlSink::in_memory());
    let consumer = consumer_with(83, Telemetry::new(sink.clone()));
    let bundle = coblist_bundle();
    let suite = consumer.generate(&bundle).unwrap();
    let _ = consumer.run_suite(&bundle, &suite).unwrap();

    let text = sink.contents();
    assert!(!text.is_empty());
    assert!(text.ends_with('\n'));
    let mut saw_span_end = false;
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each line is one JSON object: {line:?}"
        );
        assert!(line.contains("\"event\":\""), "typed events: {line:?}");
        assert!(!line[1..line.len() - 1].contains('\n'));
        saw_span_end |= line.contains("\"event\":\"span_end\"");
    }
    assert!(saw_span_end, "timed spans present in the stream");
}

#[test]
fn telemetry_does_not_change_pipeline_results() {
    let bundle_a = coblist_bundle();
    let bundle_b = coblist_bundle();
    let plain = consumer_with(84, Telemetry::disabled());
    let instrumented = consumer_with(84, Telemetry::new(Arc::new(MemorySink::new())));

    let suite_a = plain.generate(&bundle_a).unwrap();
    let suite_b = instrumented.generate(&bundle_b).unwrap();
    assert_eq!(
        suite_a, suite_b,
        "generation is deterministic under instrumentation"
    );

    let report_a = plain.run_suite(&bundle_a, &suite_a).unwrap();
    let report_b = instrumented.run_suite(&bundle_b, &suite_b).unwrap();
    assert_eq!(report_a.result.passed(), report_b.result.passed());
    assert_eq!(report_a.result.failed(), report_b.result.failed());
}
