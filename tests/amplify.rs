//! Cross-crate integration: mutation-driven test amplification and the
//! coverage-matrix selection fast path, end to end.
//!
//! Covers the headline guarantees: amplification kills previously
//! surviving mutants within the default budget; outcomes (verdicts,
//! rounds, rendered tables) are byte-identical across worker counts and
//! across journal replays; and coverage selection skips a substantial
//! share of case executions without changing a single verdict.

use concat::core::{Consumer, SelfTestable};
use concat::driver::{Expansion, GeneratorConfig, TestSuite};
use concat::mutation::*;
use concat::obs::{MemorySink, Summary, Telemetry};
use concat::report::{render_amplification_table, render_score_table};
use concat_bench::{coblist_bundle, sortable_bundle, sortable_bundle_sharded, TABLE3_METHODS};
use std::sync::Arc;

fn small_consumer(seed: u64) -> Consumer {
    Consumer::with_config(GeneratorConfig {
        seed,
        expansion: Expansion::Covering { repeats: 1 },
        ..GeneratorConfig::default()
    })
}

/// A deliberately thin base suite: enough to exercise the subject, weak
/// enough to leave survivors for the loop to chase.
fn thin_suite(consumer: &Consumer, bundle: &SelfTestable, cases: usize) -> TestSuite {
    let suite = consumer.generate(bundle).unwrap();
    let ids: Vec<usize> = suite.cases.iter().map(|c| c.id).take(cases).collect();
    suite.filtered(&ids)
}

const TARGETS: [&str; 2] = ["Sort1", "FindMax"];

/// A trimmed loop for the determinism tests — the default budget is
/// exercised by the kill test; determinism does not need four rounds.
fn small_budget() -> AmplifyConfig {
    AmplifyConfig {
        max_rounds: 2,
        max_candidates_per_round: 32,
        ..AmplifyConfig::default()
    }
}

#[test]
fn amplification_kills_surviving_mutants_within_default_budget() {
    let consumer = small_consumer(1999);
    let bundle = sortable_bundle();
    let base = thin_suite(&consumer, &bundle, 6);
    let baseline = consumer
        .evaluate_quality(&bundle, &base, &TARGETS, &[4242])
        .unwrap();
    assert!(
        baseline.survived() + baseline.equivalent() >= 3,
        "the thin suite must leave survivors to chase: {}",
        baseline.survived() + baseline.equivalent()
    );
    let outcome = consumer
        .amplify_quality(&bundle, &base, &TARGETS, &[4242], &AmplifyConfig::default())
        .unwrap();
    assert!(
        outcome.total_kills() >= 3,
        "amplification killed only {} survivor(s): {:?}",
        outcome.total_kills(),
        outcome.rounds
    );
    assert!(outcome.final_score() > outcome.baseline_score);
    assert_eq!(outcome.suite.len(), base.len() + outcome.total_kept());
    // Every kept case kills: kept == 0 iff kills == 0, per round.
    for round in &outcome.rounds {
        assert_eq!(round.kept == 0, round.kills == 0, "{round:?}");
    }
}

#[test]
fn amplified_outcomes_are_identical_across_worker_counts() {
    let bundle = sortable_bundle_sharded();
    let base = thin_suite(&small_consumer(1999), &bundle, 6);
    let outcomes: Vec<_> = [1usize, 4]
        .iter()
        .map(|&workers| {
            small_consumer(1999)
                .with_workers(workers)
                .amplify_quality(
                    &sortable_bundle_sharded(),
                    &base,
                    &TARGETS,
                    &[4242],
                    &small_budget(),
                )
                .unwrap()
        })
        .collect();
    assert_eq!(outcomes[0].run.results, outcomes[1].run.results);
    assert_eq!(outcomes[0].rounds, outcomes[1].rounds);
    assert_eq!(outcomes[0].suite, outcomes[1].suite);
    // The rendered report artefacts are byte-identical too (CI `cmp`s
    // them across worker counts).
    let render = |o: &AmplifyOutcome| {
        let matrix = MutationMatrix::from_run(&o.run, &TARGETS);
        format!(
            "{}{}",
            render_score_table("Results", &matrix),
            render_amplification_table(
                "Amplification",
                &o.rounds,
                o.baseline_score,
                o.final_score()
            )
        )
    };
    assert_eq!(render(&outcomes[0]), render(&outcomes[1]));
}

#[test]
fn amplification_replays_byte_identically_from_journals() {
    let dir = std::env::temp_dir().join("concat-amplify-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verdicts.journal");
    let bundle = sortable_bundle_sharded();
    let base = thin_suite(&small_consumer(1999), &bundle, 6);
    let run = || {
        small_consumer(1999)
            .with_workers(2)
            .with_journal(&path)
            .amplify_quality(
                &sortable_bundle_sharded(),
                &base,
                &TARGETS,
                &[4242],
                &small_budget(),
            )
            .unwrap()
    };
    let first = run();
    assert!(path.exists(), "round-0 journal written");
    // Every amplification round journals alongside the main campaign.
    for round in &first.rounds {
        let round_path = dir.join(format!("verdicts.journal.r{}", round.round));
        assert!(round_path.exists(), "round {} journal missing", round.round);
    }
    // A rerun over the completed journals replays every verdict; the
    // outcome is byte-identical to the uninterrupted one.
    let again = run();
    assert_eq!(again.run.results, first.run.results);
    assert_eq!(again.rounds, first.rounds);
    assert_eq!(again.suite, first.suite);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CObList campaign over the first `cases` cases of the generated
/// suite, with two probe suites and a one-crash quarantine threshold, so
/// the probe scopes and the crash count of the quarantine check run under
/// coverage selection on and off. Also returns the campaign's main-suite
/// case executions without selection.
fn coblist_run(
    coverage_selection: bool,
    cases: usize,
    sink: &Arc<MemorySink>,
) -> (MutationRun, u64) {
    let bundle = coblist_bundle();
    let consumer = small_consumer(7).with_telemetry(Telemetry::new(sink.clone()));
    let suite = thin_suite(&consumer, &bundle, cases);
    let probe_suites = [8, 9]
        .map(|seed| small_consumer(seed).generate(&bundle).unwrap())
        .to_vec();
    let mutants = enumerate_mutants(bundle.inventory().unwrap(), &TABLE3_METHODS);
    let config = MutationConfig {
        probe_suites,
        silence_panics: true,
        telemetry: consumer.telemetry().clone(),
        crash_quarantine_threshold: Some(1),
        coverage_selection,
        ..MutationConfig::default()
    };
    let run = run_mutation_analysis(
        bundle.factory(),
        bundle.switch().unwrap(),
        &suite,
        &mutants,
        &config,
    );
    (run, (suite.len() * mutants.len()) as u64)
}

#[test]
fn coverage_selection_skips_executions_without_changing_verdicts() {
    // The whole suite kills all but the equivalents; a three-case one
    // leaves survivors that only the probe suites distinguish.
    for cases in [usize::MAX, 3] {
        let sink_on = Arc::new(MemorySink::new());
        let sink_off = Arc::new(MemorySink::new());
        let (selected, total_mutant_executions) = coblist_run(true, cases, &sink_on);
        let (full, _) = coblist_run(false, cases, &sink_off);
        // Zero verdict change: the fast path is an optimization, not an
        // approximation.
        assert_eq!(selected.results, full.results, "{cases} cases");
        assert_eq!(selected.score(), full.score(), "{cases} cases");
        if cases == 3 {
            assert!(full.survived() > 0, "no probe distinguished a survivor");
        }
        let skipped = Summary::from_events(&sink_on.events())
            .counters
            .get("selection.skipped")
            .copied()
            .unwrap_or(0);
        assert!(
            skipped * 5 >= total_mutant_executions,
            "selection skipped {skipped} of {total_mutant_executions} mutant-phase \
             case executions (< 20%)"
        );
        let off_summary = Summary::from_events(&sink_off.events());
        assert_eq!(
            off_summary.counters.get("selection.skipped"),
            None,
            "the disabled fast path must not skip anything"
        );
    }
}
