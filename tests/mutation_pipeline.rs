//! Cross-crate integration: the §4 mutation-analysis pipeline end to end,
//! scaled down to stay fast in debug builds (the benches run the full
//! Table 2/3 configurations in release).

use concat::components::*;
use concat::core::{Consumer, SelfTestableBuilder};
use concat::driver::Expansion;
use concat::driver::GeneratorConfig;
use concat::mutation::*;
use concat_bench::{coblist_bundle, sortable_bundle, TABLE2_METHODS, TABLE3_METHODS};
use std::rc::Rc;

fn small_consumer(seed: u64) -> Consumer {
    Consumer::with_config(GeneratorConfig {
        seed,
        expansion: Expansion::Covering { repeats: 1 },
        ..GeneratorConfig::default()
    })
}

#[test]
fn enumeration_matches_formula_on_real_inventories() {
    for (inv, methods) in [
        (coblist_inventory(), &TABLE3_METHODS[..]),
        (sortable_inventory(), &TABLE2_METHODS[..]),
    ] {
        let mutants = enumerate_mutants(&inv, methods);
        assert_eq!(mutants.len(), expected_count(&inv, methods));
        assert!(!mutants.is_empty());
    }
}

#[test]
fn findmax_mutants_mostly_die() {
    let bundle = sortable_bundle();
    let consumer = small_consumer(71);
    let suite = consumer.generate(&bundle).unwrap();
    let run = consumer
        .evaluate_quality(&bundle, &suite, &["FindMax"], &[72])
        .unwrap();
    assert!(run.total() >= 30, "enough mutants enumerated");
    assert!(run.score() > 0.7, "score was {:.2}", run.score());
    assert_eq!(
        run.total(),
        run.killed() + run.survived() + run.equivalent()
    );
}

#[test]
fn kill_reasons_are_diverse_for_link_surgery_faults() {
    // AddHead faults corrupt chain structure: expect assertion kills
    // (invariant) and domain/output kills; RemoveAt index faults crash.
    let bundle = coblist_bundle();
    let consumer = small_consumer(73);
    let suite = consumer.generate(&bundle).unwrap();
    let run = consumer
        .evaluate_quality(&bundle, &suite, &TABLE3_METHODS, &[])
        .unwrap();
    assert!(
        run.killed_by_assertion() > 0,
        "chain corruption hits the invariant"
    );
    let output_kills = run
        .results
        .iter()
        .filter(|r| {
            matches!(
                r.status,
                MutantStatus::Killed {
                    reason: KillReason::OutputDiff,
                    ..
                }
            )
        })
        .count();
    assert!(output_kills > 0, "golden-transcript oracle fires too");
    assert!(run.score() > 0.8, "full base suite kills most base mutants");
}

#[test]
fn assertions_contribute_kills_that_vanish_without_bit() {
    // Run the same mutants against the same suite with BIT off: the
    // assertion-kill share must drop to zero (every kill becomes an
    // output difference or disappears).
    use concat::driver::{differing_cases, TestLog, TestRunner};
    let switch = MutationSwitch::new();
    let factory = CObListFactory::new(switch.clone());
    let consumer = small_consumer(74);
    let bundle = SelfTestableBuilder::new(coblist_spec(), Rc::new(factory.clone()))
        .mutation(coblist_inventory(), switch.clone())
        .build();
    let suite = consumer.generate(&bundle).unwrap();
    let mutants = enumerate_mutants(&coblist_inventory(), &["AddHead"]);

    // BIT off: manual golden/observed comparison.
    let runner = TestRunner::without_bit();
    switch.disarm();
    let golden = runner.run_suite(&factory, &suite, &mut TestLog::new());
    let mut killed_without_bit = 0usize;
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for mutant in &mutants {
        switch.arm(mutant.plan.clone());
        let observed = runner.run_suite(&factory, &suite, &mut TestLog::new());
        if !differing_cases(&golden, &observed).is_empty() {
            killed_without_bit += 1;
        }
    }
    std::panic::set_hook(prev);
    switch.disarm();

    // BIT on, via the engine.
    let run = consumer
        .evaluate_quality(&bundle, &suite, &["AddHead"], &[])
        .unwrap();
    assert!(run.killed_by_assertion() > 0);
    assert!(
        run.killed() >= killed_without_bit,
        "assertions only add detection power: {} (BIT on) vs {killed_without_bit} (BIT off)",
        run.killed()
    );
    let _ = factory.switch();
}

#[test]
fn reduced_subclass_suite_is_weaker_on_base_mutants() {
    // The Table-3 effect, in miniature: the reuse-pruned subclass suite
    // kills fewer base-class mutants than the full suite.
    let bundle = sortable_bundle();
    let consumer = small_consumer(75);
    let suite = consumer.generate(&bundle).unwrap();
    let plan = consumer.subclass_plan(&bundle, &suite).unwrap();
    let reduced = suite.filtered(&plan.reused_case_ids());
    assert!(reduced.len() < suite.len());

    let targets = TABLE3_METHODS;
    // Note: base-method mutants run against the *subclass* factory — the
    // inherited methods delegate to the instrumented base.
    // Probe suites matter here: without them, survivors would be
    // misclassified as equivalent and the score would be inflated.
    let full_run = consumer
        .evaluate_quality(&bundle, &suite, &targets, &[91])
        .unwrap();
    let reduced_run = consumer
        .evaluate_quality(&bundle, &reduced, &targets, &[91])
        .unwrap();
    assert!(
        reduced_run.killed() < full_run.killed(),
        "reduced {} vs full {}",
        reduced_run.killed(),
        full_run.killed()
    );
    assert!(reduced_run.score() < full_run.score());
}

#[test]
fn matrix_totals_agree_with_run_counters() {
    let bundle = sortable_bundle();
    let consumer = small_consumer(76);
    let suite = consumer.generate(&bundle).unwrap();
    let targets = ["FindMin"];
    let run = consumer
        .evaluate_quality(&bundle, &suite, &targets, &[])
        .unwrap();
    let matrix = MutationMatrix::from_run(&run, &targets);
    let overall = matrix.overall();
    assert_eq!(overall.mutants, run.total());
    assert_eq!(overall.killed, run.killed());
    assert_eq!(overall.equivalent, run.equivalent());
    assert!((overall.score() - run.score()).abs() < 1e-12);
}

#[test]
fn armed_switch_does_not_leak_between_analyses() {
    let bundle = sortable_bundle();
    let consumer = small_consumer(77);
    let suite = consumer.generate(&bundle).unwrap();
    let _ = consumer
        .evaluate_quality(&bundle, &suite, &["FindMax"], &[])
        .unwrap();
    assert!(bundle.switch().unwrap().armed().is_none());
    // A follow-up self-test behaves as the original program.
    let report = consumer.run_suite(&bundle, &suite).unwrap();
    assert!(report.result.passed() > 0);
}
