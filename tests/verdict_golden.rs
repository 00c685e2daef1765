//! Verdict golden files: the per-mutant verdicts of the paper's two
//! campaigns — `CSortableObList` with all five Table-2 methods and
//! `CObList` with all three Table-3 methods — must stay byte-identical
//! through any change to the engine or the instrumented read path.
//!
//! Each golden has one line per mutant: the mutant's `Display` followed by
//! its status' `Debug`. Both the sequential engine and the parallel engine
//! (two workers) are compared against it. Regenerate after an intentional
//! verdict change with `BLESS=1 cargo test --test verdict_golden`.

use concat::components::*;
use concat::core::{Consumer, SelfTestable, SelfTestableBuilder};
use concat::driver::{Expansion, GeneratorConfig};
use concat::mutation::{
    run_mutation_analysis, run_mutation_analysis_parallel, MutationConfig, MutationRun,
    MutationSwitch,
};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

const SEED: u64 = 2001;
const PROBE_SEEDS: [u64; 2] = [777, 888];
const TABLE2_METHODS: [&str; 5] = ["Sort1", "Sort2", "ShellSort", "FindMax", "FindMin"];
const TABLE3_METHODS: [&str; 3] = ["AddHead", "RemoveAt", "RemoveHead"];

fn sortable_bundle() -> SelfTestable {
    let switch = MutationSwitch::new();
    SelfTestableBuilder::new(
        sortable_spec(),
        Rc::new(CSortableObListFactory::new(switch.clone())),
    )
    .mutation(sortable_inventory(), switch)
    .inheritance(sortable_inheritance_map())
    .mutation_shards(Arc::new(CSortableObListFactory::default()))
    .build()
}

fn coblist_bundle() -> SelfTestable {
    let switch = MutationSwitch::new();
    SelfTestableBuilder::new(coblist_spec(), Rc::new(CObListFactory::new(switch.clone())))
        .mutation(coblist_inventory(), switch)
        .mutation_shards(Arc::new(CObListFactory::default()))
        .build()
}

fn render(run: &MutationRun) -> String {
    let mut out = String::new();
    for result in &run.results {
        writeln!(out, "{} => {:?}", result.mutant, result.status).unwrap();
    }
    out
}

/// Runs the campaign on the sequential engine and on the parallel engine
/// with two workers, checks both against `tests/golden/<name>`.
fn check(name: &str, bundle: &SelfTestable, targets: &[&str]) {
    // One covering pass over the transactions keeps the debug-build run
    // short while every target method keeps all its mutants.
    let consumer = Consumer::with_config(GeneratorConfig {
        seed: SEED,
        expansion: Expansion::Covering { repeats: 1 },
        ..GeneratorConfig::default()
    })
    .with_workers(2);
    let suite = consumer.generate(bundle).expect("shipped spec generates");
    let request = consumer
        .campaign_request(bundle, &suite, targets, &PROBE_SEEDS)
        .expect("bundle carries mutation support and shards");
    let config = MutationConfig {
        workers: 2,
        ..request.config
    };
    let switch = bundle.switch().expect("bundle carries a switch");
    let sequential = run_mutation_analysis(
        bundle.factory(),
        switch,
        &request.suite,
        &request.mutants,
        &config,
    );
    let parallel = run_mutation_analysis_parallel(
        request.shards.as_ref(),
        &request.suite,
        &request.mutants,
        &config,
    );
    for method in targets {
        assert!(
            sequential
                .results
                .iter()
                .any(|r| r.mutant.method() == *method),
            "{name}: no mutant of {method}"
        );
    }

    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let rendered = render(&sequential);
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"))).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let golden =
        std::fs::read_to_string(&path).expect("golden file missing; run with BLESS=1 to create it");
    assert!(
        rendered == golden,
        "{name}: sequential verdicts drifted from the golden; \
         rerun with BLESS=1 if the change is intentional"
    );
    assert!(
        render(&parallel) == golden,
        "{name}: parallel (workers = 2) verdicts drifted from the golden"
    );
}

#[test]
fn table2_verdicts_match_golden() {
    check("table2.verdicts", &sortable_bundle(), &TABLE2_METHODS);
}

#[test]
fn table3_verdicts_match_golden() {
    check("table3.verdicts", &coblist_bundle(), &TABLE3_METHODS);
}
