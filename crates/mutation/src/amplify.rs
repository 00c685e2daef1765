//! Mutation-driven test amplification: the budgeted feedback loop.
//!
//! The paper's Concat prototype generates one random case per transaction
//! and stops; its own §4 evaluation shows such suites leave interface
//! mutants alive. This module closes the loop: run the analysis, collect
//! the surviving mutants, ask the caller to synthesize candidate cases
//! aimed at the surviving *features* (mutated methods), and keep exactly
//! the candidates that kill — repeating until a score target, a round
//! budget, or a wall-clock deadline is reached.
//!
//! Each round runs a **mini-analysis**: only the fresh candidates against
//! only the still-alive mutants, with its own journal
//! (`<journal>.r<round>`) so amplification rounds resume exactly like
//! plain campaigns. A mutant the mini-run kills adopts its kill verdict
//! (the killer case joins the amplified suite — candidate ids continue
//! after the base suite, so `by_case` stays meaningful); a mutant the
//! mini-run cannot distinguish — or stops for harness reasons — keeps its
//! previous classification, because the candidates that stopped it are
//! discarded with the rest of the round's misses.

use crate::analysis::{
    run_fingerprinted, run_parallel_fingerprinted, MutantStatus, MutationConfig, MutationRun,
};
use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use concat_bit::ComponentFactory;
use concat_driver::{GenerateError, TestSuite};
use concat_obs::Telemetry;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Budget and targets of one amplification loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplifyConfig {
    /// Maximum amplification rounds after the baseline analysis.
    pub max_rounds: usize,
    /// Stop once the mutation score reaches this value. The target is
    /// measured *strictly*: presumed-equivalent mutants count as
    /// surviving (unlike [`MutationRun::score`], which excludes them),
    /// because re-attacking them is exactly what amplification is for.
    pub score_target: f64,
    /// Cap on candidate cases synthesized per round.
    pub max_candidates_per_round: usize,
    /// Wall-clock budget for the whole loop; checked between rounds, so
    /// the loop never starts a round past the deadline. `None` leaves
    /// only `max_rounds` and `score_target` as stop conditions.
    pub deadline: Option<Duration>,
}

impl Default for AmplifyConfig {
    fn default() -> Self {
        AmplifyConfig {
            max_rounds: 4,
            score_target: 1.0,
            max_candidates_per_round: 96,
            deadline: None,
        }
    }
}

/// What one amplification round did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// 1-based round number.
    pub round: usize,
    /// Candidate cases synthesized and executed this round.
    pub candidates: usize,
    /// Candidates kept (each killed at least one surviving mutant).
    pub kept: usize,
    /// Previously surviving mutants this round killed.
    pub kills: usize,
}

/// The outcome of an amplification loop.
#[derive(Debug, Clone, PartialEq)]
pub struct AmplifyOutcome {
    /// Final classification of every mutant over the amplified suite.
    pub run: MutationRun,
    /// The amplified suite: the base suite plus every kept candidate.
    pub suite: TestSuite,
    /// Per-round reports, in order.
    pub rounds: Vec<RoundReport>,
    /// Mutation score of the base suite before amplification.
    pub baseline_score: f64,
}

impl AmplifyOutcome {
    /// Previously surviving mutants killed across all rounds.
    pub fn total_kills(&self) -> usize {
        self.rounds.iter().map(|r| r.kills).sum()
    }

    /// Candidate cases added to the suite across all rounds.
    pub fn total_kept(&self) -> usize {
        self.rounds.iter().map(|r| r.kept).sum()
    }

    /// Mutation score after amplification.
    pub fn final_score(&self) -> f64 {
        self.run.score()
    }
}

/// Candidate source: `(existing_suite, features, round, max_candidates)`
/// → a suite of candidate cases whose ids continue after the existing
/// suite's. Typically wraps `concat_driver::synthesize_candidates`.
pub type CandidateSource<'a> =
    &'a mut dyn FnMut(&TestSuite, &[String], usize, usize) -> Result<TestSuite, GenerateError>;

/// Runs the amplification loop sequentially (the `workers = 1` harness;
/// `switch` must be the one `factory`'s components read through).
///
/// # Errors
///
/// Propagates [`GenerateError`] from the candidate source; analysis
/// itself is infallible (fail-safe by construction).
pub fn amplify_suite(
    factory: &dyn ComponentFactory,
    switch: &MutationSwitch,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
    amplify: &AmplifyConfig,
    synth: CandidateSource<'_>,
) -> Result<AmplifyOutcome, GenerateError> {
    amplify_with(
        &|suite, mutants, config| run_fingerprinted(factory, switch, suite, mutants, config),
        suite,
        mutants,
        config,
        amplify,
        synth,
    )
}

/// Runs the amplification loop with every round's analysis sharded
/// across `config.workers` workers. Verdicts — and therefore kept
/// candidates, rounds, and the final amplified suite — are byte-identical
/// for every worker count.
///
/// # Errors
///
/// Propagates [`GenerateError`] from the candidate source.
pub fn amplify_suite_parallel(
    shards: &dyn ClonableFactory,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
    amplify: &AmplifyConfig,
    synth: CandidateSource<'_>,
) -> Result<AmplifyOutcome, GenerateError> {
    amplify_with(
        &|suite, mutants, config| run_parallel_fingerprinted(shards, suite, mutants, config),
        suite,
        mutants,
        config,
        amplify,
        synth,
    )
}

/// The mini-campaign's config for one amplification round: no probes
/// (survival vs. kill on the candidates is the only question) and a
/// round-suffixed journal so resumed campaigns replay each round
/// independently. `telemetry`
/// is the round-scoped handle, so the mini-run's `mutation` span nests
/// under the `amplify.round` span in the flight recorder. `lineage` is
/// the parent campaign's fingerprint: folded into the round journal's
/// own fingerprint, it binds `<journal>.r<round>` to this campaign, so a
/// stale round journal left at the same path by a *different* campaign
/// is discarded instead of replayed.
fn round_config(
    config: &MutationConfig,
    round: usize,
    lineage: Option<u32>,
    telemetry: &Telemetry,
) -> MutationConfig {
    MutationConfig {
        probe_suites: Vec::new(),
        silence_panics: config.silence_panics,
        bit_enabled: config.bit_enabled,
        telemetry: telemetry.clone(),
        budget: config.budget,
        crash_quarantine_threshold: config.crash_quarantine_threshold,
        workers: config.workers,
        journal_path: config
            .journal_path
            .as_ref()
            .map(|p| PathBuf::from(format!("{}.r{round}", p.display()))),
        worker_restarts: config.worker_restarts,
        coverage_selection: config.coverage_selection,
        isolation: config.isolation.clone(),
        incremental: false,
        lineage,
    }
}

/// Removes round journals (`<journal>.r<n>`) numbered beyond the rounds
/// this run executed, so leftovers from an earlier, longer amplification
/// at the same path can't sit next to — and be mistaken for — the
/// current rounds. Best-effort: each
/// removal counts `amplify.pruned`, and I/O failures are ignored (a
/// stale journal that survives pruning is still refused at resume time
/// by its lineage-bound fingerprint).
fn prune_stale_round_journals(journal: &Path, rounds_run: usize, telemetry: &Telemetry) {
    let Some(base) = journal.file_name().and_then(|name| name.to_str()) else {
        return;
    };
    let dir = match journal.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let prefix = format!("{base}.r");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Ok(round) = rest.parse::<usize>() else {
            continue;
        };
        if round > rounds_run && std::fs::remove_file(entry.path()).is_ok() {
            telemetry.incr("amplify.pruned");
        }
    }
}

/// Kill ratio with presumed-equivalent mutants counted as surviving;
/// only quarantined mutants leave the denominator. This is the loop's
/// stop metric — `MutationRun::score` would report 1.0 the moment every
/// survivor is merely *presumed* equivalent, which is the very state
/// amplification is meant to attack.
fn strict_score(run: &MutationRun) -> f64 {
    let mut killed = 0usize;
    let mut denom = 0usize;
    for result in &run.results {
        match result.status {
            MutantStatus::Killed { .. } => {
                killed += 1;
                denom += 1;
            }
            MutantStatus::Survived | MutantStatus::PresumedEquivalent => denom += 1,
            MutantStatus::Quarantined { .. } => {}
        }
    }
    if denom == 0 {
        1.0
    } else {
        killed as f64 / denom as f64
    }
}

/// An analysis entry point bound to its harness: the run, and the
/// campaign fingerprint its journal was opened with (`None` without one).
type Analysis<'a> =
    &'a dyn Fn(&TestSuite, &[Mutant], &MutationConfig) -> (MutationRun, Option<u32>);

/// The loop behind both entry points. `run_analysis` is the caller's
/// analysis entry point bound to its harness.
fn amplify_with(
    run_analysis: Analysis<'_>,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
    amplify: &AmplifyConfig,
    synth: CandidateSource<'_>,
) -> Result<AmplifyOutcome, GenerateError> {
    let telemetry = config.telemetry.clone();
    let started = Instant::now();
    // Round 0: the plain campaign over the base suite (main journal).
    // Its fingerprint, computed to open that journal, is folded into each
    // round journal's fingerprint as lineage; `None` when unjournaled.
    let (mut run, lineage) = run_analysis(suite, mutants, config);
    let baseline_score = run.score();
    let mut amplified = suite.clone();
    let mut rounds = Vec::new();

    for round in 1..=amplify.max_rounds {
        if strict_score(&run) >= amplify.score_target {
            break;
        }
        if let Some(deadline) = amplify.deadline {
            if started.elapsed() >= deadline {
                break;
            }
        }
        // The loop's targets: mutants no case distinguished so far.
        let alive: Vec<usize> = run
            .results
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                matches!(
                    r.status,
                    MutantStatus::Survived | MutantStatus::PresumedEquivalent
                )
            })
            .map(|(index, _)| index)
            .collect();
        if alive.is_empty() {
            break;
        }
        let features: Vec<String> = alive
            .iter()
            .map(|&index| run.results[index].mutant.method().to_owned())
            .collect::<BTreeSet<String>>()
            .into_iter()
            .collect();
        // The round span covers synthesis and the mini-campaign; it drops
        // at the end of the iteration (or any break out of it).
        let round_span = telemetry.span_with("amplify.round", || format!("r{round}"));
        let candidates = synth(
            &amplified,
            &features,
            round,
            amplify.max_candidates_per_round,
        )?;
        telemetry.incr("amplify.rounds");
        if candidates.cases.is_empty() {
            rounds.push(RoundReport {
                round,
                candidates: 0,
                kept: 0,
                kills: 0,
            });
            break;
        }
        // Mini-analysis: fresh candidates × still-alive mutants only.
        let alive_mutants: Vec<Mutant> = alive
            .iter()
            .map(|&index| run.results[index].mutant.clone())
            .collect();
        let (mini, _) = run_analysis(
            &candidates,
            &alive_mutants,
            &round_config(config, round, lineage, &telemetry.at(round_span.id())),
        );

        let mut killer_ids: BTreeSet<usize> = BTreeSet::new();
        let mut kills = 0usize;
        for (&slot, result) in alive.iter().zip(mini.results.iter()) {
            if let MutantStatus::Killed { by_case, .. } = result.status {
                killer_ids.insert(by_case);
                kills += 1;
                run.results[slot].status = result.status.clone();
            }
        }
        let kept_ids: Vec<usize> = killer_ids.into_iter().collect();
        let kept = candidates.filtered(&kept_ids);
        if kills > 0 {
            telemetry.incr_by("amplify.kills", kills as u64);
        }
        rounds.push(RoundReport {
            round,
            candidates: candidates.len(),
            kept: kept.len(),
            kills,
        });
        if kills == 0 {
            break;
        }
        // Graft the killers into the amplified suite, and their golden
        // results into the run's baseline, keeping case order by id so
        // the outcome matches a from-scratch run over the final suite.
        run.golden.cases.extend(
            mini.golden
                .cases
                .iter()
                .filter(|c| kept_ids.contains(&c.case_id))
                .cloned(),
        );
        amplified.cases.extend(kept.cases);
        amplified.stats.cases = amplified.cases.len();
    }

    // A previous, longer amplification at this journal path may have left
    // `.r<n>` journals beyond the rounds just run; drop them so they can't
    // be mistaken for live state.
    if let Some(path) = &config.journal_path {
        prune_stale_round_journals(path, rounds.len(), &telemetry);
    }

    Ok(AmplifyOutcome {
        run,
        suite: amplified,
        rounds,
        baseline_score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_mutants;
    use crate::fault::VarEnv;
    use crate::inventory::{ClassInventory, MethodInventory};
    use concat_bit::{BitControl, BuiltInTest, StateReport, TestableComponent};
    use concat_driver::{ArgOrigin, MethodCall, SuiteStats, TestCase};
    use concat_runtime::{
        args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
    };

    /// Accumulator whose `Add(q)` reads its addend through the mutation
    /// switch: mutants replace `step` with constants or `total`.
    struct Acc {
        total: i64,
        ctl: BitControl,
        switch: MutationSwitch,
    }

    impl Component for Acc {
        fn class_name(&self) -> &'static str {
            "Acc"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["Add", "Total", "~Acc"]
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            match m {
                "Add" => {
                    let q = args::int(m, a, 0)?;
                    let total = self.total;
                    let env = move || VarEnv::new().bind("step", q).bind("total", total);
                    let step = self.switch.read_int("Add", 0, "step", q, env);
                    self.total += step;
                    Ok(Value::Int(self.total))
                }
                "Total" => Ok(Value::Int(self.total)),
                "~Acc" => Ok(Value::Null),
                other => Err(unknown_method("Acc", other)),
            }
        }
    }

    impl BuiltInTest for Acc {
        fn bit_control(&self) -> &BitControl {
            &self.ctl
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            Ok(())
        }
        fn reporter(&self) -> StateReport {
            let mut r = StateReport::new();
            r.set("total", Value::Int(self.total));
            r
        }
    }

    struct AccFactory {
        switch: MutationSwitch,
    }

    impl ComponentFactory for AccFactory {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn construct(
            &self,
            constructor: &str,
            _a: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Acc" => Ok(Box::new(Acc {
                    total: 0,
                    ctl,
                    switch: self.switch.clone(),
                })),
                other => Err(unknown_method("Acc", other)),
            }
        }
    }

    fn inventory() -> ClassInventory {
        ClassInventory::new("Acc").globals(["total"]).method(
            MethodInventory::new("Add")
                .locals(["step"])
                .globals_used(["total"])
                .site(0, "step", "addend"),
        )
    }

    fn call(method: &str, args: Vec<Value>) -> MethodCall {
        let origins = vec![ArgOrigin::Generated; args.len()];
        MethodCall {
            method_id: format!("m_{method}"),
            method: method.to_owned(),
            args,
            origins,
        }
    }

    fn case(id: usize, q: i64) -> TestCase {
        TestCase {
            id,
            transaction_index: 0,
            node_path: vec!["n1".into(), "n2".into(), "n3".into()],
            constructor: call("Acc", vec![]),
            calls: vec![
                call("Add", vec![Value::Int(q)]),
                call("Total", vec![]),
                call("~Acc", vec![]),
            ],
        }
    }

    fn suite_of(cases: Vec<TestCase>) -> TestSuite {
        let stats = SuiteStats {
            transactions: 1,
            cases: cases.len(),
            truncated: false,
            manual_args: 0,
        };
        TestSuite {
            class_name: "Acc".into(),
            seed: 0,
            cases,
            stats,
        }
    }

    /// `Add(0)` cannot distinguish `step → 0` or `step → total`; a
    /// candidate `Add(5)` kills both. The loop must find and keep it.
    #[test]
    fn amplification_kills_previous_survivors() {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["Add"]);
        let base = suite_of(vec![case(0, 0)]);
        let mut synth = |existing: &TestSuite, features: &[String], _round: usize, _max: usize| {
            assert_eq!(features, ["Add".to_owned()]);
            let next_id = existing.cases.iter().map(|c| c.id + 1).max().unwrap_or(0);
            Ok(suite_of(vec![case(next_id, 5)]))
        };
        // A probe that distinguishes the survivors proves they are not
        // equivalent, so the baseline reports them as `Survived`.
        let config = MutationConfig {
            probe_suites: vec![suite_of(vec![case(0, 7)])],
            ..MutationConfig::default()
        };
        let outcome = amplify_suite(
            &factory,
            &switch,
            &base,
            &mutants,
            &config,
            &AmplifyConfig::default(),
            &mut synth,
        )
        .unwrap();
        assert!(outcome.baseline_score < 1.0, "Add(0) must leave survivors");
        assert!(outcome.total_kills() >= 2, "{:?}", outcome.rounds);
        assert!(outcome.final_score() > outcome.baseline_score);
        assert_eq!(outcome.suite.len(), base.len() + outcome.total_kept());
        // The kept candidate's golden result was grafted in as well.
        assert_eq!(outcome.run.golden.cases.len(), outcome.suite.len());
        // Kill verdicts reference cases that exist in the amplified suite.
        for result in &outcome.run.results {
            if let MutantStatus::Killed { by_case, .. } = result.status {
                assert!(outcome.suite.iter().any(|c| c.id == by_case));
            }
        }
    }

    #[test]
    fn amplification_is_deterministic() {
        let run_once = || {
            let switch = MutationSwitch::new();
            let factory = AccFactory {
                switch: switch.clone(),
            };
            let mutants = enumerate_mutants(&inventory(), &["Add"]);
            let base = suite_of(vec![case(0, 0)]);
            let mut synth =
                |existing: &TestSuite, _features: &[String], round: usize, _max: usize| {
                    let next_id = existing.cases.iter().map(|c| c.id + 1).max().unwrap_or(0);
                    Ok(suite_of(vec![case(next_id, round as i64 * 3)]))
                };
            amplify_suite(
                &factory,
                &switch,
                &base,
                &mutants,
                &MutationConfig::default(),
                &AmplifyConfig::default(),
                &mut synth,
            )
            .unwrap()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn zero_kill_round_stops_the_loop() {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["Add"]);
        let base = suite_of(vec![case(0, 0)]);
        // Candidates as weak as the base suite: nothing new dies.
        let mut synth = |existing: &TestSuite, _f: &[String], _round: usize, _max: usize| {
            let next_id = existing.cases.iter().map(|c| c.id + 1).max().unwrap_or(0);
            Ok(suite_of(vec![case(next_id, 0)]))
        };
        let outcome = amplify_suite(
            &factory,
            &switch,
            &base,
            &mutants,
            &MutationConfig::default(),
            &AmplifyConfig {
                max_rounds: 10,
                ..AmplifyConfig::default()
            },
            &mut synth,
        )
        .unwrap();
        assert_eq!(outcome.rounds.len(), 1, "{:?}", outcome.rounds);
        assert_eq!(outcome.rounds[0].kills, 0);
        assert_eq!(outcome.suite.len(), base.len());
        assert_eq!(outcome.final_score(), outcome.baseline_score);
    }

    #[test]
    fn empty_candidate_round_stops_the_loop() {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["Add"]);
        let base = suite_of(vec![case(0, 0)]);
        let mut synth =
            |_e: &TestSuite, _f: &[String], _round: usize, _max: usize| Ok(suite_of(Vec::new()));
        let outcome = amplify_suite(
            &factory,
            &switch,
            &base,
            &mutants,
            &MutationConfig::default(),
            &AmplifyConfig::default(),
            &mut synth,
        )
        .unwrap();
        assert_eq!(outcome.rounds.len(), 1);
        assert_eq!(outcome.rounds[0].candidates, 0);
    }

    #[test]
    fn score_target_already_met_skips_synthesis() {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["Add"]);
        let base = suite_of(vec![case(0, 0)]);
        let mut synth = |_e: &TestSuite, _f: &[String], _round: usize, _max: usize| {
            panic!("synthesis must not run below the target");
        };
        let outcome = amplify_suite(
            &factory,
            &switch,
            &base,
            &mutants,
            &MutationConfig::default(),
            &AmplifyConfig {
                score_target: 0.0,
                ..AmplifyConfig::default()
            },
            &mut synth,
        )
        .unwrap();
        assert!(outcome.rounds.is_empty());
    }
}
