//! Chaos suite: fault-injection and fail-safe execution, end to end.
//!
//! The three scenarios the hardening layer exists for:
//!
//! 1. a mutant that turns a loop guard into an infinite loop is
//!    *quarantined* by the watchdog deadline instead of hanging the
//!    mutation analysis;
//! 2. injected JSONL sink failures are retried, then the sink degrades
//!    to counting drops — while the test run itself stays green;
//! 3. a call budget exhausts mid-case and the suite keeps running,
//!    reporting the stop instead of failing.
//!
//! Everything is seeded; the quarantine verdicts must be identical
//! across two identical runs. Run single-threaded (`--test-threads=1`)
//! when adding tests that share process-global state.

use concat::bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat::core::{Consumer, SelfTestableBuilder};
use concat::driver::{CaseStatus, Expansion, GeneratorConfig};
use concat::mutation::{
    ClassInventory, MethodInventory, MutantStatus, MutationSwitch, QuarantineReason, VarEnv,
};
use concat::obs::{JsonlSink, Summary, Telemetry, JSONL_WRITE_OP};
use concat::runtime::{
    unknown_method, AssertionViolation, Budget, BudgetResource, Component, FaultInjector,
    FaultKind, InvokeResult, IoPolicy, RetryPolicy, TestException, Value,
};
use concat::tspec::{ClassSpec, ClassSpecBuilder, MethodCategory};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A component whose `Work` method reads its loop guard through the
/// mutation switch. Unmutated, the guard is `1` and the loop exits on
/// the first iteration; any mutant that replaces it with a value `<= 0`
/// (`0`, `-1`, `MININT`, `NULL`, `~1`) spins forever — exactly the
/// non-terminating mutant class the watchdog quarantines.
#[derive(Debug)]
struct Spinner {
    ctl: BitControl,
    switch: MutationSwitch,
}

impl Spinner {
    const CLASS: &'static str = "Spinner";
}

impl Component for Spinner {
    fn class_name(&self) -> &'static str {
        Self::CLASS
    }

    fn method_names(&self) -> Vec<&'static str> {
        vec!["Work", "~Spinner"]
    }

    fn invoke(&mut self, method: &str, _a: &[Value]) -> InvokeResult {
        match method {
            "Work" => {
                loop {
                    // Instrumented read: the switch polls the runner's
                    // cancellation token, so the watchdog can break the
                    // loop a mutant made infinite.
                    let step = self.switch.read_int("Work", 0, "step", 1, VarEnv::new);
                    if step > 0 {
                        return Ok(Value::Int(step));
                    }
                }
            }
            "~Spinner" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), method)),
        }
    }
}

impl BuiltInTest for Spinner {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }

    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        Ok(())
    }

    fn reporter(&self) -> StateReport {
        StateReport::new()
    }
}

#[derive(Debug)]
struct SpinnerFactory {
    switch: MutationSwitch,
}

impl ComponentFactory for SpinnerFactory {
    fn class_name(&self) -> &str {
        Spinner::CLASS
    }

    fn construct(
        &self,
        constructor: &str,
        _a: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "Spinner" => Ok(Box::new(Spinner {
                ctl,
                switch: self.switch.clone(),
            })),
            other => Err(unknown_method(Spinner::CLASS, other)),
        }
    }
}

fn spinner_spec() -> ClassSpec {
    ClassSpecBuilder::new(Spinner::CLASS)
        .constructor("m1", "Spinner")
        .method("m2", "Work", MethodCategory::Update)
        .returns("int")
        .destructor("m3", "~Spinner")
        .birth_node("n1", ["m1"])
        .task_node("n2", ["m2"])
        .death_node("n3", ["m3"])
        .edge("n1", "n2")
        .edge("n2", "n3")
        .edge("n1", "n3")
        .build()
        .expect("Spinner spec is valid")
}

fn spinner_inventory() -> ClassInventory {
    ClassInventory::new(Spinner::CLASS).method(MethodInventory::new("Work").locals(["step"]).site(
        0,
        "step",
        "loop guard",
    ))
}

fn spinner_bundle() -> (concat::core::SelfTestable, MutationSwitch) {
    let switch = MutationSwitch::new();
    let bundle = SelfTestableBuilder::new(
        spinner_spec(),
        Rc::new(SpinnerFactory {
            switch: switch.clone(),
        }),
    )
    .mutation(spinner_inventory(), switch.clone())
    .build();
    (bundle, switch)
}

/// The sharding seam for `Spinner`: each analysis worker gets a factory
/// bound to its own switch, so one worker's hanging mutant cannot stall
/// a sibling's instrumented reads.
struct SpinnerShards;

impl concat::mutation::ClonableFactory for SpinnerShards {
    fn class_name(&self) -> &str {
        Spinner::CLASS
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(SpinnerFactory {
            switch: switch.clone(),
        })
    }
}

fn spinner_sharded_bundle() -> concat::core::SelfTestable {
    let switch = MutationSwitch::new();
    SelfTestableBuilder::new(
        spinner_spec(),
        Rc::new(SpinnerFactory {
            switch: switch.clone(),
        }),
    )
    .mutation(spinner_inventory(), switch)
    .mutation_shards(Arc::new(SpinnerShards))
    .build()
}

fn deadline_consumer(seed: u64, deadline: Duration) -> Consumer {
    Consumer::with_config(GeneratorConfig {
        seed,
        expansion: Expansion::Covering { repeats: 1 },
        ..GeneratorConfig::default()
    })
    .with_budget(Budget::unlimited().with_deadline(deadline))
}

fn quarantine_statuses(consumer: &Consumer) -> Vec<(usize, String)> {
    let (bundle, _switch) = spinner_bundle();
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    let run = consumer
        .evaluate_quality(&bundle, &suite, &["Work"], &[])
        .expect("bundle carries mutation support");
    run.results
        .iter()
        .map(|r| (r.mutant.id, format!("{:?}", r.status)))
        .collect()
}

#[test]
fn hanging_mutants_are_quarantined_within_the_deadline() {
    let deadline = Duration::from_millis(200);
    let consumer = deadline_consumer(11, deadline);
    let (bundle, _switch) = spinner_bundle();
    let suite = consumer.generate(&bundle).expect("generation succeeds");

    let started = Instant::now();
    let run = consumer
        .evaluate_quality(&bundle, &suite, &["Work"], &[])
        .expect("analysis completes instead of hanging");
    let elapsed = started.elapsed();

    let quarantined: Vec<_> = run
        .results
        .iter()
        .filter(|r| r.status.is_quarantined())
        .collect();
    assert!(
        quarantined.len() >= 2,
        "the <=0 loop-guard replacements hang: {:?}",
        run.results
    );
    for r in &quarantined {
        assert_eq!(
            r.status,
            MutantStatus::Quarantined {
                reason: QuarantineReason::Timeout
            },
            "mutant {} should time out",
            r.mutant.id
        );
    }
    assert_eq!(run.quarantined(), quarantined.len());
    assert_eq!(
        run.total(),
        run.killed() + run.survived() + run.equivalent() + run.quarantined()
    );
    // Each hanging mutant costs at most ~one deadline per case that
    // reaches `Work`; well under the 2 s ceiling per mutant.
    let ceiling = Duration::from_secs(2) * (run.total() as u32);
    assert!(
        elapsed < ceiling,
        "analysis took {elapsed:?} for {} mutants",
        run.total()
    );
    // The run itself is not an error: killed mutants still classified.
    assert!(run.killed() > 0, "terminating mutants die by output diff");
}

#[test]
fn quarantine_verdicts_are_deterministic_across_identical_runs() {
    let first = quarantine_statuses(&deadline_consumer(23, Duration::from_millis(200)));
    let second = quarantine_statuses(&deadline_consumer(23, Duration::from_millis(200)));
    assert_eq!(first, second, "same seed, same budget, same verdicts");
    assert!(
        first.iter().any(|(_, s)| s.contains("Quarantined")),
        "the scenario actually quarantines: {first:?}"
    );
}

#[test]
fn parallel_analysis_quarantines_hangers_without_stalling_siblings() {
    // The CI chaos matrix sets CONCAT_CHAOS_WORKERS to exercise both the
    // workers=1 and workers=N legs of this scenario.
    let workers = std::env::var("CONCAT_CHAOS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    let deadline = Duration::from_millis(200);
    let sequential = quarantine_statuses(&deadline_consumer(11, deadline));

    let bundle = spinner_sharded_bundle();
    let consumer = deadline_consumer(11, deadline).with_workers(workers);
    let suite = consumer.generate(&bundle).expect("generation succeeds");
    let started = Instant::now();
    let run = consumer
        .evaluate_quality(&bundle, &suite, &["Work"], &[])
        .expect("parallel analysis completes instead of hanging");
    let elapsed = started.elapsed();

    let parallel: Vec<(usize, String)> = run
        .results
        .iter()
        .map(|r| (r.mutant.id, format!("{:?}", r.status)))
        .collect();
    assert_eq!(
        parallel, sequential,
        "workers = {workers}: sharded verdicts must match the sequential run"
    );
    assert!(
        run.quarantined() >= 2,
        "the <=0 loop-guard replacements hang: {:?}",
        run.results
    );
    // A hanging mutant blocks only the worker that claimed it — the
    // analysis drains every other mutant meanwhile and the whole run
    // stays within a ceiling far below hangers x cases x deadline run
    // back to back with no overlap.
    let ceiling = Duration::from_secs(2) * (run.total() as u32);
    assert!(
        elapsed < ceiling,
        "parallel analysis took {elapsed:?} for {} mutants with {workers} worker(s)",
        run.total()
    );
}

/// A component whose reporter blows up when its charge has gone
/// negative. The reporter runs *outside* the runner's panic-catch
/// boundary, so a mutant that drives the charge negative (`-1`, `MININT`,
/// `~5`) takes the whole analysis worker down with it — the seeded
/// worker-crash scenario. With `live: false` the fuse is inert and the
/// same mutants are classified normally (the panic-free baseline).
#[derive(Debug)]
struct Fuse {
    charge: i64,
    live: bool,
    ctl: BitControl,
    switch: MutationSwitch,
}

impl Fuse {
    const CLASS: &'static str = "Fuse";
}

impl Component for Fuse {
    fn class_name(&self) -> &'static str {
        Self::CLASS
    }

    fn method_names(&self) -> Vec<&'static str> {
        vec!["Charge", "~Fuse"]
    }

    fn invoke(&mut self, method: &str, _a: &[Value]) -> InvokeResult {
        match method {
            "Charge" => {
                let env = || VarEnv::new().bind("level", 5);
                self.charge = self.switch.read_int("Charge", 0, "level", 5, env);
                Ok(Value::Int(self.charge))
            }
            "~Fuse" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), method)),
        }
    }
}

impl BuiltInTest for Fuse {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }

    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        Ok(())
    }

    fn reporter(&self) -> StateReport {
        assert!(!self.live || self.charge >= 0, "live fuse: negative charge");
        let mut r = StateReport::new();
        r.set("charge", Value::Int(self.charge));
        r
    }
}

#[derive(Debug)]
struct FuseFactory {
    live: bool,
    switch: MutationSwitch,
}

impl ComponentFactory for FuseFactory {
    fn class_name(&self) -> &str {
        Fuse::CLASS
    }

    fn construct(
        &self,
        constructor: &str,
        _a: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "Fuse" => Ok(Box::new(Fuse {
                charge: 0,
                live: self.live,
                ctl,
                switch: self.switch.clone(),
            })),
            other => Err(unknown_method(Fuse::CLASS, other)),
        }
    }
}

struct FuseShards {
    live: bool,
}

impl concat::mutation::ClonableFactory for FuseShards {
    fn class_name(&self) -> &str {
        Fuse::CLASS
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(FuseFactory {
            live: self.live,
            switch: switch.clone(),
        })
    }
}

fn fuse_spec() -> ClassSpec {
    ClassSpecBuilder::new(Fuse::CLASS)
        .constructor("m1", "Fuse")
        .method("m2", "Charge", MethodCategory::Update)
        .returns("int")
        .destructor("m3", "~Fuse")
        .birth_node("n1", ["m1"])
        .task_node("n2", ["m2"])
        .death_node("n3", ["m3"])
        .edge("n1", "n2")
        .edge("n2", "n3")
        .edge("n1", "n3")
        .build()
        .expect("Fuse spec is valid")
}

fn fuse_bundle(live: bool) -> concat::core::SelfTestable {
    let switch = MutationSwitch::new();
    let inventory = ClassInventory::new(Fuse::CLASS).method(
        MethodInventory::new("Charge")
            .locals(["level"])
            .site(0, "level", "charge level"),
    );
    SelfTestableBuilder::new(
        fuse_spec(),
        Rc::new(FuseFactory {
            live,
            switch: switch.clone(),
        }),
    )
    .mutation(inventory, switch)
    .mutation_shards(Arc::new(FuseShards { live }))
    .build()
}

#[test]
fn worker_panics_are_contained_and_the_campaign_completes() {
    let workers = std::env::var("CONCAT_CHAOS_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    let run_fuse = |live: bool, telemetry: Telemetry| {
        let bundle = fuse_bundle(live);
        let consumer = Consumer::with_seed(53)
            .with_workers(workers)
            .with_telemetry(telemetry);
        let suite = consumer.generate(&bundle).expect("generation succeeds");
        consumer
            .evaluate_quality(&bundle, &suite, &["Charge"], &[])
            .expect("campaign completes despite worker panics")
    };
    let baseline = run_fuse(false, Telemetry::disabled());
    let sink = Arc::new(concat::obs::MemorySink::new());
    let run = run_fuse(true, Telemetry::new(sink.clone()));

    let crashed: Vec<usize> = run
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.status
                == MutantStatus::Quarantined {
                    reason: QuarantineReason::WorkerCrash,
                }
        })
        .map(|(index, _)| index)
        .collect();
    assert!(
        !crashed.is_empty(),
        "negative-charge mutants must crash a worker: {:?}",
        run.results
    );
    // Only the in-flight mutants were quarantined; every other verdict
    // matches the panic-free baseline exactly.
    assert_eq!(run.results.len(), baseline.results.len());
    for (index, (got, want)) in run.results.iter().zip(&baseline.results).enumerate() {
        if crashed.contains(&index) {
            continue;
        }
        assert_eq!(got, want, "mutant {index} must be unaffected by crashes");
    }
    assert_eq!(
        run.killed() + run.survived() + run.equivalent() + run.quarantined(),
        run.total(),
        "campaign completed with a verdict for every mutant"
    );
    let summary = Summary::from_events(&sink.events());
    assert_eq!(
        summary
            .counters
            .get("mutation.worker_crash")
            .copied()
            .unwrap_or(0) as usize,
        crashed.len()
    );
}

#[test]
fn jsonl_write_faults_retry_then_degrade_while_the_run_stays_green() {
    // Nth-write fault: one transient fault is absorbed by retries.
    let injector = FaultInjector::seeded(5);
    injector.fail_nth(JSONL_WRITE_OP, 3, FaultKind::Transient);
    let sink = Arc::new(JsonlSink::in_memory_with_policy(
        IoPolicy::with_retry(RetryPolicy::no_delay(3)).injector(injector),
    ));
    let consumer = Consumer::with_seed(31).with_telemetry(Telemetry::new(sink.clone()));
    let report = consumer
        .self_test(&stack_bundle())
        .expect("self-test runs despite sink faults");
    assert!(report.all_passed(), "{}", report.summary());
    assert!(!sink.is_degraded(), "one transient is absorbed");
    assert!(sink.retries() >= 1);
    assert_eq!(sink.dropped_events(), 0);

    // Persistent faults: retries exhaust, the sink degrades to counting
    // drops — and the run STILL completes green.
    let injector = FaultInjector::seeded(5);
    injector.fail_always(JSONL_WRITE_OP, FaultKind::Persistent);
    let sink = Arc::new(JsonlSink::in_memory_with_policy(
        IoPolicy::with_retry(RetryPolicy::no_delay(2)).injector(injector),
    ));
    let consumer = Consumer::with_seed(31).with_telemetry(Telemetry::new(sink.clone()));
    let report = consumer
        .self_test(&stack_bundle())
        .expect("telemetry loss must not fail the run");
    assert!(report.all_passed(), "{}", report.summary());
    assert!(sink.is_degraded());
    assert!(sink.dropped_events() > 0);
    assert!(sink.contents().is_empty(), "nothing got through");
}

#[test]
fn call_budget_exhausts_mid_case_without_failing_the_run() {
    let consumer = Consumer::with_seed(41).with_budget(Budget::unlimited().with_max_calls(1));
    let report = consumer
        .self_test(&stack_bundle())
        .expect("budget stops are reported, not raised");
    let stopped: Vec<_> = report
        .result
        .cases
        .iter()
        .filter(|c| {
            matches!(
                c.status,
                CaseStatus::BudgetExhausted {
                    resource: BudgetResource::Calls,
                    ..
                }
            )
        })
        .collect();
    assert!(!stopped.is_empty(), "multi-call cases hit the 1-call cap");
    assert_eq!(report.result.harness_stops(), stopped.len());
    assert!(!report.notes().is_empty(), "stops surface as notes");
    assert!(report.summary().contains("harness stop(s)"));
    // A stopped case still carries the transcript prefix up to the cap:
    // the constructor record plus at most the one budgeted call.
    assert!(stopped.iter().all(|c| c.transcript.records.len() <= 2));
}

#[test]
fn persisting_through_injected_faults_degrades_and_counts() {
    let sink = Arc::new(concat::obs::MemorySink::new());
    let consumer = Consumer::with_seed(47).with_telemetry(Telemetry::new(sink.clone()));
    let report = consumer.self_test(&stack_bundle()).expect("self-test runs");

    let dir = std::env::temp_dir().join("concat-chaos-persist");
    let _ = std::fs::remove_dir_all(&dir);
    let injector = FaultInjector::seeded(7);
    injector.fail_nth(concat::driver::SUITE_SAVE_OP, 1, FaultKind::Transient);
    injector.fail_always(concat::driver::LOG_WRITE_OP, FaultKind::Transient);
    let policy = IoPolicy::with_retry(RetryPolicy::no_delay(2)).injector(injector);

    let session = consumer.persist_session(&report, &dir, &policy);
    assert!(session.suite_path.is_some(), "suite recovers after retry");
    assert!(session.log_path.is_none(), "log writes stay exhausted");
    assert_eq!(session.notes.len(), 1, "{:?}", session.notes);
    assert!(
        session.retries >= 2,
        "retries were spent: {}",
        session.retries
    );

    let summary = Summary::from_events(&sink.events());
    assert!(summary.counters.get("harden.retry").copied().unwrap_or(0) >= 2);
    assert_eq!(
        summary
            .counters
            .get("harden.degraded")
            .copied()
            .unwrap_or(0),
        1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn stack_bundle() -> concat::core::SelfTestable {
    use concat::components::{bounded_stack_spec, BoundedStackFactory};
    SelfTestableBuilder::new(bounded_stack_spec(), Rc::new(BoundedStackFactory)).build()
}
