//! Process-isolation integration tests: verdict parity with thread
//! shards, containment of mutants no thread can contain (abort,
//! spin-without-checkpoints) by solo runs and by the [`Orchestrator`]'s
//! process leases, survival of external shard kills, and journaled resume
//! under [`IsolationMode::Process`].
//!
//! The shard workers are *this test binary*, re-executed with a libtest
//! filter that lands in [`shard_worker_entry`]; the
//! `CONCAT_TEST_SHARD_SUBJECT` environment variable (threaded through
//! [`ProcessIsolation::env`]) tells the entry which campaign to rebuild.

use concat_bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat_driver::{MethodCall, SuiteStats, TestCase, TestSuite};
use concat_mutation::{
    decode_verdict, encode_verdict, enumerate_mutants, run_mutation_analysis_parallel,
    run_shard_worker, CampaignEnd, CampaignRequest, ClassInventory, ClonableFactory, IsolationMode,
    KillReason, MethodInventory, Mutant, MutantStatus, MutationConfig, MutationRun, MutationSwitch,
    Orchestrator, OrchestratorConfig, ProcessIsolation, QuarantineReason, VarEnv,
};
use concat_obs::{MemorySink, Summary, Telemetry};
use concat_runtime::{
    args, encode_frame, unknown_method, AssertionViolation, Component, FrameDecoder, InvokeResult,
    Rng, TestException, Value,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Env var naming the campaign a re-executed shard worker rebuilds.
const SUBJECT_ENV: &str = "CONCAT_TEST_SHARD_SUBJECT";

/// Serializes the tests that spawn shard processes, so one test's
/// external kill can never hit another test's child.
static PROCESS_TESTS: Mutex<()> = Mutex::new(());

fn process_lock() -> MutexGuard<'static, ()> {
    PROCESS_TESTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------
// Calc: a benign instrumented subject (parity, external-kill, journal)
// ---------------------------------------------------------------------

/// `Calc::AddTwice(q)` adds `q` twice through instrumented sites; site 1
/// feeds a table index so MAXINT/MININT replacements crash (kill by
/// crash) and the invariant bounds the total (kill by assertion). A
/// short sleep per call stretches the campaign enough for an external
/// kill to land mid-run.
struct Calc {
    total: i64,
    limit: i64,
    ctl: BitControl,
    switch: MutationSwitch,
}

impl Component for Calc {
    fn class_name(&self) -> &'static str {
        "Calc"
    }
    fn method_names(&self) -> Vec<&'static str> {
        vec!["AddTwice", "Total", "~Calc"]
    }
    fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
        match m {
            "AddTwice" => {
                let q = args::int(m, a, 0)?;
                std::thread::sleep(Duration::from_millis(1));
                let (total, limit) = (self.total, self.limit);
                let env = move || {
                    VarEnv::new()
                        .bind("step", q)
                        .bind("total", total)
                        .bind("limit", limit)
                };
                let s1 = self.switch.read_int("AddTwice", 0, "step", q, env);
                self.total += s1;
                let idx = self.switch.read_int("AddTwice", 1, "step", q, env);
                let table = [0i64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
                let bonus = table[usize::try_from(idx).expect("index")];
                self.total += q + bonus - bonus;
                Ok(Value::Int(self.total))
            }
            "Total" => Ok(Value::Int(self.total)),
            "~Calc" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), m)),
        }
    }
}

impl BuiltInTest for Calc {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }
    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        concat_bit::check(
            &self.ctl,
            concat_runtime::AssertionKind::Invariant,
            "Calc",
            "",
            "total <= limit",
            self.total <= self.limit,
        )
    }
    fn reporter(&self) -> StateReport {
        let mut r = StateReport::new();
        r.set("total", Value::Int(self.total));
        r
    }
}

struct CalcFactory {
    switch: MutationSwitch,
}

impl ComponentFactory for CalcFactory {
    fn class_name(&self) -> &str {
        "Calc"
    }
    fn construct(
        &self,
        constructor: &str,
        _args: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "Calc" => Ok(Box::new(Calc {
                total: 0,
                limit: 1_000,
                ctl,
                switch: self.switch.clone(),
            })),
            other => Err(unknown_method("Calc", other)),
        }
    }
}

struct CalcShards;

impl ClonableFactory for CalcShards {
    fn class_name(&self) -> &str {
        "Calc"
    }
    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(CalcFactory {
            switch: switch.clone(),
        })
    }
}

fn calc_inventory() -> ClassInventory {
    ClassInventory::new("Calc")
        .globals(["total", "limit"])
        .method(
            MethodInventory::new("AddTwice")
                .locals(["step"])
                .globals_used(["total", "limit"])
                .site(0, "step", "first add")
                .site(1, "step", "table index"),
        )
}

fn calc_suite() -> TestSuite {
    let cases = (0..10)
        .map(|id| TestCase {
            id,
            transaction_index: 0,
            node_path: vec![],
            constructor: MethodCall::generated("m1", "Calc", vec![]),
            calls: vec![
                MethodCall::generated("m2", "AddTwice", vec![Value::Int((id as i64 % 5) + 1)]),
                MethodCall::generated("m3", "Total", vec![]),
                MethodCall::generated("m4", "~Calc", vec![]),
            ],
        })
        .collect();
    TestSuite {
        class_name: "Calc".into(),
        seed: 0,
        cases,
        stats: SuiteStats::default(),
    }
}

fn calc_mutants() -> Vec<Mutant> {
    enumerate_mutants(&calc_inventory(), &["AddTwice"])
}

/// The fingerprint-relevant half of the Calc campaign config — identical
/// in the supervisor and every shard worker. Workers, journal path and
/// isolation mode are layered on by the supervisor only (all three are
/// excluded from the campaign fingerprint).
fn calc_config() -> MutationConfig {
    MutationConfig {
        silence_panics: true,
        ..MutationConfig::default()
    }
}

fn calc_isolation() -> ProcessIsolation {
    ProcessIsolation::new(["shard_worker_entry", "--exact", "--nocapture"]).env(SUBJECT_ENV, "calc")
}

fn run_calc(config: MutationConfig) -> MutationRun {
    run_mutation_analysis_parallel(&CalcShards, &calc_suite(), &calc_mutants(), &config)
}

// ---------------------------------------------------------------------
// Volatile: mutants that no thread can contain
// ---------------------------------------------------------------------

/// `Volatile::Op` reads one instrumented site (golden value 1). The
/// MAXINT replacement calls [`std::process::abort`] — no unwinding, no
/// checkpoint, the whole process dies. The MININT replacement spins in a
/// loop with *no* instrumented reads, so the watchdog's cancel token is
/// never observed. Thread isolation survives neither; process shards
/// quarantine exactly these two and finish the campaign.
struct Volatile {
    ctl: BitControl,
    switch: MutationSwitch,
}

impl Component for Volatile {
    fn class_name(&self) -> &'static str {
        "Volatile"
    }
    fn method_names(&self) -> Vec<&'static str> {
        vec!["Op", "~Volatile"]
    }
    fn invoke(&mut self, m: &str, _a: &[Value]) -> InvokeResult {
        match m {
            "Op" => {
                let env = || VarEnv::new().bind("mode", 1);
                let mode = self.switch.read_int("Op", 0, "mode", 1, env);
                if mode == i64::MAX {
                    std::process::abort();
                }
                if mode == i64::MIN {
                    // A hang with no cooperative checkpoint: sleeps, but
                    // never reads through the switch again.
                    loop {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
                Ok(Value::Int(mode))
            }
            "~Volatile" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), m)),
        }
    }
}

impl BuiltInTest for Volatile {
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

struct VolatileFactory {
    switch: MutationSwitch,
}

impl ComponentFactory for VolatileFactory {
    fn class_name(&self) -> &str {
        "Volatile"
    }
    fn construct(
        &self,
        constructor: &str,
        _args: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "Volatile" => Ok(Box::new(Volatile {
                ctl,
                switch: self.switch.clone(),
            })),
            other => Err(unknown_method("Volatile", other)),
        }
    }
}

struct VolatileShards;

impl ClonableFactory for VolatileShards {
    fn class_name(&self) -> &str {
        "Volatile"
    }
    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(VolatileFactory {
            switch: switch.clone(),
        })
    }
}

fn volatile_inventory() -> ClassInventory {
    ClassInventory::new("Volatile").method(MethodInventory::new("Op").locals(["mode"]).site(
        0,
        "mode",
        "behaviour selector",
    ))
}

fn volatile_suite() -> TestSuite {
    TestSuite {
        class_name: "Volatile".into(),
        seed: 0,
        cases: vec![TestCase {
            id: 0,
            transaction_index: 0,
            node_path: vec![],
            constructor: MethodCall::generated("m1", "Volatile", vec![]),
            calls: vec![
                MethodCall::generated("m2", "Op", vec![]),
                MethodCall::generated("m3", "~Volatile", vec![]),
            ],
        }],
        stats: SuiteStats::default(),
    }
}

fn volatile_mutants() -> Vec<Mutant> {
    enumerate_mutants(&volatile_inventory(), &["Op"])
}

fn volatile_config() -> MutationConfig {
    MutationConfig {
        silence_panics: true,
        ..MutationConfig::default()
    }
}

/// Short heartbeat so the spinning mutant is detected quickly; a restart
/// budget comfortably above the four deaths the two nasty mutants cost
/// (each dies once, is retried, and dies again).
fn volatile_isolation() -> ProcessIsolation {
    let mut spec = ProcessIsolation::new(["shard_worker_entry", "--exact", "--nocapture"])
        .env(SUBJECT_ENV, "volatile");
    spec.heartbeat_timeout = Duration::from_millis(1200);
    spec
}

// ---------------------------------------------------------------------
// The re-exec entry point
// ---------------------------------------------------------------------

/// The hidden worker half: a no-op under a normal `cargo test` run, but
/// when the supervisor re-execs this binary with `CONCAT_SHARD_*` and
/// `CONCAT_TEST_SHARD_SUBJECT` set, it rebuilds the named campaign,
/// classifies its assigned mutants, streams verdict frames to stdout and
/// exits without returning to libtest.
#[test]
fn shard_worker_entry() {
    let Ok(subject) = std::env::var(SUBJECT_ENV) else {
        return;
    };
    let code = match subject.as_str() {
        "calc" => run_shard_worker(&CalcShards, &calc_suite(), &calc_mutants(), &calc_config()),
        "volatile" => run_shard_worker(
            &VolatileShards,
            &volatile_suite(),
            &volatile_mutants(),
            &volatile_config(),
        ),
        _ => 2,
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// Verdict counters (`mutant.*`) from a recorded summary; exactly the
/// totals that must agree across isolation modes and shard counts.
/// (`mutation.frames_dropped` is deliberately *not* in this set: libtest
/// banner lines in child stdout are dropped as foreign frames and their
/// count varies with the shard count.)
fn verdict_counters(summary: &Summary) -> Vec<(&'static str, u64)> {
    summary
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("mutant."))
        .map(|(name, total)| (*name, *total))
        .collect()
}

#[test]
fn process_shards_match_in_thread_verdicts_for_every_shard_count() {
    let _guard = process_lock();
    let golden = run_calc(MutationConfig {
        workers: 2,
        ..calc_config()
    });
    assert!(golden.killed() > 0, "the calc campaign kills mutants");
    let mut counter_baseline: Option<Vec<(&'static str, u64)>> = None;
    for shards in [1usize, 4] {
        let sink = Arc::new(MemorySink::new());
        let run = run_calc(MutationConfig {
            workers: shards,
            telemetry: Telemetry::new(sink.clone()),
            isolation: IsolationMode::Process(calc_isolation()),
            ..calc_config()
        });
        assert_eq!(
            run.results, golden.results,
            "shards = {shards}: process verdicts must match in-thread verdicts"
        );
        assert_eq!(run.score(), golden.score());
        let counters = verdict_counters(&sink.summary());
        match &counter_baseline {
            None => counter_baseline = Some(counters),
            Some(baseline) => assert_eq!(
                &counters, baseline,
                "shards = {shards}: verdict counter totals must match shard count 1"
            ),
        }
    }
}

#[test]
fn process_shards_contain_abort_and_unresponsive_mutants() {
    let _guard = process_lock();
    let mut baseline: Option<MutationRun> = None;
    for shards in [1usize, 4] {
        let run = run_mutation_analysis_parallel(
            &VolatileShards,
            &volatile_suite(),
            &volatile_mutants(),
            &MutationConfig {
                workers: shards,
                worker_restarts: 16,
                isolation: IsolationMode::Process(volatile_isolation()),
                ..volatile_config()
            },
        );
        assert_eq!(
            run.total(),
            volatile_mutants().len(),
            "shards = {shards}: the campaign completed despite the killers"
        );
        let status_of = |needle: &str| {
            run.results
                .iter()
                .find(|r| r.mutant.to_string().contains(needle))
                .map(|r| r.status.clone())
                .unwrap_or_else(|| panic!("no {needle} mutant enumerated"))
        };
        assert_eq!(
            status_of("MAXINT"),
            MutantStatus::Quarantined {
                reason: QuarantineReason::ShardAbort
            },
            "shards = {shards}: the aborting mutant is quarantined as a shard abort"
        );
        assert_eq!(
            status_of("MININT"),
            MutantStatus::Quarantined {
                reason: QuarantineReason::ShardUnresponsive
            },
            "shards = {shards}: the spinning mutant is quarantined as unresponsive"
        );
        let shard_quarantines = run
            .results
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    MutantStatus::Quarantined {
                        reason: QuarantineReason::ShardAbort
                            | QuarantineReason::ShardSignal
                            | QuarantineReason::ShardUnresponsive
                    }
                )
            })
            .count();
        assert_eq!(
            shard_quarantines, 2,
            "shards = {shards}: exactly the two killers are shard-quarantined"
        );
        match &baseline {
            None => baseline = Some(run),
            Some(first) => assert_eq!(
                run.results, first.results,
                "shards = {shards}: containment verdicts are shard-count-invariant"
            ),
        }
    }
}

/// The verdict of the volatile mutant whose rendering contains `needle`.
fn volatile_status(run: &MutationRun, needle: &str) -> MutantStatus {
    run.results
        .iter()
        .find(|r| r.mutant.to_string().contains(needle))
        .map(|r| r.status.clone())
        .unwrap_or_else(|| panic!("no {needle} mutant enumerated"))
}

#[test]
fn fleet_process_leases_contain_abort_and_unresponsive_mutants() {
    let _guard = process_lock();
    let config = || MutationConfig {
        worker_restarts: 16,
        isolation: IsolationMode::Process(volatile_isolation()),
        ..volatile_config()
    };
    let solo = run_mutation_analysis_parallel(
        &VolatileShards,
        &volatile_suite(),
        &volatile_mutants(),
        &MutationConfig {
            workers: 2,
            ..config()
        },
    );
    for slots in [1usize, 2] {
        let service = Orchestrator::start(OrchestratorConfig {
            slots,
            ..OrchestratorConfig::default()
        });
        let id = service
            .submit(CampaignRequest {
                name: format!("volatile-{slots}"),
                shards: Arc::new(VolatileShards),
                suite: volatile_suite(),
                mutants: volatile_mutants(),
                config: config(),
                priority: 0,
                mutant_budget: None,
                slot: None,
            })
            .expect("admitted");
        let outcome = service.wait(id).expect("campaign tracked");
        // The service silences panics while it runs: assert after it
        // stops, so a failure message is never swallowed.
        service.shutdown();
        let CampaignEnd::Completed(run) = outcome.end else {
            panic!("slots = {slots}: the campaign did not complete: {outcome:?}");
        };
        assert_eq!(
            volatile_status(&run, "MAXINT"),
            MutantStatus::Quarantined {
                reason: QuarantineReason::ShardAbort
            },
            "slots = {slots}: the aborting mutant is quarantined as a shard abort"
        );
        assert_eq!(
            volatile_status(&run, "MININT"),
            MutantStatus::Quarantined {
                reason: QuarantineReason::ShardUnresponsive
            },
            "slots = {slots}: the spinning mutant is quarantined as unresponsive"
        );
        let shard_quarantines = run
            .results
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    MutantStatus::Quarantined {
                        reason: QuarantineReason::ShardAbort
                            | QuarantineReason::ShardSignal
                            | QuarantineReason::ShardUnresponsive
                    }
                )
            })
            .count();
        assert_eq!(
            shard_quarantines, 2,
            "slots = {slots}: exactly the two killers are shard-quarantined"
        );
        assert_eq!(
            run.results, solo.results,
            "slots = {slots}: the fleet's ladder convicts exactly as a solo run does"
        );
    }
}

/// Child pids of this process, from a Linux `/proc` scan — the live
/// shards of whatever campaign this test is running. Field 4 of
/// `/proc/<pid>/stat` (the second field after the parenthesized comm) is
/// the ppid.
fn child_pids() -> Vec<u32> {
    let own = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids = Vec::new();
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|name| name.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let ppid = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .and_then(|rest| rest.split_whitespace().nth(1))
            .and_then(|p| p.parse::<u32>().ok());
        if ppid == Some(own) {
            pids.push(pid);
        }
    }
    pids
}

#[test]
fn external_shard_kill_does_not_change_the_verdicts() {
    let _guard = process_lock();
    let golden = run_calc(MutationConfig {
        workers: 2,
        ..calc_config()
    });
    let killer = std::thread::spawn(|| {
        // Give the supervisor time to spawn shards, then SIGKILL one.
        // The campaign may already be done on a fast machine — then the
        // kill is a no-op and the assertion still holds.
        std::thread::sleep(Duration::from_millis(250));
        for pid in child_pids().into_iter().take(1) {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
        }
    });
    let run = run_calc(MutationConfig {
        workers: 2,
        worker_restarts: 16,
        isolation: IsolationMode::Process(calc_isolation()),
        ..calc_config()
    });
    killer.join().expect("killer thread");
    assert_eq!(
        run.results, golden.results,
        "an externally killed shard must not change a single verdict"
    );
}

#[test]
fn journaled_process_campaign_replays_on_rerun() {
    let _guard = process_lock();
    let dir = std::env::temp_dir().join("concat-mutation-isolation-journal");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("verdicts.journal");
    let config = |telemetry: Telemetry| MutationConfig {
        workers: 2,
        telemetry,
        journal_path: Some(path.clone()),
        isolation: IsolationMode::Process(calc_isolation()),
        ..calc_config()
    };
    let first = run_calc(config(Telemetry::disabled()));
    let sink = Arc::new(MemorySink::new());
    let again = run_calc(config(Telemetry::new(sink.clone())));
    assert_eq!(again.results, first.results);
    let summary = sink.summary();
    assert_eq!(
        summary.counters.get("mutation.replayed").copied(),
        Some(first.total() as u64),
        "the rerun replays every verdict from the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_campaign_replays_across_isolation_modes() {
    let _guard = process_lock();
    let dir = std::env::temp_dir().join("concat-mutation-isolation-incremental");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("verdicts.journal");
    let config = |telemetry: Telemetry, isolation: IsolationMode| MutationConfig {
        workers: 2,
        telemetry,
        journal_path: Some(path.clone()),
        incremental: true,
        isolation,
        ..calc_config()
    };
    // Cold under thread shards writes the feature-stamped journal. The
    // campaign fingerprint deliberately excludes the isolation mode (and
    // worker count): the verdicts are a property of the campaign, not of
    // how it was scheduled.
    let cold = run_calc(config(Telemetry::disabled(), IsolationMode::InThread));
    // Warm under process shards: pure replay — byte-identical verdicts,
    // no shard processes ever spawned.
    let sink = Arc::new(MemorySink::new());
    let warm = run_calc(config(
        Telemetry::new(sink.clone()),
        IsolationMode::Process(calc_isolation()),
    ));
    assert_eq!(warm.results, cold.results);
    let summary = sink.summary();
    assert_eq!(
        summary.counters.get("mutation.replayed").copied(),
        Some(cold.total() as u64),
        "the process-mode rerun replays every thread-mode verdict"
    );
    assert_eq!(
        sink.span_count("mutant"),
        0,
        "a pure replay executes no mutants and spawns no shard processes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verdicts_round_trip_through_the_frame_protocol() {
    let statuses = [
        MutantStatus::Killed {
            reason: KillReason::Crash,
            by_case: 7,
        },
        MutantStatus::Survived,
        MutantStatus::PresumedEquivalent,
        MutantStatus::Quarantined {
            reason: QuarantineReason::ShardAbort,
        },
        MutantStatus::Quarantined {
            reason: QuarantineReason::ShardUnresponsive,
        },
        MutantStatus::Quarantined {
            reason: QuarantineReason::ShardSignal,
        },
    ];
    let stream: String = statuses
        .iter()
        .enumerate()
        .map(|(id, status)| encode_frame(&encode_verdict(id, status)).expect("encodes"))
        .collect();
    // Push the stream through the decoder in arbitrary chunkings; every
    // chunking yields the same verdicts in order, with nothing dropped
    // and nothing left buffered.
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    for _ in 0..50 {
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let bytes = stream.as_bytes();
        let mut at = 0;
        while at < bytes.len() {
            let step = 1 + (rng.next_u64() as usize) % 7;
            let end = (at + step).min(bytes.len());
            for payload in decoder.push(&bytes[at..end]) {
                decoded.push(decode_verdict(&payload).expect("well-formed verdict"));
            }
            at = end;
        }
        assert_eq!(decoded.len(), statuses.len());
        for (expected_id, (id, status)) in decoded.iter().enumerate() {
            assert_eq!(*id, expected_id);
            assert_eq!(status, &statuses[expected_id]);
        }
        assert_eq!(decoder.dropped(), 0);
        assert_eq!(decoder.pending_bytes(), 0);
    }
}
