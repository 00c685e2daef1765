//! The mutation analysis engine: execute, classify, score.
//!
//! Reproduces the paper's §4 procedure. A mutant is **killed** when
//!
//! 1. the program crashed while running the test cases (panic),
//! 2. an exception was raised due to assertion violation "given that this
//!    was not the case with the original program", or
//! 3. the output differs from the original program's output
//!    (golden-transcript comparison).
//!
//! Mutants alive after the suite are re-attacked with caller-supplied
//! *probe suites* (randomized amplification); mutants that not even the
//! probes distinguish are classified **presumed equivalent** — the
//! mechanical stand-in for the paper's manual equivalence analysis
//! (DESIGN.md §2). The mutation score is `killed / (total - equivalent)`.

use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use crate::journal::campaign_fingerprint;
use crate::ledger::{CampaignLedger, LeaseOutcome, Ruling, INLINE};
use crate::shard::process_lease;
use concat_bit::ComponentFactory;
use concat_driver::{CaseStatus, CoverageMatrix, SuiteResult, TestLog, TestRunner, TestSuite};
use concat_obs::{MemorySink, SpanId, Telemetry};
use concat_runtime::{recommended_workers, write_atomic, Budget, CancelToken, RetryPolicy};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Why a mutant died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KillReason {
    /// The mutant panicked (the paper's "program crashed").
    Crash,
    /// An assertion violation not present in the original run.
    Assertion,
    /// Outputs (return values, exceptions, final state) differ.
    OutputDiff,
}

impl fmt::Display for KillReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KillReason::Crash => "crash",
            KillReason::Assertion => "assertion violation",
            KillReason::OutputDiff => "output difference",
        };
        f.write_str(s)
    }
}

/// Why a mutant was quarantined instead of scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuarantineReason {
    /// The mutant hit the per-case wall-clock deadline (e.g. an induced
    /// infinite loop interrupted by the watchdog).
    Timeout,
    /// The mutant exhausted an execution budget (calls, transcript bytes).
    Budget,
    /// The mutant crashed in at least the configured number of cases —
    /// environment-threatening rather than informative.
    RepeatedCrash,
    /// The worker executing this mutant panicked outside the runner's
    /// catch boundary (an engine-adjacent crash, e.g. a panicking
    /// reporter). The supervisor contained the crash: only this in-flight
    /// mutant is quarantined and the campaign continues.
    WorkerCrash,
    /// Under [`IsolationMode::Process`], the shard executing this mutant
    /// died of SIGABRT — the signature of a mutant calling
    /// `std::process::abort()` (or an allocator/runtime abort). The
    /// process boundary contained it: only this mutant is quarantined.
    ShardAbort,
    /// Under [`IsolationMode::Process`], the shard executing this mutant
    /// died of another signal (SIGSEGV, an external SIGKILL, …) or a
    /// deliberate nonzero exit, twice in a row — the mutant reproducibly
    /// takes its host process down.
    ShardSignal,
    /// Under [`IsolationMode::Process`], the shard executing this mutant
    /// stopped emitting heartbeat frames — a tight loop with no
    /// cooperative checkpoint — and the supervisor killed it
    /// (SIGTERM→SIGKILL) after the heartbeat deadline, twice in a row.
    ShardUnresponsive,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QuarantineReason::Timeout => "timeout",
            QuarantineReason::Budget => "budget",
            QuarantineReason::RepeatedCrash => "repeated crash",
            QuarantineReason::WorkerCrash => "worker crash",
            QuarantineReason::ShardAbort => "shard abort",
            QuarantineReason::ShardSignal => "shard signal",
            QuarantineReason::ShardUnresponsive => "shard unresponsive",
        };
        f.write_str(s)
    }
}

/// Terminal classification of one mutant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutantStatus {
    /// Killed by the test suite.
    Killed {
        /// Why it died.
        reason: KillReason,
        /// Id of the first distinguishing test case.
        by_case: usize,
    },
    /// Alive after the suite but distinguished by a probe suite: a genuine
    /// test-suite escape (counts against the score).
    Survived,
    /// Not even probing distinguishes it: presumed equivalent (excluded
    /// from the score denominator, like the paper's equivalents).
    PresumedEquivalent,
    /// The harness stopped the mutant (deadline, budget, repeated crash):
    /// the execution tells us about the environment, not the suite's
    /// adequacy, so — like equivalents — quarantined mutants are excluded
    /// from the score denominator and reported separately.
    Quarantined {
        /// Why it was quarantined.
        reason: QuarantineReason,
    },
}

impl MutantStatus {
    /// True when the suite killed the mutant.
    pub fn is_killed(&self) -> bool {
        matches!(self, MutantStatus::Killed { .. })
    }

    /// True for presumed-equivalent mutants.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, MutantStatus::PresumedEquivalent)
    }

    /// True for quarantined mutants.
    pub fn is_quarantined(&self) -> bool {
        matches!(self, MutantStatus::Quarantined { .. })
    }
}

/// One analyzed mutant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutantResult {
    /// The mutant.
    pub mutant: Mutant,
    /// What happened to it.
    pub status: MutantStatus,
}

/// How [`run_mutation_analysis_parallel`] isolates mutant execution.
#[derive(Debug, Clone)]
pub enum IsolationMode {
    /// Shards are threads in this process (the default). Cheap, and
    /// `catch_unwind` contains everything that unwinds — but a mutant
    /// that aborts, overflows the stack, or spins without reaching a
    /// cooperative checkpoint takes the whole campaign process down.
    InThread,
    /// Shards are child processes (self-execs of the current binary; see
    /// [`ProcessIsolation::worker_args`]) streaming verdicts back over a
    /// checksummed frame protocol. A mutant can do *anything* — abort,
    /// segfault, spin forever — and lose only itself: the supervisor
    /// classifies the shard's exit, quarantines the in-flight mutant, and
    /// respawns the shard under the `worker_restarts` budget.
    Process(ProcessIsolation),
}

impl IsolationMode {
    /// True for [`IsolationMode::Process`].
    pub fn is_process(&self) -> bool {
        matches!(self, IsolationMode::Process(_))
    }
}

/// Settings of the process-isolated shard pool.
#[derive(Debug, Clone)]
pub struct ProcessIsolation {
    /// Arguments appended to a self-exec of [`std::env::current_exe`] to
    /// reach the hidden shard-worker entry point (e.g.
    /// `["shard-worker", "campaign"]` for `mutation_demo`, or a
    /// `--exact`-filtered test name for a test binary). The entry point
    /// must rebuild the identical campaign and call
    /// [`crate::run_shard_worker`].
    pub worker_args: Vec<String>,
    /// Extra environment variables for shard processes, on top of the
    /// inherited environment and the protocol's own `CONCAT_SHARD_*`
    /// variables — how a multi-campaign binary knows which campaign to
    /// rebuild.
    pub worker_env: Vec<(String, String)>,
    /// Steady-state heartbeat deadline: a shard that emits no frame for
    /// this long is presumed stuck in a non-cooperative loop and gets the
    /// SIGTERM→SIGKILL ladder. Must exceed the longest single mutant
    /// execution (every `shard-begin`/verdict frame is a heartbeat).
    pub heartbeat_timeout: Duration,
    /// First-frame deadline, covering process spawn plus the shard's own
    /// golden run. Generous by default.
    pub startup_grace: Duration,
    /// How long the SIGTERM rung of the escalation ladder waits before
    /// SIGKILL.
    pub term_grace: Duration,
    /// Backoff envelope for shard respawns; the actual delay per respawn
    /// is full-jitter ([`RetryPolicy::jittered_delay`]) under this
    /// envelope, drawn from a SplitMix64 stream seeded with
    /// [`ProcessIsolation::backoff_seed`].
    pub respawn_backoff: RetryPolicy,
    /// Seed of the respawn-jitter stream — campaigns stay deterministic.
    pub backoff_seed: u64,
}

impl ProcessIsolation {
    /// Process isolation reached through `worker_args`, with default
    /// deadlines (10 s heartbeat, 30 s startup, 500 ms SIGTERM grace) and
    /// a 10 ms–200 ms jittered respawn envelope.
    pub fn new<I, S>(worker_args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ProcessIsolation {
            worker_args: worker_args.into_iter().map(Into::into).collect(),
            worker_env: Vec::new(),
            heartbeat_timeout: Duration::from_secs(10),
            startup_grace: Duration::from_secs(30),
            term_grace: Duration::from_millis(500),
            respawn_backoff: RetryPolicy {
                max_attempts: u32::MAX,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(200),
            },
            backoff_seed: 0x5AD_CAFE,
        }
    }

    /// Adds one environment variable for shard processes.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.worker_env.push((key.into(), value.into()));
        self
    }
}

/// Configuration of a mutation run.
pub struct MutationConfig {
    /// Suites used to re-attack survivors for equivalence probing
    /// (generated by the caller, typically with different seeds and a
    /// higher cycle bound). Empty = every survivor stays `Survived`.
    pub probe_suites: Vec<TestSuite>,
    /// Install a silent panic hook for the duration of the run so that
    /// thousands of *expected* mutant panics do not flood stderr.
    pub silence_panics: bool,
    /// Run with built-in test capabilities enabled (the paper's test
    /// mode). Setting this to `false` is the assertions-off ablation: the
    /// partial oracle disappears and only crashes and golden-output
    /// differences can kill.
    pub bit_enabled: bool,
    /// Telemetry handle for the run: a `mutation` span over the whole
    /// analysis, a `golden` span over the golden runs, a `mutant` span
    /// per mutant, `mutant.killed.*` / `mutant.survived` /
    /// `mutation.quarantined` counters and a `mutant.equivalent` gauge.
    /// Also handed to the inner [`TestRunner`] (suite/case spans).
    /// Disabled — and free — by default.
    pub telemetry: Telemetry,
    /// Per-case execution budget applied to every run (golden, mutant,
    /// probe). A deadline here is what turns an infinite-loop mutant into
    /// [`MutantStatus::Quarantined`] instead of a hung analysis.
    /// Unlimited by default — the paper's semantics.
    pub budget: Budget,
    /// Quarantine a mutant whose run crashes in at least this many test
    /// cases (crashes the *golden* run also has are not counted). `None`
    /// (default) keeps the paper's semantics: every crash is a kill.
    pub crash_quarantine_threshold: Option<usize>,
    /// Worker count for [`run_mutation_analysis_parallel`]: each worker
    /// owns its own factory, switch, runner, watchdog and cancel token.
    /// Defaults to the machine's available parallelism
    /// ([`recommended_workers`]); clamped to `1..=mutants.len()` at run
    /// time. The sequential entry point ignores it (it *is* the
    /// `workers = 1` instantiation of the engine), and verdicts are
    /// byte-identical for every value.
    pub workers: usize,
    /// Path of the durable per-campaign verdict journal. When set, every
    /// verdict is appended (checksummed, fsynced) as its mutant finishes,
    /// and a rerun over the same campaign replays the journal's verified
    /// prefix instead of re-executing finished mutants — the resumed run
    /// is byte-identical to an uninterrupted one. `None` (default) keeps
    /// the analysis purely in-memory. Journal I/O failures degrade (the
    /// campaign continues without durability, counting `harden.degraded`)
    /// rather than aborting the run.
    pub journal_path: Option<PathBuf>,
    /// How many crashed workers (or process shards) a campaign may
    /// replace before degrading to the surviving workers. Each worker
    /// panic quarantines only its in-flight mutant; the rebuilt worker
    /// keeps leasing from the shared queue. Once the budget is spent the
    /// campaign still completes — remaining mutants run on the surviving
    /// workers, or inline on the calling thread when none survive. Partial
    /// results are never discarded.
    pub worker_restarts: usize,
    /// Coverage-matrix selection (the fast path): per mutant, execute
    /// only the cases whose transactions statically invoke the mutated
    /// method — every other case cannot reach an armed site (see
    /// DESIGN.md §12 for the coverage contract) and is skipped, counted
    /// under the `selection.skipped` telemetry counter. Verdicts are
    /// identical with the flag on or off (and it is deliberately absent
    /// from the campaign fingerprint, so journals stay interchangeable);
    /// `true` by default.
    pub coverage_selection: bool,
    /// How [`run_mutation_analysis_parallel`] isolates its shards:
    /// threads (default) or supervised child processes. Verdicts are
    /// byte-identical across modes and shard counts, so — like `workers`
    /// — the mode is deliberately absent from the campaign fingerprint
    /// and journals interchange freely. The sequential entry point
    /// ignores it.
    pub isolation: IsolationMode,
    /// Incremental (change-aware) resume. When set together with
    /// `journal_path`, the journal additionally records one `feature`
    /// line per mutated method (its sub-fingerprint and mutant ids; see
    /// [`crate::method_fingerprints`]), and a journal whose campaign
    /// fingerprint no longer matches is *salvaged* method by method
    /// instead of discarded: methods whose sub-fingerprint is unchanged
    /// keep their verdicts (remapped onto the shifted ids), and only the
    /// changed methods' mutants re-execute. The flag itself is excluded
    /// from the campaign fingerprint — verdicts are identical either way,
    /// so incremental and plain runs share journals freely. `false` by
    /// default.
    pub incremental: bool,
    /// Fingerprint of the parent campaign, for derived journals: the
    /// amplifier stamps each round journal (`<journal>.r<round>`) with
    /// the parent campaign's fingerprint so a stale round journal left at
    /// the same path by a *different* campaign can never replay into this
    /// one. Folded into [`crate::campaign_fingerprint`] when set. `None`
    /// (default) for top-level campaigns.
    pub lineage: Option<u32>,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            probe_suites: Vec::new(),
            silence_panics: true,
            bit_enabled: true,
            telemetry: Telemetry::disabled(),
            budget: Budget::unlimited(),
            crash_quarantine_threshold: None,
            workers: recommended_workers(),
            journal_path: None,
            worker_restarts: 4,
            coverage_selection: true,
            isolation: IsolationMode::InThread,
            incremental: false,
            lineage: None,
        }
    }
}

impl fmt::Debug for MutationConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutationConfig")
            .field("probe_suites", &self.probe_suites.len())
            .field("silence_panics", &self.silence_panics)
            .field("telemetry_enabled", &self.telemetry.is_enabled())
            .field("budget", &self.budget)
            .field(
                "crash_quarantine_threshold",
                &self.crash_quarantine_threshold,
            )
            .field("workers", &self.workers)
            .field("journal_path", &self.journal_path)
            .field("worker_restarts", &self.worker_restarts)
            .field("coverage_selection", &self.coverage_selection)
            .field("isolation", &self.isolation)
            .field("incremental", &self.incremental)
            .field("lineage", &self.lineage)
            .finish()
    }
}

/// The complete outcome of a mutation analysis run.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationRun {
    /// Per-mutant classifications, in enumeration order.
    pub results: Vec<MutantResult>,
    /// The golden suite result the mutants were compared against.
    pub golden: SuiteResult,
}

impl MutationRun {
    /// Total mutants analyzed.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Mutants killed by the suite.
    pub fn killed(&self) -> usize {
        self.results.iter().filter(|r| r.status.is_killed()).count()
    }

    /// Presumed-equivalent mutants.
    pub fn equivalent(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status.is_equivalent())
            .count()
    }

    /// Genuine survivors (escapes).
    pub fn survived(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status == MutantStatus::Survived)
            .count()
    }

    /// Quarantined mutants (deadline/budget/repeated-crash stops).
    pub fn quarantined(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.status.is_quarantined())
            .count()
    }

    /// Kills attributable to assertion violations (the paper reports 59 of
    /// 652 for Table 2).
    pub fn killed_by_assertion(&self) -> usize {
        self.results
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    MutantStatus::Killed {
                        reason: KillReason::Assertion,
                        ..
                    }
                )
            })
            .count()
    }

    /// The mutation score `killed / (total - equivalent - quarantined)`,
    /// in `[0, 1]`. Quarantined mutants yielded no verdict about the
    /// suite, so — like equivalents — they leave the denominator.
    /// Returns 1.0 when the denominator is zero.
    pub fn score(&self) -> f64 {
        let denom = self.total() - self.equivalent() - self.quarantined();
        if denom == 0 {
            1.0
        } else {
            self.killed() as f64 / denom as f64
        }
    }
}

/// The golden (original-program) results: computed once per analysis and
/// shared read-only across every shard.
pub(crate) struct GoldenBaseline {
    pub(crate) golden: SuiteResult,
    probes: Vec<SuiteResult>,
    /// Case × feature coverage of the golden run, persisted alongside
    /// the campaign journal for post-mortem inspection.
    coverage: CoverageMatrix,
    /// Per-feature filtered execution scopes (one per distinct mutated
    /// method), built when [`MutationConfig::coverage_selection`] is on.
    views: HashMap<String, FeatureView>,
}

/// The filtered execution scope for mutants of one feature (interface
/// method): the sub-suite of cases whose transactions statically invoke
/// the method, with the matching slice of the golden results. Cases
/// outside the view can never reach an armed site of the feature (the
/// coverage contract), so running only the view yields the exact verdict
/// of a full run while skipping `skipped` case executions per mutant.
struct FeatureView {
    suite: TestSuite,
    golden: SuiteResult,
    probes: Vec<TestSuite>,
    probe_goldens: Vec<SuiteResult>,
    /// Main-suite cases this view skips per mutant execution.
    skipped: u64,
    /// Cases skipped per probe suite, by probe index.
    probe_skipped: Vec<u64>,
}

/// Filters a golden [`SuiteResult`] down to the cases in `ids`. Valid
/// because the runner constructs a fresh component per case: a case's
/// result does not depend on which other cases ran around it.
fn filter_golden(golden: &SuiteResult, ids: &BTreeSet<usize>) -> SuiteResult {
    SuiteResult {
        class_name: golden.class_name.clone(),
        cases: golden
            .cases
            .iter()
            .filter(|c| ids.contains(&c.case_id))
            .cloned()
            .collect(),
        notes: golden.notes.clone(),
    }
}

/// Builds the per-feature views for every distinct mutated method.
fn build_feature_views(
    suite: &TestSuite,
    golden: &SuiteResult,
    probes_in: &[TestSuite],
    probe_goldens: &[SuiteResult],
    coverage: &CoverageMatrix,
    probe_coverage: &[CoverageMatrix],
    mutants: &[Mutant],
) -> HashMap<String, FeatureView> {
    let features: BTreeSet<&str> = mutants.iter().map(|m| m.method()).collect();
    let mut views = HashMap::new();
    for feature in features {
        let ids: BTreeSet<usize> = suite
            .iter()
            .filter(|c| coverage.covers(c.id, feature))
            .map(|c| c.id)
            .collect();
        let id_list: Vec<usize> = ids.iter().copied().collect();
        let mut view = FeatureView {
            suite: suite.filtered(&id_list),
            golden: filter_golden(golden, &ids),
            probes: Vec::with_capacity(probes_in.len()),
            probe_goldens: Vec::with_capacity(probes_in.len()),
            skipped: (suite.len() - ids.len()) as u64,
            probe_skipped: Vec::with_capacity(probes_in.len()),
        };
        for ((probe, probe_golden), matrix) in probes_in
            .iter()
            .zip(probe_goldens.iter())
            .zip(probe_coverage.iter())
        {
            let probe_ids: BTreeSet<usize> = probe
                .iter()
                .filter(|c| matrix.covers(c.id, feature))
                .map(|c| c.id)
                .collect();
            let probe_id_list: Vec<usize> = probe_ids.iter().copied().collect();
            view.probe_skipped
                .push((probe.len() - probe_ids.len()) as u64);
            view.probes.push(probe.filtered(&probe_id_list));
            view.probe_goldens
                .push(filter_golden(probe_golden, &probe_ids));
        }
        views.insert(feature.to_owned(), view);
    }
    views
}

/// Case statuses of one golden run indexed by `case_id`, built once per
/// suite so per-mutant classification stays O(cases) — the previous
/// per-observed-case linear scan was O(cases²) per mutant, which the
/// worker pool would have multiplied instead of hidden.
struct StatusIndex<'a> {
    by_case: HashMap<usize, &'a CaseStatus>,
}

impl<'a> StatusIndex<'a> {
    fn of(suite: &'a SuiteResult) -> Self {
        StatusIndex {
            by_case: suite.cases.iter().map(|c| (c.case_id, &c.status)).collect(),
        }
    }

    fn status(&self, id: usize) -> Option<&'a CaseStatus> {
        self.by_case.get(&id).copied()
    }
}

/// Status indexes of one feature view's golden slices, built once per
/// engine so scoped classification stays O(cases).
struct ViewIndexes<'a> {
    golden: StatusIndex<'a>,
    probes: Vec<StatusIndex<'a>>,
}

/// Read-only inputs every executor works from. Executors classify the
/// mutant indices a [`CampaignLedger`] leases them and merge each verdict
/// back by index, which is what makes the merge deterministic.
pub(crate) struct Engine<'a> {
    suite: &'a TestSuite,
    mutants: &'a [Mutant],
    config: &'a MutationConfig,
    baseline: &'a GoldenBaseline,
    golden_index: StatusIndex<'a>,
    probe_indexes: Vec<StatusIndex<'a>>,
    /// Pre-built status indexes of every feature view's golden slices,
    /// keyed like [`GoldenBaseline::views`].
    view_indexes: HashMap<&'a str, ViewIndexes<'a>>,
}

/// One executor's harness: the component factory, the switch its
/// components read through, the runner that adopts the switch's token,
/// and the telemetry the executor records into.
pub(crate) struct Harness<'h> {
    pub(crate) factory: &'h dyn ComponentFactory,
    pub(crate) switch: &'h MutationSwitch,
    pub(crate) runner: &'h TestRunner,
    pub(crate) telemetry: &'h Telemetry,
}

/// Builds a private factory and runner over `switch` under
/// `catch_unwind`: a panicking factory costs one lease (counted as
/// `mutation.worker_crash`), never the campaign.
pub(crate) fn build_harness(
    shards: &dyn ClonableFactory,
    config: &MutationConfig,
    telemetry: &Telemetry,
    switch: &MutationSwitch,
) -> Option<(Box<dyn ComponentFactory>, TestRunner)> {
    let built = catch_unwind(AssertUnwindSafe(|| {
        (
            shards.build_factory(switch),
            build_runner(config, telemetry, switch),
        )
    }))
    .ok();
    if built.is_none() {
        telemetry.incr("mutation.worker_crash");
    }
    built
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        suite: &'a TestSuite,
        mutants: &'a [Mutant],
        config: &'a MutationConfig,
        baseline: &'a GoldenBaseline,
    ) -> Self {
        Engine {
            suite,
            mutants,
            config,
            baseline,
            golden_index: StatusIndex::of(&baseline.golden),
            probe_indexes: baseline.probes.iter().map(StatusIndex::of).collect(),
            view_indexes: baseline
                .views
                .iter()
                .map(|(feature, view)| {
                    (
                        feature.as_str(),
                        ViewIndexes {
                            golden: StatusIndex::of(&view.golden),
                            probes: view.probe_goldens.iter().map(StatusIndex::of).collect(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// The feature view (and its status indexes) for `mutant`, when
    /// coverage selection built one for its method.
    fn view_of(&self, mutant: &Mutant) -> Option<(&'a FeatureView, &ViewIndexes<'a>)> {
        let view = self.baseline.views.get(mutant.method())?;
        let indexes = self.view_indexes.get(mutant.method())?;
        Some((view, indexes))
    }

    /// The in-process lease loop every executor shares: classifies each
    /// leased mutant on `harness` and emits its verdict. `begin`, when
    /// given, runs before each mutant; returning `false` stops the lease.
    /// Each classification runs inside `catch_unwind`, so a panic that
    /// escapes the runner (an engine-adjacent crash) costs exactly one
    /// mutant: it is emitted as [`QuarantineReason::WorkerCrash`] and the
    /// lease ends [`LeaseOutcome::Crashed`], so the caller can retire the
    /// (possibly corrupted) harness. A verdict that finished after
    /// `cancel` tripped may reflect an interrupted case, so it is
    /// discarded and the lease ends [`LeaseOutcome::Aborted`].
    pub(crate) fn run_lease(
        &self,
        harness: &Harness<'_>,
        lease: &[usize],
        cancel: &CancelToken,
        mut begin: Option<&mut dyn FnMut(usize) -> bool>,
        emit: &mut dyn FnMut(usize, MutantStatus),
    ) -> LeaseOutcome {
        let mut emitted = 0u64;
        let outcome = 'lease: {
            for &index in lease {
                let Some(mutant) = self.mutants.get(index) else {
                    continue;
                };
                if cancel.is_cancelled() || begin.as_mut().is_some_and(|begin| !begin(index)) {
                    break 'lease LeaseOutcome::Aborted;
                }
                let Ok(status) = catch_unwind(AssertUnwindSafe(|| self.classify(harness, mutant)))
                else {
                    harness.telemetry.incr("mutation.worker_crash");
                    emit(
                        index,
                        MutantStatus::Quarantined {
                            reason: QuarantineReason::WorkerCrash,
                        },
                    );
                    break 'lease LeaseOutcome::Crashed {
                        in_flight: None,
                        reason: QuarantineReason::WorkerCrash,
                        poisoned: false,
                        emitted: emitted + 1,
                    };
                };
                if cancel.is_cancelled() {
                    break 'lease LeaseOutcome::Aborted;
                }
                emit(index, status);
                emitted += 1;
            }
            LeaseOutcome::Drained
        };
        harness.switch.disarm();
        outcome
    }

    /// Classifies every unfinished mutant of `ledger` on one harness, on
    /// the calling thread. The harness is kept across contained crashes:
    /// each crash consumes (and quarantines) exactly one mutant, so the
    /// loop always progresses.
    pub(crate) fn run_inline(&self, harness: &Harness<'_>, ledger: &mut CampaignLedger) {
        let cancel = CancelToken::new();
        loop {
            let lease = ledger.unfinished();
            let outcome = self.run_lease(harness, &lease, &cancel, None, &mut |index, status| {
                ledger.merge(INLINE, index, status);
            });
            if !matches!(outcome, LeaseOutcome::Crashed { .. }) {
                return;
            }
        }
    }

    /// Runs one mutant through the suite (and, if it stays alive, the
    /// probe suites) and classifies it.
    fn classify(&self, harness: &Harness<'_>, mutant: &Mutant) -> MutantStatus {
        let Harness {
            factory,
            switch,
            runner,
            telemetry,
        } = *harness;
        let mutant_span = telemetry.span_with("mutant", || mutant.to_string());
        switch.arm(mutant.plan.clone());
        // Coverage-matrix selection: mutants with a feature view execute
        // only the cases that can reach the mutated method; the rest are
        // statically identical to golden and skipped.
        let scoped = self.view_of(mutant);
        let (scope_suite, scope_golden, scope_index) = match scoped {
            Some((view, indexes)) => (&view.suite, &view.golden, &indexes.golden),
            None => (self.suite, &self.baseline.golden, &self.golden_index),
        };
        if let Some((view, _)) = scoped {
            if view.skipped > 0 {
                telemetry.incr_by("selection.skipped", view.skipped);
            }
        }
        let observed = runner.run_suite_under(factory, scope_suite, mutant_span.id());
        // Harness stops describe the execution environment, not the
        // component's behaviour — quarantine before the kill classifier
        // so a timed-out mutant is never miscounted as a crash kill.
        let status = match quarantine_reason(
            scope_index,
            &observed,
            self.config.crash_quarantine_threshold,
        ) {
            Some(reason) => MutantStatus::Quarantined { reason },
            None => match first_difference(scope_golden, &observed) {
                Some((case_id, reason)) => MutantStatus::Killed {
                    reason,
                    by_case: case_id,
                },
                None => self.probe(factory, runner, telemetry, mutant, mutant_span.id()),
            },
        };
        mutant_span.finish();
        status
    }

    /// Re-attacks a mutant that survived the suite with the probe suites.
    /// The same quarantine-before-kill discipline applies here: a mutant
    /// that hangs or blows its budget only under probing yielded no
    /// behavioural verdict and lands in quarantine — previously its
    /// deadline-truncated transcript counted as a "difference" and the
    /// mutant was misfiled as `Survived`.
    fn probe(
        &self,
        factory: &dyn ComponentFactory,
        runner: &TestRunner,
        telemetry: &Telemetry,
        mutant: &Mutant,
        parent: SpanId,
    ) -> MutantStatus {
        // The probe phase gets its own span under the mutant, so the
        // attribution table can split first-suite time from re-attack
        // time.
        let probe_span = telemetry.at(parent).span("probe", mutant.method());
        let scoped = self.view_of(mutant);
        let (probes, probe_goldens, probe_indexes, probe_skipped) = match scoped {
            Some((view, indexes)) => (
                view.probes.as_slice(),
                view.probe_goldens.as_slice(),
                indexes.probes.as_slice(),
                Some(view.probe_skipped.as_slice()),
            ),
            None => (
                self.config.probe_suites.as_slice(),
                self.baseline.probes.as_slice(),
                self.probe_indexes.as_slice(),
                None,
            ),
        };
        for (probe_pos, ((probe, probe_golden), probe_index)) in probes
            .iter()
            .zip(probe_goldens.iter())
            .zip(probe_indexes.iter())
            .enumerate()
        {
            if let Some(skipped) = probe_skipped.and_then(|s| s.get(probe_pos)) {
                if *skipped > 0 {
                    telemetry.incr_by("selection.skipped", *skipped);
                }
            }
            let probed = runner.run_suite_under(factory, probe, probe_span.id());
            if let Some(reason) =
                quarantine_reason(probe_index, &probed, self.config.crash_quarantine_threshold)
            {
                return MutantStatus::Quarantined { reason };
            }
            if first_difference(probe_golden, &probed).is_some() {
                return MutantStatus::Survived;
            }
        }
        MutantStatus::PresumedEquivalent
    }
}

/// Builds the per-shard runner: BIT mode, telemetry, budget — and, when
/// the budget carries a deadline, that shard's own watchdog thread. The
/// runner adopts `switch`'s cancellation token: instrumented reads double
/// as cancellation points, so a watchdog deadline unwinds a hung mutant.
pub(crate) fn build_runner(
    config: &MutationConfig,
    telemetry: &Telemetry,
    switch: &MutationSwitch,
) -> TestRunner {
    let runner = if config.bit_enabled {
        TestRunner::new()
    } else {
        TestRunner::without_bit()
    };
    runner
        .with_telemetry(telemetry.clone())
        .with_budget(config.budget)
        .with_cancel_token(switch.cancel_token().clone())
}

/// Runs the golden suite and golden probe suites (switch disarmed — the
/// original program), records their case × feature coverage, and builds
/// the per-feature views when coverage selection is enabled.
pub(crate) fn run_golden(
    runner: &TestRunner,
    factory: &dyn ComponentFactory,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
    telemetry: &Telemetry,
) -> GoldenBaseline {
    let golden_span = telemetry.span("golden", factory.class_name());
    let (golden, coverage) =
        runner.run_suite_with_coverage_under(factory, suite, &mut TestLog::new(), golden_span.id());
    let mut probes = Vec::with_capacity(config.probe_suites.len());
    let mut probe_coverage = Vec::with_capacity(config.probe_suites.len());
    for probe in &config.probe_suites {
        let (result, matrix) = runner.run_suite_with_coverage_under(
            factory,
            probe,
            &mut TestLog::new(),
            golden_span.id(),
        );
        probes.push(result);
        probe_coverage.push(matrix);
    }
    golden_span.finish();
    let views = if config.coverage_selection {
        build_feature_views(
            suite,
            &golden,
            &config.probe_suites,
            &probes,
            &coverage,
            &probe_coverage,
            mutants,
        )
    } else {
        HashMap::new()
    };
    GoldenBaseline {
        golden,
        probes,
        coverage,
        views,
    }
}

/// Persists the golden run's coverage matrix next to the campaign
/// journal (`<journal>.coverage`), atomically, stamped with the campaign
/// fingerprint (`campaign <fp>` first line) so a stale sidecar left by a
/// previous campaign at the same path is detectable — see
/// [`load_campaign_coverage`]. Like every other durability consumer, a
/// write failure degrades instead of aborting the campaign — but loudly:
/// `harden.degraded` plus a dedicated `coverage.write_failed` counter
/// (surfaced in the harness-health table), and a `coverage.write_failed`
/// span naming the path and error in the flight recorder, so a silently
/// missing `.coverage` file can't masquerade as a healthy run.
pub(crate) fn persist_coverage(
    config: &MutationConfig,
    baseline: &GoldenBaseline,
    fingerprint: Option<u32>,
    telemetry: &Telemetry,
) {
    let Some(path) = &config.journal_path else {
        return;
    };
    let coverage_path = PathBuf::from(format!("{}.coverage", path.display()));
    let mut text = match fingerprint {
        Some(fp) => format!("campaign {fp:08x}\n"),
        None => String::new(),
    };
    text.push_str(&baseline.coverage.to_text());
    if let Err(error) = write_atomic(&coverage_path, text.as_bytes()) {
        telemetry.incr("harden.degraded");
        telemetry.incr("coverage.write_failed");
        telemetry
            .span_with("coverage.write_failed", || {
                format!("{}: {error}", coverage_path.display())
            })
            .finish();
    }
}

/// Loads a coverage sidecar persisted by a journaled campaign, validating
/// its provenance: the file's `campaign <fp>` stamp must match
/// `fingerprint`. A stamp mismatch — a stale sidecar left by a different
/// campaign at the same path — is refused rather than returned, and an
/// unstamped file (written before provenance stamping) is likewise
/// refused, so callers never mistake another campaign's matrix for this
/// one's.
///
/// # Errors
///
/// `Err` with a human-readable reason on read failure, a missing or
/// mismatched stamp, or a malformed matrix body.
pub fn load_campaign_coverage(
    path: impl AsRef<std::path::Path>,
    fingerprint: u32,
) -> Result<CoverageMatrix, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: read failed: {e}", path.display()))?;
    let Some((first, body)) = text.split_once('\n') else {
        return Err(format!("{}: empty coverage sidecar", path.display()));
    };
    let Some(stamp) = first.strip_prefix("campaign ") else {
        return Err(format!(
            "{}: missing `campaign <fingerprint>` stamp",
            path.display()
        ));
    };
    let stamped = u32::from_str_radix(stamp, 16)
        .map_err(|_| format!("{}: malformed fingerprint stamp {stamp:?}", path.display()))?;
    if stamped != fingerprint {
        return Err(format!(
            "{}: stale coverage sidecar (stamped {stamped:08x}, campaign is {fingerprint:08x})",
            path.display()
        ));
    }
    CoverageMatrix::from_text(body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs a full mutation analysis, sequentially.
///
/// `switch` must be the same [`MutationSwitch`] the factory's components
/// read through — arming it is how a mutant becomes "compiled in". This
/// is the reference oracle every other executor is differentially tested
/// against: one in-process lease over the campaign ledger, on the
/// caller's own factory/switch pair instead of per-worker ones — same
/// classifier, same merge, same verdicts.
///
/// # Examples
///
/// See the `concat-components` integration tests and the Table 2/3 benches
/// for end-to-end usage with real subjects.
pub fn run_mutation_analysis(
    factory: &dyn ComponentFactory,
    switch: &MutationSwitch,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> MutationRun {
    let _hook_guard = config.silence_panics.then(PanicSilencer::install);
    let run_span = config.telemetry.span("mutation", factory.class_name());
    // Everything inside the campaign emits through the scoped handle, so
    // golden/journal/mutant spans nest under the `mutation` root.
    let scoped = config.telemetry.at(run_span.id());
    let telemetry = &scoped;
    let mut ledger = CampaignLedger::open(
        factory.class_name(),
        suite,
        mutants,
        config,
        0,
        0,
        telemetry,
    );
    let runner = build_runner(config, telemetry, switch);
    switch.disarm();
    let baseline = run_golden(&runner, factory, suite, mutants, config, telemetry);
    persist_coverage(config, &baseline, ledger.fingerprint(), telemetry);
    let engine = Engine::new(suite, mutants, config, &baseline);
    let harness = Harness {
        factory,
        switch,
        runner: &runner,
        telemetry,
    };
    engine.run_inline(&harness, &mut ledger);
    ledger.heartbeat();
    ledger.finish(mutants, baseline.golden)
}

/// Runs a full mutation analysis across `config.workers` sharded workers.
///
/// Every worker owns its own component factory (built through the
/// [`ClonableFactory`] seam), [`MutationSwitch`], [`TestRunner`] and —
/// when the budget carries a deadline — watchdog thread and cancel token,
/// so a hanging mutant stalls only the worker that claimed it. Workers
/// lease mutant indices from one shared campaign ledger and merge results
/// back by enumeration index, which makes the output **byte-identical
/// for every worker count**: same verdict vector, same score, same
/// report tables.
///
/// The golden run and golden probe runs are computed once, up front, and
/// shared immutably. Each worker records telemetry into a private buffer
/// that is absorbed into `config.telemetry` in worker spawn order after
/// the pool retires ([`Telemetry::absorb`]), so counter totals and span
/// histograms aggregate across workers; a `mutation.workers` gauge records
/// the effective worker count.
///
/// # Supervision and durability
///
/// Each verdict is journaled (when `config.journal_path` is set) before
/// it is merged into its enumeration-order slot. A worker panic is
/// contained: the in-flight mutant is quarantined with
/// [`QuarantineReason::WorkerCrash`], and the worker rebuilds its harness
/// while the `config.worker_restarts` budget lasts — once exhausted the
/// campaign degrades to the surviving workers (and, if all are gone,
/// finishes inline on the calling thread) rather than aborting and
/// discarding partial results. Under [`IsolationMode::Process`] each
/// worker leases a slice of the queue to a child process instead (see
/// [`crate::run_shard_worker`]). On restart with the same journal path,
/// verified verdicts are replayed and only unfinished mutants re-execute;
/// the merged output stays byte-identical to an uninterrupted run.
pub fn run_mutation_analysis_parallel(
    shards: &dyn ClonableFactory,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> MutationRun {
    let _hook_guard = config.silence_panics.then(PanicSilencer::install);
    let run_span = config.telemetry.span("mutation", shards.class_name());
    let scoped = config.telemetry.at(run_span.id());
    let telemetry = &scoped;
    let workers = config.workers.clamp(1, mutants.len().max(1));
    let mut ledger = CampaignLedger::open(
        shards.class_name(),
        suite,
        mutants,
        config,
        workers,
        0,
        telemetry,
    );

    // Golden shard: the baseline is computed once and shared read-only.
    let golden_switch = MutationSwitch::new();
    let golden_factory = shards.build_factory(&golden_switch);
    let runner = build_runner(config, telemetry, &golden_switch);
    let baseline = run_golden(
        &runner,
        golden_factory.as_ref(),
        suite,
        mutants,
        config,
        telemetry,
    );
    persist_coverage(config, &baseline, ledger.fingerprint(), telemetry);
    // The gauge reflects the configured pool for the whole campaign (not
    // the post-replay remainder), so a resumed run renders the same
    // harness-health row as the uninterrupted one.
    telemetry.gauge("mutation.workers", workers as i64);
    let engine = Engine::new(suite, mutants, config, &baseline);

    // One private event buffer per worker, absorbed in spawn order after
    // the pool retires so the parent's event stream is reproducible.
    let mut sinks: Vec<Arc<MemorySink>> = Vec::new();
    if ledger.has_unleased_work() {
        // Thread workers lease one mutant at a time. A process worker
        // leases an equal share of the queue, so a fault-free campaign
        // spawns one child per worker.
        let process = match &config.isolation {
            IsolationMode::Process(spec) => Some((
                spec,
                campaign_fingerprint(shards.class_name(), suite, mutants, config),
            )),
            IsolationMode::InThread => None,
        };
        let lease_size = match process {
            Some(_) => ledger.unfinished().len().div_ceil(workers),
            None => 1,
        };
        let shared = Mutex::new(ledger);
        std::thread::scope(|scope| {
            for slot in 0..workers {
                let sink = telemetry.is_enabled().then(|| Arc::new(MemorySink::new()));
                sinks.extend(sink.clone());
                let (engine, shared) = (&engine, &shared);
                scope.spawn(move || {
                    let worker_telemetry = match sink {
                        Some(sink) => Telemetry::new(sink),
                        None => Telemetry::disabled(),
                    };
                    // The worker span roots this worker's private stream;
                    // absorb_under grafts it beneath the campaign span,
                    // and the trace exporter gives it its own track.
                    let worker_span = worker_telemetry.span_with("worker", || format!("w{slot}"));
                    let scoped = worker_telemetry.at(worker_span.id());
                    let cancel = CancelToken::new();
                    let mut merge = |index, status| {
                        lock(shared).merge(slot, index, status);
                    };
                    match process {
                        Some((spec, fingerprint)) => run_slot(slot, lease_size, shared, |lease| {
                            process_lease(spec, fingerprint, lease, &cancel, &scoped, &mut merge)
                        }),
                        None => {
                            // The harness is built once and rebuilt only
                            // after a contained crash left it suspect.
                            let switch = MutationSwitch::new();
                            let mut built = None;
                            run_slot(slot, lease_size, shared, |lease| {
                                if built.is_none() {
                                    built = build_harness(shards, config, &scoped, &switch);
                                }
                                let Some((factory, runner)) = &built else {
                                    return LeaseOutcome::SETUP_FAILED;
                                };
                                let harness = Harness {
                                    factory: factory.as_ref(),
                                    switch: &switch,
                                    runner,
                                    telemetry: &scoped,
                                };
                                let outcome =
                                    engine.run_lease(&harness, lease, &cancel, None, &mut merge);
                                if matches!(outcome, LeaseOutcome::Crashed { .. }) {
                                    built = None;
                                }
                                outcome
                            });
                        }
                    }
                    worker_span.finish();
                });
            }
        });
        ledger = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    }
    // Leftovers, when every worker retired early (restart budget spent,
    // a harness that never builds, a poisoned shard). Known process
    // killers are quarantined; the rest finish inline on this thread, on
    // the golden harness — partial results are never discarded.
    ledger.convict_blamed();
    let golden_harness = Harness {
        factory: golden_factory.as_ref(),
        switch: &golden_switch,
        runner: &runner,
        telemetry,
    };
    engine.run_inline(&golden_harness, &mut ledger);
    ledger.heartbeat();
    // The merge span covers absorbing the per-worker streams, grafted
    // under the campaign span so worker trees stay causal subtrees.
    let merge_span = telemetry.span("merge", shards.class_name());
    for sink in sinks {
        telemetry.absorb_under(&sink.events(), run_span.id());
    }
    merge_span.finish();
    ledger.finish(mutants, baseline.golden)
}

/// One solo worker's loop: lease from the shared ledger, run the lease,
/// book its end — until no work is left to lease or the ledger rules
/// this worker out (restart budget spent, harness failure).
fn run_slot(
    slot: usize,
    lease_size: usize,
    ledger: &Mutex<CampaignLedger>,
    mut run: impl FnMut(&[usize]) -> LeaseOutcome,
) {
    loop {
        let lease = lock(ledger).take_lease(lease_size);
        if lease.is_empty() {
            return;
        }
        let outcome = run(&lease);
        match lock(ledger).lease_ended(slot, &lease, &outcome) {
            Ruling::Continue(backoff) => {
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            Ruling::BudgetSpent | Ruling::HarnessFailure => return,
        }
    }
}

/// Locks the shared ledger. Nothing panics while holding it, but should
/// a poisoned lock ever appear, its verdicts are still the campaign's.
fn lock(ledger: &Mutex<CampaignLedger>) -> MutexGuard<'_, CampaignLedger> {
    ledger.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Decides whether an observed run must be quarantined: any harness stop
/// (deadline/budget) the golden run does not share, or — when a threshold
/// is configured — enough mutant-only crashes to look
/// environment-threatening. `golden` is the pre-built [`StatusIndex`] of
/// the matching golden run.
fn quarantine_reason(
    golden: &StatusIndex<'_>,
    observed: &SuiteResult,
    crash_threshold: Option<usize>,
) -> Option<QuarantineReason> {
    for case in &observed.cases {
        match &case.status {
            CaseStatus::DeadlineExceeded { .. }
                if !matches!(
                    golden.status(case.case_id),
                    Some(CaseStatus::DeadlineExceeded { .. })
                ) =>
            {
                return Some(QuarantineReason::Timeout);
            }
            CaseStatus::BudgetExhausted { .. }
                if !matches!(
                    golden.status(case.case_id),
                    Some(CaseStatus::BudgetExhausted { .. })
                ) =>
            {
                return Some(QuarantineReason::Budget);
            }
            _ => {}
        }
    }
    let threshold = crash_threshold?;
    let mutant_only_crashes = observed
        .cases
        .iter()
        .filter(|c| {
            matches!(c.status, CaseStatus::Panicked { .. })
                && !matches!(golden.status(c.case_id), Some(CaseStatus::Panicked { .. }))
        })
        .count();
    (threshold > 0 && mutant_only_crashes >= threshold).then_some(QuarantineReason::RepeatedCrash)
}

/// Finds the first distinguishing case and derives the kill reason per the
/// paper's three criteria. Stops at the first case whose transcript
/// differs; no divergence is rendered.
fn first_difference(golden: &SuiteResult, observed: &SuiteResult) -> Option<(usize, KillReason)> {
    let (g, o) = golden
        .cases
        .iter()
        .zip(&observed.cases)
        .find(|(g, o)| g.transcript != o.transcript)?;
    let case_id = g.case_id;
    let reason = match (&o.status, &g.status) {
        (CaseStatus::Panicked { .. }, _) => KillReason::Crash,
        (CaseStatus::AssertionViolated { .. }, CaseStatus::AssertionViolated { .. }) => {
            // Both runs violate an assertion but transcripts differ: the
            // distinguishing signal is the output, not the assertion.
            KillReason::OutputDiff
        }
        (CaseStatus::AssertionViolated { .. }, _) => KillReason::Assertion,
        _ => KillReason::OutputDiff,
    };
    Some((case_id, reason))
}

/// Installs a silent panic hook and restores the previous hook on drop.
///
/// Mutant executions are *expected* to panic (that is a kill signal);
/// without this, a Table-2 scale run prints thousands of backtraces.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

pub(crate) struct PanicSilencer {
    previous: Option<PanicHook>,
}

impl PanicSilencer {
    pub(crate) fn install() -> Self {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        PanicSilencer {
            previous: Some(previous),
        }
    }
}

impl Drop for PanicSilencer {
    fn drop(&mut self) {
        if let Some(prev) = self.previous.take() {
            std::panic::set_hook(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_mutants;
    use crate::fault::VarEnv;
    use crate::inventory::{ClassInventory, MethodInventory};
    use concat_bit::{BitControl, BuiltInTest, StateReport, TestableComponent};
    use concat_driver::{MethodCall, SuiteStats, TestCase};
    use concat_runtime::{
        args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
    };

    /// Accumulator with one instrumented method: `AddTwice(q)` adds `q`
    /// twice using a local `step` read through two sites.
    struct Acc {
        total: i64,
        limit: i64,
        ctl: BitControl,
        switch: MutationSwitch,
    }

    impl Component for Acc {
        fn class_name(&self) -> &'static str {
            "Acc"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["AddTwice", "Total", "~Acc"]
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            match m {
                "AddTwice" => {
                    let q = args::int(m, a, 0)?;
                    let step = q; // local L = {step}; G = {total, limit}
                    let (total, limit) = (self.total, self.limit);
                    let env = move || {
                        VarEnv::new()
                            .bind("step", step)
                            .bind("total", total)
                            .bind("limit", limit)
                    };
                    let s1 = self.switch.read_int("AddTwice", 0, "step", step, env);
                    self.total += s1;
                    let s2 = self.switch.read_int("AddTwice", 1, "step", step, env);
                    // Site 2 feeds an array index to provoke crashes on
                    // wild replacements.
                    let idx = self.switch.read_int("AddTwice", 2, "step", step, env);
                    let table = [0i64, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
                    let bonus = table[usize::try_from(idx).expect("index")];
                    self.total += s2 + bonus - bonus;
                    Ok(Value::Int(self.total))
                }
                "Total" => Ok(Value::Int(self.total)),
                "~Acc" => Ok(Value::Null),
                _ => Err(unknown_method(self.class_name(), m)),
            }
        }
    }

    impl BuiltInTest for Acc {
        fn bit_control(&self) -> &BitControl {
            &self.ctl
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            concat_bit::check(
                &self.ctl,
                concat_runtime::AssertionKind::Invariant,
                "Acc",
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
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Acc" => Ok(Box::new(Acc {
                    total: 0,
                    limit: 1_000,
                    ctl,
                    switch: self.switch.clone(),
                })),
                other => Err(unknown_method("Acc", other)),
            }
        }
    }

    fn inventory() -> ClassInventory {
        ClassInventory::new("Acc")
            .globals(["total", "limit"])
            .method(
                MethodInventory::new("AddTwice")
                    .locals(["step"])
                    .globals_used(["total", "limit"])
                    .site(0, "step", "first add")
                    .site(1, "step", "second add")
                    .site(2, "step", "table index"),
            )
    }

    fn suite(q: i64) -> TestSuite {
        TestSuite {
            class_name: "Acc".into(),
            seed: 0,
            cases: vec![TestCase {
                id: 0,
                transaction_index: 0,
                node_path: vec![],
                constructor: MethodCall::generated("m1", "Acc", vec![]),
                calls: vec![
                    MethodCall::generated("m2", "AddTwice", vec![Value::Int(q)]),
                    MethodCall::generated("m3", "Total", vec![]),
                    MethodCall::generated("m4", "~Acc", vec![]),
                ],
            }],
            stats: SuiteStats::default(),
        }
    }

    fn analyze(q: i64, probes: Vec<TestSuite>) -> MutationRun {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        run_mutation_analysis(
            &factory,
            &switch,
            &suite(q),
            &mutants,
            &MutationConfig {
                probe_suites: probes,
                ..MutationConfig::default()
            },
        )
    }

    #[test]
    fn most_mutants_die_with_a_distinguishing_input() {
        let run = analyze(5, vec![]);
        assert!(run.total() > 20);
        // With q = 5, replacing step by 0/1/-1/total/limit or negating it
        // changes the returned totals; MAXINT / MININT crash on the table
        // index.
        assert!(run.score() > 0.8, "score was {}", run.score());
        assert!(run.killed() + run.survived() + run.equivalent() == run.total());
    }

    #[test]
    fn crash_kills_detected() {
        let run = analyze(5, vec![]);
        let crash_kills = run
            .results
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    MutantStatus::Killed {
                        reason: KillReason::Crash,
                        ..
                    }
                )
            })
            .count();
        assert!(crash_kills > 0, "MAXINT/MININT table index must crash");
    }

    #[test]
    fn assertion_kills_detected() {
        // limit = 1000; replacing step with `limit` makes total exceed the
        // invariant bound after two adds.
        let run = analyze(5, vec![]);
        assert!(run.killed_by_assertion() > 0);
    }

    #[test]
    fn zero_input_leaves_equivalent_like_survivors() {
        // With q = 0, "replace step by 0" and "replace step by total(=0)"
        // are indistinguishable on this suite.
        let run = analyze(0, vec![]);
        assert!(run.equivalent() > 0);
        assert!(run.score() < 1.0 || run.equivalent() > 0);
    }

    #[test]
    fn probing_separates_survivors_from_equivalents() {
        // Suite with q = 0 leaves many alive; probing with q = 7
        // distinguishes the non-equivalent ones.
        let run_without = analyze(0, vec![]);
        let run_with = analyze(0, vec![suite(7)]);
        assert!(run_with.survived() > 0, "probe must expose genuine escapes");
        assert!(
            run_with.equivalent() < run_without.equivalent(),
            "probing must demote some presumed equivalents"
        );
    }

    #[test]
    fn score_formula() {
        let run = analyze(5, vec![]);
        let expected = run.killed() as f64 / (run.total() - run.equivalent()) as f64;
        assert!((run.score() - expected).abs() < 1e-12);
    }

    #[test]
    fn golden_suite_passes() {
        let run = analyze(5, vec![]);
        assert_eq!(run.golden.failed(), 0);
    }

    #[test]
    fn kill_reason_display() {
        assert_eq!(KillReason::Crash.to_string(), "crash");
        assert_eq!(KillReason::Assertion.to_string(), "assertion violation");
        assert_eq!(KillReason::OutputDiff.to_string(), "output difference");
        assert_eq!(QuarantineReason::Timeout.to_string(), "timeout");
        assert_eq!(QuarantineReason::Budget.to_string(), "budget");
        assert_eq!(
            QuarantineReason::RepeatedCrash.to_string(),
            "repeated crash"
        );
        assert_eq!(QuarantineReason::WorkerCrash.to_string(), "worker crash");
    }

    #[test]
    fn crash_threshold_quarantines_instead_of_killing() {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let run = run_mutation_analysis(
            &factory,
            &switch,
            &suite(5),
            &mutants,
            &MutationConfig {
                crash_quarantine_threshold: Some(1),
                ..MutationConfig::default()
            },
        );
        // Every crash-killing mutant (MAXINT/MININT table index) now lands
        // in quarantine instead.
        assert!(run.quarantined() > 0);
        let crash_kills = run
            .results
            .iter()
            .filter(|r| {
                matches!(
                    r.status,
                    MutantStatus::Killed {
                        reason: KillReason::Crash,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(crash_kills, 0);
        assert!(run
            .results
            .iter()
            .filter(|r| r.status.is_quarantined())
            .all(|r| r.status
                == MutantStatus::Quarantined {
                    reason: QuarantineReason::RepeatedCrash
                }));
        assert_eq!(
            run.killed() + run.survived() + run.equivalent() + run.quarantined(),
            run.total()
        );
        // Quarantined mutants leave the score denominator.
        let expected =
            run.killed() as f64 / (run.total() - run.equivalent() - run.quarantined()) as f64;
        assert!((run.score() - expected).abs() < 1e-12);
    }

    #[test]
    fn default_config_keeps_paper_semantics() {
        let run = analyze(5, vec![]);
        assert_eq!(
            run.quarantined(),
            0,
            "no budget, no threshold: no quarantine"
        );
    }

    #[test]
    fn switch_is_disarmed_after_analysis() {
        let switch = MutationSwitch::new();
        let factory = AccFactory {
            switch: switch.clone(),
        };
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let _ = run_mutation_analysis(
            &factory,
            &switch,
            &suite(3),
            &mutants,
            &MutationConfig::default(),
        );
        assert!(switch.armed().is_none());
    }

    /// The sharding seam for `Acc`: builds a fresh factory bound to the
    /// worker's own switch.
    struct AccShards;

    impl ClonableFactory for AccShards {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
            Box::new(AccFactory {
                switch: switch.clone(),
            })
        }
    }

    #[test]
    fn parallel_verdicts_match_sequential_for_every_worker_count() {
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let sequential = analyze(5, vec![suite(7)]);
        for workers in [1, 2, 8] {
            let run = run_mutation_analysis_parallel(
                &AccShards,
                &suite(5),
                &mutants,
                &MutationConfig {
                    workers,
                    probe_suites: vec![suite(7)],
                    ..MutationConfig::default()
                },
            );
            assert_eq!(
                run.results, sequential.results,
                "workers = {workers}: verdict vector must be byte-identical"
            );
            assert_eq!(run.score(), sequential.score(), "workers = {workers}");
            assert_eq!(run.golden.cases.len(), sequential.golden.cases.len());
        }
    }

    #[test]
    fn parallel_telemetry_aggregates_across_workers() {
        let sink = Arc::new(MemorySink::new());
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let run = run_mutation_analysis_parallel(
            &AccShards,
            &suite(5),
            &mutants,
            &MutationConfig {
                workers: 4,
                telemetry: Telemetry::new(sink.clone()),
                ..MutationConfig::default()
            },
        );
        // One "mutant" span per mutant, regardless of which worker ran it.
        assert_eq!(sink.span_count("mutant"), run.total());
        assert_eq!(sink.span_count("golden"), 1);
        assert_eq!(sink.gauge_value("mutation.workers"), Some(4));
        let classified = sink.counter_total("mutant.killed.crash")
            + sink.counter_total("mutant.killed.assertion")
            + sink.counter_total("mutant.killed.output_diff")
            + sink.counter_total("mutant.survived")
            + sink.counter_total("mutant.equivalent.presumed")
            + sink.counter_total("mutant.quarantined.timeout")
            + sink.counter_total("mutant.quarantined.budget")
            + sink.counter_total("mutant.quarantined.repeated_crash");
        assert_eq!(classified as usize, run.total());
    }

    /// `Acc` behind a reporter that panics when the accumulated total has
    /// gone negative. The reporter runs *outside* the runner's
    /// `catch_unwind` boundary, so a mutant driving the total negative
    /// (BitNeg/MININT on the add sites) takes the whole worker down —
    /// the crash-containment vehicle.
    struct GrenadeAcc {
        inner: Acc,
    }

    impl Component for GrenadeAcc {
        fn class_name(&self) -> &'static str {
            self.inner.class_name()
        }
        fn method_names(&self) -> Vec<&'static str> {
            self.inner.method_names()
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            self.inner.invoke(m, a)
        }
    }

    impl BuiltInTest for GrenadeAcc {
        fn bit_control(&self) -> &BitControl {
            self.inner.bit_control()
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            self.inner.invariant_test()
        }
        fn reporter(&self) -> StateReport {
            assert!(
                self.inner.total >= 0,
                "grenade reporter: total went negative"
            );
            self.inner.reporter()
        }
    }

    struct GrenadeFactory {
        switch: MutationSwitch,
    }

    impl ComponentFactory for GrenadeFactory {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Acc" => Ok(Box::new(GrenadeAcc {
                    inner: Acc {
                        total: 0,
                        limit: 1_000,
                        ctl,
                        switch: self.switch.clone(),
                    },
                })),
                other => Err(unknown_method("Acc", other)),
            }
        }
    }

    struct GrenadeShards;

    impl ClonableFactory for GrenadeShards {
        fn class_name(&self) -> &str {
            "Acc"
        }
        fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
            Box::new(GrenadeFactory {
                switch: switch.clone(),
            })
        }
    }

    /// Indices of the grenade run's worker-crash quarantines, after
    /// checking they exist and every other verdict matches the panic-free
    /// baseline.
    fn assert_contained(run: &MutationRun, baseline: &MutationRun) -> Vec<usize> {
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
        assert!(!crashed.is_empty(), "grenade mutants must crash a worker");
        assert_eq!(run.results.len(), baseline.results.len());
        for (index, (got, want)) in run.results.iter().zip(&baseline.results).enumerate() {
            if crashed.contains(&index) {
                continue;
            }
            assert_eq!(got, want, "non-crashing mutant {index} must be unaffected");
        }
        crashed
    }

    #[test]
    fn sequential_worker_crash_quarantines_only_inflight_mutant() {
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let baseline = analyze(5, vec![]);
        let switch = MutationSwitch::new();
        let factory = GrenadeFactory {
            switch: switch.clone(),
        };
        let sink = Arc::new(MemorySink::new());
        let run = run_mutation_analysis(
            &factory,
            &switch,
            &suite(5),
            &mutants,
            &MutationConfig {
                telemetry: Telemetry::new(sink.clone()),
                ..MutationConfig::default()
            },
        );
        let crashed = assert_contained(&run, &baseline);
        assert_eq!(
            sink.counter_total("mutation.worker_crash") as usize,
            crashed.len()
        );
        assert_eq!(
            sink.counter_total("mutant.quarantined.worker_crash") as usize,
            crashed.len()
        );
        assert!(switch.armed().is_none(), "switch disarmed after crashes");
    }

    #[test]
    fn parallel_worker_crashes_are_contained_and_respawned() {
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let baseline = analyze(5, vec![]);
        for workers in [1, 2, 4] {
            let sink = Arc::new(MemorySink::new());
            let run = run_mutation_analysis_parallel(
                &GrenadeShards,
                &suite(5),
                &mutants,
                &MutationConfig {
                    workers,
                    telemetry: Telemetry::new(sink.clone()),
                    ..MutationConfig::default()
                },
            );
            let crashed = assert_contained(&run, &baseline);
            assert_eq!(
                sink.counter_total("mutation.worker_crash") as usize,
                crashed.len(),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn exhausted_restart_budget_degrades_but_still_completes() {
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let baseline = analyze(5, vec![]);
        let run = run_mutation_analysis_parallel(
            &GrenadeShards,
            &suite(5),
            &mutants,
            &MutationConfig {
                workers: 2,
                worker_restarts: 0,
                ..MutationConfig::default()
            },
        );
        // No respawns: once both workers crash, the campaign finishes
        // inline on the calling thread — never aborting with partial
        // results discarded.
        assert_contained(&run, &baseline);
    }

    #[test]
    fn journaled_campaign_resumes_byte_identical() {
        let dir = std::env::temp_dir().join("concat-mutation-analysis-resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("acc.journal");
        let mutants = enumerate_mutants(&inventory(), &["AddTwice"]);
        let config = |sink: &Arc<MemorySink>| MutationConfig {
            workers: 2,
            journal_path: Some(path.clone()),
            telemetry: Telemetry::new(sink.clone()),
            ..MutationConfig::default()
        };
        let sink = Arc::new(MemorySink::new());
        let first = run_mutation_analysis_parallel(&AccShards, &suite(5), &mutants, &config(&sink));
        assert_eq!(sink.counter_total("mutation.replayed"), 0);

        // The journal now holds every verdict: a rerun replays them all
        // and produces a byte-identical run without re-executing mutants.
        let sink = Arc::new(MemorySink::new());
        let again = run_mutation_analysis_parallel(&AccShards, &suite(5), &mutants, &config(&sink));
        assert_eq!(again.results, first.results);
        assert_eq!(again.score(), first.score());
        assert_eq!(
            sink.counter_total("mutation.replayed") as usize,
            mutants.len()
        );
        assert_eq!(sink.gauge_value("mutation.workers"), Some(2));

        // A different campaign fingerprint (different suite) resets the
        // journal instead of replaying foreign verdicts.
        let sink = Arc::new(MemorySink::new());
        let other = run_mutation_analysis_parallel(&AccShards, &suite(7), &mutants, &config(&sink));
        assert_eq!(sink.counter_total("mutation.replayed"), 0);
        assert_eq!(other.total(), mutants.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Component whose instrumented site is reached only by `Spin`: the
    /// main suite exercises just `Idle`, so a spin-inducing mutant stays
    /// alive until the equivalence probes call `Spin`.
    struct Napper {
        ctl: BitControl,
        switch: MutationSwitch,
    }

    impl Component for Napper {
        fn class_name(&self) -> &'static str {
            "Napper"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["Idle", "Spin", "~Napper"]
        }
        fn invoke(&mut self, m: &str, _a: &[Value]) -> InvokeResult {
            match m {
                "Idle" => Ok(Value::Int(0)),
                "Spin" => {
                    let env = || VarEnv::new().bind("go", 1);
                    loop {
                        // The instrumented read is a cancellation point:
                        // a mutant forcing `go <= 0` loops here until the
                        // watchdog fires.
                        let go = self.switch.read_int("Spin", 0, "go", 1, env);
                        if go > 0 {
                            return Ok(Value::Int(go));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                "~Napper" => Ok(Value::Null),
                _ => Err(unknown_method(self.class_name(), m)),
            }
        }
    }

    impl BuiltInTest for Napper {
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

    struct NapperFactory {
        switch: MutationSwitch,
    }

    impl ComponentFactory for NapperFactory {
        fn class_name(&self) -> &str {
            "Napper"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Napper" => Ok(Box::new(Napper {
                    ctl,
                    switch: self.switch.clone(),
                })),
                other => Err(unknown_method("Napper", other)),
            }
        }
    }

    fn napper_suite(call: &str) -> TestSuite {
        TestSuite {
            class_name: "Napper".into(),
            seed: 0,
            cases: vec![TestCase {
                id: 0,
                transaction_index: 0,
                node_path: vec![],
                constructor: MethodCall::generated("m1", "Napper", vec![]),
                calls: vec![
                    MethodCall::generated("m2", call, vec![]),
                    MethodCall::generated("m3", "~Napper", vec![]),
                ],
            }],
            stats: SuiteStats::default(),
        }
    }

    #[test]
    fn mutant_hanging_only_under_probes_is_quarantined_not_survived() {
        let switch = MutationSwitch::new();
        let factory = NapperFactory {
            switch: switch.clone(),
        };
        let inventory = ClassInventory::new("Napper").method(
            MethodInventory::new("Spin")
                .locals(["go"])
                .site(0, "go", "loop guard"),
        );
        let mutants = enumerate_mutants(&inventory, &["Spin"]);
        let run = run_mutation_analysis(
            &factory,
            &switch,
            &napper_suite("Idle"),
            &mutants,
            &MutationConfig {
                probe_suites: vec![napper_suite("Spin")],
                budget: Budget::unlimited().with_deadline(std::time::Duration::from_millis(100)),
                ..MutationConfig::default()
            },
        );
        // The main suite never reaches the instrumented site, so every
        // mutant reaches the probe phase; the ones forcing `go <= 0` hang
        // there. Those hangs are harness stops, not behavioural evidence:
        // they must land in quarantine, not be misfiled as `Survived`
        // because the deadline truncated the probe transcript.
        assert!(
            run.quarantined() > 0,
            "probe-phase hangs must be quarantined: {:?}",
            run.results
        );
        for result in &run.results {
            if result.status.is_quarantined() {
                assert_eq!(
                    result.status,
                    MutantStatus::Quarantined {
                        reason: QuarantineReason::Timeout
                    }
                );
            }
        }
        // Before the fix every hang above was misfiled as `Survived`; the
        // genuine survivors (e.g. `go -> MAXINT`, which exits with a
        // different return value) are the only ones allowed to remain.
        assert!(
            run.quarantined() >= 2,
            "both `go -> 0` and `go -> -1` hang under probing: {:?}",
            run.results
        );
    }
}
