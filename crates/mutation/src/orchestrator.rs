//! Fault-tolerant campaign orchestration: many campaigns, one supervised
//! scheduler.
//!
//! [`run_mutation_analysis_parallel`](crate::run_mutation_analysis_parallel)
//! runs *one* campaign to completion and returns. A component vendor
//! qualifying a family of self-testable components runs many campaigns at
//! once, and must not let one pathological subject starve, corrupt, or
//! take down the rest. The [`Orchestrator`] is the layer above the
//! per-campaign machinery: a long-running service owning a global fleet
//! of slot workers that multiplexes mutants from every active campaign.
//!
//! * **Queue** — [`Orchestrator::submit`] / [`Orchestrator::status`] /
//!   [`Orchestrator::cancel`] / [`Orchestrator::list`]. Each submitted
//!   [`CampaignRequest`] carries its own [`MutationConfig`] (budget,
//!   journal path, isolation), a priority, and an optional campaign-level
//!   mutant budget. Admission is bounded: a full queue rejects with
//!   [`SubmitError::QueueFull`] instead of growing without limit.
//! * **Scheduler** — work-stealing over fleet slots: any free slot takes
//!   a lease of mutants from any runnable campaign. Fairness is
//!   starvation-free by aging (a campaign passed over gains effective
//!   priority each round), so a low-priority campaign always progresses.
//! * **Isolation of failure** — a crashed or hung lease costs its owning
//!   campaign exactly the in-flight mutant (the retry-once-then-quarantine
//!   ladder of the process shards), a cancelled campaign tears down
//!   cleanly with its journal flushed (resumable via the incremental
//!   path), budget exhaustion degrades only its own campaign to
//!   [`DegradeReason::BudgetExhausted`], and cancelling the service-level
//!   [`CancelToken`] (see [`Orchestrator::service_token`]) checkpoints
//!   every campaign's journal — every verdict is write-ahead fsynced, so
//!   resubmitting after a crash replays finished verdicts and re-executes
//!   only unfinished mutants.
//!
//! The non-negotiable invariant: every campaign's verdicts, score, and
//! report are **byte-identical** to running that campaign alone, for any
//! interleaving, fleet size, and cancel/crash schedule of its neighbors.
//! The mechanism is the same as the worker pool's: verdicts are
//! deterministic per mutant, merged by enumeration index, and a verdict
//! is only merged while its campaign is healthy — a draining campaign
//! discards late verdicts so its journal holds exactly the verified
//! prefix a resume replays.

use crate::analysis::{
    build_runner, campaign_heartbeat, collect_slots, finish_run, flag_restart_exhaustion,
    persist_coverage, record_status, replay_slots, Engine, GoldenBaseline, JournalState,
    MutantResult, MutantStatus, MutationConfig, MutationRun, PanicSilencer, ProcessIsolation,
    QuarantineReason, HEARTBEAT_INTERVAL, SUPERVISOR_POLL,
};
use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use crate::journal::campaign_fingerprint;
use crate::shard::{
    death_reason, parse_frame, ShardFrame, SHARD_FINGERPRINT_ENV, SHARD_INDICES_ENV,
};
use concat_driver::{SuiteResult, TestSuite};
use concat_obs::{Event, MemorySink, Span, Telemetry};
use concat_runtime::{
    classify_exit, terminate_child, wait_with_deadline, CancelToken, ExitClass, FrameDecoder,
    Liveness, Rng,
};
use std::collections::HashMap;
use std::fmt;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Stdio;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-slot supervision deadlines, configurable per campaign so one
/// slow-starting subject is not falsely convicted `ShardUnresponsive` by
/// deadlines tuned for its faster neighbors. Defaults mirror
/// [`ProcessIsolation::new`]; a campaign whose config carries a process
/// isolation spec inherits that spec's deadlines unless
/// [`CampaignRequest::slot`] overrides them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotConfig {
    /// First-frame deadline for a process lease: spawn plus the shard's
    /// own golden run.
    pub startup_grace: Duration,
    /// Steady-state heartbeat deadline: a shard silent for this long gets
    /// the SIGTERM→SIGKILL ladder.
    pub heartbeat_timeout: Duration,
    /// How long the SIGTERM rung waits before SIGKILL.
    pub term_grace: Duration,
}

impl Default for SlotConfig {
    fn default() -> Self {
        SlotConfig {
            startup_grace: Duration::from_secs(30),
            heartbeat_timeout: Duration::from_secs(10),
            term_grace: Duration::from_millis(500),
        }
    }
}

impl SlotConfig {
    /// The effective per-campaign deadlines: an explicit override wins,
    /// else a process-isolated campaign inherits its spec's deadlines,
    /// else the defaults.
    fn effective(explicit: Option<SlotConfig>, config: &MutationConfig) -> SlotConfig {
        if let Some(cfg) = explicit {
            return cfg;
        }
        match &config.isolation {
            crate::analysis::IsolationMode::Process(spec) => SlotConfig {
                startup_grace: spec.startup_grace,
                heartbeat_timeout: spec.heartbeat_timeout,
                term_grace: spec.term_grace,
            },
            crate::analysis::IsolationMode::InThread => SlotConfig::default(),
        }
    }
}

/// Configuration of the orchestration service.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Fleet size: how many slot workers lease mutants concurrently.
    pub slots: usize,
    /// Admission bound: the maximum number of non-terminal campaigns;
    /// submits past it are rejected with [`SubmitError::QueueFull`].
    pub capacity: usize,
    /// Mutants handed out per lease. Small leases interleave campaigns
    /// finely (better fairness); large leases amortize per-lease setup —
    /// in particular a process lease pays one shard golden run.
    pub lease_size: usize,
    /// Fleet-level telemetry: `orchestrator.*` counters and the
    /// `orchestrator.progress` snapshot. Per-campaign telemetry lives on
    /// each request's [`MutationConfig::telemetry`]. Disabled by default.
    pub telemetry: Telemetry,
    /// Install a process-global silent panic hook for the service's
    /// lifetime (mutant panics are expected kill signals, not noise).
    pub silence_panics: bool,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            slots: 2,
            capacity: 16,
            lease_size: 8,
            telemetry: Telemetry::disabled(),
            silence_panics: true,
        }
    }
}

/// Opaque campaign handle returned by [`Orchestrator::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(u64);

impl CampaignId {
    /// The numeric id (stable within one service instance, in submit
    /// order).
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One campaign submitted to the service: the same inputs
/// [`run_mutation_analysis_parallel`](crate::run_mutation_analysis_parallel)
/// takes, plus scheduling metadata.
pub struct CampaignRequest {
    /// Human-readable campaign name (status listings, the demo server's
    /// manifest). Not required to be unique — [`CampaignId`] is.
    pub name: String,
    /// The factory seam the per-lease workers build their components
    /// through.
    pub shards: Arc<dyn ClonableFactory>,
    /// The generated test suite under measurement.
    pub suite: TestSuite,
    /// The enumerated mutants.
    pub mutants: Vec<Mutant>,
    /// Per-campaign configuration: budget, journal path, probe suites,
    /// isolation mode (thread or process leases), incremental resume.
    /// `config.workers` is ignored — the fleet owns parallelism.
    pub config: MutationConfig,
    /// Scheduling priority (higher runs first); aging guarantees lower
    /// priorities still progress.
    pub priority: u8,
    /// Campaign-level execution budget: at most this many mutants are
    /// *executed* (journal-replayed verdicts are free). Exhaustion
    /// degrades this campaign — and only this campaign — to
    /// [`DegradeReason::BudgetExhausted`]; unfinished mutants stay
    /// unfinished in the journal, so a resubmit with a bigger budget
    /// resumes where it stopped.
    pub mutant_budget: Option<u64>,
    /// Per-campaign slot deadlines; `None` derives them from the config
    /// (see [`SlotConfig::effective`]).
    pub slot: Option<SlotConfig>,
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded campaign queue is full; retry after a campaign
    /// finishes.
    QueueFull {
        /// The configured admission bound.
        capacity: usize,
    },
    /// The service has shut down (or its supervisor died).
    ServiceStopped,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "campaign queue full (capacity {capacity})")
            }
            SubmitError::ServiceStopped => write!(f, "orchestrator stopped"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a campaign degraded instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The campaign's own [`CampaignRequest::mutant_budget`] ran out with
    /// unfinished mutants left.
    BudgetExhausted,
    /// The campaign's harness is unusable: its golden baseline panicked,
    /// its shard workers rebuild a different campaign (fingerprint
    /// mismatch), or its leases die repeatedly without any progress.
    HarnessFailure,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::BudgetExhausted => write!(f, "budget-exhausted"),
            DegradeReason::HarnessFailure => write!(f, "harness-failure"),
        }
    }
}

/// Lifecycle of a campaign inside the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPhase {
    /// Admitted, waiting for a slot to run its golden baseline.
    Queued,
    /// A slot is computing the golden baseline.
    Preparing,
    /// Leases are being scheduled.
    Running,
    /// A terminal decision was made (cancel, budget, degrade); waiting
    /// for in-flight leases to stand down. Verdicts arriving now are
    /// discarded — the journal keeps exactly the verified prefix.
    Draining,
    /// All mutants have verdicts; the final [`MutationRun`] is available
    /// through [`Orchestrator::wait`].
    Completed,
    /// Cancelled (explicitly or by service shutdown). The journal is
    /// flushed; resubmitting the same campaign resumes it.
    Cancelled,
    /// Degraded: see [`DegradeReason`].
    Degraded(DegradeReason),
}

impl CampaignPhase {
    /// True once the campaign reached a terminal phase.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignPhase::Completed | CampaignPhase::Cancelled | CampaignPhase::Degraded(_)
        )
    }
}

impl fmt::Display for CampaignPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignPhase::Queued => write!(f, "queued"),
            CampaignPhase::Preparing => write!(f, "preparing"),
            CampaignPhase::Running => write!(f, "running"),
            CampaignPhase::Draining => write!(f, "draining"),
            CampaignPhase::Completed => write!(f, "completed"),
            CampaignPhase::Cancelled => write!(f, "cancelled"),
            CampaignPhase::Degraded(reason) => write!(f, "degraded({reason})"),
        }
    }
}

/// A point-in-time view of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// The campaign's id.
    pub id: CampaignId,
    /// The submitted name.
    pub name: String,
    /// Current lifecycle phase.
    pub phase: CampaignPhase,
    /// Mutants with a merged verdict (executed, replayed, or convicted).
    pub done: usize,
    /// Total mutants in the campaign.
    pub total: usize,
    /// Verdicts obtained by execution in this service instance.
    pub executed: u64,
    /// Verdicts replayed from the journal at admission.
    pub replayed: u64,
    /// The submitted priority.
    pub priority: u8,
    /// The effective per-slot deadlines this campaign's leases run under
    /// (surfaced in the fleet harness-health table).
    pub slot: SlotConfig,
}

/// How a campaign ended.
#[derive(Debug, Clone)]
pub enum CampaignEnd {
    /// Every mutant has a verdict; the run is byte-identical to a solo
    /// run of the same campaign.
    Completed(Box<MutationRun>),
    /// Cancelled; the journal holds the verified prefix for a resume.
    Cancelled,
    /// Degraded; `partial` holds the verdicts obtained so far (unfinished
    /// mutants appear as `WorkerCrash` quarantines, the fail-safe the
    /// slot merge uses).
    Degraded {
        /// Why the campaign degraded.
        reason: DegradeReason,
        /// Verdicts merged before the degrade decision.
        partial: Box<MutationRun>,
    },
}

/// Terminal report for one campaign, returned by [`Orchestrator::wait`].
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The campaign's id.
    pub id: CampaignId,
    /// The submitted name.
    pub name: String,
    /// How it ended.
    pub end: CampaignEnd,
}

// ---------------------------------------------------------------------
// Internal wiring
// ---------------------------------------------------------------------

/// Immutable campaign inputs shared with lease threads.
struct CampaignData {
    id: CampaignId,
    shards: Arc<dyn ClonableFactory>,
    suite: TestSuite,
    mutants: Vec<Mutant>,
    config: MutationConfig,
    /// Child of the service token: cancelling the service cancels every
    /// campaign; cancelling this campaign never touches the fleet.
    token: CancelToken,
}

/// Campaign inputs plus the prepared golden baseline, shared read-only
/// with every subsequent lease.
struct CampaignRuntime {
    data: Arc<CampaignData>,
    baseline: GoldenBaseline,
    fingerprint: u32,
}

/// Client → supervisor commands.
enum Command {
    Submit(
        Box<CampaignRequest>,
        mpsc::Sender<Result<CampaignId, SubmitError>>,
    ),
    Cancel(CampaignId, mpsc::Sender<bool>),
    Status(CampaignId, mpsc::Sender<Option<CampaignStatus>>),
    List(mpsc::Sender<Vec<CampaignStatus>>),
    Wait(CampaignId, mpsc::Sender<Option<CampaignOutcome>>),
    Shutdown(mpsc::Sender<Vec<CampaignStatus>>),
}

/// How one lease ended, from the slot's point of view.
enum LeaseOutcome {
    /// Every leased mutant got a verdict.
    Drained,
    /// The campaign (or service) token cancelled the lease; unemitted
    /// verdicts were discarded.
    Aborted,
    /// The lease died: a thread lease's harness panicked, or a process
    /// lease's shard exited with work left.
    Crashed {
        /// The mutant named by the last `shard-begin` without a verdict —
        /// the one the death is blamed on (process leases only; thread
        /// leases emit the quarantine verdict themselves).
        in_flight: Option<usize>,
        /// The quarantine reason a repeated death convicts with.
        reason: QuarantineReason,
        /// The shard rebuilt a different campaign (hello fingerprint
        /// mismatch) — deterministic on retry, so the campaign degrades.
        poisoned: bool,
        /// Verdicts emitted before the death (progress signal for the
        /// futility guard).
        emitted: u64,
    },
}

/// Everything the supervisor receives: commands and slot events, one
/// channel so per-slot FIFO ordering (verdicts before lease end) holds.
enum Msg {
    Cmd(Command),
    Prepared {
        slot: usize,
        id: CampaignId,
        baseline: Option<Box<GoldenBaseline>>,
        events: Vec<Event>,
    },
    Verdict {
        slot: usize,
        id: CampaignId,
        index: usize,
        status: MutantStatus,
    },
    LeaseEnded {
        slot: usize,
        id: CampaignId,
        outcome: LeaseOutcome,
        events: Vec<Event>,
    },
}

/// Supervisor → slot worker commands.
enum SlotCmd {
    Prepare {
        data: Arc<CampaignData>,
    },
    ThreadLease {
        rt: Arc<CampaignRuntime>,
        indices: Vec<usize>,
    },
    ProcessLease {
        rt: Arc<CampaignRuntime>,
        indices: Vec<usize>,
        spec: ProcessIsolation,
        slot_cfg: SlotConfig,
    },
    Shutdown,
}

/// Supervisor-side state of one campaign.
struct Campaign {
    data: Arc<CampaignData>,
    name: String,
    priority: u8,
    mutant_budget: Option<u64>,
    slot_cfg: SlotConfig,
    spec: Option<ProcessIsolation>,
    phase: CampaignPhase,
    rt: Option<Arc<CampaignRuntime>>,
    journal: Option<JournalState>,
    slots: Vec<Option<MutantResult>>,
    leased: Vec<bool>,
    deaths: HashMap<usize, u32>,
    executed: u64,
    replayed: u64,
    crashes: u64,
    /// Consecutive leases that died without emitting a verdict or
    /// charging an in-flight mutant — the signature of a harness that
    /// will never progress.
    futile: u32,
    exhaustion_flagged: bool,
    active_leases: usize,
    /// Crash backoff: no new lease for this campaign before this instant.
    next_lease_at: Instant,
    backoff_rng: Rng,
    respawns: u32,
    /// Scheduling rounds this campaign was runnable but passed over;
    /// added to priority so nobody starves.
    starved: u32,
    /// The terminal phase to enter once in-flight leases stand down.
    pending_end: Option<CampaignPhase>,
    outcome: Option<CampaignOutcome>,
    waiters: Vec<mpsc::Sender<Option<CampaignOutcome>>>,
    /// Campaign root span on the campaign's own telemetry; lease event
    /// streams are grafted under it.
    root: Option<Span>,
    /// Campaign telemetry scoped at the root span.
    telemetry: Telemetry,
    done_by_slot: Vec<u64>,
    last_beat: Instant,
}

impl Campaign {
    fn done(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn unfinished(&self) -> usize {
        self.slots.len() - self.done()
    }

    fn status(&self) -> CampaignStatus {
        CampaignStatus {
            id: self.data.id,
            name: self.name.clone(),
            phase: self.phase,
            done: self.done(),
            total: self.slots.len(),
            executed: self.executed,
            replayed: self.replayed,
            priority: self.priority,
            slot: self.slot_cfg,
        }
    }

    /// True when the scheduler may hand this campaign a lease now.
    fn runnable(&self, now: Instant) -> bool {
        self.phase == CampaignPhase::Running
            && !self.data.token.is_cancelled()
            && now >= self.next_lease_at
            && self
                .slots
                .iter()
                .zip(self.leased.iter())
                .any(|(slot, leased)| slot.is_none() && !leased)
    }

    /// The next `lease_size` unfinished, unleased mutant indices.
    fn take_lease(&mut self, lease_size: usize) -> Vec<usize> {
        let mut indices = Vec::with_capacity(lease_size);
        for index in 0..self.slots.len() {
            if self.slots[index].is_none() && !self.leased[index] {
                self.leased[index] = true;
                indices.push(index);
                if indices.len() == lease_size {
                    break;
                }
            }
        }
        indices
    }
}

// ---------------------------------------------------------------------
// Slot workers
// ---------------------------------------------------------------------

/// A slot worker's main loop: block for a command, run it, report back.
/// The worker thread is persistent — lease bodies run under
/// `catch_unwind`, so no campaign can cost the fleet a slot.
fn slot_main(slot: usize, rx: mpsc::Receiver<SlotCmd>, tx: mpsc::Sender<Msg>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            SlotCmd::Prepare { data } => {
                let (sink, telemetry) = lease_telemetry(&data.config.telemetry);
                let id = data.id;
                let baseline = catch_unwind(AssertUnwindSafe(|| {
                    let switch = MutationSwitch::with_cancel_token(data.token.child());
                    let factory = data.shards.build_factory(&switch);
                    let runner = build_runner(&data.config, &telemetry, &switch);
                    crate::analysis::run_golden(
                        &runner,
                        factory.as_ref(),
                        &data.suite,
                        &data.mutants,
                        &data.config,
                        &telemetry,
                    )
                }))
                .ok()
                .map(Box::new);
                let events = sink.map(|s| s.events()).unwrap_or_default();
                if tx
                    .send(Msg::Prepared {
                        slot,
                        id,
                        baseline,
                        events,
                    })
                    .is_err()
                {
                    return;
                }
            }
            SlotCmd::ThreadLease { rt, indices } => {
                let (sink, telemetry) = lease_telemetry(&rt.data.config.telemetry);
                let id = rt.data.id;
                let outcome = thread_lease(slot, &rt, &indices, &telemetry, &tx);
                let events = sink.map(|s| s.events()).unwrap_or_default();
                if tx
                    .send(Msg::LeaseEnded {
                        slot,
                        id,
                        outcome,
                        events,
                    })
                    .is_err()
                {
                    return;
                }
            }
            SlotCmd::ProcessLease {
                rt,
                indices,
                spec,
                slot_cfg,
            } => {
                let (sink, telemetry) = lease_telemetry(&rt.data.config.telemetry);
                let id = rt.data.id;
                let outcome = process_lease(slot, &rt, &indices, &spec, slot_cfg, &telemetry, &tx);
                let events = sink.map(|s| s.events()).unwrap_or_default();
                if tx
                    .send(Msg::LeaseEnded {
                        slot,
                        id,
                        outcome,
                        events,
                    })
                    .is_err()
                {
                    return;
                }
            }
            SlotCmd::Shutdown => return,
        }
    }
}

/// A private event buffer for one lease, absorbed under the campaign
/// root after the lease ends — disabled campaigns pay nothing.
fn lease_telemetry(campaign: &Telemetry) -> (Option<Arc<MemorySink>>, Telemetry) {
    if campaign.is_enabled() {
        let sink = Arc::new(MemorySink::new());
        let telemetry = Telemetry::new(sink.clone());
        (Some(sink), telemetry)
    } else {
        (None, Telemetry::disabled())
    }
}

/// One in-thread lease: build a private factory/switch/runner (the same
/// trio a pool worker owns), classify each leased mutant, stream verdicts
/// to the supervisor. The switch's token, which the runner adopts, is a
/// child of the campaign token, so campaign or service cancellation
/// interrupts the in-flight case like a watchdog deadline — and a
/// verdict finished *after* the cancellation is discarded, never merged,
/// because a case interrupted mid-flight classifies differently than a
/// solo run would.
fn thread_lease(
    slot: usize,
    rt: &Arc<CampaignRuntime>,
    indices: &[usize],
    telemetry: &Telemetry,
    tx: &mpsc::Sender<Msg>,
) -> LeaseOutcome {
    let data = &rt.data;
    let token = &data.token;
    let lease_span = telemetry.span_with("lease", || format!("{} thread", data.id));
    let scoped = telemetry.at(lease_span.id());
    let setup = catch_unwind(AssertUnwindSafe(|| {
        let switch = MutationSwitch::with_cancel_token(token.child());
        let factory = data.shards.build_factory(&switch);
        let runner = build_runner(&data.config, &scoped, &switch);
        (switch, factory, runner)
    }));
    let Ok((switch, factory, runner)) = setup else {
        scoped.incr("mutation.worker_crash");
        return LeaseOutcome::Crashed {
            in_flight: None,
            reason: QuarantineReason::WorkerCrash,
            poisoned: false,
            emitted: 0,
        };
    };
    let engine = Engine::new(
        &data.suite,
        &data.mutants,
        &data.config,
        &rt.baseline,
        vec![false; data.mutants.len()],
    );
    let mut emitted = 0u64;
    for &index in indices {
        if token.is_cancelled() {
            return LeaseOutcome::Aborted;
        }
        let Some(mutant) = data.mutants.get(index) else {
            continue;
        };
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            engine.classify(factory.as_ref(), &switch, &runner, &scoped, mutant)
        }));
        match verdict {
            Ok(status) => {
                if token.is_cancelled() {
                    // The cancellation raced the classification: the
                    // verdict may reflect an interrupted case. Discard it
                    // — the mutant stays unfinished and re-executes on
                    // resume, keeping the journal byte-identical to a
                    // solo run's prefix.
                    return LeaseOutcome::Aborted;
                }
                let _ = tx.send(Msg::Verdict {
                    slot,
                    id: data.id,
                    index,
                    status,
                });
                emitted += 1;
            }
            Err(_panic) => {
                // Same contract as the pool worker's drain: the panicking
                // mutant is quarantined as WorkerCrash (its verdict in a
                // solo run too), and the lease retires so the supervisor
                // can decide what the crash cost.
                scoped.incr("mutation.worker_crash");
                let _ = tx.send(Msg::Verdict {
                    slot,
                    id: data.id,
                    index,
                    status: MutantStatus::Quarantined {
                        reason: QuarantineReason::WorkerCrash,
                    },
                });
                return LeaseOutcome::Crashed {
                    in_flight: None,
                    reason: QuarantineReason::WorkerCrash,
                    poisoned: false,
                    emitted: emitted + 1,
                };
            }
        }
    }
    switch.disarm();
    LeaseOutcome::Drained
}

/// What a process lease's reader thread reports.
enum PipeEvent {
    Frame(String),
    Eof { dropped: u64, torn: bool },
}

/// One process-isolated lease: spawn a shard worker (a self-exec of the
/// current binary, exactly like [`crate::run_shard_worker`]'s supervisor
/// half), hand it the leased indices, and relay its verdict frames.
/// Liveness runs under the *campaign's* [`SlotConfig`] deadlines, so a
/// slow-starting subject is judged by its own grace, not its neighbors'.
fn process_lease(
    slot: usize,
    rt: &Arc<CampaignRuntime>,
    indices: &[usize],
    spec: &ProcessIsolation,
    slot_cfg: SlotConfig,
    telemetry: &Telemetry,
    tx: &mpsc::Sender<Msg>,
) -> LeaseOutcome {
    let data = &rt.data;
    let token = &data.token;
    let lease_span = telemetry.span_with("lease", || format!("{} process", data.id));
    let scoped = telemetry.at(lease_span.id());
    let crash = |reason| LeaseOutcome::Crashed {
        in_flight: None,
        reason,
        poisoned: false,
        emitted: 0,
    };
    let Ok(exe) = std::env::current_exe() else {
        scoped.incr("harden.degraded");
        return crash(QuarantineReason::WorkerCrash);
    };
    let csv = indices
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut command = std::process::Command::new(exe);
    command
        .args(&spec.worker_args)
        .env(SHARD_INDICES_ENV, csv)
        .env(SHARD_FINGERPRINT_ENV, format!("{:08x}", rt.fingerprint))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (key, value) in &spec.worker_env {
        command.env(key, value);
    }
    let Ok(mut child) = command.spawn() else {
        scoped.incr("harden.degraded");
        return crash(QuarantineReason::WorkerCrash);
    };
    let Some(stdout) = child.stdout.take() else {
        let _ = terminate_child(&mut child, slot_cfg.term_grace);
        scoped.incr("harden.degraded");
        return crash(QuarantineReason::WorkerCrash);
    };
    let (ptx, prx) = mpsc::channel::<PipeEvent>();
    let reader = std::thread::spawn(move || {
        let mut stdout = stdout;
        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stdout.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    for payload in decoder.push(&chunk[..n]) {
                        if ptx.send(PipeEvent::Frame(payload)).is_err() {
                            return;
                        }
                    }
                }
            }
        }
        let _ = ptx.send(PipeEvent::Eof {
            dropped: decoder.dropped(),
            torn: decoder.pending_bytes() > 0,
        });
    });

    let mut liveness = Liveness::new(slot_cfg.startup_grace, slot_cfg.heartbeat_timeout);
    let mut in_flight: Option<usize> = None;
    let mut killed_unresponsive = false;
    let mut poisoned = false;
    let mut aborted = false;
    let mut emitted = 0u64;
    loop {
        match prx.recv_timeout(Duration::from_millis(50)) {
            Ok(PipeEvent::Frame(payload)) => {
                liveness.beat();
                match parse_frame(&payload) {
                    ShardFrame::Hello(fp) if fp == rt.fingerprint => {}
                    ShardFrame::Hello(_) => {
                        // The worker rebuilt a different campaign — a
                        // config bug, deterministic on retry. Degrade
                        // this campaign; the fleet is unaffected.
                        poisoned = true;
                        scoped.incr("harden.degraded");
                        let _ = terminate_child(&mut child, slot_cfg.term_grace);
                    }
                    ShardFrame::Begin(index) => in_flight = Some(index),
                    ShardFrame::Verdict(index, status) => {
                        if !token.is_cancelled() {
                            let _ = tx.send(Msg::Verdict {
                                slot,
                                id: data.id,
                                index,
                                status,
                            });
                            emitted += 1;
                        }
                        if in_flight == Some(index) {
                            in_flight = None;
                        }
                    }
                    ShardFrame::Done | ShardFrame::Foreign => {}
                }
            }
            Ok(PipeEvent::Eof { dropped, torn }) => {
                let torn_frames = dropped + u64::from(torn);
                if torn_frames > 0 {
                    scoped.incr_by("mutation.frames_dropped", torn_frames);
                }
                break;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if token.is_cancelled() && !aborted {
            aborted = true;
            let _ = terminate_child(&mut child, slot_cfg.term_grace);
        }
        if !killed_unresponsive && !aborted && liveness.expired() {
            killed_unresponsive = true;
            scoped.incr("mutation.shard_kill");
            let _ = terminate_child(&mut child, slot_cfg.term_grace);
        }
    }
    let _ = reader.join();
    let class = match wait_with_deadline(&mut child, slot_cfg.term_grace) {
        Ok(status) => classify_exit(status),
        Err(_) => ExitClass::Signal(-1),
    };
    if aborted || token.is_cancelled() {
        return LeaseOutcome::Aborted;
    }
    if emitted as usize == indices.len() && !poisoned {
        return LeaseOutcome::Drained;
    }
    LeaseOutcome::Crashed {
        in_flight,
        reason: death_reason(class, killed_unresponsive),
        poisoned,
        emitted,
    }
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// How many consecutive zero-progress lease deaths degrade a campaign to
/// [`DegradeReason::HarnessFailure`].
const FUTILE_LEASES: u32 = 3;

struct Supervisor {
    config: OrchestratorConfig,
    service_token: CancelToken,
    rx: mpsc::Receiver<Msg>,
    slot_tx: Vec<mpsc::Sender<SlotCmd>>,
    slot_handles: Vec<std::thread::JoinHandle<()>>,
    /// Per slot: the campaign and indices of the lease it is running.
    slot_lease: Vec<Option<(CampaignId, Vec<usize>)>>,
    campaigns: HashMap<CampaignId, Campaign>,
    next_id: u64,
    shutting_down: bool,
    shutdown_reply: Option<mpsc::Sender<Vec<CampaignStatus>>>,
    last_fleet_beat: Instant,
}

impl Supervisor {
    fn run(mut self) {
        let _hook_guard = self.config.silence_panics.then(PanicSilencer::install);
        loop {
            match self.rx.recv_timeout(SUPERVISOR_POLL) {
                Ok(msg) => self.handle(msg),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            // Drain bursts without blocking so verdict floods never
            // outpace the scheduler.
            while let Ok(msg) = self.rx.try_recv() {
                self.handle(msg);
            }
            self.schedule();
            self.heartbeats();
            if self.shutting_down && self.slot_lease.iter().all(|l| l.is_none()) {
                self.finish_shutdown();
                return;
            }
        }
    }

    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Cmd(cmd) => self.handle_cmd(cmd),
            Msg::Prepared {
                slot,
                id,
                baseline,
                events,
            } => self.handle_prepared(slot, id, baseline, events),
            Msg::Verdict {
                slot,
                id,
                index,
                status,
            } => self.handle_verdict(slot, id, index, status),
            Msg::LeaseEnded {
                slot,
                id,
                outcome,
                events,
            } => self.handle_lease_ended(slot, id, outcome, events),
        }
    }

    fn handle_cmd(&mut self, cmd: Command) {
        match cmd {
            Command::Submit(request, reply) => {
                let _ = reply.send(self.admit(*request));
            }
            Command::Cancel(id, reply) => {
                let _ = reply.send(self.cancel(id));
            }
            Command::Status(id, reply) => {
                let _ = reply.send(self.campaigns.get(&id).map(Campaign::status));
            }
            Command::List(reply) => {
                let mut statuses: Vec<CampaignStatus> =
                    self.campaigns.values().map(Campaign::status).collect();
                statuses.sort_by_key(|s| s.id);
                let _ = reply.send(statuses);
            }
            Command::Wait(id, reply) => match self.campaigns.get_mut(&id) {
                Some(campaign) => match &campaign.outcome {
                    Some(outcome) => {
                        let _ = reply.send(Some(outcome.clone()));
                    }
                    None => campaign.waiters.push(reply),
                },
                None => {
                    let _ = reply.send(None);
                }
            },
            Command::Shutdown(reply) => {
                self.shutting_down = true;
                self.shutdown_reply = Some(reply);
                self.service_token.cancel();
                let ids: Vec<CampaignId> = self.campaigns.keys().copied().collect();
                for id in ids {
                    let campaign = match self.campaigns.get_mut(&id) {
                        Some(c) if !c.phase.is_terminal() => c,
                        _ => continue,
                    };
                    if campaign.pending_end.is_none() {
                        campaign.pending_end = Some(CampaignPhase::Cancelled);
                    }
                    if campaign.active_leases == 0 {
                        self.finalize(id);
                    } else {
                        campaign.phase = CampaignPhase::Draining;
                    }
                }
            }
        }
    }

    fn admit(&mut self, request: CampaignRequest) -> Result<CampaignId, SubmitError> {
        if self.shutting_down {
            return Err(SubmitError::ServiceStopped);
        }
        let live = self
            .campaigns
            .values()
            .filter(|c| !c.phase.is_terminal())
            .count();
        if live >= self.config.capacity {
            self.config.telemetry.incr("orchestrator.rejected");
            return Err(SubmitError::QueueFull {
                capacity: self.config.capacity,
            });
        }
        let id = CampaignId(self.next_id);
        self.next_id += 1;
        let slot_cfg = SlotConfig::effective(request.slot, &request.config);
        let spec = match &request.config.isolation {
            crate::analysis::IsolationMode::Process(spec) => Some(spec.clone()),
            crate::analysis::IsolationMode::InThread => None,
        };
        let backoff_seed = spec.as_ref().map(|s| s.backoff_seed).unwrap_or(0) ^ id.0;
        let total = request.mutants.len();
        let campaign_telemetry = request.config.telemetry.clone();
        let root = campaign_telemetry.span_with("campaign", || format!("{id} {}", request.name));
        let scoped = campaign_telemetry.at(root.id());
        let data = Arc::new(CampaignData {
            id,
            shards: request.shards,
            suite: request.suite,
            mutants: request.mutants,
            config: request.config,
            token: self.service_token.child(),
        });
        let campaign = Campaign {
            data,
            name: request.name,
            priority: request.priority,
            mutant_budget: request.mutant_budget,
            slot_cfg,
            spec,
            phase: CampaignPhase::Queued,
            rt: None,
            journal: None,
            slots: {
                let mut v = Vec::new();
                v.resize_with(total, || None);
                v
            },
            leased: vec![false; total],
            deaths: HashMap::new(),
            executed: 0,
            replayed: 0,
            crashes: 0,
            futile: 0,
            exhaustion_flagged: false,
            active_leases: 0,
            next_lease_at: Instant::now(),
            backoff_rng: Rng::seed_from_u64(backoff_seed),
            respawns: 0,
            starved: 0,
            pending_end: None,
            outcome: None,
            waiters: Vec::new(),
            root: Some(root),
            telemetry: scoped,
            done_by_slot: vec![0; self.config.slots],
            last_beat: Instant::now(),
        };
        self.campaigns.insert(id, campaign);
        self.config.telemetry.incr("orchestrator.admitted");
        Ok(id)
    }

    fn cancel(&mut self, id: CampaignId) -> bool {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return false;
        };
        if campaign.phase.is_terminal() {
            return false;
        }
        self.config.telemetry.incr("orchestrator.cancelled");
        campaign.data.token.cancel();
        if campaign.pending_end.is_none() {
            campaign.pending_end = Some(CampaignPhase::Cancelled);
        }
        if campaign.active_leases == 0 {
            self.finalize(id);
        } else {
            campaign.phase = CampaignPhase::Draining;
        }
        true
    }

    fn handle_prepared(
        &mut self,
        slot: usize,
        id: CampaignId,
        baseline: Option<Box<GoldenBaseline>>,
        events: Vec<Event>,
    ) {
        self.slot_lease[slot] = None;
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        campaign.active_leases -= 1;
        absorb_lease(campaign, &events);
        if campaign.phase == CampaignPhase::Draining || campaign.data.token.is_cancelled() {
            if campaign.pending_end.is_none() {
                campaign.pending_end = Some(CampaignPhase::Cancelled);
            }
            if campaign.active_leases == 0 {
                self.finalize(id);
            }
            return;
        }
        let Some(baseline) = baseline else {
            // The golden run panicked: the subject's harness is broken
            // and every lease would fail the same way.
            campaign.telemetry.incr("mutation.worker_crash");
            campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::HarnessFailure));
            self.finalize(id);
            return;
        };
        let data = campaign.data.clone();
        let scoped = campaign.telemetry.clone();
        let (journal, replayed) = JournalState::open(
            data.shards.class_name(),
            &data.suite,
            &data.mutants,
            &data.config,
            &scoped,
        );
        persist_coverage(&data.config, &baseline, journal.fingerprint(), &scoped);
        let fingerprint = campaign_fingerprint(
            data.shards.class_name(),
            &data.suite,
            &data.mutants,
            &data.config,
        );
        let (slots, _done) = replay_slots(&data.mutants, replayed, &scoped);
        campaign.replayed = slots.iter().filter(|s| s.is_some()).count() as u64;
        if campaign.replayed > 0 {
            self.config.telemetry.incr("orchestrator.resumed");
        }
        campaign.slots = slots;
        campaign.journal = Some(journal);
        campaign.rt = Some(Arc::new(CampaignRuntime {
            data,
            baseline: *baseline,
            fingerprint,
        }));
        campaign.phase = CampaignPhase::Running;
        campaign
            .telemetry
            .gauge("mutation.workers", self.config.slots as i64);
        if campaign.unfinished() == 0 {
            campaign.pending_end = Some(CampaignPhase::Completed);
            self.finalize(id);
            return;
        }
        // A zero budget with work left degrades immediately.
        self.check_budget(id);
    }

    fn handle_verdict(&mut self, slot: usize, id: CampaignId, index: usize, status: MutantStatus) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        // Merges happen only while the campaign is healthy: a draining
        // campaign's late verdicts are discarded so its journal (and so a
        // resumed run) stays byte-identical to a solo run's prefix.
        if campaign.phase != CampaignPhase::Running || campaign.data.token.is_cancelled() {
            return;
        }
        if index >= campaign.slots.len() || campaign.slots[index].is_some() {
            return;
        }
        if let Some(journal) = &mut campaign.journal {
            journal.record(index, &status);
        }
        record_status(&campaign.telemetry, &status);
        campaign.slots[index] = Some(MutantResult {
            mutant: campaign.data.mutants[index].clone(),
            status,
        });
        if let Some(counter) = campaign.done_by_slot.get_mut(slot) {
            *counter += 1;
        }
        campaign.executed += 1;
        if campaign.unfinished() == 0 {
            // Completion is finalized when the owning lease ends (its
            // remaining events still need grafting), but the phase no
            // longer accepts verdicts-after-complete.
            return;
        }
        self.check_budget(id);
    }

    /// Degrades `id` to `BudgetExhausted` when its campaign-level mutant
    /// budget is spent with unfinished mutants left.
    fn check_budget(&mut self, id: CampaignId) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        let Some(budget) = campaign.mutant_budget else {
            return;
        };
        if campaign.phase != CampaignPhase::Running
            || campaign.executed < budget
            || campaign.unfinished() == 0
        {
            return;
        }
        campaign.data.token.cancel();
        campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::BudgetExhausted));
        let executed = campaign.executed;
        let queued = campaign.unfinished();
        campaign.telemetry.snapshot("campaign.degraded", || {
            vec![
                ("executed".to_owned(), executed as i64),
                ("queued".to_owned(), queued as i64),
            ]
        });
        if campaign.active_leases == 0 {
            self.finalize(id);
        } else {
            campaign.phase = CampaignPhase::Draining;
        }
    }

    fn handle_lease_ended(
        &mut self,
        slot: usize,
        id: CampaignId,
        outcome: LeaseOutcome,
        events: Vec<Event>,
    ) {
        let lease = self.slot_lease[slot].take();
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        campaign.active_leases -= 1;
        absorb_lease(campaign, &events);
        // Return unmerged leased indices to the pool.
        if let Some((lease_id, indices)) = lease {
            if lease_id == id {
                for index in indices {
                    if campaign.slots[index].is_none() {
                        campaign.leased[index] = false;
                    }
                }
            }
        }
        if campaign.phase == CampaignPhase::Running {
            match outcome {
                LeaseOutcome::Drained => campaign.futile = 0,
                LeaseOutcome::Aborted => {}
                LeaseOutcome::Crashed {
                    in_flight,
                    reason,
                    poisoned,
                    emitted,
                } => self.handle_crash(id, slot, in_flight, reason, poisoned, emitted),
            }
        }
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        if campaign.phase == CampaignPhase::Running && campaign.unfinished() == 0 {
            campaign.pending_end = Some(CampaignPhase::Completed);
        }
        if campaign.pending_end.is_some() && campaign.active_leases == 0 {
            self.finalize(id);
        } else if campaign.pending_end.is_some() {
            campaign.phase = CampaignPhase::Draining;
        }
    }

    /// The death ladder, shared with the solo process supervisor: a first
    /// death returns the in-flight mutant to the queue (an innocent
    /// mutant killed from outside must re-execute for byte-identical
    /// reports); a second death convicts it with the reason derived from
    /// how the shard died. Leases that die repeatedly with no progress at
    /// all degrade the campaign instead of spinning forever.
    fn handle_crash(
        &mut self,
        id: CampaignId,
        slot: usize,
        in_flight: Option<usize>,
        reason: QuarantineReason,
        poisoned: bool,
        emitted: u64,
    ) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        campaign.crashes += 1;
        if poisoned {
            campaign.data.token.cancel();
            campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::HarnessFailure));
            return;
        }
        let mut progress = emitted > 0;
        if let Some(index) = in_flight {
            if index < campaign.slots.len() && campaign.slots[index].is_none() {
                let deaths = campaign.deaths.entry(index).or_insert(0);
                *deaths += 1;
                if *deaths >= 2 {
                    let status = MutantStatus::Quarantined { reason };
                    if let Some(journal) = &mut campaign.journal {
                        journal.record(index, &status);
                    }
                    record_status(&campaign.telemetry, &status);
                    campaign.slots[index] = Some(MutantResult {
                        mutant: campaign.data.mutants[index].clone(),
                        status,
                    });
                    if let Some(counter) = campaign.done_by_slot.get_mut(slot) {
                        *counter += 1;
                    }
                }
                progress = true;
            }
        }
        if progress {
            campaign.futile = 0;
        } else {
            campaign.futile += 1;
            if campaign.futile >= FUTILE_LEASES {
                campaign.data.token.cancel();
                campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::HarnessFailure));
                return;
            }
        }
        // Process campaigns back off before their next lease, on the
        // same jittered envelope the solo supervisor respawns under.
        if let Some(spec) = campaign.spec.clone() {
            campaign.respawns += 1;
            campaign.telemetry.incr("mutation.shard_respawn");
            let delay = spec
                .respawn_backoff
                .jittered_delay(campaign.respawns, &mut campaign.backoff_rng);
            campaign.next_lease_at = Instant::now() + delay;
        }
        if campaign.crashes > campaign.data.config.worker_restarts as u64
            && !campaign.exhaustion_flagged
        {
            campaign.exhaustion_flagged = true;
            flag_restart_exhaustion(
                &campaign.telemetry,
                campaign.data.config.worker_restarts,
                campaign.unfinished(),
            );
        }
    }

    /// Moves a campaign into its pending terminal phase, builds its
    /// outcome, wakes waiters, and releases its runtime.
    fn finalize(&mut self, id: CampaignId) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        let end_phase = campaign
            .pending_end
            .take()
            .unwrap_or(CampaignPhase::Cancelled);
        campaign.phase = end_phase;
        campaign_heartbeat(&campaign.telemetry, &campaign.slots, &campaign.done_by_slot);
        let golden = campaign
            .rt
            .as_ref()
            .map(|rt| rt.baseline.golden.clone())
            .unwrap_or_else(|| SuiteResult {
                class_name: campaign.data.shards.class_name().to_owned(),
                cases: Vec::new(),
                notes: Vec::new(),
            });
        let end = match end_phase {
            CampaignPhase::Completed => {
                self.config.telemetry.incr("orchestrator.completed");
                let results = collect_slots(&campaign.data.mutants, campaign.slots.clone());
                CampaignEnd::Completed(Box::new(finish_run(&campaign.telemetry, results, golden)))
            }
            CampaignPhase::Degraded(reason) => {
                self.config.telemetry.incr("orchestrator.degraded");
                let results = collect_slots(&campaign.data.mutants, campaign.slots.clone());
                CampaignEnd::Degraded {
                    reason,
                    partial: Box::new(MutationRun { results, golden }),
                }
            }
            _ => CampaignEnd::Cancelled,
        };
        let outcome = CampaignOutcome {
            id,
            name: campaign.name.clone(),
            end,
        };
        for waiter in campaign.waiters.drain(..) {
            let _ = waiter.send(Some(outcome.clone()));
        }
        campaign.outcome = Some(outcome);
        // Release the heavyweight state; the journal (dropped here) was
        // fsynced per append, so the campaign is already checkpointed.
        campaign.rt = None;
        campaign.journal = None;
        if let Some(root) = campaign.root.take() {
            root.finish();
        }
    }

    /// Hands free slots leases: queued campaigns prepare first (FIFO),
    /// then the runnable campaign with the highest aged priority wins.
    fn schedule(&mut self) {
        if self.shutting_down {
            return;
        }
        let now = Instant::now();
        for slot in 0..self.slot_tx.len() {
            if self.slot_lease[slot].is_some() {
                continue;
            }
            // Queued campaigns prepare in submit order.
            let queued = self
                .campaigns
                .values()
                .filter(|c| c.phase == CampaignPhase::Queued)
                .map(|c| c.data.id)
                .min();
            if let Some(id) = queued {
                if let Some(campaign) = self.campaigns.get_mut(&id) {
                    campaign.phase = CampaignPhase::Preparing;
                    campaign.active_leases += 1;
                    self.slot_lease[slot] = Some((id, Vec::new()));
                    let data = campaign.data.clone();
                    let _ = self.slot_tx[slot].send(SlotCmd::Prepare { data });
                }
                continue;
            }
            // Work stealing with aged priorities: highest effective
            // priority wins; ties go to the campaign with fewer leases in
            // flight, then to the older campaign.
            let winner = self
                .campaigns
                .values()
                .filter(|c| c.runnable(now))
                .max_by_key(|c| {
                    (
                        u64::from(c.priority) + u64::from(c.starved),
                        std::cmp::Reverse(c.active_leases),
                        std::cmp::Reverse(c.data.id),
                    )
                })
                .map(|c| c.data.id);
            let Some(id) = winner else {
                continue;
            };
            // Aging: everyone else runnable gains a round.
            for campaign in self.campaigns.values_mut() {
                if campaign.data.id != id && campaign.runnable(now) {
                    campaign.starved = campaign.starved.saturating_add(1);
                }
            }
            let lease_size = self.config.lease_size.max(1);
            let Some(campaign) = self.campaigns.get_mut(&id) else {
                continue;
            };
            campaign.starved = 0;
            let indices = campaign.take_lease(lease_size);
            if indices.is_empty() {
                continue;
            }
            campaign.active_leases += 1;
            self.slot_lease[slot] = Some((id, indices.clone()));
            self.config.telemetry.incr("orchestrator.leases");
            let Some(rt) = campaign.rt.clone() else {
                continue;
            };
            let cmd = match campaign.spec.clone() {
                Some(spec) => SlotCmd::ProcessLease {
                    rt,
                    indices,
                    spec,
                    slot_cfg: campaign.slot_cfg,
                },
                None => SlotCmd::ThreadLease { rt, indices },
            };
            let _ = self.slot_tx[slot].send(cmd);
        }
    }

    fn heartbeats(&mut self) {
        let now = Instant::now();
        for campaign in self.campaigns.values_mut() {
            if campaign.phase == CampaignPhase::Running
                && campaign.telemetry.is_enabled()
                && now.duration_since(campaign.last_beat) >= HEARTBEAT_INTERVAL
            {
                campaign.last_beat = now;
                campaign_heartbeat(&campaign.telemetry, &campaign.slots, &campaign.done_by_slot);
            }
        }
        if self.config.telemetry.is_enabled()
            && now.duration_since(self.last_fleet_beat) >= HEARTBEAT_INTERVAL
        {
            self.last_fleet_beat = now;
            let active = self
                .campaigns
                .values()
                .filter(|c| !c.phase.is_terminal())
                .count() as i64;
            let queued = self
                .campaigns
                .values()
                .filter(|c| c.phase == CampaignPhase::Queued)
                .count() as i64;
            let busy = self.slot_lease.iter().filter(|l| l.is_some()).count() as i64;
            self.config.telemetry.snapshot("orchestrator.progress", || {
                vec![
                    ("active".to_owned(), active),
                    ("queued".to_owned(), queued),
                    ("busy_slots".to_owned(), busy),
                ]
            });
        }
    }

    /// Every slot is idle and the service is stopping: finalize what's
    /// left, answer the shutdown caller, and retire the fleet.
    fn finish_shutdown(&mut self) {
        let ids: Vec<CampaignId> = self.campaigns.keys().copied().collect();
        for id in ids {
            let terminal = self
                .campaigns
                .get(&id)
                .map(|c| c.phase.is_terminal())
                .unwrap_or(true);
            if !terminal {
                self.finalize(id);
            }
        }
        let mut statuses: Vec<CampaignStatus> =
            self.campaigns.values().map(Campaign::status).collect();
        statuses.sort_by_key(|s| s.id);
        if let Some(reply) = self.shutdown_reply.take() {
            let _ = reply.send(statuses);
        }
        for tx in &self.slot_tx {
            let _ = tx.send(SlotCmd::Shutdown);
        }
        for handle in self.slot_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Grafts one lease's private event stream under the campaign root span.
fn absorb_lease(campaign: &Campaign, events: &[Event]) {
    if events.is_empty() {
        return;
    }
    if let Some(root) = &campaign.root {
        campaign
            .data
            .config
            .telemetry
            .absorb_under(events, root.id());
    }
}

// ---------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------

/// A running campaign-orchestration service; see the [module docs](self).
///
/// # Examples
///
/// ```no_run
/// use concat_mutation::{Orchestrator, OrchestratorConfig};
///
/// let service = Orchestrator::start(OrchestratorConfig::default());
/// // let id = service.submit(request)?;
/// // let outcome = service.wait(id);
/// let _statuses = service.shutdown();
/// ```
pub struct Orchestrator {
    tx: mpsc::Sender<Msg>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    service_token: CancelToken,
}

impl Orchestrator {
    /// Starts the service: one supervisor thread plus `config.slots`
    /// persistent slot workers.
    pub fn start(config: OrchestratorConfig) -> Orchestrator {
        let slots = config.slots.max(1);
        let service_token = CancelToken::new();
        let (tx, rx) = mpsc::channel::<Msg>();
        let mut slot_tx = Vec::with_capacity(slots);
        let mut slot_handles = Vec::with_capacity(slots);
        for slot in 0..slots {
            let (cmd_tx, cmd_rx) = mpsc::channel::<SlotCmd>();
            let msg_tx = tx.clone();
            slot_tx.push(cmd_tx);
            slot_handles.push(std::thread::spawn(move || {
                slot_main(slot, cmd_rx, msg_tx);
            }));
        }
        config.telemetry.gauge("orchestrator.slots", slots as i64);
        let supervisor = Supervisor {
            config,
            service_token: service_token.clone(),
            rx,
            slot_tx,
            slot_handles,
            slot_lease: {
                let mut v = Vec::new();
                v.resize_with(slots, || None);
                v
            },
            campaigns: HashMap::new(),
            next_id: 1,
            shutting_down: false,
            shutdown_reply: None,
            last_fleet_beat: Instant::now(),
        };
        let handle = std::thread::spawn(move || supervisor.run());
        Orchestrator {
            tx,
            supervisor: Some(handle),
            service_token,
        }
    }

    /// Submits a campaign.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] past the admission bound,
    /// [`SubmitError::ServiceStopped`] after shutdown.
    pub fn submit(&self, request: CampaignRequest) -> Result<CampaignId, SubmitError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self
            .tx
            .send(Msg::Cmd(Command::Submit(Box::new(request), reply_tx)))
            .is_err()
        {
            return Err(SubmitError::ServiceStopped);
        }
        reply_rx.recv().unwrap_or(Err(SubmitError::ServiceStopped))
    }

    /// Cancels a campaign. Returns `true` when the campaign existed and
    /// was not already terminal. The campaign's journal keeps its
    /// verified verdicts; resubmitting the same campaign resumes it.
    pub fn cancel(&self, id: CampaignId) -> bool {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self
            .tx
            .send(Msg::Cmd(Command::Cancel(id, reply_tx)))
            .is_err()
        {
            return false;
        }
        reply_rx.recv().unwrap_or(false)
    }

    /// A point-in-time status of one campaign (`None` for unknown ids).
    pub fn status(&self, id: CampaignId) -> Option<CampaignStatus> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self
            .tx
            .send(Msg::Cmd(Command::Status(id, reply_tx)))
            .is_err()
        {
            return None;
        }
        reply_rx.recv().unwrap_or(None)
    }

    /// Statuses of every campaign this service instance has seen, in
    /// submit order.
    pub fn list(&self) -> Vec<CampaignStatus> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::Cmd(Command::List(reply_tx))).is_err() {
            return Vec::new();
        }
        reply_rx.recv().unwrap_or_default()
    }

    /// Blocks until `id` reaches a terminal phase and returns its
    /// outcome (`None` for unknown ids or a stopped service).
    pub fn wait(&self, id: CampaignId) -> Option<CampaignOutcome> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::Cmd(Command::Wait(id, reply_tx))).is_err() {
            return None;
        }
        reply_rx.recv().unwrap_or(None)
    }

    /// The service-level cancellation token. Campaign tokens are
    /// children of it: cancelling it (a SIGTERM handler, a test harness)
    /// aborts every in-flight lease, while each campaign's journal
    /// already holds its verified verdicts — the durable checkpoint a
    /// `--resume` replays.
    pub fn service_token(&self) -> &CancelToken {
        &self.service_token
    }

    /// Stops the service: cancels every campaign, waits for in-flight
    /// leases to stand down, finalizes all campaigns (non-terminal ones
    /// as [`CampaignPhase::Cancelled`], journals flushed), and returns
    /// the final statuses.
    pub fn shutdown(mut self) -> Vec<CampaignStatus> {
        let (reply_tx, reply_rx) = mpsc::channel();
        if self.tx.send(Msg::Cmd(Command::Shutdown(reply_tx))).is_err() {
            return Vec::new();
        }
        let statuses = reply_rx.recv().unwrap_or_default();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        statuses
    }
}

impl Drop for Orchestrator {
    fn drop(&mut self) {
        if let Some(handle) = self.supervisor.take() {
            let (reply_tx, reply_rx) = mpsc::channel();
            if self.tx.send(Msg::Cmd(Command::Shutdown(reply_tx))).is_ok() {
                let _ = reply_rx.recv();
            }
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::IsolationMode;

    #[test]
    fn slot_config_defaults_match_process_isolation_defaults() {
        let default = SlotConfig::default();
        let spec = ProcessIsolation::new(["x"]);
        assert_eq!(default.startup_grace, spec.startup_grace);
        assert_eq!(default.heartbeat_timeout, spec.heartbeat_timeout);
        assert_eq!(default.term_grace, spec.term_grace);
    }

    #[test]
    fn slot_config_inherits_campaign_isolation_spec() {
        let mut spec = ProcessIsolation::new(["worker"]);
        spec.startup_grace = Duration::from_secs(120);
        spec.heartbeat_timeout = Duration::from_secs(60);
        spec.term_grace = Duration::from_millis(50);
        let config = MutationConfig {
            isolation: IsolationMode::Process(spec),
            ..MutationConfig::default()
        };
        let effective = SlotConfig::effective(None, &config);
        assert_eq!(effective.startup_grace, Duration::from_secs(120));
        assert_eq!(effective.heartbeat_timeout, Duration::from_secs(60));
        assert_eq!(effective.term_grace, Duration::from_millis(50));
        // An explicit override always wins.
        let explicit = SlotConfig {
            startup_grace: Duration::from_secs(1),
            ..SlotConfig::default()
        };
        let overridden = SlotConfig::effective(Some(explicit), &config);
        assert_eq!(overridden.startup_grace, Duration::from_secs(1));
    }

    #[test]
    fn phase_and_error_displays_are_stable() {
        assert_eq!(CampaignPhase::Queued.to_string(), "queued");
        assert_eq!(
            CampaignPhase::Degraded(DegradeReason::BudgetExhausted).to_string(),
            "degraded(budget-exhausted)"
        );
        assert_eq!(
            CampaignPhase::Degraded(DegradeReason::HarnessFailure).to_string(),
            "degraded(harness-failure)"
        );
        assert!(SubmitError::QueueFull { capacity: 3 }
            .to_string()
            .contains("capacity 3"));
        assert_eq!(CampaignId(7).to_string(), "c7");
        assert!(CampaignPhase::Completed.is_terminal());
        assert!(!CampaignPhase::Draining.is_terminal());
    }

    #[test]
    fn unknown_ids_are_handled() {
        let service = Orchestrator::start(OrchestratorConfig {
            slots: 1,
            ..OrchestratorConfig::default()
        });
        let ghost = CampaignId(999);
        assert!(service.status(ghost).is_none());
        assert!(!service.cancel(ghost));
        assert!(service.wait(ghost).is_none());
        assert!(service.list().is_empty());
        let statuses = service.shutdown();
        assert!(statuses.is_empty());
    }
}
