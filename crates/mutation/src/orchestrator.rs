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
//!   campaign exactly the in-flight mutant (the campaign ledger's
//!   retry-once-then-quarantine ladder, shared with solo runs), a cancelled campaign tears down
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
//! The mechanism is the same as a solo run's — the same ledger, lease
//! loop and process lease, under a different scheduler: verdicts are
//! deterministic per mutant, merged by enumeration index, and a verdict
//! is only merged while its campaign is healthy — a draining campaign
//! discards late verdicts so its journal holds exactly the verified
//! prefix a resume replays.

use crate::analysis::{
    build_harness, build_runner, persist_coverage, Engine, GoldenBaseline, Harness, IsolationMode,
    MutantResult, MutantStatus, MutationConfig, MutationRun, PanicSilencer, ProcessIsolation,
    QuarantineReason,
};
use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use crate::journal::campaign_fingerprint;
use crate::ledger::{CampaignLedger, LeaseOutcome, Ruling};
use crate::shard::process_lease;
use concat_driver::{SuiteResult, TestSuite};
use concat_obs::{Event, MemorySink, Span, Telemetry};
use concat_runtime::CancelToken;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the supervisor blocks on its channel before waking to
/// schedule and emit the fleet heartbeat.
const SUPERVISOR_POLL: Duration = Duration::from_millis(100);

/// Minimum spacing of `orchestrator.progress` heartbeats.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

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
            IsolationMode::Process(spec) => SlotConfig {
                startup_grace: spec.startup_grace,
                heartbeat_timeout: spec.heartbeat_timeout,
                term_grace: spec.term_grace,
            },
            IsolationMode::InThread => SlotConfig::default(),
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
    /// Process leases' spec, under the campaign's [`SlotConfig`]
    /// deadlines; `None` for thread leases.
    spec: Option<ProcessIsolation>,
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
    Lease {
        rt: Arc<CampaignRuntime>,
        indices: Vec<usize>,
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
    phase: CampaignPhase,
    rt: Option<Arc<CampaignRuntime>>,
    /// Opened once the golden baseline is prepared; its journal closes
    /// at finalization.
    ledger: Option<CampaignLedger>,
    executed: u64,
    active_leases: usize,
    /// Crash backoff: no new lease for this campaign before this instant.
    next_lease_at: Instant,
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
}

impl Campaign {
    fn done(&self) -> usize {
        self.ledger.as_ref().map_or(0, CampaignLedger::done)
    }

    fn unfinished(&self) -> usize {
        self.data.mutants.len() - self.done()
    }

    fn status(&self) -> CampaignStatus {
        CampaignStatus {
            id: self.data.id,
            name: self.name.clone(),
            phase: self.phase,
            done: self.done(),
            total: self.data.mutants.len(),
            executed: self.executed,
            replayed: self.ledger.as_ref().map_or(0, |l| l.replayed() as u64),
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
                .ledger
                .as_ref()
                .is_some_and(CampaignLedger::has_unleased_work)
    }
}

// ---------------------------------------------------------------------
// Slot workers
// ---------------------------------------------------------------------

/// A slot worker's main loop: block for a command, run it, report back.
/// The worker thread is persistent — lease bodies contain their panics,
/// so no campaign can cost the fleet a slot.
fn slot_main(slot: usize, rx: mpsc::Receiver<SlotCmd>, tx: mpsc::Sender<Msg>) {
    while let Ok(cmd) = rx.recv() {
        let sent = match cmd {
            SlotCmd::Prepare { data } => {
                let (sink, telemetry) = lease_telemetry(&data.config.telemetry);
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
                tx.send(Msg::Prepared {
                    slot,
                    id: data.id,
                    baseline,
                    events: sink.map(|s| s.events()).unwrap_or_default(),
                })
            }
            SlotCmd::Lease { rt, indices } => {
                let (sink, telemetry) = lease_telemetry(&rt.data.config.telemetry);
                let id = rt.data.id;
                let lease_span = telemetry.span_with("lease", || {
                    let mode = if rt.spec.is_some() {
                        "process"
                    } else {
                        "thread"
                    };
                    format!("{id} {mode}")
                });
                let scoped = telemetry.at(lease_span.id());
                let mut forward = |index: usize, status: MutantStatus| {
                    let _ = tx.send(Msg::Verdict {
                        slot,
                        id,
                        index,
                        status,
                    });
                };
                let outcome = match &rt.spec {
                    Some(spec) => process_lease(
                        spec,
                        rt.fingerprint,
                        &indices,
                        &rt.data.token,
                        &scoped,
                        &mut forward,
                    ),
                    None => thread_lease(&rt, &indices, &scoped, &mut forward),
                };
                lease_span.finish();
                tx.send(Msg::LeaseEnded {
                    slot,
                    id,
                    outcome,
                    events: sink.map(|s| s.events()).unwrap_or_default(),
                })
            }
            SlotCmd::Shutdown => return,
        };
        if sent.is_err() {
            return;
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
/// trio a solo worker owns) and run the shared lease loop over it. The
/// switch's token, which the runner adopts, is a child of the campaign
/// token, so campaign or service cancellation interrupts the in-flight
/// case like a watchdog deadline — and the lease loop discards a verdict
/// finished *after* the cancellation, because a case interrupted
/// mid-flight classifies differently than a solo run would.
fn thread_lease(
    rt: &CampaignRuntime,
    indices: &[usize],
    telemetry: &Telemetry,
    forward: &mut dyn FnMut(usize, MutantStatus),
) -> LeaseOutcome {
    let data = &rt.data;
    let switch = MutationSwitch::with_cancel_token(data.token.child());
    let Some((factory, runner)) =
        build_harness(data.shards.as_ref(), &data.config, telemetry, &switch)
    else {
        return LeaseOutcome::SETUP_FAILED;
    };
    let engine = Engine::new(&data.suite, &data.mutants, &data.config, &rt.baseline);
    let harness = Harness {
        factory: factory.as_ref(),
        switch: &switch,
        runner: &runner,
        telemetry,
    };
    engine.run_lease(&harness, indices, &data.token, None, forward)
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

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
            phase: CampaignPhase::Queued,
            rt: None,
            ledger: None,
            executed: 0,
            active_leases: 0,
            next_lease_at: Instant::now(),
            starved: 0,
            pending_end: None,
            outcome: None,
            waiters: Vec::new(),
            root: Some(root),
            telemetry: scoped,
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
        let ledger = CampaignLedger::open(
            data.shards.class_name(),
            &data.suite,
            &data.mutants,
            &data.config,
            self.config.slots,
            id.0,
            &scoped,
        );
        persist_coverage(&data.config, &data.suite, ledger.fingerprint(), &scoped);
        if ledger.replayed() > 0 {
            self.config.telemetry.incr("orchestrator.resumed");
        }
        campaign.ledger = Some(ledger);
        let fingerprint = campaign_fingerprint(
            data.shards.class_name(),
            &data.suite,
            &data.mutants,
            &data.config,
        );
        // Process leases run under this campaign's own slot deadlines.
        let spec = match &data.config.isolation {
            IsolationMode::Process(spec) => Some(ProcessIsolation {
                startup_grace: campaign.slot_cfg.startup_grace,
                heartbeat_timeout: campaign.slot_cfg.heartbeat_timeout,
                term_grace: campaign.slot_cfg.term_grace,
                ..spec.clone()
            }),
            IsolationMode::InThread => None,
        };
        campaign.rt = Some(Arc::new(CampaignRuntime {
            data,
            baseline: *baseline,
            fingerprint,
            spec,
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
        let Some(ledger) = &mut campaign.ledger else {
            return;
        };
        if !ledger.merge(slot, index, status) {
            return;
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
        let indices = match lease {
            Some((lease_id, indices)) if lease_id == id => indices,
            _ => Vec::new(),
        };
        if let Some(ledger) = &mut campaign.ledger {
            if campaign.phase != CampaignPhase::Running {
                // A draining campaign books no deaths: its journal keeps
                // exactly the verified prefix a resume replays.
                ledger.release(&indices);
            } else {
                match ledger.lease_ended(slot, &indices, &outcome) {
                    Ruling::Continue(backoff) => campaign.next_lease_at = Instant::now() + backoff,
                    // The fleet keeps leasing past the restart budget;
                    // the ledger has flagged the exhaustion.
                    Ruling::BudgetSpent => {}
                    Ruling::HarnessFailure => {
                        campaign.data.token.cancel();
                        campaign.pending_end =
                            Some(CampaignPhase::Degraded(DegradeReason::HarnessFailure));
                    }
                }
            }
        }
        if campaign.phase == CampaignPhase::Running && campaign.unfinished() == 0 {
            campaign.pending_end = Some(CampaignPhase::Completed);
        }
        if campaign.pending_end.is_some() && campaign.active_leases == 0 {
            self.finalize(id);
        } else if campaign.pending_end.is_some() {
            campaign.phase = CampaignPhase::Draining;
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
        if let Some(ledger) = &mut campaign.ledger {
            ledger.heartbeat();
        }
        let mutants = &campaign.data.mutants;
        let golden = campaign
            .rt
            .as_ref()
            .map(|rt| rt.baseline.golden.clone())
            .unwrap_or_else(|| SuiteResult {
                class_name: campaign.data.shards.class_name().to_owned(),
                cases: Vec::new(),
                notes: Vec::new(),
            });
        let end = match (end_phase, &campaign.ledger) {
            (CampaignPhase::Completed, Some(ledger)) => {
                self.config.telemetry.incr("orchestrator.completed");
                CampaignEnd::Completed(Box::new(ledger.finish(mutants, golden)))
            }
            (CampaignPhase::Degraded(reason), ledger) => {
                self.config.telemetry.incr("orchestrator.degraded");
                // Unfinished mutants appear as `WorkerCrash` quarantines
                // (a campaign whose golden run panicked has no ledger:
                // every mutant is unfinished).
                let results = match ledger {
                    Some(ledger) => ledger.results(mutants),
                    None => mutants
                        .iter()
                        .map(|mutant| MutantResult {
                            mutant: mutant.clone(),
                            status: MutantStatus::Quarantined {
                                reason: QuarantineReason::WorkerCrash,
                            },
                        })
                        .collect(),
                };
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
        // Release the heavyweight state; the journal (closed here) was
        // fsynced per append, so the campaign is already checkpointed.
        campaign.rt = None;
        if let Some(ledger) = &mut campaign.ledger {
            ledger.close_journal();
        }
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
            let (Some(ledger), Some(rt)) = (&mut campaign.ledger, campaign.rt.clone()) else {
                continue;
            };
            let indices = ledger.take_lease(lease_size);
            if indices.is_empty() {
                continue;
            }
            campaign.active_leases += 1;
            self.slot_lease[slot] = Some((id, indices.clone()));
            self.config.telemetry.incr("orchestrator.leases");
            let _ = self.slot_tx[slot].send(SlotCmd::Lease { rt, indices });
        }
    }

    /// The fleet heartbeat; each campaign's ledger beats on its own
    /// merges.
    fn heartbeats(&mut self) {
        let now = Instant::now();
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
