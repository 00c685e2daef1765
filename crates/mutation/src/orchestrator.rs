//! Fault-tolerant campaign orchestration: many campaigns, one fleet of
//! slots.
//!
//! [`run_mutation_analysis_parallel`](crate::run_mutation_analysis_parallel)
//! runs *one* campaign to completion and returns. A component vendor
//! qualifying a family of self-testable components runs many campaigns at
//! once, and must not let one pathological subject starve, corrupt, or
//! take down the rest. The [`Orchestrator`] is the layer above the
//! per-campaign machinery: a long-running service owning a global fleet
//! of slot threads that multiplexes mutants from every active campaign.
//!
//! * **Queue** — [`Orchestrator::submit`] / [`Orchestrator::status`] /
//!   [`Orchestrator::cancel`] / [`Orchestrator::list`]. Each submitted
//!   [`CampaignRequest`] carries its own [`MutationConfig`] (budget,
//!   journal path, isolation), a priority, and an optional campaign-level
//!   mutant budget. Admission is bounded: a full queue rejects with
//!   [`SubmitError::QueueFull`] instead of growing without limit.
//! * **Scheduler** — all fleet state (every campaign's phase and ledger)
//!   sits in one mutex. Each slot locks it, pulls its own work (prepare
//!   the oldest queued campaign, else lease from the runnable campaign
//!   with the highest aged priority), runs that work unlocked, and books
//!   the result under the lock again — the solo engine's slot loop over
//!   many ledgers. Fairness is starvation-free by aging (a campaign
//!   passed over gains effective priority each round), so a
//!   low-priority campaign always progresses. An idle slot sleeps on the
//!   fleet's condvar, as does [`Orchestrator::wait`].
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
    prepare_campaign, private_telemetry, Engine, GoldenBaseline, IsolationMode, MutantResult,
    MutantStatus, MutationConfig, MutationRun, OwnedHarness, PanicSilencer, ProcessIsolation,
    QuarantineReason,
};
use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use crate::ledger::{CampaignLedger, LeaseOutcome, Ruling};
use concat_driver::{SuiteResult, TestSuite};
use concat_obs::{Event, Span, Telemetry};
use concat_runtime::CancelToken;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            slots: 2,
            capacity: 16,
            lease_size: 8,
            telemetry: Telemetry::disabled(),
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
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "campaign queue full (capacity {capacity})")
            }
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
    /// A slot is computing the golden baseline and opening the ledger.
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
    /// The submitted config, its process isolation (if any) carrying the
    /// campaign's effective [`SlotConfig`] deadlines.
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
    /// Process leases' spec and the campaign fingerprint their shards
    /// must rebuild; `None` for thread leases.
    process: Option<(ProcessIsolation, u32)>,
}

/// What a slot takes out of the fleet to prepare a campaign unlocked.
struct PrepareJob {
    data: Arc<CampaignData>,
    /// The campaign's telemetry scoped at its root span: the ledger's.
    telemetry: Telemetry,
    /// Fleet size: the ledger's `w<slot>.done` readings.
    slots: usize,
}

/// Fleet-side state of one campaign.
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
    /// Slots running this campaign's preparation or leases.
    active_leases: usize,
    /// Crash backoff: no new lease for this campaign before this instant.
    next_lease_at: Instant,
    /// Scheduling rounds this campaign was runnable but passed over;
    /// added to priority so nobody starves.
    starved: u32,
    /// The terminal phase to enter once in-flight leases stand down.
    pending_end: Option<CampaignPhase>,
    outcome: Option<CampaignOutcome>,
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
// Slots
// ---------------------------------------------------------------------

/// The fleet behind its one lock, and the condvar idle slots and
/// [`Orchestrator::wait`] callers sleep on. It is notified whenever work
/// may have appeared or a campaign may have ended.
struct Shared {
    fleet: Mutex<Fleet>,
    wake: Condvar,
}

impl Shared {
    /// Locks the fleet. Nothing panics while holding it, but should a
    /// poisoned lock ever appear, its campaigns are still the fleet's.
    fn lock(&self) -> MutexGuard<'_, Fleet> {
        self.fleet.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Releases the fleet until notified, or for at most `timeout`.
    fn sleep<'a>(
        &self,
        fleet: MutexGuard<'a, Fleet>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, Fleet> {
        match timeout {
            Some(timeout) => self
                .wake
                .wait_timeout(fleet, timeout)
                .map_or_else(|poisoned| poisoned.into_inner().0, |(fleet, _)| fleet),
            None => self
                .wake
                .wait(fleet)
                .unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// A slot's loop: pull work from the fleet under its lock, run it
/// unlocked, book the result under the lock and wake every sleeper —
/// until the service shuts down. The thread is persistent: preparation
/// and lease bodies contain their panics, so no campaign can cost the
/// fleet a slot.
fn slot_loop(shared: &Shared, slot: usize) {
    let mut fleet = shared.lock();
    while !fleet.shutting_down {
        fleet.heartbeat();
        if let Some(job) = fleet.take_prepare() {
            drop(fleet);
            let (prepared, events) = prepare(&job);
            fleet = shared.lock();
            fleet.handle_prepared(job.data.id, prepared, &events);
        } else if let Some((rt, lease)) = fleet.take_lease() {
            drop(fleet);
            let (outcome, events) = run_lease(shared, slot, &rt, &lease);
            fleet = shared.lock();
            fleet.handle_lease_ended(slot, rt.data.id, &lease, &outcome, &events);
        } else {
            let backoff = fleet.next_backoff(Instant::now());
            fleet = shared.sleep(fleet, backoff);
            continue;
        }
        shared.wake.notify_all();
    }
}

/// Prepares a campaign off the fleet lock: [`prepare_campaign`] on a
/// private golden harness whose switch token is a child of the campaign
/// token. `None` when any of it panicked, or when the campaign was
/// cancelled during its golden run: its journal is then left untouched,
/// and [`Fleet::handle_prepared`] sees the cancellation first.
fn prepare(job: &PrepareJob) -> (Option<(CampaignRuntime, CampaignLedger)>, Vec<Event>) {
    let data = &job.data;
    let (sink, telemetry) = private_telemetry(&data.config.telemetry);
    let prepared = catch_unwind(AssertUnwindSafe(|| {
        let switch = MutationSwitch::with_cancel_token(data.token.child());
        let mut golden = OwnedHarness::new(data.shards.as_ref(), switch);
        let (baseline, ledger, process) = prepare_campaign(
            &golden.harness(&data.config, &telemetry),
            data.shards.class_name(),
            &data.suite,
            &data.mutants,
            &data.config,
            &data.config.isolation,
            job.slots,
            data.id.0,
            &job.telemetry,
        );
        let rt = CampaignRuntime {
            data: data.clone(),
            baseline,
            process,
        };
        (rt, ledger)
    }))
    .ok();
    (prepared, sink.map(|s| s.events()).unwrap_or_default())
}

/// Runs one thread or process lease. Each verdict is merged under the
/// fleet lock as it lands, like a solo slot's merge into its shared
/// ledger. A thread lease runs on a fresh harness whose switch token,
/// which the runner adopts, is a child of the campaign token, so
/// campaign or service cancellation interrupts the in-flight case like
/// a watchdog deadline — and the lease loop discards a verdict finished
/// *after* the cancellation, because a case interrupted mid-flight
/// classifies differently than a solo run would.
fn run_lease(
    shared: &Shared,
    slot: usize,
    rt: &CampaignRuntime,
    lease: &[usize],
) -> (LeaseOutcome, Vec<Event>) {
    let data = &rt.data;
    let (sink, telemetry) = private_telemetry(&data.config.telemetry);
    let id = data.id;
    let lease_span = telemetry.span_with("lease", || {
        let mode = if rt.process.is_some() {
            "process"
        } else {
            "thread"
        };
        format!("{id} {mode}")
    });
    let scoped = telemetry.at(lease_span.id());
    let engine = Engine::new(&data.suite, &data.mutants, &data.config, &rt.baseline);
    let switch = MutationSwitch::with_cancel_token(data.token.child());
    let outcome = OwnedHarness::new(data.shards.as_ref(), switch).lease(
        &engine,
        rt.process.as_ref(),
        lease,
        &data.token,
        &scoped,
        &mut |index, status| shared.lock().handle_verdict(slot, id, index, status),
    );
    lease_span.finish();
    (outcome, sink.map(|s| s.events()).unwrap_or_default())
}

// ---------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------

/// Every campaign and the service's own state: what slots and client
/// calls read and write under the one lock.
struct Fleet {
    config: OrchestratorConfig,
    service_token: CancelToken,
    campaigns: HashMap<CampaignId, Campaign>,
    next_id: u64,
    shutting_down: bool,
    last_fleet_beat: Instant,
}

impl Fleet {
    fn admit(&mut self, request: CampaignRequest) -> Result<CampaignId, SubmitError> {
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
        let mut config = request.config;
        if let IsolationMode::Process(spec) = &mut config.isolation {
            spec.startup_grace = slot_cfg.startup_grace;
            spec.heartbeat_timeout = slot_cfg.heartbeat_timeout;
            spec.term_grace = slot_cfg.term_grace;
        }
        let campaign_telemetry = config.telemetry.clone();
        let root = campaign_telemetry.span_with("campaign", || format!("{id} {}", request.name));
        let scoped = campaign_telemetry.at(root.id());
        let data = Arc::new(CampaignData {
            id,
            shards: request.shards,
            suite: request.suite,
            mutants: request.mutants,
            config,
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
        campaign.pending_end.get_or_insert(CampaignPhase::Cancelled);
        self.settle(id);
        true
    }

    /// Enters `id`'s pending terminal phase now when no lease of it is in
    /// flight; else drains it until the last one stands down.
    fn settle(&mut self, id: CampaignId) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        if campaign.active_leases == 0 {
            self.finalize(id);
        } else {
            campaign.phase = CampaignPhase::Draining;
        }
    }

    /// Claims the oldest queued campaign for its preparation: queued
    /// campaigns prepare in submit order, before any lease.
    fn take_prepare(&mut self) -> Option<PrepareJob> {
        let campaign = self
            .campaigns
            .values_mut()
            .filter(|c| c.phase == CampaignPhase::Queued)
            .min_by_key(|c| c.data.id)?;
        campaign.phase = CampaignPhase::Preparing;
        campaign.active_leases += 1;
        Some(PrepareJob {
            data: campaign.data.clone(),
            telemetry: campaign.telemetry.clone(),
            slots: self.config.slots,
        })
    }

    /// Work stealing with aged priorities: leases from the runnable
    /// campaign with the highest effective priority; ties go to the
    /// campaign with fewer leases in flight, then to the older campaign.
    fn take_lease(&mut self) -> Option<(Arc<CampaignRuntime>, Vec<usize>)> {
        let now = Instant::now();
        let id = self
            .campaigns
            .values()
            .filter(|c| c.runnable(now))
            .max_by_key(|c| {
                (
                    u64::from(c.priority) + u64::from(c.starved),
                    std::cmp::Reverse(c.active_leases),
                    std::cmp::Reverse(c.data.id),
                )
            })?
            .data
            .id;
        // Aging: everyone else runnable gains a round.
        for campaign in self.campaigns.values_mut() {
            if campaign.data.id != id && campaign.runnable(now) {
                campaign.starved = campaign.starved.saturating_add(1);
            }
        }
        let campaign = self.campaigns.get_mut(&id)?;
        campaign.starved = 0;
        let (Some(ledger), Some(rt)) = (&mut campaign.ledger, &campaign.rt) else {
            return None;
        };
        let lease = ledger.take_lease(self.config.lease_size.max(1));
        if lease.is_empty() {
            return None;
        }
        let rt = rt.clone();
        campaign.active_leases += 1;
        self.config.telemetry.incr("orchestrator.leases");
        Some((rt, lease))
    }

    /// How long until the earliest crash backoff ends, when a campaign
    /// is runnable but for its backoff.
    fn next_backoff(&self, now: Instant) -> Option<Duration> {
        self.campaigns
            .values()
            .filter(|c| c.next_lease_at > now && c.runnable(c.next_lease_at))
            .map(|c| c.next_lease_at - now)
            .min()
    }

    /// Books a campaign's preparation. Everything costly (golden run,
    /// journal I/O, fingerprints) already ran unlocked in [`prepare`].
    fn handle_prepared(
        &mut self,
        id: CampaignId,
        prepared: Option<(CampaignRuntime, CampaignLedger)>,
        events: &[Event],
    ) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        campaign.active_leases -= 1;
        absorb_lease(campaign, events);
        if campaign.phase == CampaignPhase::Draining || campaign.data.token.is_cancelled() {
            campaign.pending_end.get_or_insert(CampaignPhase::Cancelled);
            self.settle(id);
            return;
        }
        let Some((rt, ledger)) = prepared else {
            // The preparation panicked: the subject's harness is broken
            // and every lease would fail the same way.
            campaign.telemetry.incr("mutation.worker_crash");
            campaign.pending_end = Some(CampaignPhase::Degraded(DegradeReason::HarnessFailure));
            self.finalize(id);
            return;
        };
        if ledger.replayed() > 0 {
            self.config.telemetry.incr("orchestrator.resumed");
        }
        campaign.ledger = Some(ledger);
        campaign.rt = Some(Arc::new(rt));
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
        self.settle(id);
    }

    fn handle_lease_ended(
        &mut self,
        slot: usize,
        id: CampaignId,
        lease: &[usize],
        outcome: &LeaseOutcome,
        events: &[Event],
    ) {
        let Some(campaign) = self.campaigns.get_mut(&id) else {
            return;
        };
        campaign.active_leases -= 1;
        absorb_lease(campaign, events);
        if let Some(ledger) = &mut campaign.ledger {
            if campaign.phase != CampaignPhase::Running {
                // A draining campaign books no deaths: its journal keeps
                // exactly the verified prefix a resume replays.
                ledger.release(lease);
            } else {
                match ledger.lease_ended(slot, lease, outcome) {
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
        if campaign.pending_end.is_some() {
            self.settle(id);
        }
    }

    /// Moves a campaign into its pending terminal phase, builds its
    /// outcome, and releases its runtime.
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
        campaign.outcome = Some(CampaignOutcome {
            id,
            name: campaign.name.clone(),
            end,
        });
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

    /// The fleet heartbeat, at most every [`HEARTBEAT_INTERVAL`]; each
    /// campaign's ledger beats on its own merges.
    fn heartbeat(&mut self) {
        let now = Instant::now();
        if !self.config.telemetry.is_enabled()
            || now.duration_since(self.last_fleet_beat) < HEARTBEAT_INTERVAL
        {
            return;
        }
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
        // Every preparation or lease in flight occupies one slot.
        let busy: usize = self.campaigns.values().map(|c| c.active_leases).sum();
        self.config.telemetry.snapshot("orchestrator.progress", || {
            vec![
                ("active".to_owned(), active),
                ("queued".to_owned(), queued),
                ("busy_slots".to_owned(), busy as i64),
            ]
        });
    }

    /// Stops scheduling: cancels the service token and walks every live
    /// campaign to `Cancelled` — at once when idle, else once its
    /// in-flight leases stand down.
    fn begin_shutdown(&mut self) {
        self.shutting_down = true;
        self.service_token.cancel();
        for id in self.live() {
            if let Some(campaign) = self.campaigns.get_mut(&id) {
                campaign.pending_end.get_or_insert(CampaignPhase::Cancelled);
            }
            self.settle(id);
        }
    }

    /// The ids of every non-terminal campaign.
    fn live(&self) -> Vec<CampaignId> {
        self.campaigns
            .values()
            .filter(|c| !c.phase.is_terminal())
            .map(|c| c.data.id)
            .collect()
    }

    /// Every campaign's status, in submit order.
    fn statuses(&self) -> Vec<CampaignStatus> {
        let mut statuses: Vec<CampaignStatus> =
            self.campaigns.values().map(Campaign::status).collect();
        statuses.sort_by_key(|s| s.id);
        statuses
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
    shared: Arc<Shared>,
    slots: Vec<JoinHandle<()>>,
    service_token: CancelToken,
    /// Mutant panics are expected kill signals, not noise: the panic
    /// hook stays silent for the service's lifetime.
    _silencer: PanicSilencer,
}

impl Orchestrator {
    /// Starts the service: `config.slots` persistent slot threads.
    pub fn start(config: OrchestratorConfig) -> Orchestrator {
        let silencer = PanicSilencer::install();
        let slots = config.slots.max(1);
        config.telemetry.gauge("orchestrator.slots", slots as i64);
        let service_token = CancelToken::new();
        let shared = Arc::new(Shared {
            fleet: Mutex::new(Fleet {
                config,
                service_token: service_token.clone(),
                campaigns: HashMap::new(),
                next_id: 1,
                shutting_down: false,
                last_fleet_beat: Instant::now(),
            }),
            wake: Condvar::new(),
        });
        let slots = (0..slots)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || slot_loop(&shared, slot))
            })
            .collect();
        Orchestrator {
            shared,
            slots,
            service_token,
            _silencer: silencer,
        }
    }

    /// Submits a campaign.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] past the admission bound.
    pub fn submit(&self, request: CampaignRequest) -> Result<CampaignId, SubmitError> {
        let admitted = self.shared.lock().admit(request);
        self.shared.wake.notify_all();
        admitted
    }

    /// Cancels a campaign. Returns `true` when the campaign existed and
    /// was not already terminal. The campaign's journal keeps its
    /// verified verdicts; resubmitting the same campaign resumes it.
    pub fn cancel(&self, id: CampaignId) -> bool {
        let cancelled = self.shared.lock().cancel(id);
        self.shared.wake.notify_all();
        cancelled
    }

    /// A point-in-time status of one campaign (`None` for unknown ids).
    pub fn status(&self, id: CampaignId) -> Option<CampaignStatus> {
        self.shared.lock().campaigns.get(&id).map(Campaign::status)
    }

    /// Statuses of every campaign this service instance has seen, in
    /// submit order.
    pub fn list(&self) -> Vec<CampaignStatus> {
        self.shared.lock().statuses()
    }

    /// Blocks until `id` reaches a terminal phase and returns its
    /// outcome (`None` for unknown ids).
    pub fn wait(&self, id: CampaignId) -> Option<CampaignOutcome> {
        let mut fleet = self.shared.lock();
        loop {
            if let Some(outcome) = &fleet.campaigns.get(&id)?.outcome {
                return Some(outcome.clone());
            }
            fleet = self.shared.sleep(fleet, None);
        }
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
        self.stop()
    }

    /// [`Orchestrator::shutdown`], also run by `Drop`.
    fn stop(&mut self) -> Vec<CampaignStatus> {
        self.shared.lock().begin_shutdown();
        self.shared.wake.notify_all();
        for slot in self.slots.drain(..) {
            let _ = slot.join();
        }
        // Every slot booked its last lease, so whatever is left has
        // nothing in flight.
        let mut fleet = self.shared.lock();
        for id in fleet.live() {
            fleet.finalize(id);
        }
        self.shared.wake.notify_all();
        fleet.statuses()
    }
}

impl Drop for Orchestrator {
    fn drop(&mut self) {
        if !self.slots.is_empty() {
            self.stop();
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
