//! The campaign ledger: the one record of what happened to a campaign's
//! mutants.
//!
//! Every executor hands out mutant indices from a [`CampaignLedger`] and
//! merges verdicts back into it: the sequential oracle, the solo slot
//! threads of [`crate::run_mutation_analysis_parallel`] and the
//! [`crate::Orchestrator`]'s leases. The ledger owns the merge order
//! (journal, then the per-status counters, then the verdict slot), the
//! `campaign.progress` heartbeat, and the lease-death ladder: a first
//! death returns the in-flight mutant to the queue, a second convicts it.
//! [`CampaignLedger::lease_ended`] reports what a lease's end means as a
//! [`Ruling`]; each scheduler applies its own policy to it.

use crate::analysis::{
    IsolationMode, KillReason, MutantResult, MutantStatus, MutationConfig, MutationRun,
    QuarantineReason,
};
use crate::enumerate::Mutant;
use crate::journal::{fingerprint_campaign, CampaignJournal};
use concat_driver::{SuiteResult, TestSuite};
use concat_obs::Telemetry;
use concat_runtime::{RetryPolicy, Rng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Minimum spacing of `campaign.progress` heartbeats.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(200);

/// How many consecutive zero-progress lease deaths make a harness
/// failure.
const FUTILE_LEASES: u32 = 3;

/// The slot number of verdicts merged outside any slot (the sequential
/// engine and inline completion): they count in no `w<slot>.done`
/// reading.
pub(crate) const INLINE: usize = usize::MAX;

/// How one lease ended, from the executor's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LeaseOutcome {
    /// Every leased mutant got a verdict.
    Drained,
    /// Cancellation stopped the lease; unemitted verdicts were discarded.
    Aborted,
    /// The lease died: a thread lease's harness panicked, or a process
    /// lease's shard exited with work left.
    Crashed {
        /// The mutant named by the last `shard-begin` without a verdict:
        /// the one the death is blamed on (process leases only; a thread
        /// lease emits the in-flight quarantine itself).
        in_flight: Option<usize>,
        /// The quarantine reason a repeated death convicts with.
        reason: QuarantineReason,
        /// The shard rebuilt a different campaign (hello fingerprint
        /// mismatch), which no retry can fix.
        poisoned: bool,
        /// Verdicts emitted before the death: the progress signal of the
        /// futility guard.
        emitted: u64,
    },
}

impl LeaseOutcome {
    /// A lease whose harness could not even be built.
    pub(crate) const SETUP_FAILED: LeaseOutcome = LeaseOutcome::Crashed {
        in_flight: None,
        reason: QuarantineReason::WorkerCrash,
        poisoned: false,
        emitted: 0,
    };
}

/// What a lease's end means for the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ruling {
    /// Keep leasing, after this respawn backoff (zero unless a process
    /// lease crashed).
    Continue(Duration),
    /// A crash found the restart budget spent (flagged once per
    /// campaign).
    BudgetSpent,
    /// The harness cannot progress: its shard rebuilds another campaign,
    /// or [`FUTILE_LEASES`] leases in a row died without progress.
    HarnessFailure,
}

/// Verdict slots, lease mask, journal and death ladder of one campaign.
pub(crate) struct CampaignLedger {
    verdicts: Vec<Option<MutantStatus>>,
    leased: Vec<bool>,
    journal: JournalState,
    /// Campaign-scoped telemetry: journal spans, per-status counters and
    /// heartbeats nest under the campaign root.
    telemetry: Telemetry,
    replayed: usize,
    done_by_slot: Vec<u64>,
    last_beat: Instant,
    /// Deaths charged per mutant index, with the reason of the latest.
    deaths: BTreeMap<usize, (u32, QuarantineReason)>,
    restarts: usize,
    restarts_left: usize,
    exhaustion_flagged: bool,
    /// Respawn backoff envelope and its jitter stream (process isolation
    /// only).
    backoff: Option<(RetryPolicy, Rng)>,
    respawns: u32,
    /// Consecutive lease deaths without progress.
    futile: u32,
}

impl CampaignLedger {
    /// Opens the campaign's journal (when configured) and pre-fills the
    /// slots with its replayed verdicts. Their per-status counters are
    /// re-emitted (plus one `mutation.replayed` each), so a resumed run's
    /// counter totals match an uninterrupted run's. `slots` is the number
    /// of `w<slot>.done` heartbeat readings; `backoff_salt` is mixed into
    /// the respawn-jitter seed.
    pub(crate) fn open(
        class_name: &str,
        suite: &TestSuite,
        mutants: &[Mutant],
        config: &MutationConfig,
        slots: usize,
        backoff_salt: u64,
        telemetry: &Telemetry,
    ) -> CampaignLedger {
        let (journal, replayed) = JournalState::open(class_name, suite, mutants, config, telemetry);
        let backoff = match &config.isolation {
            IsolationMode::Process(spec) => Some((
                spec.respawn_backoff,
                Rng::seed_from_u64(spec.backoff_seed ^ backoff_salt),
            )),
            IsolationMode::InThread => None,
        };
        let mut ledger = CampaignLedger {
            verdicts: vec![None; mutants.len()],
            leased: vec![false; mutants.len()],
            journal,
            telemetry: telemetry.clone(),
            replayed: 0,
            done_by_slot: vec![0; slots],
            last_beat: Instant::now(),
            deaths: BTreeMap::new(),
            restarts: config.worker_restarts,
            restarts_left: config.worker_restarts,
            exhaustion_flagged: false,
            backoff,
            respawns: 0,
            futile: 0,
        };
        for (index, status) in replayed {
            if ledger.verdicts.get(index).is_none_or(Option::is_some) {
                continue;
            }
            record_status(telemetry, &status);
            telemetry.incr("mutation.replayed");
            ledger.verdicts[index] = Some(status);
            ledger.replayed += 1;
        }
        ledger
    }

    /// The campaign fingerprint computed to open the journal; `None` when
    /// no journal is configured, so a caller that needs it (process
    /// shards) computes it only then.
    pub(crate) fn fingerprint(&self) -> Option<u32> {
        self.journal.fingerprint
    }

    /// Verdicts replayed from the journal when the ledger opened.
    pub(crate) fn replayed(&self) -> usize {
        self.replayed
    }

    /// Mutants with a verdict.
    pub(crate) fn done(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_some()).count()
    }

    /// Indices of the mutants still without a verdict, leased or not.
    pub(crate) fn unfinished(&self) -> Vec<usize> {
        (0..self.verdicts.len())
            .filter(|&index| self.verdicts[index].is_none())
            .collect()
    }

    /// True while some unfinished mutant is not out on a lease.
    pub(crate) fn has_unleased_work(&self) -> bool {
        self.verdicts
            .iter()
            .zip(&self.leased)
            .any(|(verdict, leased)| verdict.is_none() && !leased)
    }

    /// Leases up to `size` unfinished, unleased mutants, lowest index
    /// first. Empty when there is nothing left to hand out.
    pub(crate) fn take_lease(&mut self, size: usize) -> Vec<usize> {
        let mut lease = Vec::new();
        for index in 0..self.verdicts.len() {
            if lease.len() == size {
                break;
            }
            if self.verdicts[index].is_none() && !self.leased[index] {
                self.leased[index] = true;
                lease.push(index);
            }
        }
        lease
    }

    /// Closes the journal; later merges stay in memory only. Every
    /// append was fsynced, so nothing is lost.
    pub(crate) fn close_journal(&mut self) {
        self.journal.inner = None;
    }

    /// Returns the unfinished indices of an ended lease to the queue.
    pub(crate) fn release(&mut self, lease: &[usize]) {
        for &index in lease {
            if let (Some(None), Some(leased)) =
                (self.verdicts.get(index), self.leased.get_mut(index))
            {
                *leased = false;
            }
        }
    }

    /// Merges one verdict: write-ahead journal append, then the
    /// per-status counters, then the slot, then `slot`'s done count.
    /// Returns `false`, changing nothing, for an out-of-range index or a
    /// mutant that already has a verdict.
    pub(crate) fn merge(&mut self, slot: usize, index: usize, status: MutantStatus) -> bool {
        if self.verdicts.get(index).is_none_or(Option::is_some) {
            return false;
        }
        self.journal.record(index, &status);
        record_status(&self.telemetry, &status);
        self.verdicts[index] = Some(status);
        if let Some(done) = self.done_by_slot.get_mut(slot) {
            *done += 1;
        }
        if self.telemetry.is_enabled() && self.last_beat.elapsed() >= HEARTBEAT_INTERVAL {
            self.heartbeat();
        }
        true
    }

    /// Books the end of `slot`'s lease and rules on it. The lease's
    /// unfinished indices go back to the queue. A crash charges a death
    /// to its in-flight mutant, if that mutant belongs to the lease: the
    /// first death only requeues it (an innocent mutant whose shard was
    /// killed from outside must re-execute for byte-identical reports),
    /// the second convicts it with the reason of that death. A crash
    /// with work left then spends one restart, and a process campaign's
    /// next lease waits out a jittered backoff.
    pub(crate) fn lease_ended(
        &mut self,
        slot: usize,
        lease: &[usize],
        outcome: &LeaseOutcome,
    ) -> Ruling {
        self.release(lease);
        let LeaseOutcome::Crashed {
            in_flight,
            reason,
            poisoned,
            emitted,
        } = *outcome
        else {
            if *outcome == LeaseOutcome::Drained {
                self.futile = 0;
            }
            return Ruling::Continue(Duration::ZERO);
        };
        if poisoned {
            return Ruling::HarnessFailure;
        }
        let mut progress = emitted > 0;
        if let Some(index) = in_flight.filter(|index| {
            lease.contains(index) && self.verdicts.get(*index).is_some_and(Option::is_none)
        }) {
            progress = true;
            let deaths = self.deaths.entry(index).or_insert((0, reason));
            *deaths = (deaths.0 + 1, reason);
            if deaths.0 >= 2 {
                self.merge(slot, index, MutantStatus::Quarantined { reason });
            }
        }
        if progress {
            self.futile = 0;
        } else {
            self.futile += 1;
            if self.futile >= FUTILE_LEASES {
                return Ruling::HarnessFailure;
            }
        }
        if !self.has_unleased_work() {
            return Ruling::Continue(Duration::ZERO);
        }
        if self.restarts_left == 0 {
            if !self.exhaustion_flagged {
                self.exhaustion_flagged = true;
                self.flag_restart_exhaustion();
            }
            return Ruling::BudgetSpent;
        }
        self.restarts_left -= 1;
        let Some((policy, rng)) = &mut self.backoff else {
            return Ruling::Continue(Duration::ZERO);
        };
        self.respawns += 1;
        self.telemetry.incr("mutation.shard_respawn");
        Ruling::Continue(policy.jittered_delay(self.respawns, rng))
    }

    /// Quarantines every unfinished mutant ever blamed for a lease death
    /// with its recorded reason: a known process-killer never runs in the
    /// supervising process.
    pub(crate) fn convict_blamed(&mut self) {
        let blamed: Vec<(usize, QuarantineReason)> = self
            .deaths
            .iter()
            .map(|(&index, &(_, reason))| (index, reason))
            .collect();
        for (index, reason) in blamed {
            self.merge(INLINE, index, MutantStatus::Quarantined { reason });
        }
    }

    /// Surfaces `worker_restarts` exhaustion: a
    /// `mutation.restarts_exhausted` counter for the harness-health table
    /// and a `campaign.degraded` event recording how much work was left.
    fn flag_restart_exhaustion(&self) {
        let queued = self.verdicts.len() - self.done();
        self.telemetry.incr("mutation.restarts_exhausted");
        self.telemetry.snapshot("campaign.degraded", || {
            vec![
                ("restarts_spent".to_owned(), self.restarts as i64),
                ("queued".to_owned(), queued as i64),
            ]
        });
    }

    /// Emits a `campaign.progress` snapshot now: mutants done / queued /
    /// quarantined, plus each slot's verdict count. The readings closure
    /// is lazy, so a disabled handle pays nothing.
    pub(crate) fn heartbeat(&mut self) {
        self.last_beat = Instant::now();
        let (verdicts, done_by_slot) = (&self.verdicts, &self.done_by_slot);
        self.telemetry.snapshot("campaign.progress", || {
            let done = verdicts.iter().filter(|v| v.is_some()).count() as i64;
            let quarantined = verdicts
                .iter()
                .filter(|v| v.as_ref().is_some_and(MutantStatus::is_quarantined))
                .count() as i64;
            let mut readings = vec![
                ("done".to_owned(), done),
                ("queued".to_owned(), verdicts.len() as i64 - done),
                ("quarantined".to_owned(), quarantined),
            ];
            for (slot, count) in done_by_slot.iter().enumerate() {
                readings.push((format!("w{slot}.done"), *count as i64));
            }
            readings
        });
    }

    /// The per-mutant results in enumeration order. A mutant left without
    /// a verdict is quarantined as [`QuarantineReason::WorkerCrash`]
    /// (fail-safe) instead of panicking away the campaign.
    pub(crate) fn results(&self, mutants: &[Mutant]) -> Vec<MutantResult> {
        mutants
            .iter()
            .zip(&self.verdicts)
            .map(|(mutant, verdict)| MutantResult {
                mutant: mutant.clone(),
                status: verdict.clone().unwrap_or(MutantStatus::Quarantined {
                    reason: QuarantineReason::WorkerCrash,
                }),
            })
            .collect()
    }

    /// The finished campaign: its results, with the `mutant.equivalent`
    /// gauge set.
    pub(crate) fn finish(&self, mutants: &[Mutant], golden: SuiteResult) -> MutationRun {
        let results = self.results(mutants);
        let equivalents = results.iter().filter(|r| r.status.is_equivalent()).count();
        self.telemetry
            .gauge("mutant.equivalent", equivalents as i64);
        MutationRun { results, golden }
    }
}

/// Emits the per-status counters for one classified mutant.
fn record_status(telemetry: &Telemetry, status: &MutantStatus) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.incr(match status {
        MutantStatus::Killed { reason, .. } => match reason {
            KillReason::Crash => "mutant.killed.crash",
            KillReason::Assertion => "mutant.killed.assertion",
            KillReason::OutputDiff => "mutant.killed.output_diff",
        },
        MutantStatus::Survived => "mutant.survived",
        MutantStatus::PresumedEquivalent => "mutant.equivalent.presumed",
        MutantStatus::Quarantined { reason } => match reason {
            QuarantineReason::Timeout => "mutant.quarantined.timeout",
            QuarantineReason::Budget => "mutant.quarantined.budget",
            QuarantineReason::RepeatedCrash => "mutant.quarantined.repeated_crash",
            QuarantineReason::WorkerCrash => "mutant.quarantined.worker_crash",
            QuarantineReason::ShardAbort => "mutant.quarantined.shard_abort",
            QuarantineReason::ShardSignal => "mutant.quarantined.shard_signal",
            QuarantineReason::ShardUnresponsive => "mutant.quarantined.shard_unresponsive",
        },
    });
    if status.is_quarantined() {
        telemetry.incr("mutation.quarantined");
    }
}

/// Journal wiring for one campaign: opened (with torn-tail recovery) from
/// `config.journal_path`, it surfaces the replayed verdicts and appends
/// new ones. Journal I/O failures *degrade*: the campaign continues
/// without durability and `harden.degraded` is counted, because losing
/// the journal must never lose the run (the in-memory verdicts stay
/// authoritative, like the other retry-then-degrade consumers).
struct JournalState {
    inner: Option<CampaignJournal>,
    /// The campaign fingerprint of the journal header; computed only when
    /// a journal is configured.
    fingerprint: Option<u32>,
    telemetry: Telemetry,
}

impl JournalState {
    /// `telemetry` is the campaign-scoped handle, so `journal` spans nest
    /// under the campaign root in the flight recorder.
    fn open(
        class_name: &str,
        suite: &TestSuite,
        mutants: &[Mutant],
        config: &MutationConfig,
        telemetry: &Telemetry,
    ) -> (JournalState, Vec<(usize, MutantStatus)>) {
        let telemetry = telemetry.clone();
        let Some(path) = &config.journal_path else {
            return (
                JournalState {
                    inner: None,
                    fingerprint: None,
                    telemetry,
                },
                Vec::new(),
            );
        };
        let open_span = telemetry.span("journal", "open");
        let (fingerprint, features) =
            fingerprint_campaign(class_name, suite, mutants, config, config.incremental);
        let features = config.incremental.then_some(features.as_slice());
        let resumed = CampaignJournal::open(path, fingerprint, features, mutants.len());
        open_span.finish();
        let (inner, replayed) = match resumed {
            Ok(resume) => {
                if resume.rebuilt {
                    telemetry.incr("mutation.incremental_rebuild");
                }
                (Some(resume.journal), resume.replayed)
            }
            Err(_) => {
                telemetry.incr("harden.degraded");
                (None, Vec::new())
            }
        };
        let state = JournalState {
            inner,
            fingerprint: Some(fingerprint),
            telemetry,
        };
        (state, replayed)
    }

    /// Write-ahead append of one verdict, before it is merged into its
    /// slot.
    fn record(&mut self, index: usize, status: &MutantStatus) {
        if let Some(journal) = &mut self.inner {
            let _span = self.telemetry.span("journal", "append");
            if journal.record(index, status).is_err() {
                self.telemetry.incr("harden.degraded");
                self.inner = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_mutants;
    use crate::inventory::{ClassInventory, MethodInventory};
    use crate::journal::campaign_fingerprint;
    use concat_driver::SuiteStats;
    use concat_obs::MemorySink;
    use std::sync::Arc;

    fn mutants() -> Vec<Mutant> {
        let inventory = ClassInventory::new("C").method(
            MethodInventory::new("M")
                .locals(["i"])
                .site(0, "i", "index"),
        );
        enumerate_mutants(&inventory, &["M"])
    }

    fn ledger(mutants: &[Mutant], restarts: usize, sink: &Arc<MemorySink>) -> CampaignLedger {
        let suite = TestSuite {
            class_name: "C".into(),
            seed: 0,
            cases: Vec::new(),
            stats: SuiteStats::default(),
        };
        let config = MutationConfig {
            worker_restarts: restarts,
            ..MutationConfig::default()
        };
        let telemetry = Telemetry::new(sink.clone());
        CampaignLedger::open("C", &suite, mutants, &config, 2, 0, &telemetry)
    }

    fn death(in_flight: usize, reason: QuarantineReason) -> LeaseOutcome {
        LeaseOutcome::Crashed {
            in_flight: Some(in_flight),
            reason,
            poisoned: false,
            emitted: 0,
        }
    }

    #[test]
    fn a_first_death_requeues_the_in_flight_mutant() {
        let mutants = mutants();
        let sink = Arc::new(MemorySink::new());
        let mut ledger = ledger(&mutants, 4, &sink);
        assert_eq!(ledger.fingerprint(), None, "no journal, no fingerprint");
        let lease = ledger.take_lease(3);
        assert_eq!(lease, vec![0, 1, 2]);
        let ruling = ledger.lease_ended(0, &lease, &death(1, QuarantineReason::ShardAbort));
        assert_eq!(ruling, Ruling::Continue(Duration::ZERO));
        assert_eq!(ledger.done(), 0, "a first death convicts nobody");
        assert_eq!(ledger.take_lease(3), vec![0, 1, 2], "all three requeued");
    }

    #[test]
    fn a_second_death_convicts_with_its_reason_and_journals_once() {
        let dir = std::env::temp_dir().join("concat-ledger-conviction");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.journal");
        let mutants = mutants();
        let sink = Arc::new(MemorySink::new());
        let suite = TestSuite {
            class_name: "C".into(),
            seed: 0,
            cases: Vec::new(),
            stats: SuiteStats::default(),
        };
        let config = MutationConfig {
            journal_path: Some(path.clone()),
            ..MutationConfig::default()
        };
        let telemetry = Telemetry::new(sink.clone());
        let mut ledger = CampaignLedger::open("C", &suite, &mutants, &config, 2, 0, &telemetry);
        let lease = ledger.take_lease(2);
        ledger.lease_ended(0, &lease, &death(1, QuarantineReason::ShardSignal));
        let lease = ledger.take_lease(2);
        ledger.lease_ended(1, &lease, &death(1, QuarantineReason::ShardUnresponsive));
        let convicted = MutantStatus::Quarantined {
            reason: QuarantineReason::ShardUnresponsive,
        };
        assert_eq!(ledger.results(&mutants)[1].status, convicted);
        assert_eq!(ledger.done(), 1);
        // A third report of the same death changes nothing.
        ledger.lease_ended(1, &[1], &death(1, QuarantineReason::ShardAbort));
        ledger.convict_blamed();
        assert_eq!(ledger.results(&mutants)[1].status, convicted);
        assert_eq!(
            sink.counter_total("mutant.quarantined.shard_unresponsive"),
            1
        );
        let fingerprint = campaign_fingerprint("C", &suite, &mutants, &config);
        assert_eq!(ledger.fingerprint(), Some(fingerprint));
        drop(ledger);
        let (_, replayed) = CampaignJournal::resume(&path, fingerprint, mutants.len()).unwrap();
        assert_eq!(replayed, vec![(1, convicted)], "journaled exactly once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn futile_leases_report_a_harness_failure_and_progress_resets_the_count() {
        let mutants = mutants();
        let sink = Arc::new(MemorySink::new());
        let mut ledger = ledger(&mutants, 100, &sink);
        let end = |ledger: &mut CampaignLedger, outcome: LeaseOutcome| {
            let lease = ledger.take_lease(2);
            ledger.lease_ended(0, &lease, &outcome)
        };
        assert!(matches!(
            end(&mut ledger, LeaseOutcome::SETUP_FAILED),
            Ruling::Continue(_)
        ));
        assert!(matches!(
            end(&mut ledger, LeaseOutcome::SETUP_FAILED),
            Ruling::Continue(_)
        ));
        // Progress (a charged death) resets the count...
        let lease = ledger.take_lease(2);
        let charged = death(lease[0], QuarantineReason::ShardAbort);
        assert!(matches!(
            ledger.lease_ended(0, &lease, &charged),
            Ruling::Continue(_)
        ));
        // ...so it takes three fresh futile deaths to fail the harness.
        for _ in 0..2 {
            assert!(matches!(
                end(&mut ledger, LeaseOutcome::SETUP_FAILED),
                Ruling::Continue(_)
            ));
        }
        assert_eq!(
            end(&mut ledger, LeaseOutcome::SETUP_FAILED),
            Ruling::HarnessFailure
        );
        // A poisoned shard fails the harness at once.
        let poisoned = LeaseOutcome::Crashed {
            in_flight: None,
            reason: QuarantineReason::ShardSignal,
            poisoned: true,
            emitted: 3,
        };
        assert_eq!(end(&mut ledger, poisoned), Ruling::HarnessFailure);
    }

    #[test]
    fn restart_exhaustion_is_flagged_exactly_once_with_the_queued_count() {
        let mutants = mutants();
        let sink = Arc::new(MemorySink::new());
        let mut ledger = ledger(&mutants, 1, &sink);
        let crash = LeaseOutcome::Crashed {
            in_flight: None,
            reason: QuarantineReason::WorkerCrash,
            poisoned: false,
            emitted: 1,
        };
        let lease = ledger.take_lease(1);
        assert!(ledger.merge(0, lease[0], MutantStatus::Survived));
        assert_eq!(
            ledger.lease_ended(0, &lease, &crash),
            Ruling::Continue(Duration::ZERO),
            "the first crash spends the one restart"
        );
        for _ in 0..3 {
            let lease = ledger.take_lease(1);
            assert_eq!(ledger.lease_ended(0, &lease, &crash), Ruling::BudgetSpent);
        }
        assert_eq!(sink.counter_total("mutation.restarts_exhausted"), 1);
        let degraded: Vec<_> = sink
            .summary()
            .snapshots
            .into_iter()
            .filter(|s| s.name == "campaign.degraded")
            .collect();
        assert_eq!(degraded.len(), 1);
        let queued = (mutants.len() - 1) as i64;
        assert!(degraded[0]
            .readings
            .contains(&("queued".to_owned(), queued)));
    }

    #[test]
    fn duplicate_and_out_of_range_merges_are_ignored() {
        let mutants = mutants();
        let sink = Arc::new(MemorySink::new());
        let mut ledger = ledger(&mutants, 4, &sink);
        assert!(ledger.merge(0, 0, MutantStatus::Survived));
        assert!(!ledger.merge(1, 0, MutantStatus::PresumedEquivalent));
        assert!(!ledger.merge(1, mutants.len(), MutantStatus::Survived));
        assert!(!ledger.merge(1, usize::MAX, MutantStatus::Survived));
        assert_eq!(ledger.done(), 1);
        assert_eq!(ledger.results(&mutants)[0].status, MutantStatus::Survived);
        assert_eq!(sink.counter_total("mutant.survived"), 1);
        assert_eq!(sink.counter_total("mutant.equivalent.presumed"), 0);
        // Releasing an out-of-range or finished index is a no-op too.
        ledger.release(&[0, mutants.len()]);
        assert!(!ledger.take_lease(usize::MAX).contains(&0));
    }
}
