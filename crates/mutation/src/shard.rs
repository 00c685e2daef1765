//! Process-isolated mutant shards: the supervisor and the worker halves
//! of [`IsolationMode::Process`].
//!
//! Thread shards contain everything that *unwinds*; they cannot contain a
//! mutant that calls `std::process::abort()`, overflows the stack, or
//! spins in a loop with no cooperative checkpoint. Process shards put a
//! kernel-enforced boundary around each slice of the mutant queue:
//!
//! * The **supervisor** ([`run_process_shards`]) self-execs the current
//!   binary once per shard ([`ProcessIsolation::worker_args`] names the
//!   hidden entry point), hands each child a slice of the queue via
//!   `CONCAT_SHARD_*` environment variables, and reads verdicts off the
//!   child's stdout through the runtime's checksummed frame codec —
//!   a SIGKILL mid-frame tears at a frame boundary, detected and dropped
//!   exactly like a torn journal tail.
//! * The **worker** ([`run_shard_worker`]) rebuilds the identical
//!   campaign (the fingerprint is verified before any mutant runs),
//!   computes its own golden baseline, and classifies its assigned
//!   mutants with the same [`Engine`] the thread pool uses, framing each
//!   verdict with [`encode_verdict`].
//!
//! Liveness is heartbeat-based: every frame is proof of life, and a
//! `shard-begin` frame additionally names the in-flight mutant, so when a
//! shard dies — abort, signal, or a missed heartbeat deadline answered
//! with the SIGTERM→SIGKILL ladder — the supervisor knows exactly which
//! mutant to blame. Blame is charged on the *second* death (the mutant is
//! retried once first), so an innocent mutant whose shard was killed from
//! outside re-executes and the campaign stays byte-identical to an
//! uninterrupted one; a mutant that reproducibly kills its host is
//! quarantined with a process-level [`QuarantineReason`] and the campaign
//! completes without it.

use crate::analysis::{
    build_runner, campaign_heartbeat, collect_slots, finish_run, flag_restart_exhaustion,
    persist_coverage, record_status, replay_slots, DrainEnd, Engine, JournalState, MutantResult,
    MutantStatus, MutationConfig, MutationRun, PanicSilencer, ProcessIsolation, QuarantineReason,
    HEARTBEAT_INTERVAL, SUPERVISOR_POLL,
};
use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use crate::journal::{campaign_fingerprint, decode_verdict, encode_verdict};
use concat_driver::TestSuite;
use concat_obs::Telemetry;
use concat_runtime::{
    classify_exit, encode_frame, terminate_child, wait_with_deadline, ExitClass, FrameDecoder,
    Liveness, Rng,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Instant;

/// Environment variable carrying a shard's assigned mutant indices
/// (comma-separated enumeration indices).
pub const SHARD_INDICES_ENV: &str = "CONCAT_SHARD_INDICES";

/// Environment variable carrying the supervisor's campaign fingerprint
/// (8 hex digits); the worker recomputes and must match before running
/// anything.
pub const SHARD_FINGERPRINT_ENV: &str = "CONCAT_SHARD_FINGERPRINT";

/// Worker exit codes (all nonzero codes are supervision failures, not
/// mutant verdicts).
const EXIT_OK: i32 = 0;
const EXIT_BAD_ENV: i32 = 2;
const EXIT_FINGERPRINT_MISMATCH: i32 = 3;
const EXIT_PIPE_CLOSED: i32 = 4;

/// True when the current process was launched as a shard worker (the
/// protocol environment variables are present). Entry points call this
/// to decide between normal operation and [`run_shard_worker`].
pub fn shard_worker_requested() -> bool {
    std::env::var_os(SHARD_INDICES_ENV).is_some()
}

/// One frame from worker to supervisor, parsed.
pub(crate) enum ShardFrame {
    /// First frame: the worker's recomputed campaign fingerprint.
    Hello(u32),
    /// The worker is about to execute this mutant index (doubles as the
    /// heartbeat between mutants).
    Begin(usize),
    /// One classified mutant.
    Verdict(usize, MutantStatus),
    /// The worker finished its slice and is exiting cleanly.
    Done,
    /// A verified frame that is none of ours (ignored).
    Foreign,
}

pub(crate) fn parse_frame(payload: &str) -> ShardFrame {
    if let Some(rest) = payload.strip_prefix("shard-hello ") {
        if let Ok(fp) = u32::from_str_radix(rest, 16) {
            return ShardFrame::Hello(fp);
        }
    }
    if let Some(rest) = payload.strip_prefix("shard-begin ") {
        if let Ok(index) = rest.parse() {
            return ShardFrame::Begin(index);
        }
    }
    if let Some((index, status)) = decode_verdict(payload) {
        return ShardFrame::Verdict(index, status);
    }
    if payload == "shard-done" {
        return ShardFrame::Done;
    }
    ShardFrame::Foreign
}

/// Writes protocol frames straight to the process's stdout (bypassing
/// any capture the host harness installed) and flushes per frame, so a
/// kill between frames never tears one.
struct FrameWriter {
    out: std::io::Stdout,
}

impl FrameWriter {
    fn new() -> Self {
        FrameWriter {
            out: std::io::stdout(),
        }
    }

    /// Emits one frame; `false` when the pipe is gone (supervisor died —
    /// the worker should exit, there is nobody left to report to).
    fn emit(&mut self, payload: &str) -> bool {
        let Ok(frame) = encode_frame(payload) else {
            return false;
        };
        let mut lock = self.out.lock();
        lock.write_all(frame.as_bytes()).is_ok() && lock.flush().is_ok()
    }
}

/// The worker half: rebuilds the campaign, runs the assigned slice, and
/// streams frames to stdout. Returns the process exit code — callers
/// (hidden `shard-worker` entry points) pass it to [`std::process::exit`].
///
/// The caller must rebuild `suite`, `mutants` and `config` **exactly** as
/// the supervising campaign did (same seeds, budget, probes); the
/// fingerprint handshake aborts the shard before any mutant runs if they
/// diverge. Telemetry and the journal are supervisor concerns: the worker
/// runs with telemetry detached and never touches the journal file (two
/// writers would corrupt it) regardless of `config`.
pub fn run_shard_worker(
    shards: &dyn ClonableFactory,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
) -> i32 {
    let _hook_guard = config.silence_panics.then(PanicSilencer::install);
    let Ok(indices_var) = std::env::var(SHARD_INDICES_ENV) else {
        return EXIT_BAD_ENV;
    };
    let Ok(expected_var) = std::env::var(SHARD_FINGERPRINT_ENV) else {
        return EXIT_BAD_ENV;
    };
    let Ok(expected) = u32::from_str_radix(&expected_var, 16) else {
        return EXIT_BAD_ENV;
    };
    let indices: Vec<usize> = indices_var
        .split(',')
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();

    let mut out = FrameWriter::new();
    let fingerprint = campaign_fingerprint(shards.class_name(), suite, mutants, config);
    if !out.emit(&format!("shard-hello {fingerprint:08x}")) {
        return EXIT_PIPE_CLOSED;
    }
    if fingerprint != expected {
        return EXIT_FINGERPRINT_MISMATCH;
    }

    let telemetry = Telemetry::disabled();
    let switch = MutationSwitch::new();
    let factory = shards.build_factory(&switch);
    let runner = build_runner(config, &telemetry, &switch);
    switch.disarm();
    let baseline = crate::analysis::run_golden(
        &runner,
        factory.as_ref(),
        suite,
        mutants,
        config,
        &telemetry,
    );
    let engine = Engine::new(
        suite,
        mutants,
        config,
        &baseline,
        vec![false; mutants.len()],
    );

    for index in indices {
        let Some(mutant) = mutants.get(index) else {
            continue;
        };
        if !out.emit(&format!("shard-begin {index}")) {
            return EXIT_PIPE_CLOSED;
        }
        // The same two containment layers as a thread worker: the runner
        // catches case panics, and this catch contains engine-adjacent
        // ones. What neither can catch — abort, stack overflow, a loop
        // with no checkpoint — is exactly what the process boundary and
        // the supervisor's heartbeat deadline exist for.
        let status = match catch_unwind(AssertUnwindSafe(|| {
            engine.classify(factory.as_ref(), &switch, &runner, &telemetry, mutant)
        })) {
            Ok(status) => status,
            Err(_panic) => MutantStatus::Quarantined {
                reason: QuarantineReason::WorkerCrash,
            },
        };
        if !out.emit(&encode_verdict(index, &status)) {
            return EXIT_PIPE_CLOSED;
        }
    }
    switch.disarm();
    if !out.emit("shard-done") {
        return EXIT_PIPE_CLOSED;
    }
    EXIT_OK
}

/// What a reader thread reports about its shard's stdout.
enum ShardEvent {
    /// One verified frame payload.
    Frame(String),
    /// The pipe closed: complete-but-invalid lines dropped by the
    /// decoder, plus whether a torn (unterminated) tail was left behind.
    Eof { dropped: u64, torn: bool },
}

/// One live shard from the supervisor's side.
struct LiveShard {
    /// Respawn generation; events tagged with an older generation belong
    /// to a corpse that has already been fully handled.
    generation: u64,
    child: Child,
    reader: Option<std::thread::JoinHandle<()>>,
    liveness: Liveness,
    /// The mutant named by the last `shard-begin` without a matching
    /// verdict — the one a death gets blamed on.
    in_flight: Option<usize>,
    /// Set when the supervisor killed this shard for a missed heartbeat;
    /// overrides exit classification (the corpse shows our SIGKILL, but
    /// the story is the unresponsive mutant).
    killed_unresponsive: bool,
    /// True once the hello fingerprint failed: the worker rebuilt a
    /// different campaign, so respawning it would fail forever.
    poisoned: bool,
}

/// Maps how a shard died to the quarantine reason its in-flight mutant
/// earns on repeated deaths.
pub(crate) fn death_reason(class: ExitClass, killed_unresponsive: bool) -> QuarantineReason {
    if killed_unresponsive {
        return QuarantineReason::ShardUnresponsive;
    }
    match class {
        ExitClass::Abort => QuarantineReason::ShardAbort,
        _ => QuarantineReason::ShardSignal,
    }
}

/// The supervisor half of [`IsolationMode::Process`]; reached through
/// [`crate::run_mutation_analysis_parallel`] when the config carries a
/// process isolation spec.
///
/// The golden baseline, journal, coverage artefact and all telemetry stay
/// in this process; shards compute their own baseline (they share nothing
/// but the deterministic campaign inputs) and stream verdicts back. The
/// merge is by enumeration index into the same slot vector the thread
/// pool uses, so verdicts, score and tables are byte-identical across
/// isolation modes and shard counts.
pub(crate) fn run_process_shards(
    shards: &dyn ClonableFactory,
    suite: &TestSuite,
    mutants: &[Mutant],
    config: &MutationConfig,
    spec: &ProcessIsolation,
) -> MutationRun {
    let _hook_guard = config.silence_panics.then(PanicSilencer::install);
    let run_span = config.telemetry.span("mutation", shards.class_name());
    let scoped = config.telemetry.at(run_span.id());
    let telemetry = &scoped;
    let (mut journal, replayed) =
        JournalState::open(shards.class_name(), suite, mutants, config, telemetry);

    // The supervisor runs its own golden baseline: the final
    // `MutationRun` carries it, degraded inline completion executes
    // against it, and it costs one suite pass — the price of sharing
    // nothing mutable with the children.
    let golden_switch = MutationSwitch::new();
    let golden_factory = shards.build_factory(&golden_switch);
    let runner = build_runner(config, telemetry, &golden_switch);
    let baseline = crate::analysis::run_golden(
        &runner,
        golden_factory.as_ref(),
        suite,
        mutants,
        config,
        telemetry,
    );
    persist_coverage(config, &baseline, journal.fingerprint(), telemetry);

    let (mut slots, _) = replay_slots(mutants, replayed, telemetry);
    let unfinished: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, slot)| slot.is_none())
        .map(|(index, _)| index)
        .collect();
    let shard_count = config.workers.clamp(1, unfinished.len().max(1));
    telemetry.gauge("mutation.workers", shard_count as i64);
    let fingerprint = campaign_fingerprint(shards.class_name(), suite, mutants, config);

    // Static round-robin assignment: shard k owns every k-th unfinished
    // index. Respawns re-receive their slot's remainder, so ownership
    // never migrates and blame stays unambiguous.
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for (position, index) in unfinished.iter().enumerate() {
        assigned[position % shard_count].push(*index);
    }

    let mut live: Vec<Option<LiveShard>> = Vec::with_capacity(shard_count);
    let mut done_by_shard: Vec<u64> = vec![0; shard_count];
    // Deaths per mutant index, and the reason recorded at blame time —
    // a once-blamed mutant is never run in the supervisor process.
    let mut death_count: HashMap<usize, u32> = HashMap::new();
    let mut blamed_reason: HashMap<usize, QuarantineReason> = HashMap::new();
    let mut restarts_left = config.worker_restarts;
    let mut exhaustion_flagged = false;
    let mut respawns = 0u32;
    let mut backoff_rng = Rng::seed_from_u64(spec.backoff_seed);
    let (tx, rx) = mpsc::channel::<(usize, u64, ShardEvent)>();

    let remaining_of = |assigned: &[Vec<usize>], slots: &[Option<MutantResult>], slot: usize| {
        assigned[slot]
            .iter()
            .filter(|index| slots[**index].is_none())
            .copied()
            .collect::<Vec<usize>>()
    };

    let spawn_shard = |slot: usize,
                       generation: u64,
                       indices: &[usize],
                       tx: &mpsc::Sender<(usize, u64, ShardEvent)>|
     -> Option<LiveShard> {
        let exe = std::env::current_exe().ok()?;
        let csv = indices
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut command = Command::new(exe);
        command
            .args(&spec.worker_args)
            .env(SHARD_INDICES_ENV, csv)
            .env(SHARD_FINGERPRINT_ENV, format!("{fingerprint:08x}"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (key, value) in &spec.worker_env {
            command.env(key, value);
        }
        let mut child = command.spawn().ok()?;
        let stdout = child.stdout.take()?;
        let tx = tx.clone();
        let reader = std::thread::spawn(move || {
            let mut stdout = stdout;
            let mut decoder = FrameDecoder::new();
            let mut chunk = [0u8; 4096];
            loop {
                match stdout.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        for payload in decoder.push(&chunk[..n]) {
                            if tx
                                .send((slot, generation, ShardEvent::Frame(payload)))
                                .is_err()
                            {
                                return;
                            }
                        }
                    }
                }
            }
            let _ = tx.send((
                slot,
                generation,
                ShardEvent::Eof {
                    dropped: decoder.dropped(),
                    torn: decoder.pending_bytes() > 0,
                },
            ));
        });
        Some(LiveShard {
            generation,
            child,
            reader: Some(reader),
            liveness: Liveness::new(spec.startup_grace, spec.heartbeat_timeout),
            in_flight: None,
            killed_unresponsive: false,
            poisoned: false,
        })
    };

    let mut active = 0usize;
    for (slot, indices) in assigned.iter().enumerate() {
        if indices.is_empty() {
            live.push(None);
            continue;
        }
        match spawn_shard(slot, 0, indices, &tx) {
            Some(shard) => {
                live.push(Some(shard));
                active += 1;
            }
            None => {
                // Spawn failed outright (exe unavailable?): the slot's
                // work falls through to inline completion.
                telemetry.incr("harden.degraded");
                live.push(None);
            }
        }
    }

    let mut last_beat = Instant::now();
    while active > 0 {
        match rx.recv_timeout(SUPERVISOR_POLL) {
            Ok((slot, generation, event)) => {
                let stale = live[slot]
                    .as_ref()
                    .is_none_or(|shard| shard.generation != generation);
                if stale {
                    // A corpse's queued frames: its death was already
                    // handled (verdicts merged before the respawn), so
                    // anything left is noise.
                    continue;
                }
                match event {
                    ShardEvent::Frame(payload) => {
                        let Some(shard) = live[slot].as_mut() else {
                            continue;
                        };
                        shard.liveness.beat();
                        match parse_frame(&payload) {
                            ShardFrame::Hello(fp) if fp == fingerprint => {}
                            ShardFrame::Hello(_) => {
                                // The worker rebuilt a different campaign:
                                // a config bug, deterministic on respawn.
                                // Kill the shard and leave its slice to
                                // inline completion.
                                shard.poisoned = true;
                                telemetry.incr("harden.degraded");
                                let _ = terminate_child(&mut shard.child, spec.term_grace);
                            }
                            ShardFrame::Begin(index) => {
                                shard.in_flight = Some(index);
                            }
                            ShardFrame::Verdict(index, status) => {
                                if index < slots.len() && slots[index].is_none() {
                                    journal.record(index, &status);
                                    record_status(telemetry, &status);
                                    slots[index] = Some(MutantResult {
                                        mutant: mutants[index].clone(),
                                        status,
                                    });
                                    done_by_shard[slot] += 1;
                                }
                                if shard.in_flight == Some(index) {
                                    shard.in_flight = None;
                                }
                            }
                            ShardFrame::Done | ShardFrame::Foreign => {}
                        }
                    }
                    ShardEvent::Eof { dropped, torn } => {
                        let Some(mut shard) = live[slot].take() else {
                            continue;
                        };
                        active -= 1;
                        let torn_frames = dropped + u64::from(torn);
                        if torn_frames > 0 {
                            telemetry.incr_by("mutation.frames_dropped", torn_frames);
                        }
                        if let Some(reader) = shard.reader.take() {
                            let _ = reader.join();
                        }
                        let class = match wait_with_deadline(&mut shard.child, spec.term_grace) {
                            Ok(status) => classify_exit(status),
                            Err(_) => ExitClass::Signal(-1),
                        };
                        let remaining = remaining_of(&assigned, &slots, slot);
                        if remaining.is_empty() || shard.poisoned {
                            // Retired: slice complete (or unfixable).
                            continue;
                        }
                        // Death with work left. Blame the in-flight
                        // mutant: first death returns it to the slice
                        // (an innocent mutant killed from outside must
                        // re-execute for byte-identical reports); the
                        // second death quarantines it with the reason
                        // derived from how the shard died.
                        if let Some(index) = shard.in_flight {
                            let deaths = death_count.entry(index).or_insert(0);
                            *deaths += 1;
                            let reason = death_reason(class, shard.killed_unresponsive);
                            blamed_reason.insert(index, reason);
                            if *deaths >= 2 && slots[index].is_none() {
                                let status = MutantStatus::Quarantined { reason };
                                journal.record(index, &status);
                                record_status(telemetry, &status);
                                slots[index] = Some(MutantResult {
                                    mutant: mutants[index].clone(),
                                    status,
                                });
                                done_by_shard[slot] += 1;
                            }
                        }
                        let remaining = remaining_of(&assigned, &slots, slot);
                        if remaining.is_empty() {
                            continue;
                        }
                        if restarts_left == 0 {
                            if !exhaustion_flagged {
                                exhaustion_flagged = true;
                                flag_restart_exhaustion(
                                    telemetry,
                                    config.worker_restarts,
                                    slots.iter().filter(|s| s.is_none()).count(),
                                );
                            }
                            continue;
                        }
                        restarts_left -= 1;
                        respawns += 1;
                        telemetry.incr("mutation.shard_respawn");
                        std::thread::sleep(
                            spec.respawn_backoff
                                .jittered_delay(respawns, &mut backoff_rng),
                        );
                        let generation = shard.generation + 1;
                        if let Some(replacement) = spawn_shard(slot, generation, &remaining, &tx) {
                            live[slot] = Some(replacement);
                            active += 1;
                        } else {
                            telemetry.incr("harden.degraded");
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        // Heartbeat sweep: any live shard past its deadline gets the
        // escalation ladder. Death bookkeeping then arrives through the
        // shard's Eof event (its pipe closes when it dies), keeping one
        // death path for kills and crashes alike.
        for shard in live.iter_mut().flatten() {
            if !shard.killed_unresponsive && shard.liveness.expired() {
                shard.killed_unresponsive = true;
                telemetry.incr("mutation.shard_kill");
                let _ = terminate_child(&mut shard.child, spec.term_grace);
            }
        }
        if telemetry.is_enabled() && last_beat.elapsed() >= HEARTBEAT_INTERVAL {
            last_beat = Instant::now();
            campaign_heartbeat(telemetry, &slots, &done_by_shard);
        }
    }

    // Leftovers (spawn failures, fingerprint poisoning, restart
    // exhaustion). A mutant ever blamed for a shard death is quarantined
    // with its recorded reason — known process-killers must never run in
    // the supervisor. The rest complete inline, exactly like the thread
    // pool's degraded path.
    for index in 0..slots.len() {
        if slots[index].is_some() {
            continue;
        }
        if let Some(reason) = blamed_reason.get(&index).copied() {
            let status = MutantStatus::Quarantined { reason };
            journal.record(index, &status);
            record_status(telemetry, &status);
            slots[index] = Some(MutantResult {
                mutant: mutants[index].clone(),
                status,
            });
        }
    }
    if slots.iter().any(|slot| slot.is_none()) {
        let done: Vec<bool> = slots.iter().map(|slot| slot.is_some()).collect();
        let engine = Engine::new(suite, mutants, config, &baseline, done);
        while engine.has_unclaimed_work() {
            let switch = MutationSwitch::new();
            let factory = shards.build_factory(&switch);
            let inline_runner = build_runner(config, telemetry, &switch);
            let mut emit = |index: usize, result: MutantResult| {
                journal.record(index, &result.status);
                slots[index] = Some(result);
            };
            let end = engine.drain(
                factory.as_ref(),
                &switch,
                &inline_runner,
                telemetry,
                &mut emit,
            );
            switch.disarm();
            if let DrainEnd::Drained = end {
                break;
            }
        }
    }
    campaign_heartbeat(telemetry, &slots, &done_by_shard);
    let results = collect_slots(mutants, slots);
    finish_run(telemetry, results, baseline.golden)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_parse_and_reject() {
        assert!(matches!(
            parse_frame("shard-hello 00ffaa12"),
            ShardFrame::Hello(0x00FF_AA12)
        ));
        assert!(matches!(parse_frame("shard-begin 7"), ShardFrame::Begin(7)));
        assert!(matches!(parse_frame("shard-done"), ShardFrame::Done));
        assert!(matches!(
            parse_frame("verdict 3 survived"),
            ShardFrame::Verdict(3, MutantStatus::Survived)
        ));
        assert!(matches!(
            parse_frame("verdict 9 quarantined shard-abort"),
            ShardFrame::Verdict(
                9,
                MutantStatus::Quarantined {
                    reason: QuarantineReason::ShardAbort
                }
            )
        ));
        for foreign in [
            "",
            "shard-hello xx",
            "shard-begin -1",
            "running 2 tests",
            "verdict nine survived",
        ] {
            assert!(
                matches!(parse_frame(foreign), ShardFrame::Foreign),
                "{foreign:?}"
            );
        }
    }

    #[test]
    fn death_reasons_map_exit_classes() {
        assert_eq!(
            death_reason(ExitClass::Abort, false),
            QuarantineReason::ShardAbort
        );
        assert_eq!(
            death_reason(ExitClass::Signal(9), false),
            QuarantineReason::ShardSignal
        );
        assert_eq!(
            death_reason(ExitClass::Exit(1), false),
            QuarantineReason::ShardSignal
        );
        // A supervisor kill for a missed heartbeat outranks the corpse's
        // signal (which would just be our own SIGTERM/SIGKILL).
        assert_eq!(
            death_reason(ExitClass::Signal(9), true),
            QuarantineReason::ShardUnresponsive
        );
        assert_eq!(
            death_reason(ExitClass::Abort, true),
            QuarantineReason::ShardUnresponsive
        );
    }
}
