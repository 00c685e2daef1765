//! Process-isolated mutant leases: the frame protocol, the worker half
//! and the supervising half of [`IsolationMode::Process`].
//!
//! Thread executors contain everything that *unwinds*; they cannot
//! contain a mutant that calls `std::process::abort()`, overflows the
//! stack, or spins in a loop with no cooperative checkpoint. A process
//! lease puts a kernel-enforced boundary around a slice of the queue:
//!
//! * The **supervising half** ([`process_lease`]) self-execs the current
//!   binary ([`ProcessIsolation::worker_args`] names the hidden entry
//!   point), hands the child its leased indices via `CONCAT_SHARD_*`
//!   environment variables, and reads verdicts off the child's stdout
//!   through the runtime's checksummed frame codec — a SIGKILL mid-frame
//!   tears at a frame boundary, detected and dropped exactly like a torn
//!   journal tail. Both schedulers use it: the solo engine's process
//!   workers and the Orchestrator's process leases.
//! * The **worker** ([`run_shard_worker`]) rebuilds the identical
//!   campaign (the fingerprint is verified before any mutant runs),
//!   computes its own golden baseline, and classifies its leased mutants
//!   with the same in-process lease loop as a thread executor, framing
//!   each verdict with [`encode_verdict`].
//!
//! Liveness is heartbeat-based: every frame is proof of life, and a
//! `shard-begin` frame additionally names the in-flight mutant, so when a
//! shard dies — abort, signal, or a missed heartbeat deadline answered
//! with the SIGTERM→SIGKILL ladder — the lease knows exactly which mutant
//! to blame. The campaign ledger charges the blame on the *second* death
//! (the mutant is retried once first), so an innocent mutant whose shard
//! was killed from outside re-executes and the campaign stays
//! byte-identical to an uninterrupted one; a mutant that reproducibly
//! kills its host is quarantined with a process-level
//! [`QuarantineReason`] and the campaign completes without it.

use crate::analysis::{
    build_runner, run_golden, Engine, Harness, MutantStatus, MutationConfig, PanicSilencer,
    ProcessIsolation, QuarantineReason,
};
use crate::enumerate::Mutant;
use crate::fault::{ClonableFactory, MutationSwitch};
use crate::journal::{campaign_fingerprint, decode_verdict, encode_verdict};
use crate::ledger::LeaseOutcome;
use concat_driver::TestSuite;
use concat_obs::Telemetry;
use concat_runtime::{
    classify_exit, encode_frame, terminate_child, wait_with_deadline, CancelToken, ExitClass,
    FrameDecoder, Liveness,
};
use std::cell::Cell;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

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

/// How long the supervising half blocks on the frame channel before
/// checking cancellation and the heartbeat deadline.
const PIPE_POLL: Duration = Duration::from_millis(50);

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

/// The lease's acceptance rule: a `Begin` or `Verdict` frame is accepted
/// only for an `outstanding` index — one of this lease's, still without
/// a verdict. Anything else would let a confused worker blame or merge a
/// mutant another lease owns.
pub(crate) fn accepts(frame: &ShardFrame, outstanding: &[usize]) -> bool {
    match frame {
        ShardFrame::Begin(index) | ShardFrame::Verdict(index, _) => outstanding.contains(index),
        ShardFrame::Hello(_) | ShardFrame::Done | ShardFrame::Foreign => true,
    }
}

/// Parses [`SHARD_INDICES_ENV`] totally: comma-separated decimal indices,
/// each below `mutant_count` and named once. An empty list is valid;
/// any malformed, out-of-range or duplicate entry rejects the whole list.
pub(crate) fn parse_shard_indices(text: &str, mutant_count: usize) -> Option<Vec<usize>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    let mut seen = vec![false; mutant_count];
    text.split(',')
        .map(|entry| {
            if !entry.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let index: usize = entry.parse().ok()?;
            let first = !std::mem::replace(seen.get_mut(index)?, true);
            first.then_some(index)
        })
        .collect()
}

/// Writes protocol frames straight to the process's stdout (bypassing
/// any capture the host harness installed) and flushes per frame, so a
/// kill between frames never tears one. Once a write fails the pipe is
/// gone (the supervisor died) and every later frame is refused.
struct FrameWriter {
    out: std::io::Stdout,
    closed: Cell<bool>,
}

impl FrameWriter {
    /// Emits one frame; `false` when the pipe is gone — the worker should
    /// exit, there is nobody left to report to.
    fn emit(&self, payload: &str) -> bool {
        if self.closed.get() {
            return false;
        }
        let written = encode_frame(payload).is_ok_and(|frame| {
            let mut lock = self.out.lock();
            lock.write_all(frame.as_bytes()).is_ok() && lock.flush().is_ok()
        });
        self.closed.set(!written);
        written
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
    let (Ok(indices_var), Ok(expected_var)) = (
        std::env::var(SHARD_INDICES_ENV),
        std::env::var(SHARD_FINGERPRINT_ENV),
    ) else {
        return EXIT_BAD_ENV;
    };
    let Ok(expected) = u32::from_str_radix(&expected_var, 16) else {
        return EXIT_BAD_ENV;
    };
    let Some(indices) = parse_shard_indices(&indices_var, mutants.len()) else {
        return EXIT_BAD_ENV;
    };

    let out = FrameWriter {
        out: std::io::stdout(),
        closed: Cell::new(false),
    };
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
    let baseline = run_golden(
        &runner,
        factory.as_ref(),
        suite,
        mutants,
        config,
        &telemetry,
    );
    let engine = Engine::new(suite, mutants, config, &baseline);
    let harness = Harness {
        factory: factory.as_ref(),
        switch: &switch,
        runner: &runner,
        telemetry: &telemetry,
    };
    // What the lease loop's containment cannot catch — abort, stack
    // overflow, a loop with no checkpoint — is exactly what the process
    // boundary and the supervisor's heartbeat deadline exist for. A
    // contained crash costs its mutant; the slice continues after it.
    let cancel = CancelToken::new();
    let mut rest = indices.as_slice();
    while let LeaseOutcome::Crashed { emitted, .. } = engine.run_lease(
        &harness,
        rest,
        &cancel,
        Some(&mut |index| out.emit(&format!("shard-begin {index}"))),
        &mut |index, status| {
            out.emit(&encode_verdict(index, &status));
        },
    ) {
        rest = rest.get(emitted as usize..).unwrap_or_default();
    }
    if !out.emit("shard-done") {
        return EXIT_PIPE_CLOSED;
    }
    EXIT_OK
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

/// One process-isolated lease: spawns a shard worker (a self-exec of the
/// current binary reaching [`run_shard_worker`]), hands it `lease`, and
/// reports each accepted verdict through `on_verdict`. Liveness runs
/// under `spec`'s deadlines: a shard silent past them gets the
/// SIGTERM→SIGKILL ladder and its death is blamed on the in-flight
/// mutant. Once `cancel` trips the shard is terminated and later
/// verdicts are discarded. Frames the acceptance rule ([`accepts`])
/// refuses are counted in `mutation.frames_dropped`, like torn ones.
pub(crate) fn process_lease(
    spec: &ProcessIsolation,
    fingerprint: u32,
    lease: &[usize],
    cancel: &CancelToken,
    telemetry: &Telemetry,
    on_verdict: &mut dyn FnMut(usize, MutantStatus),
) -> LeaseOutcome {
    let csv = lease
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(&spec.worker_args)
            .env(SHARD_INDICES_ENV, csv)
            .env(SHARD_FINGERPRINT_ENV, format!("{fingerprint:08x}"))
            .envs(spec.worker_env.iter().map(|(key, value)| (key, value)))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    });
    let Ok(mut child) = spawned else {
        telemetry.incr("harden.degraded");
        return LeaseOutcome::SETUP_FAILED;
    };
    let Some(mut stdout) = child.stdout.take() else {
        let _ = terminate_child(&mut child, spec.term_grace);
        telemetry.incr("harden.degraded");
        return LeaseOutcome::SETUP_FAILED;
    };
    // The reader thread forwards verified frames and, at EOF, returns how
    // many lines the decoder dropped (plus one for a torn tail).
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        let mut decoder = FrameDecoder::new();
        let mut chunk = [0u8; 4096];
        while let Ok(n @ 1..) = stdout.read(&mut chunk) {
            for payload in decoder.push(&chunk[..n]) {
                if tx.send(payload).is_err() {
                    return 0;
                }
            }
        }
        decoder.dropped() + u64::from(decoder.pending_bytes() > 0)
    });

    let mut liveness = Liveness::new(spec.startup_grace, spec.heartbeat_timeout);
    let mut outstanding = lease.to_vec();
    let mut in_flight: Option<usize> = None;
    let (mut unresponsive, mut poisoned, mut aborted) = (false, false, false);
    let (mut emitted, mut refused) = (0u64, 0u64);
    loop {
        match rx.recv_timeout(PIPE_POLL) {
            Ok(payload) => {
                liveness.beat();
                match parse_frame(&payload) {
                    frame if !accepts(&frame, &outstanding) => refused += 1,
                    ShardFrame::Hello(fp) if fp == fingerprint => {}
                    ShardFrame::Hello(_) => {
                        // The worker rebuilt a different campaign — a
                        // config bug, deterministic on retry.
                        poisoned = true;
                        telemetry.incr("harden.degraded");
                        let _ = terminate_child(&mut child, spec.term_grace);
                    }
                    ShardFrame::Begin(index) => in_flight = Some(index),
                    ShardFrame::Verdict(index, status) => {
                        outstanding.retain(|&o| o != index);
                        if in_flight == Some(index) {
                            in_flight = None;
                        }
                        if !cancel.is_cancelled() {
                            on_verdict(index, status);
                            emitted += 1;
                        }
                    }
                    ShardFrame::Done | ShardFrame::Foreign => {}
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if cancel.is_cancelled() && !aborted {
            aborted = true;
            let _ = terminate_child(&mut child, spec.term_grace);
        }
        if !unresponsive && !aborted && liveness.expired() {
            unresponsive = true;
            telemetry.incr("mutation.shard_kill");
            let _ = terminate_child(&mut child, spec.term_grace);
        }
    }
    let dropped = reader.join().unwrap_or(0) + refused;
    if dropped > 0 {
        telemetry.incr_by("mutation.frames_dropped", dropped);
    }
    let class = match wait_with_deadline(&mut child, spec.term_grace) {
        Ok(status) => classify_exit(status),
        Err(_) => ExitClass::Signal(-1),
    };
    if aborted || cancel.is_cancelled() {
        return LeaseOutcome::Aborted;
    }
    if outstanding.is_empty() && !poisoned {
        return LeaseOutcome::Drained;
    }
    LeaseOutcome::Crashed {
        in_flight,
        reason: death_reason(class, unresponsive),
        poisoned,
        emitted,
    }
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
    fn leases_accept_only_their_outstanding_indices() {
        let outstanding = [3, 5];
        assert!(accepts(&ShardFrame::Begin(3), &outstanding));
        assert!(accepts(
            &ShardFrame::Verdict(5, MutantStatus::Survived),
            &outstanding
        ));
        // Another lease's index, one past the campaign, one already done.
        for index in [4, usize::MAX, 7] {
            assert!(!accepts(&ShardFrame::Begin(index), &outstanding));
            assert!(!accepts(
                &ShardFrame::Verdict(index, MutantStatus::Survived),
                &outstanding
            ));
        }
        assert!(
            !accepts(&ShardFrame::Begin(3), &[5]),
            "3 already has a verdict"
        );
        for frame in [ShardFrame::Hello(1), ShardFrame::Done, ShardFrame::Foreign] {
            assert!(accepts(&frame, &[]));
        }
    }

    #[test]
    fn shard_indices_parse_totally() {
        assert_eq!(parse_shard_indices("", 4), Some(vec![]));
        assert_eq!(parse_shard_indices("0", 4), Some(vec![0]));
        assert_eq!(parse_shard_indices("3,0,2", 4), Some(vec![3, 0, 2]));
        for (malformed, why) in [
            ("x", "non-numeric"),
            ("1,x", "non-numeric entry"),
            ("1,,2", "empty entry"),
            ("1,", "trailing comma"),
            ("+1", "sign"),
            ("-1", "negative"),
            (" 1", "whitespace"),
            ("99999999999999999999999", "overflow"),
        ] {
            assert_eq!(parse_shard_indices(malformed, 4), None, "{why}");
        }
        assert_eq!(parse_shard_indices("4", 4), None, "out of range");
        assert_eq!(parse_shard_indices("0", 0), None, "no mutants at all");
        assert_eq!(parse_shard_indices("1,2,1", 4), None, "duplicate");
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
