//! Test execution: the specific driver of the paper.
//!
//! The generated driver (Figure 6) creates the object, checks the class
//! invariant before and after every call, logs progress into `Result.txt`,
//! captures exceptions, and dumps the reporter state at the end. The
//! [`TestRunner`] reproduces that behaviour and additionally records a full
//! [`Transcript`] per case so the mutation oracle can compare runs.

use crate::log::TestLog;
use crate::testcase::{MethodCall, TestCase, TestSuite};
use concat_bit::{BitControl, ComponentFactory, StateReport, TestableComponent};
use concat_obs::{SpanId, Telemetry};
use concat_runtime::{
    Budget, BudgetResource, CancelToken, TestException, Value, Watchdog, DEADLINE_PANIC_PAYLOAD,
};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// One transcript record: what a call did, or the failed invariant check
/// that ended the case.
#[derive(Debug, Clone, PartialEq)]
pub enum CallOutcome {
    /// The call returned a value (possibly `Null`).
    Returned(Value),
    /// The call raised a [`TestException`]; tag and message are recorded.
    Raised {
        /// The exception's machine tag (`INVARIANT`, `PANIC`, …).
        tag: String,
        /// Human-readable description.
        message: String,
    },
    /// The class invariant checked after the previous call failed. Its own
    /// kind, so it never equals a call that raises an `INVARIANT` assertion.
    InvariantFailed {
        /// The violation's message.
        message: String,
    },
}

impl CallOutcome {
    /// True when the call completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, CallOutcome::Returned(_))
    }
}

/// Everything observable about one test case execution.
///
/// Two runs of the same case are behaviourally indistinguishable exactly
/// when their transcripts are equal — this is the oracle's comparison unit
/// (crash, exception, output and final state all participate).
#[derive(Debug, Clone, PartialEq)]
pub struct Transcript {
    /// One record per executed call: record `i` belongs to call `i` of the
    /// case, the constructor being call 0. A failed invariant check adds a
    /// last [`CallOutcome::InvariantFailed`] record.
    pub records: Vec<CallOutcome>,
    /// Reporter snapshot at the end of the case (absent if the object was
    /// never successfully constructed or the case panicked).
    pub final_report: Option<StateReport>,
}

/// Terminal status of one test case.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseStatus {
    /// Every call completed; the paper logs `TestCase<id> OK!`.
    Passed,
    /// An assertion (invariant / pre / post) fired — the partial oracle
    /// detected an error.
    AssertionViolated {
        /// The violated assertion's message.
        message: String,
        /// The call after which it fired.
        at_call: usize,
    },
    /// A non-assertion exception was raised.
    ExceptionRaised {
        /// Exception tag.
        tag: String,
        /// Exception message.
        message: String,
        /// The call that raised.
        at_call: usize,
    },
    /// The component panicked (the paper's "program crashed").
    Panicked {
        /// Rendered panic payload.
        message: String,
        /// The call that panicked.
        at_call: usize,
    },
    /// The case hit its wall-clock deadline: the watchdog cancelled the
    /// execution and a cooperative checkpoint unwound it. A verdict, not
    /// a crash — mutation analysis quarantines rather than kills on it.
    DeadlineExceeded {
        /// The call that was interrupted (or about to run).
        at_call: usize,
    },
    /// The case ran out of a budgeted resource (calls, transcript bytes).
    BudgetExhausted {
        /// Which resource ran out.
        resource: BudgetResource,
        /// The call at which the budget tripped.
        at_call: usize,
    },
}

impl CaseStatus {
    /// True for [`CaseStatus::Passed`].
    pub fn is_pass(&self) -> bool {
        matches!(self, CaseStatus::Passed)
    }

    /// True when the failure came from the BIT partial oracle.
    pub fn is_assertion(&self) -> bool {
        matches!(self, CaseStatus::AssertionViolated { .. })
    }

    /// True when the harness (not the component) terminated the case:
    /// deadline or budget. Such outcomes describe the execution
    /// environment, so the oracle must not treat them as behaviour.
    pub fn is_harness_stop(&self) -> bool {
        matches!(
            self,
            CaseStatus::DeadlineExceeded { .. } | CaseStatus::BudgetExhausted { .. }
        )
    }
}

impl fmt::Display for CaseStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseStatus::Passed => f.write_str("OK"),
            CaseStatus::AssertionViolated { message, .. } => {
                write!(f, "assertion violated: {message}")
            }
            CaseStatus::ExceptionRaised { tag, message, .. } => {
                write!(f, "exception [{tag}]: {message}")
            }
            CaseStatus::Panicked { message, .. } => write!(f, "panicked: {message}"),
            CaseStatus::DeadlineExceeded { at_call } => {
                write!(f, "deadline exceeded at call {at_call}")
            }
            CaseStatus::BudgetExhausted { resource, at_call } => {
                write!(f, "budget exhausted ({resource}) at call {at_call}")
            }
        }
    }
}

/// Result of one executed test case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Id of the executed case.
    pub case_id: usize,
    /// Terminal status.
    pub status: CaseStatus,
    /// Full transcript for oracle comparison.
    pub transcript: Transcript,
}

/// Result of a suite execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Class under test.
    pub class_name: String,
    /// Per-case results, in suite order.
    pub cases: Vec<CaseResult>,
    /// Harness-level annotations: deadline/budget stops, degraded I/O.
    /// Empty for a fully clean run; reports surface these verbatim.
    pub notes: Vec<String>,
}

impl SuiteResult {
    /// Number of passed cases.
    pub fn passed(&self) -> usize {
        self.cases.iter().filter(|c| c.status.is_pass()).count()
    }

    /// Number of failed cases (any non-pass status).
    pub fn failed(&self) -> usize {
        self.cases.len() - self.passed()
    }

    /// Number of failures attributable to assertion violations.
    pub fn assertion_failures(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.status.is_assertion())
            .count()
    }

    /// Number of cases the harness stopped (deadline/budget).
    pub fn harness_stops(&self) -> usize {
        self.cases
            .iter()
            .filter(|c| c.status.is_harness_stop())
            .count()
    }

    /// Appends a harness note (degraded I/O, etc.).
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Executes test suites against a component factory.
///
/// # Examples
///
/// See the crate-level documentation of `concat-driver` for an end-to-end
/// generate→run example.
#[derive(Debug)]
pub struct TestRunner {
    ctl: BitControl,
    check_invariants: bool,
    telemetry: Telemetry,
    budget: Budget,
    token: CancelToken,
    watchdog: Option<Watchdog>,
}

impl TestRunner {
    /// Creates a runner that puts components in test mode and checks the
    /// class invariant around every call (the Figure-6 behaviour).
    pub fn new() -> Self {
        TestRunner {
            ctl: BitControl::new_enabled(),
            check_invariants: true,
            telemetry: Telemetry::disabled(),
            budget: Budget::unlimited(),
            token: CancelToken::new(),
            watchdog: None,
        }
    }

    /// Creates a runner with BIT disabled — the assertions-off ablation.
    pub fn without_bit() -> Self {
        TestRunner {
            ctl: BitControl::new(),
            check_invariants: false,
            telemetry: Telemetry::disabled(),
            budget: Budget::unlimited(),
            token: CancelToken::new(),
            watchdog: None,
        }
    }

    /// Applies per-case execution limits. When the budget carries a
    /// wall-clock deadline a watchdog thread is started; it cancels the
    /// runner's [`CancelToken`] at the deadline, and cooperative
    /// checkpoints (the mutation switch's read sites, or a component's own
    /// [`CancelToken::checkpoint`] calls) unwind the hung execution back
    /// to the `catch_unwind` boundary, where the case is classified
    /// [`CaseStatus::DeadlineExceeded`].
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self.watchdog = budget.deadline.map(|_| Watchdog::spawn());
        self
    }

    /// The per-case budget (unlimited unless [`TestRunner::with_budget`]).
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The cancellation token the watchdog trips at the deadline. Share
    /// it with anything that should stop when a case overruns.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.token
    }

    /// Replaces the runner's cancellation token — typically with the
    /// token its components' checkpoints already poll (the mutation
    /// harness passes its `MutationSwitch`'s), or a [`CancelToken::child`]
    /// of a campaign- or service-level token, so an external cancellation
    /// interrupts the in-flight case exactly like a watchdog deadline
    /// while the runner's own per-case `cancel`/`reset` cycle stays
    /// contained in its child flag.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Attaches a telemetry handle: suite/case spans, per-status case
    /// counters and per-call outcome counters are emitted into it, and the
    /// runner's [`BitControl`] is wired up so assertion checks land as
    /// `bit.<kind>.*` counters too. The default handle is disabled and
    /// free.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.ctl.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
        self
    }

    /// The telemetry handle this runner emits into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The control shared with every component this runner constructs.
    pub fn bit_control(&self) -> &BitControl {
        &self.ctl
    }

    /// Runs a whole suite, logging into `log`.
    pub fn run_suite(
        &self,
        factory: &dyn ComponentFactory,
        suite: &TestSuite,
        log: &mut TestLog,
    ) -> SuiteResult {
        let cases = &mut suite.iter();
        self.run_cases(factory, suite, cases, &never, Some(log), SpanId::NONE)
    }

    /// Runs a whole suite for its results alone — no log lines — with
    /// the suite span parented under `parent`. [`SpanId::NONE`] leaves
    /// the suite a root span.
    pub fn run_suite_under(
        &self,
        factory: &dyn ComponentFactory,
        suite: &TestSuite,
        parent: SpanId,
    ) -> SuiteResult {
        self.run_cases(factory, suite, &mut suite.iter(), &never, None, parent)
    }

    /// Runs only the cases of `suite` at `positions`, in that order, for
    /// their results alone, with the suite span parented under `parent`:
    /// how the mutation engine runs a mutant over its scope and
    /// attributes the execution to the mutant (and transitively the
    /// worker and campaign) that caused it. Result `i` belongs to the
    /// case at `positions[i]`.
    ///
    /// After each case, `stop(i, &result)` decides whether the run ends
    /// there: the results then stop at that case, and the cases at the
    /// remaining positions never run. The mutation engine stops at the
    /// first case that tells a mutant apart when no later case could
    /// change its verdict; `&|_, _| false` runs every position.
    ///
    /// # Panics
    ///
    /// When a position is out of range for `suite`.
    pub fn run_positions_under(
        &self,
        factory: &dyn ComponentFactory,
        suite: &TestSuite,
        positions: &[usize],
        stop: &dyn Fn(usize, &CaseResult) -> bool,
        parent: SpanId,
    ) -> SuiteResult {
        let cases = &mut positions.iter().map(|&pos| &suite.cases[pos]);
        self.run_cases(factory, suite, cases, stop, None, parent)
    }

    /// The suite loop behind every `run_*` entry point; `log` is filled
    /// only when given, and the loop ends early after the first result
    /// `stop` accepts. Deliberately not generic over the iterator: one
    /// instance of the loop serves every caller.
    fn run_cases(
        &self,
        factory: &dyn ComponentFactory,
        suite: &TestSuite,
        cases: &mut dyn Iterator<Item = &TestCase>,
        stop: &dyn Fn(usize, &CaseResult) -> bool,
        mut log: Option<&mut TestLog>,
        parent: SpanId,
    ) -> SuiteResult {
        let span = self.telemetry.at(parent).span("suite", &suite.class_name);
        // Case spans nest under the suite span.
        let scoped = self.telemetry.at(span.id());
        let mut results = Vec::with_capacity(cases.size_hint().0);
        let mut notes = Vec::new();
        for case in cases {
            let result = self.run_case_with(&scoped, factory, case, log.as_deref_mut());
            if result.status.is_harness_stop() {
                notes.push(format!("case {}: {}", result.case_id, result.status));
            }
            let last = stop(results.len(), &result);
            results.push(result);
            if last {
                break;
            }
        }
        SuiteResult {
            class_name: suite.class_name.clone(),
            cases: results,
            notes,
        }
    }

    /// Runs one test case: construct → (invariant, call)* → reporter.
    ///
    /// Exceptions and panics terminate the case (the paper's catch block),
    /// are logged, and leave a truncated transcript — which is itself a
    /// comparable observation.
    pub fn run_case(
        &self,
        factory: &dyn ComponentFactory,
        case: &TestCase,
        log: &mut TestLog,
    ) -> CaseResult {
        self.run_case_with(&self.telemetry, factory, case, Some(log))
    }

    /// [`TestRunner::run_case`] emitting into `telemetry` — the handle a
    /// suite run positions under its own span so case spans nest — and
    /// logging only when `log` is given.
    fn run_case_with(
        &self,
        telemetry: &Telemetry,
        factory: &dyn ComponentFactory,
        case: &TestCase,
        log: Option<&mut TestLog>,
    ) -> CaseResult {
        let span = telemetry.span_with("case", || case.name());
        // Arm the deadline; the token is reset afterwards so a firing
        // near the end of one case can never bleed into the next.
        if let (Some(wd), Some(deadline)) = (&self.watchdog, self.budget.deadline) {
            self.token.reset();
            wd.arm(&self.token, deadline);
        }
        let result = self.run_case_impl(factory, case, log);
        if let Some(wd) = &self.watchdog {
            wd.disarm();
            self.token.reset();
        }
        span.finish();
        if telemetry.is_enabled() {
            let records = &result.transcript.records;
            let ok = records.iter().filter(|r| r.is_ok()).count() as u64;
            telemetry.incr_by("call.ok", ok);
            telemetry.incr_by("call.raised", records.len() as u64 - ok);
            telemetry.incr(match result.status {
                CaseStatus::Passed => "case.passed",
                CaseStatus::AssertionViolated { .. } => "case.assertion_violated",
                CaseStatus::ExceptionRaised { .. } => "case.exception",
                CaseStatus::Panicked { .. } => "case.panicked",
                CaseStatus::DeadlineExceeded { .. } => "case.deadline_exceeded",
                CaseStatus::BudgetExhausted { .. } => "case.budget_exhausted",
            });
        }
        result
    }

    /// The one exit of a case: builds its [`CaseResult`] and logs it.
    fn run_case_impl(
        &self,
        factory: &dyn ComponentFactory,
        case: &TestCase,
        log: Option<&mut TestLog>,
    ) -> CaseResult {
        let mut records = Vec::with_capacity(case.calls.len() + 1);
        let mut component = None;
        let stop = self
            .run_calls(factory, case, &mut records, &mut component)
            .err();
        let final_report = component
            .filter(|_| stop.as_ref().is_none_or(|s| s.keeps_report))
            .map(|c| c.reporter());
        // Only an attached log pays for rendering the case and call names.
        match (log, &stop, &final_report) {
            (Some(log), Some(stop), _) => {
                log.log_failure(&case.name(), &stop.call_name(case), &stop.message)
            }
            (Some(log), None, Some(report)) => log.log_pass(&case.name(), report),
            _ => {}
        }
        CaseResult {
            case_id: case.id,
            status: stop.map_or(CaseStatus::Passed, |s| s.status),
            transcript: Transcript {
                records,
                final_report,
            },
        }
    }

    /// Construct → (invariant, call)*, recording one outcome per call into
    /// `records` and leaving the built object in `slot`. `Err` is the stop
    /// that ended the case early.
    fn run_calls(
        &self,
        factory: &dyn ComponentFactory,
        case: &TestCase,
        records: &mut Vec<CallOutcome>,
        slot: &mut Option<Box<dyn TestableComponent>>,
    ) -> Result<(), Stop> {
        let ctor = &case.constructor;
        let built = guarded(|| factory.construct(&ctor.method, &ctor.args, self.ctl.clone()));
        let component = slot.insert(settle(records, built, 0)?);
        records.push(CallOutcome::Returned(Value::Null));
        // Invariant after construction (Figure 6 checks before the first
        // task method).
        self.check_invariant(&**component, records, 0)?;
        // The byte budget counts each returned call's rendered length plus
        // 8, constructor included; raises end the case before it counts.
        let max_bytes = self.budget.max_transcript_bytes;
        let mut bytes = max_bytes.map_or(0, |_| ctor.render().len() + 8);
        for (at_call, call) in (1..).zip(&case.calls) {
            if self.budget.max_calls.is_some_and(|max| at_call > max) {
                let status = CaseStatus::BudgetExhausted {
                    resource: BudgetResource::Calls,
                    at_call: at_call - 1,
                };
                let message = "call budget exhausted";
                return Err(Stop::new(status, true, Some(at_call), message));
            }
            // A deadline that fired between checkpoints preempts the
            // *next* call. A call that already returned keeps its
            // recorded outcome — a late-firing watchdog must never flip
            // finished work into a deadline stop; mid-call overruns
            // unwind with the deadline payload and are settled below.
            if self.token.is_cancelled() {
                let status = CaseStatus::DeadlineExceeded { at_call };
                let message = "execution deadline exceeded";
                return Err(Stop::new(status, false, Some(at_call), message));
            }
            let invoked = guarded(|| component.invoke(&call.method, &call.args));
            let value = settle(records, invoked, at_call)?;
            records.push(CallOutcome::Returned(value));
            if let Some(max) = max_bytes {
                bytes += call.render().len() + 8;
                if bytes > max {
                    let status = CaseStatus::BudgetExhausted {
                        resource: BudgetResource::TranscriptBytes,
                        at_call,
                    };
                    let message = "transcript byte budget exhausted";
                    return Err(Stop::new(status, true, Some(at_call), message));
                }
            }
            self.check_invariant(&**component, records, at_call)?;
        }
        Ok(())
    }

    /// Checks the class invariant (when enabled) after call `at_call`.
    fn check_invariant(
        &self,
        component: &dyn TestableComponent,
        records: &mut Vec<CallOutcome>,
        at_call: usize,
    ) -> Result<(), Stop> {
        if !self.check_invariants {
            return Ok(());
        }
        component.invariant_test().map_err(|v| {
            let message = v.to_string();
            records.push(CallOutcome::InvariantFailed {
                message: message.clone(),
            });
            let status = CaseStatus::AssertionViolated {
                message: message.clone(),
                at_call,
            };
            Stop::new(status, true, None, message)
        })
    }
}

impl Default for TestRunner {
    fn default() -> Self {
        Self::new()
    }
}

/// What the log line names for a failed invariant check.
pub(crate) const INVARIANT_CALL: &str = "InvariantTest()";

/// Why a case stopped before its last call: all its one exit needs.
struct Stop {
    status: CaseStatus,
    /// False after a panic or deadline unwind: the object's state is not
    /// reported.
    keeps_report: bool,
    /// The call the log line names (0 is the constructor), or `None` for
    /// the invariant check.
    call: Option<usize>,
    message: String,
}

impl Stop {
    fn new(
        status: CaseStatus,
        keeps_report: bool,
        call: Option<usize>,
        message: impl Into<String>,
    ) -> Stop {
        Stop {
            status,
            keeps_report,
            call,
            message: message.into(),
        }
    }

    /// The call the log line names, rendered from `case`.
    fn call_name(&self, case: &TestCase) -> String {
        match self.call {
            Some(at) => case.call_at(at).map(MethodCall::render).unwrap_or_default(),
            None => INVARIANT_CALL.to_owned(),
        }
    }
}

/// The stop test of the whole-suite runs: every case runs.
fn never(_: usize, _: &CaseResult) -> bool {
    false
}

/// Unwraps a construct or invoke that returned normally. Any other ending
/// is recorded as a raise and becomes the stop.
fn settle<T>(
    records: &mut Vec<CallOutcome>,
    step: Guarded<Result<T, TestException>>,
    at_call: usize,
) -> Result<T, Stop> {
    let (tag, status, keeps_report, message) = match step {
        Guarded::Done(Ok(value)) => return Ok(value),
        Guarded::Done(Err(exc)) => {
            let status = status_from_exception(&exc, at_call);
            (exc.tag(), status, true, exc.to_string())
        }
        Guarded::Panicked(message) => {
            let status = CaseStatus::Panicked {
                message: message.clone(),
                at_call,
            };
            ("PANIC", status, false, message)
        }
        Guarded::Deadline => {
            let status = CaseStatus::DeadlineExceeded { at_call };
            ("DEADLINE", status, false, DEADLINE_PANIC_PAYLOAD.to_owned())
        }
    };
    records.push(CallOutcome::Raised {
        tag: tag.to_owned(),
        message: message.clone(),
    });
    Err(Stop::new(status, keeps_report, Some(at_call), message))
}

fn status_from_exception(exc: &TestException, at_call: usize) -> CaseStatus {
    match exc {
        TestException::Assertion(v) => CaseStatus::AssertionViolated {
            message: v.to_string(),
            at_call,
        },
        TestException::Panicked { message, .. } => CaseStatus::Panicked {
            message: message.clone(),
            at_call,
        },
        other => CaseStatus::ExceptionRaised {
            tag: other.tag().to_owned(),
            message: other.to_string(),
            at_call,
        },
    }
}

/// How a guarded construct or invoke ended.
pub(crate) enum Guarded<T> {
    /// It returned.
    Done(T),
    /// It panicked; the rendered payload.
    Panicked(String),
    /// A deadline checkpoint unwound it.
    Deadline,
}

/// Runs one construct or invoke of a component, catching its unwind.
pub(crate) fn guarded<T>(step: impl FnOnce() -> T) -> Guarded<T> {
    match panic::catch_unwind(AssertUnwindSafe(step)) {
        Ok(value) => Guarded::Done(value),
        Err(panic) if is_deadline_payload(panic.as_ref()) => Guarded::Deadline,
        Err(panic) => Guarded::Panicked(panic_message(panic)),
    }
}

fn is_deadline_payload(panic: &(dyn std::any::Any + Send)) -> bool {
    panic.downcast_ref::<&str>() == Some(&DEADLINE_PANIC_PAYLOAD)
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::MethodCall;
    use concat_bit::{BuiltInTest, TestableComponent};
    use concat_runtime::{args, unknown_method, AssertionViolation, Component, InvokeResult};

    /// A counter that corrupts its state when asked, to exercise every
    /// runner path: domain exceptions, invariant violations and panics.
    struct Chaos {
        n: i64,
        ctl: BitControl,
        /// Keeps the invariant on `Corrupt` and has `Mimic` raise the
        /// violation the invariant check would report.
        mimic: bool,
    }

    impl Component for Chaos {
        fn class_name(&self) -> &'static str {
            "Chaos"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec![
                "Add", "Corrupt", "Mimic", "Panic", "Stall", "Refuse", "Total", "~Chaos",
            ]
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            match m {
                "Add" => {
                    self.n += args::int(m, a, 0)?;
                    Ok(Value::Null)
                }
                "Corrupt" => {
                    if !self.mimic {
                        self.n = -1;
                    }
                    Ok(Value::Null)
                }
                "Mimic" => Err(TestException::Assertion(AssertionViolation {
                    kind: concat_runtime::AssertionKind::Invariant,
                    class_name: "Chaos".into(),
                    method: String::new(),
                    message: "n >= 0".into(),
                })),
                "Panic" => panic!("chaos reigns"),
                "Stall" => std::panic::panic_any(DEADLINE_PANIC_PAYLOAD),
                "Refuse" => Err(TestException::domain(m, "refused")),
                "Total" => Ok(Value::Int(self.n)),
                "~Chaos" => Ok(Value::Null),
                _ => Err(unknown_method(self.class_name(), m)),
            }
        }
    }

    impl BuiltInTest for Chaos {
        fn bit_control(&self) -> &BitControl {
            &self.ctl
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            concat_bit::check(
                &self.ctl,
                concat_runtime::AssertionKind::Invariant,
                "Chaos",
                "",
                "n >= 0",
                self.n >= 0,
            )
        }
        fn reporter(&self) -> StateReport {
            let mut r = StateReport::new();
            r.set("n", Value::Int(self.n));
            r
        }
    }

    struct ChaosFactory;
    impl ComponentFactory for ChaosFactory {
        fn class_name(&self) -> &str {
            "Chaos"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Chaos" => Ok(Box::new(Chaos {
                    n: 0,
                    ctl,
                    mimic: false,
                })),
                "ChaosBroken" => Err(TestException::domain(constructor, "cannot build")),
                other => Err(unknown_method("Chaos", other)),
            }
        }
    }

    /// Builds every `Chaos` in mimic mode.
    struct MimicFactory;
    impl ComponentFactory for MimicFactory {
        fn class_name(&self) -> &str {
            "Chaos"
        }
        fn construct(
            &self,
            _constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            Ok(Box::new(Chaos {
                n: 0,
                ctl,
                mimic: true,
            }))
        }
    }

    fn case_with(calls: Vec<MethodCall>) -> TestCase {
        TestCase {
            id: 0,
            transaction_index: 0,
            node_path: vec!["n1".into()],
            constructor: MethodCall::generated("m1", "Chaos", vec![]),
            calls,
        }
    }

    fn dtor() -> MethodCall {
        MethodCall::generated("mD", "~Chaos", vec![])
    }

    #[test]
    fn passing_case_produces_full_transcript() {
        let runner = TestRunner::new();
        let mut log = TestLog::new();
        let case = case_with(vec![
            MethodCall::generated("m2", "Add", vec![Value::Int(4)]),
            MethodCall::generated("m3", "Total", vec![]),
            dtor(),
        ]);
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        assert!(r.status.is_pass());
        assert_eq!(r.transcript.records.len(), 4);
        assert_eq!(
            r.transcript.records[2],
            CallOutcome::Returned(Value::Int(4))
        );
        let report = r.transcript.final_report.unwrap();
        assert_eq!(report.get("n"), Some(&Value::Int(4)));
        assert!(log.render().contains("TestCaseTC0 OK!"));
    }

    #[test]
    fn invariant_violation_detected_after_corrupting_call() {
        let runner = TestRunner::new();
        let mut log = TestLog::new();
        let case = case_with(vec![MethodCall::generated("m2", "Corrupt", vec![]), dtor()]);
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        assert!(r.status.is_assertion());
        // corrupting call itself succeeded; the invariant check caught it
        assert!(r
            .transcript
            .records
            .iter()
            .any(|rec| matches!(rec, CallOutcome::InvariantFailed { .. })));
        assert!(log.render().contains("Invariant") || log.render().contains("invariant"));
    }

    #[test]
    fn panic_is_caught_and_classified() {
        let runner = TestRunner::new();
        let mut log = TestLog::new();
        let case = case_with(vec![MethodCall::generated("m2", "Panic", vec![]), dtor()]);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        std::panic::set_hook(prev);
        match &r.status {
            CaseStatus::Panicked { message, at_call } => {
                assert_eq!(message, "chaos reigns");
                assert_eq!(*at_call, 1);
            }
            other => panic!("expected panic status, got {other:?}"),
        }
        assert!(r.transcript.final_report.is_none());
    }

    #[test]
    fn deadline_payload_is_classified_not_treated_as_crash() {
        // Regression: the payload check must inspect the *panic payload*,
        // not the Box around it — `&Box<dyn Any>` unsize-coerces to a
        // `&dyn Any` whose concrete type is the Box, and every downcast
        // fails, turning every deadline into a phantom component crash.
        let runner = TestRunner::new();
        let mut log = TestLog::new();
        let case = case_with(vec![MethodCall::generated("m2", "Stall", vec![]), dtor()]);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        std::panic::set_hook(prev);
        assert_eq!(r.status, CaseStatus::DeadlineExceeded { at_call: 1 });
        assert_eq!(
            r.transcript.records.last().map(|rec| match rec {
                CallOutcome::Raised { tag, .. } => tag.clone(),
                other => format!("{other:?}"),
            }),
            Some("DEADLINE".into())
        );
    }

    /// A component whose `CancelThenOk` method trips the captured token
    /// *during* an otherwise successful invocation — the late-firing
    /// watchdog race: the call completes, the cancellation lands after.
    struct LateCancel {
        token: CancelToken,
        ctl: BitControl,
    }

    impl Component for LateCancel {
        fn class_name(&self) -> &'static str {
            "LateCancel"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["CancelThenOk", "Total", "~LateCancel"]
        }
        fn invoke(&mut self, m: &str, _a: &[Value]) -> InvokeResult {
            match m {
                "CancelThenOk" => {
                    self.token.cancel();
                    Ok(Value::Int(7))
                }
                "Total" => Ok(Value::Int(0)),
                "~LateCancel" => Ok(Value::Null),
                _ => Err(unknown_method(self.class_name(), m)),
            }
        }
    }

    impl BuiltInTest for LateCancel {
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

    struct LateCancelFactory {
        token: CancelToken,
    }

    impl ComponentFactory for LateCancelFactory {
        fn class_name(&self) -> &str {
            "LateCancel"
        }
        fn construct(
            &self,
            constructor: &str,
            _args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "LateCancel" => Ok(Box::new(LateCancel {
                    token: self.token.clone(),
                    ctl,
                })),
                other => Err(unknown_method("LateCancel", other)),
            }
        }
    }

    fn late_cancel_case(calls: Vec<MethodCall>) -> TestCase {
        TestCase {
            id: 0,
            transaction_index: 0,
            node_path: vec!["n1".into()],
            constructor: MethodCall::generated("m1", "LateCancel", vec![]),
            calls,
        }
    }

    #[test]
    fn token_cancelled_post_invoke_keeps_the_finished_case() {
        // Regression for the late-firing watchdog race: the token trips
        // while the final call is returning successfully. The completed
        // case must stay Passed with its full transcript — not flip to
        // DeadlineExceeded.
        let runner = TestRunner::new();
        let factory = LateCancelFactory {
            token: runner.cancel_token().clone(),
        };
        let mut log = TestLog::new();
        let case = late_cancel_case(vec![MethodCall::generated("m2", "CancelThenOk", vec![])]);
        let r = runner.run_case(&factory, &case, &mut log);
        assert!(r.status.is_pass(), "finished work kept: {:?}", r.status);
        assert_eq!(r.transcript.records.len(), 2);
        assert_eq!(
            r.transcript.records[1],
            CallOutcome::Returned(Value::Int(7))
        );
    }

    #[test]
    fn token_cancelled_post_invoke_preempts_only_the_next_call() {
        // Same race with a following call: the completed call keeps its
        // recorded outcome, and the deadline stop lands on the call the
        // cancellation actually preempted.
        let runner = TestRunner::new();
        let factory = LateCancelFactory {
            token: runner.cancel_token().clone(),
        };
        let mut log = TestLog::new();
        let case = late_cancel_case(vec![
            MethodCall::generated("m2", "CancelThenOk", vec![]),
            MethodCall::generated("m3", "Total", vec![]),
        ]);
        let r = runner.run_case(&factory, &case, &mut log);
        assert_eq!(r.status, CaseStatus::DeadlineExceeded { at_call: 2 });
        assert_eq!(
            r.transcript.records[1],
            CallOutcome::Returned(Value::Int(7)),
            "the call that finished before the stop keeps its outcome"
        );
        assert!(log.render().contains("deadline"));
    }

    #[test]
    fn domain_exception_ends_case_with_report() {
        let runner = TestRunner::new();
        let mut log = TestLog::new();
        let case = case_with(vec![
            MethodCall::generated("m2", "Refuse", vec![]),
            MethodCall::generated("m3", "Total", vec![]),
            dtor(),
        ]);
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        match &r.status {
            CaseStatus::ExceptionRaised { tag, at_call, .. } => {
                assert_eq!(tag, "DOMAIN");
                assert_eq!(*at_call, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Total was never called: only the constructor and the raising call.
        assert_eq!(r.transcript.records.len(), 2);
        assert!(r.transcript.final_report.is_some());
    }

    #[test]
    fn constructor_failure_recorded() {
        let runner = TestRunner::new();
        let mut log = TestLog::new();
        let mut case = case_with(vec![dtor()]);
        case.constructor = MethodCall::generated("m1", "ChaosBroken", vec![]);
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        assert!(matches!(r.status, CaseStatus::ExceptionRaised { .. }));
        assert!(r.transcript.final_report.is_none());
        assert_eq!(r.transcript.records.len(), 1);
    }

    #[test]
    fn without_bit_runner_skips_invariants() {
        let runner = TestRunner::without_bit();
        let mut log = TestLog::new();
        let case = case_with(vec![MethodCall::generated("m2", "Corrupt", vec![]), dtor()]);
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        // With BIT off the corruption goes unnoticed.
        assert!(r.status.is_pass());
    }

    #[test]
    fn suite_statistics() {
        let runner = TestRunner::new();
        let mut log = TestLog::new();
        let suite = TestSuite {
            class_name: "Chaos".into(),
            seed: 0,
            cases: vec![
                {
                    let mut c = case_with(vec![dtor()]);
                    c.id = 0;
                    c
                },
                {
                    let mut c =
                        case_with(vec![MethodCall::generated("m2", "Corrupt", vec![]), dtor()]);
                    c.id = 1;
                    c
                },
            ],
            stats: Default::default(),
        };
        let result = runner.run_suite(&ChaosFactory, &suite, &mut log);
        assert_eq!(result.passed(), 1);
        assert_eq!(result.failed(), 1);
        assert_eq!(result.assertion_failures(), 1);
    }

    #[test]
    fn transcripts_equal_for_identical_runs() {
        let runner = TestRunner::new();
        let case = case_with(vec![
            MethodCall::generated("m2", "Add", vec![Value::Int(2)]),
            dtor(),
        ]);
        let mut l1 = TestLog::new();
        let mut l2 = TestLog::new();
        let a = runner.run_case(&ChaosFactory, &case, &mut l1);
        let b = runner.run_case(&ChaosFactory, &case, &mut l2);
        assert_eq!(a.transcript, b.transcript);
    }

    #[test]
    fn status_display() {
        assert_eq!(CaseStatus::Passed.to_string(), "OK");
        let s = CaseStatus::Panicked {
            message: "boom".into(),
            at_call: 2,
        };
        assert!(s.to_string().contains("boom"));
        let d = CaseStatus::DeadlineExceeded { at_call: 3 };
        assert!(d.to_string().contains("deadline"));
        let b = CaseStatus::BudgetExhausted {
            resource: BudgetResource::Calls,
            at_call: 1,
        };
        assert!(b.to_string().contains("calls"));
    }

    #[test]
    fn call_budget_stops_the_case() {
        let runner = TestRunner::new().with_budget(Budget::unlimited().with_max_calls(1));
        let mut log = TestLog::new();
        let case = case_with(vec![
            MethodCall::generated("m2", "Add", vec![Value::Int(1)]),
            MethodCall::generated("m3", "Add", vec![Value::Int(1)]),
            dtor(),
        ]);
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        match &r.status {
            CaseStatus::BudgetExhausted { resource, at_call } => {
                assert_eq!(*resource, BudgetResource::Calls);
                assert_eq!(*at_call, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(r.status.is_harness_stop());
        // Constructor plus the single budgeted call made it in.
        assert_eq!(r.transcript.records.len(), 2);
        assert!(r.transcript.final_report.is_some(), "state still reported");
    }

    #[test]
    fn transcript_byte_budget_stops_the_case() {
        let runner =
            TestRunner::new().with_budget(Budget::unlimited().with_max_transcript_bytes(1));
        let mut log = TestLog::new();
        let case = case_with(vec![
            MethodCall::generated("m2", "Add", vec![Value::Int(1)]),
            dtor(),
        ]);
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        assert!(matches!(
            r.status,
            CaseStatus::BudgetExhausted {
                resource: BudgetResource::TranscriptBytes,
                ..
            }
        ));
    }

    #[test]
    fn transcript_byte_budget_trips_mid_case() {
        // Each returned call counts its rendered length plus 8: `Chaos()`
        // 15, `Add(1)` 14, `Add(2)` 14, `Total()` 15, `~Chaos()` 16.
        let case = case_with(vec![
            MethodCall::generated("m2", "Add", vec![Value::Int(1)]),
            MethodCall::generated("m2", "Add", vec![Value::Int(2)]),
            MethodCall::generated("m3", "Total", vec![]),
            dtor(),
        ]);
        for (max, at_call) in [(57, 3), (58, 4)] {
            let runner =
                TestRunner::new().with_budget(Budget::unlimited().with_max_transcript_bytes(max));
            let mut log = TestLog::new();
            let r = runner.run_case(&ChaosFactory, &case, &mut log);
            assert_eq!(
                r.status,
                CaseStatus::BudgetExhausted {
                    resource: BudgetResource::TranscriptBytes,
                    at_call,
                },
                "max {max}"
            );
            // The constructor plus every call up to the one that tripped.
            assert_eq!(r.transcript.records.len(), at_call + 1, "max {max}");
            assert!(r.transcript.final_report.is_some());
            let named = case.calls[at_call - 1].render();
            assert!(log.render().contains(&format!("Method called: {named}")));
        }
    }

    #[test]
    fn failed_invariant_check_never_equals_a_raised_invariant_assertion() {
        // `Corrupt` breaks the invariant, so the check after call 1 fails;
        // in mimic mode call 2 raises the identical INVARIANT violation.
        let runner = TestRunner::new();
        let case = case_with(vec![
            MethodCall::generated("m2", "Corrupt", vec![]),
            MethodCall::generated("m3", "Mimic", vec![]),
        ]);
        let checked = runner.run_case(&ChaosFactory, &case, &mut TestLog::new());
        let raised = runner.run_case(&MimicFactory, &case, &mut TestLog::new());
        let message = "invariant is violated in Chaos::: n >= 0".to_owned();
        assert_eq!(
            checked.status,
            CaseStatus::AssertionViolated {
                message: message.clone(),
                at_call: 1
            }
        );
        assert_eq!(
            raised.status,
            CaseStatus::AssertionViolated {
                message,
                at_call: 2
            }
        );
        let (a, b) = (&checked.transcript.records, &raised.transcript.records);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        assert_eq!(a[..2], b[..2], "the same calls returned the same values");
        assert_ne!(a[2], b[2]);
    }

    #[test]
    fn suite_notes_surface_harness_stops() {
        let runner = TestRunner::new().with_budget(Budget::unlimited().with_max_calls(0));
        let mut log = TestLog::new();
        let suite = TestSuite {
            class_name: "Chaos".into(),
            seed: 0,
            cases: vec![case_with(vec![dtor()])],
            stats: Default::default(),
        };
        let result = runner.run_suite(&ChaosFactory, &suite, &mut log);
        assert_eq!(result.harness_stops(), 1);
        assert_eq!(result.notes.len(), 1);
        assert!(
            result.notes[0].contains("budget exhausted"),
            "{:?}",
            result.notes
        );
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let runner = TestRunner::new().with_budget(Budget::unlimited());
        assert!(runner.budget().is_unlimited());
        assert!(!runner.cancel_token().is_cancelled());
        let mut log = TestLog::new();
        let case = case_with(vec![
            MethodCall::generated("m2", "Add", vec![Value::Int(4)]),
            dtor(),
        ]);
        let r = runner.run_case(&ChaosFactory, &case, &mut log);
        assert!(r.status.is_pass());
        assert!(!r.status.is_harness_stop());
    }
}
