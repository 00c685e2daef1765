//! Test execution: the specific driver of the paper.
//!
//! The generated driver (Figure 6) creates the object, checks the class
//! invariant before and after every call, logs progress into `Result.txt`,
//! captures exceptions, and dumps the reporter state at the end. The
//! [`TestRunner`] reproduces that behaviour and additionally records a full
//! [`Transcript`] per case so the mutation oracle can compare runs.

use crate::coverage::CoverageMatrix;
use crate::log::TestLog;
use crate::testcase::{TestCase, TestSuite};
use concat_bit::{BitControl, ComponentFactory, StateReport};
use concat_obs::{SpanId, Telemetry};
use concat_runtime::{
    Budget, BudgetResource, CancelToken, TestException, Value, Watchdog, DEADLINE_PANIC_PAYLOAD,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one method invocation, as recorded in the transcript.
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
}

impl CallOutcome {
    /// True when the call completed normally.
    pub fn is_ok(&self) -> bool {
        matches!(self, CallOutcome::Returned(_))
    }
}

/// One line of a transcript: the call and what it did.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRecord {
    /// Rendered call, e.g. `UpdateQty(5)`.
    pub call: String,
    /// What happened.
    pub outcome: CallOutcome,
}

/// Everything observable about one test case execution.
///
/// Two runs are behaviourally indistinguishable exactly when their
/// transcripts are equal — this is the oracle's comparison unit (crash,
/// exception, output and final state all participate).
#[derive(Debug, Clone, PartialEq)]
pub struct Transcript {
    /// Per-call records in execution order (constructor first).
    pub records: Vec<CallRecord>,
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
        self.run_suite_impl(factory, suite, Some(log), None, SpanId::NONE)
    }

    /// Runs a whole suite for its results alone — no log lines, no
    /// coverage — with the suite span parented under `parent`: how the
    /// mutation engine runs a mutant and attributes the execution to the
    /// mutant (and transitively the worker and campaign) that caused it.
    /// [`SpanId::NONE`] leaves the suite a root span.
    pub fn run_suite_under(
        &self,
        factory: &dyn ComponentFactory,
        suite: &TestSuite,
        parent: SpanId,
    ) -> SuiteResult {
        self.run_suite_impl(factory, suite, None, None, parent)
    }

    /// Runs a whole suite while recording the case × feature
    /// [`CoverageMatrix`]: for each executed case, the static set of
    /// interface methods its transaction invokes. Mutation analysis uses
    /// the matrix of the golden run to skip cases that cannot reach a
    /// mutated method.
    pub fn run_suite_with_coverage(
        &self,
        factory: &dyn ComponentFactory,
        suite: &TestSuite,
        log: &mut TestLog,
    ) -> (SuiteResult, CoverageMatrix) {
        self.run_suite_with_coverage_under(factory, suite, log, SpanId::NONE)
    }

    /// [`TestRunner::run_suite_with_coverage`] with the suite span
    /// parented under `parent`.
    pub fn run_suite_with_coverage_under(
        &self,
        factory: &dyn ComponentFactory,
        suite: &TestSuite,
        log: &mut TestLog,
        parent: SpanId,
    ) -> (SuiteResult, CoverageMatrix) {
        let mut coverage = CoverageMatrix::new(suite.class_name.clone());
        let result = self.run_suite_impl(factory, suite, Some(log), Some(&mut coverage), parent);
        (result, coverage)
    }

    /// The suite loop behind every `run_suite*` entry point; `log` and
    /// `coverage` are filled only when given.
    fn run_suite_impl(
        &self,
        factory: &dyn ComponentFactory,
        suite: &TestSuite,
        mut log: Option<&mut TestLog>,
        mut coverage: Option<&mut CoverageMatrix>,
        parent: SpanId,
    ) -> SuiteResult {
        let span = self.telemetry.at(parent).span("suite", &suite.class_name);
        // Case spans nest under the suite span.
        let scoped = self.telemetry.at(span.id());
        let mut cases = Vec::with_capacity(suite.len());
        let mut notes = Vec::new();
        for case in suite {
            if let Some(coverage) = coverage.as_deref_mut() {
                coverage.record(case.id, case.method_names().iter().map(|m| (*m).to_owned()));
            }
            let result = self.run_case_with(&scoped, factory, case, log.as_deref_mut());
            if result.status.is_harness_stop() {
                notes.push(format!("case {}: {}", result.case_id, result.status));
            }
            cases.push(result);
        }
        SuiteResult {
            class_name: suite.class_name.clone(),
            cases,
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
            let ok = result
                .transcript
                .records
                .iter()
                .filter(|r| r.outcome.is_ok())
                .count() as u64;
            let raised = result.transcript.records.len() as u64 - ok;
            telemetry.incr_by("call.ok", ok);
            telemetry.incr_by("call.raised", raised);
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

    fn run_case_impl(
        &self,
        factory: &dyn ComponentFactory,
        case: &TestCase,
        mut log: Option<&mut TestLog>,
    ) -> CaseResult {
        // Only a log that keeps failure lines pays for rendering the case
        // name into them.
        let mut log_failure = |method: &str, message: &str| {
            if let Some(log) = log.as_deref_mut() {
                log.log_failure(&case.name(), method, message);
            }
        };
        let mut records = Vec::new();
        let mut call_index = 0usize;

        // Construct the object via the factory (birth node).
        let ctor_render = case.constructor.render();
        let constructed = catch_unwind(AssertUnwindSafe(|| {
            factory.construct(
                &case.constructor.method,
                &case.constructor.args,
                self.ctl.clone(),
            )
        }));
        let mut component = match constructed {
            Ok(Ok(c)) => {
                records.push(CallRecord {
                    call: ctor_render,
                    outcome: CallOutcome::Returned(Value::Null),
                });
                c
            }
            Ok(Err(exc)) => {
                records.push(CallRecord {
                    call: ctor_render,
                    outcome: CallOutcome::Raised {
                        tag: exc.tag().to_owned(),
                        message: exc.to_string(),
                    },
                });
                let status = status_from_exception(&exc, call_index);
                log_failure(&case.constructor.render(), &exc.to_string());
                return CaseResult {
                    case_id: case.id,
                    status,
                    transcript: Transcript {
                        records,
                        final_report: None,
                    },
                };
            }
            Err(panic) => {
                let deadline = is_deadline_payload(panic.as_ref());
                let message = panic_message(panic);
                records.push(CallRecord {
                    call: ctor_render,
                    outcome: CallOutcome::Raised {
                        tag: if deadline { "DEADLINE" } else { "PANIC" }.into(),
                        message: message.clone(),
                    },
                });
                log_failure(&case.constructor.render(), &message);
                let status = if deadline {
                    CaseStatus::DeadlineExceeded {
                        at_call: call_index,
                    }
                } else {
                    CaseStatus::Panicked {
                        message,
                        at_call: call_index,
                    }
                };
                return CaseResult {
                    case_id: case.id,
                    status,
                    transcript: Transcript {
                        records,
                        final_report: None,
                    },
                };
            }
        };

        // Invariant after construction (Figure 6 checks before the first
        // task method).
        if self.check_invariants {
            if let Err(v) = component.invariant_test() {
                let message = v.to_string();
                records.push(CallRecord {
                    call: "InvariantTest()".into(),
                    outcome: CallOutcome::Raised {
                        tag: "INVARIANT".into(),
                        message: message.clone(),
                    },
                });
                log_failure("InvariantTest()", &message);
                return CaseResult {
                    case_id: case.id,
                    status: CaseStatus::AssertionViolated {
                        message,
                        at_call: call_index,
                    },
                    transcript: Transcript {
                        records,
                        final_report: Some(component.reporter()),
                    },
                };
            }
        }

        let mut transcript_bytes: usize = records.iter().map(record_size).sum();
        for call in &case.calls {
            if let Some(max) = self.budget.max_calls {
                if call_index >= max {
                    log_failure(&call.render(), "call budget exhausted");
                    return CaseResult {
                        case_id: case.id,
                        status: CaseStatus::BudgetExhausted {
                            resource: BudgetResource::Calls,
                            at_call: call_index,
                        },
                        transcript: Transcript {
                            records,
                            final_report: Some(component.reporter()),
                        },
                    };
                }
            }
            // A deadline that fired between checkpoints preempts the
            // *next* call. A call that already returned keeps its
            // recorded outcome — a late-firing watchdog must never flip
            // finished work into a deadline stop; mid-call overruns
            // unwind with the deadline payload and are classified below.
            if self.token.is_cancelled() {
                call_index += 1;
                log_failure(&call.render(), "execution deadline exceeded");
                return CaseResult {
                    case_id: case.id,
                    status: CaseStatus::DeadlineExceeded {
                        at_call: call_index,
                    },
                    transcript: Transcript {
                        records,
                        final_report: None,
                    },
                };
            }
            call_index += 1;
            let rendered = call.render();
            let invoked = catch_unwind(AssertUnwindSafe(|| {
                component.invoke(&call.method, &call.args)
            }));
            match invoked {
                Ok(Ok(value)) => {
                    records.push(CallRecord {
                        call: rendered,
                        outcome: CallOutcome::Returned(value),
                    });
                }
                Ok(Err(exc)) => {
                    let message = exc.to_string();
                    records.push(CallRecord {
                        call: rendered.clone(),
                        outcome: CallOutcome::Raised {
                            tag: exc.tag().to_owned(),
                            message: message.clone(),
                        },
                    });
                    log_failure(&rendered, &message);
                    return CaseResult {
                        case_id: case.id,
                        status: status_from_exception(&exc, call_index),
                        transcript: Transcript {
                            records,
                            final_report: Some(component.reporter()),
                        },
                    };
                }
                Err(panic) => {
                    let deadline = is_deadline_payload(panic.as_ref());
                    let message = panic_message(panic);
                    records.push(CallRecord {
                        call: rendered.clone(),
                        outcome: CallOutcome::Raised {
                            tag: if deadline { "DEADLINE" } else { "PANIC" }.into(),
                            message: message.clone(),
                        },
                    });
                    log_failure(&rendered, &message);
                    let status = if deadline {
                        CaseStatus::DeadlineExceeded {
                            at_call: call_index,
                        }
                    } else {
                        CaseStatus::Panicked {
                            message,
                            at_call: call_index,
                        }
                    };
                    return CaseResult {
                        case_id: case.id,
                        status,
                        transcript: Transcript {
                            records,
                            final_report: None,
                        },
                    };
                }
            }
            if let Some(max) = self.budget.max_transcript_bytes {
                transcript_bytes += records.last().map_or(0, record_size);
                if transcript_bytes > max {
                    let last_call = records.last().map_or("", |r| r.call.as_str()).to_owned();
                    log_failure(&last_call, "transcript byte budget exhausted");
                    return CaseResult {
                        case_id: case.id,
                        status: CaseStatus::BudgetExhausted {
                            resource: BudgetResource::TranscriptBytes,
                            at_call: call_index,
                        },
                        transcript: Transcript {
                            records,
                            final_report: Some(component.reporter()),
                        },
                    };
                }
            }
            if self.check_invariants {
                if let Err(v) = component.invariant_test() {
                    let message = v.to_string();
                    records.push(CallRecord {
                        call: "InvariantTest()".into(),
                        outcome: CallOutcome::Raised {
                            tag: "INVARIANT".into(),
                            message: message.clone(),
                        },
                    });
                    log_failure("InvariantTest()", &message);
                    return CaseResult {
                        case_id: case.id,
                        status: CaseStatus::AssertionViolated {
                            message,
                            at_call: call_index,
                        },
                        transcript: Transcript {
                            records,
                            final_report: Some(component.reporter()),
                        },
                    };
                }
            }
        }

        let final_report = component.reporter();
        if let Some(log) = log {
            log.log_pass(&case.name(), &final_report);
        }
        CaseResult {
            case_id: case.id,
            status: CaseStatus::Passed,
            transcript: Transcript {
                records,
                final_report: Some(final_report),
            },
        }
    }
}

impl Default for TestRunner {
    fn default() -> Self {
        Self::new()
    }
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

/// Approximate transcript footprint of one record, for the byte budget.
/// Returned values count a small constant; raised outcomes count their
/// rendered tag + message (the parts that actually grow unbounded when a
/// mutant spews output).
fn record_size(record: &CallRecord) -> usize {
    record.call.len()
        + match &record.outcome {
            CallOutcome::Returned(_) => 8,
            CallOutcome::Raised { tag, message } => tag.len() + message.len(),
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
    }

    impl Component for Chaos {
        fn class_name(&self) -> &'static str {
            "Chaos"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec![
                "Add", "Corrupt", "Panic", "Stall", "Refuse", "Total", "~Chaos",
            ]
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            match m {
                "Add" => {
                    self.n += args::int(m, a, 0)?;
                    Ok(Value::Null)
                }
                "Corrupt" => {
                    self.n = -1;
                    Ok(Value::Null)
                }
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
                "Chaos" => Ok(Box::new(Chaos { n: 0, ctl })),
                "ChaosBroken" => Err(TestException::domain(constructor, "cannot build")),
                other => Err(unknown_method("Chaos", other)),
            }
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
            r.transcript.records[2].outcome,
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
            .any(|rec| rec.call == "InvariantTest()"));
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
            r.transcript.records.last().map(|rec| match &rec.outcome {
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
            r.transcript.records[1].outcome,
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
            r.transcript.records[1].outcome,
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
