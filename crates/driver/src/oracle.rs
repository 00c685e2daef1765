//! The test oracle.
//!
//! The paper combines two oracle mechanisms (§3.3, §4): the *partial
//! oracle* of contract assertions, already enforced inline by the runner,
//! and a golden-output comparison — "the output of the program that
//! finished execution was different of the output of the original program
//! (these outputs were validated by hand before experiments began)".
//!
//! [`compare_transcripts`] implements the golden comparison over the
//! runner's [`Transcript`]s; [`Verdict`] explains the first divergence.

use crate::runner::{CallOutcome, CaseResult, SuiteResult, Transcript, INVARIANT_CALL};
use crate::testcase::{MethodCall, TestCase};
use std::fmt;

/// How two runs of the same test case differ (first difference only).
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Call `index` produced a different outcome (value or exception).
    CallOutcome {
        /// Index into the transcript's records.
        index: usize,
        /// Rendered golden record.
        expected: String,
        /// Rendered observed record.
        observed: String,
    },
    /// The runs executed a different number of calls (early abort).
    Length {
        /// Golden record count.
        expected: usize,
        /// Observed record count.
        observed: usize,
    },
    /// The final reporter state differs.
    FinalState {
        /// Rendered golden report (or `<none>`).
        expected: String,
        /// Rendered observed report (or `<none>`).
        observed: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::CallOutcome {
                index,
                expected,
                observed,
            } => {
                write!(f, "call {index}: expected {expected}, observed {observed}")
            }
            Divergence::Length { expected, observed } => {
                write!(f, "executed {observed} call(s), expected {expected}")
            }
            Divergence::FinalState { expected, observed } => {
                write!(
                    f,
                    "final state differs: expected {expected:?}, observed {observed:?}"
                )
            }
        }
    }
}

/// Outcome of comparing an observed transcript against the golden one.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Behaviourally indistinguishable runs.
    Match,
    /// The runs diverge; the payload explains where first.
    Differs(Divergence),
}

impl Verdict {
    /// True for [`Verdict::Match`].
    pub fn is_match(&self) -> bool {
        matches!(self, Verdict::Match)
    }
}

/// Renders record `index` of `t`, naming its call from `case`.
fn render_record(case: &TestCase, t: &Transcript, index: usize) -> String {
    let call = || {
        case.call_at(index)
            .map(MethodCall::render)
            .unwrap_or_default()
    };
    match &t.records[index] {
        CallOutcome::Returned(v) => format!("{} -> {}", call(), v.to_literal()),
        CallOutcome::Raised { tag, message } => format!("{} !! [{tag}] {message}", call()),
        CallOutcome::InvariantFailed { message } => {
            format!("{INVARIANT_CALL} !! [INVARIANT] {message}")
        }
    }
}

/// Compares an observed transcript against the golden transcript of the
/// same test case, `case`.
///
/// The comparison covers, in order: per-call outcomes (return values and
/// raised exceptions), transcript length (early aborts), and the final
/// reporter state. The *first* difference is reported; its call is named
/// from `case`.
///
/// # Examples
///
/// ```
/// use concat_driver::{compare_transcripts, MethodCall, TestCase, Transcript};
/// let case = TestCase {
///     id: 0,
///     transaction_index: 0,
///     node_path: vec!["n1".into()],
///     constructor: MethodCall::generated("m1", "Stack", vec![]),
///     calls: vec![],
/// };
/// let golden = Transcript { records: vec![], final_report: None };
/// let observed = golden.clone();
/// assert!(compare_transcripts(&case, &golden, &observed).is_match());
/// ```
pub fn compare_transcripts(case: &TestCase, golden: &Transcript, observed: &Transcript) -> Verdict {
    let n = golden.records.len().min(observed.records.len());
    for i in 0..n {
        if golden.records[i] != observed.records[i] {
            return Verdict::Differs(Divergence::CallOutcome {
                index: i,
                expected: render_record(case, golden, i),
                observed: render_record(case, observed, i),
            });
        }
    }
    if golden.records.len() != observed.records.len() {
        return Verdict::Differs(Divergence::Length {
            expected: golden.records.len(),
            observed: observed.records.len(),
        });
    }
    if golden.final_report != observed.final_report {
        let render = |r: &Option<concat_bit::StateReport>| {
            r.as_ref()
                .map_or_else(|| "<none>".to_owned(), |s| s.render())
        };
        return Verdict::Differs(Divergence::FinalState {
            expected: render(&golden.final_report),
            observed: render(&observed.final_report),
        });
    }
    Verdict::Match
}

/// Compares two whole suite runs case-by-case.
///
/// Returns the ids of the cases whose transcripts differ — the set of test
/// cases that *distinguish* the two programs. In mutation analysis a
/// non-empty result means the mutant is killed by output difference.
pub fn differing_cases(golden: &SuiteResult, observed: &SuiteResult) -> Vec<usize> {
    let mut out = Vec::new();
    for (g, o) in golden.cases.iter().zip(observed.cases.iter()) {
        debug_assert_eq!(g.case_id, o.case_id, "suite results must align");
        if g.transcript != o.transcript {
            out.push(g.case_id);
        }
    }
    out
}

/// A manually supplied expected outcome for a case (the paper's
/// hand-validated outputs). `None` entries mean "any behaviour accepted".
#[derive(Debug, Clone, Default)]
pub struct ManualOracle {
    expectations: Vec<(usize, Transcript)>,
}

impl ManualOracle {
    /// Creates an oracle with no expectations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the expected transcript for a case id.
    pub fn expect(&mut self, case_id: usize, transcript: Transcript) {
        self.expectations.retain(|(id, _)| *id != case_id);
        self.expectations.push((case_id, transcript));
    }

    /// Number of registered expectations.
    pub fn len(&self) -> usize {
        self.expectations.len()
    }

    /// True when no expectations are registered.
    pub fn is_empty(&self) -> bool {
        self.expectations.is_empty()
    }

    /// Checks an executed run of `case` against its expectation, if any.
    pub fn check(&self, case: &TestCase, result: &CaseResult) -> Verdict {
        match self
            .expectations
            .iter()
            .find(|(id, _)| *id == result.case_id)
        {
            Some((_, expected)) => compare_transcripts(case, expected, &result.transcript),
            None => Verdict::Match,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CaseStatus;
    use concat_bit::StateReport;
    use concat_runtime::Value;

    /// The case every test transcript belongs to: `M()` then `M(1)`,
    /// `M(2)`, `M(3)`.
    fn case() -> TestCase {
        TestCase {
            id: 0,
            transaction_index: 0,
            node_path: vec!["n1".into()],
            constructor: MethodCall::generated("m1", "M", vec![]),
            calls: (1..=3)
                .map(|v| MethodCall::generated("m2", "M", vec![Value::Int(v)]))
                .collect(),
        }
    }

    fn transcript(vals: &[i64], report: Option<i64>) -> Transcript {
        Transcript {
            records: vals
                .iter()
                .map(|v| CallOutcome::Returned(Value::Int(*v)))
                .collect(),
            final_report: report.map(|n| {
                let mut r = StateReport::new();
                r.set("n", Value::Int(n));
                r
            }),
        }
    }

    #[test]
    fn identical_transcripts_match() {
        let t = transcript(&[1, 2], Some(3));
        assert!(compare_transcripts(&case(), &t, &t.clone()).is_match());
    }

    #[test]
    fn differing_return_value_detected_with_index() {
        let g = transcript(&[1, 2], Some(3));
        let o = transcript(&[1, 5], Some(3));
        match compare_transcripts(&case(), &g, &o) {
            Verdict::Differs(Divergence::CallOutcome {
                index,
                expected,
                observed,
            }) => {
                assert_eq!(index, 1);
                assert!(expected.contains("2"));
                assert!(observed.contains("5"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn early_abort_detected_as_length() {
        let g = transcript(&[1, 2, 3], Some(0));
        let o = transcript(&[1, 2], Some(0));
        assert!(matches!(
            compare_transcripts(&case(), &g, &o),
            Verdict::Differs(Divergence::Length {
                expected: 3,
                observed: 2
            })
        ));
    }

    #[test]
    fn final_state_difference_detected() {
        let g = transcript(&[1], Some(10));
        let o = transcript(&[1], Some(11));
        assert!(matches!(
            compare_transcripts(&case(), &g, &o),
            Verdict::Differs(Divergence::FinalState { .. })
        ));
    }

    #[test]
    fn missing_report_is_a_difference() {
        let g = transcript(&[1], Some(10));
        let o = transcript(&[1], None);
        assert!(!compare_transcripts(&case(), &g, &o).is_match());
    }

    #[test]
    fn exception_vs_return_is_a_difference() {
        let g = transcript(&[1], None);
        let mut o = g.clone();
        o.records[0] = CallOutcome::Raised {
            tag: "PANIC".into(),
            message: "x".into(),
        };
        match compare_transcripts(&case(), &g, &o) {
            Verdict::Differs(Divergence::CallOutcome { observed, .. }) => {
                assert!(observed.contains("[PANIC]"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn differing_cases_across_suites() {
        let mk = |vals: &[i64]| CaseResult {
            case_id: 0,
            status: CaseStatus::Passed,
            transcript: transcript(vals, None),
        };
        let golden = SuiteResult {
            class_name: "C".into(),
            cases: vec![mk(&[1]), {
                let mut c = mk(&[2]);
                c.case_id = 1;
                c
            }],
            notes: vec![],
        };
        let observed = SuiteResult {
            class_name: "C".into(),
            cases: vec![mk(&[1]), {
                let mut c = mk(&[9]);
                c.case_id = 1;
                c
            }],
            notes: vec![],
        };
        assert_eq!(differing_cases(&golden, &observed), vec![1]);
    }

    #[test]
    fn manual_oracle_checks_registered_cases_only() {
        let mut oracle = ManualOracle::new();
        assert!(oracle.is_empty());
        oracle.expect(0, transcript(&[1], None));
        assert_eq!(oracle.len(), 1);
        let good = CaseResult {
            case_id: 0,
            status: CaseStatus::Passed,
            transcript: transcript(&[1], None),
        };
        let bad = CaseResult {
            case_id: 0,
            status: CaseStatus::Passed,
            transcript: transcript(&[2], None),
        };
        let unregistered = CaseResult {
            case_id: 7,
            status: CaseStatus::Passed,
            transcript: transcript(&[99], None),
        };
        assert!(oracle.check(&case(), &good).is_match());
        assert!(!oracle.check(&case(), &bad).is_match());
        assert!(oracle.check(&case(), &unregistered).is_match());
    }

    #[test]
    fn divergence_display() {
        let d = Divergence::Length {
            expected: 3,
            observed: 1,
        };
        assert!(d.to_string().contains("expected 3"));
    }
}
