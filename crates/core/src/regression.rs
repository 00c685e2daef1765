//! Regression checking across component releases.
//!
//! The paper motivates Table 3 with exactly this situation: "an
//! application reuses components from a commercial library, and a new
//! release of the library substitutes the old one" (§4). A consumer who
//! persisted the old release's suite *and its transcripts* can diff the
//! new release against them: [`regression_check`] re-runs the suite and
//! reports every behavioural difference.

use crate::bundle::SelfTestable;
use concat_driver::{compare_transcripts, SuiteResult, TestRunner, TestSuite, Verdict};
use concat_obs::SpanId;
use std::fmt;

/// One behavioural difference between releases.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionFinding {
    /// The distinguishing test case.
    pub case_id: usize,
    /// Human-readable description of the first divergence.
    pub divergence: String,
}

/// The outcome of a regression check.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Class under check.
    pub class_name: String,
    /// Cases executed.
    pub cases_run: usize,
    /// Behavioural differences, in case order.
    pub findings: Vec<RegressionFinding>,
}

impl RegressionReport {
    /// True when the new release is behaviourally indistinguishable from
    /// the recorded baseline on this suite.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl fmt::Display for RegressionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "{}: no behavioural change across {} case(s)",
                self.class_name, self.cases_run
            )
        } else {
            writeln!(
                f,
                "{}: {} behavioural change(s) across {} case(s):",
                self.class_name,
                self.findings.len(),
                self.cases_run
            )?;
            for finding in &self.findings {
                writeln!(f, "  TC{}: {}", finding.case_id, finding.divergence)?;
            }
            Ok(())
        }
    }
}

/// Records the baseline: runs `suite` against the current release and
/// returns its transcripts for persistence alongside the suite.
pub fn record_baseline(component: &SelfTestable, suite: &TestSuite) -> SuiteResult {
    TestRunner::new().run_suite_under(component.factory(), suite, SpanId::NONE)
}

/// Re-runs `suite` against (a new release of) `component` and diffs every
/// transcript against `baseline`.
///
/// The baseline must come from the *same* suite (same case ids, same
/// order) — typically a [`record_baseline`] result persisted with
/// [`concat_driver::save_suite`].
pub fn regression_check(
    component: &SelfTestable,
    suite: &TestSuite,
    baseline: &SuiteResult,
) -> RegressionReport {
    let observed = record_baseline(component, suite);
    let mut findings = Vec::new();
    for ((case, old), new) in suite.iter().zip(&baseline.cases).zip(&observed.cases) {
        debug_assert_eq!(old.case_id, new.case_id, "baseline/suite misalignment");
        if let Verdict::Differs(d) = compare_transcripts(case, &old.transcript, &new.transcript) {
            findings.push(RegressionFinding {
                case_id: old.case_id,
                divergence: d.to_string(),
            });
        }
    }
    RegressionReport {
        class_name: suite.class_name.clone(),
        cases_run: observed.cases.len(),
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::SelfTestableBuilder;
    use crate::consumer::Consumer;
    use concat_bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
    use concat_components::{coblist_spec, CObListFactory};
    use concat_driver::{MethodCall, TestCase};
    use concat_mutation::{FaultPlan, MutationSwitch, Replacement, ReqConst};
    use concat_runtime::{
        unknown_method, AssertionKind, AssertionViolation, Component, InvokeResult, TestException,
        Value,
    };
    use concat_tspec::{ClassSpecBuilder, Domain, MethodCategory};
    use std::cell::Cell;
    use std::rc::Rc;

    fn bundle(switch: MutationSwitch) -> SelfTestable {
        SelfTestableBuilder::new(coblist_spec(), Rc::new(CObListFactory::new(switch))).build()
    }

    #[test]
    fn identical_release_is_clean() {
        let b = bundle(MutationSwitch::new());
        let suite = Consumer::with_seed(81).generate(&b).unwrap();
        let baseline = record_baseline(&b, &suite);
        let report = regression_check(&b, &suite, &baseline);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.cases_run, suite.len());
        assert!(report.to_string().contains("no behavioural change"));
    }

    #[test]
    fn behavioural_change_is_detected_and_localized() {
        // Model a "new release" with a regression by arming a fault after
        // recording the baseline — the mutation switch stands in for the
        // library substitution.
        let switch = MutationSwitch::new();
        let b = bundle(switch.clone());
        let suite = Consumer::with_seed(82).generate(&b).unwrap();
        let baseline = record_baseline(&b, &suite);
        switch.arm(FaultPlan {
            method: "RemoveHead".into(),
            site: 2,
            replacement: Replacement::Const(ReqConst::Zero),
        });
        let report = regression_check(&b, &suite, &baseline);
        switch.disarm();
        assert!(!report.is_clean());
        // Only cases exercising RemoveHead can differ.
        for finding in &report.findings {
            let case = suite
                .cases
                .iter()
                .find(|c| c.id == finding.case_id)
                .unwrap();
            assert!(
                case.method_names().contains(&"RemoveHead"),
                "TC{} does not call RemoveHead",
                finding.case_id
            );
        }
        assert!(report.to_string().contains("behavioural change(s)"));
    }

    /// A gauge whose second release reads one high, refuses `Check`,
    /// cannot be built with 7, and breaks its invariant on `Drain`.
    struct Gauge {
        n: i64,
        second: bool,
        ctl: BitControl,
    }

    impl Component for Gauge {
        fn class_name(&self) -> &'static str {
            "Gauge"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["Read", "Check", "Drain"]
        }
        fn invoke(&mut self, m: &str, _a: &[Value]) -> InvokeResult {
            match (m, self.second) {
                ("Read", _) => Ok(Value::Int(self.n + i64::from(self.second))),
                ("Check", true) => Err(TestException::domain(m, "refused")),
                ("Drain", true) => {
                    self.n = -1;
                    Ok(Value::Null)
                }
                ("Check" | "Drain", false) => Ok(Value::Null),
                _ => Err(unknown_method("Gauge", m)),
            }
        }
    }

    impl BuiltInTest for Gauge {
        fn bit_control(&self) -> &BitControl {
            &self.ctl
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            concat_bit::check(
                &self.ctl,
                AssertionKind::Invariant,
                "Gauge",
                "",
                "n >= 0",
                self.n >= 0,
            )
        }
        fn reporter(&self) -> StateReport {
            StateReport::new()
        }
    }

    struct GaugeFactory {
        second: Rc<Cell<bool>>,
    }

    impl ComponentFactory for GaugeFactory {
        fn class_name(&self) -> &str {
            "Gauge"
        }
        fn construct(
            &self,
            constructor: &str,
            args: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            let second = self.second.get();
            if second && args == [Value::Int(7)] {
                return Err(TestException::domain(constructor, "no stock"));
            }
            Ok(Box::new(Gauge { n: 0, second, ctl }))
        }
    }

    #[test]
    fn divergence_text_names_the_call_that_differs() {
        let second = Rc::new(Cell::new(false));
        let spec = ClassSpecBuilder::new("Gauge")
            .constructor("m1", "Gauge")
            .param("x", Domain::int_range(0, 9))
            .method("m2", "Read", MethodCategory::Access)
            .method("m3", "Check", MethodCategory::Access)
            .method("m4", "Drain", MethodCategory::Update)
            .destructor("m5", "~Gauge")
            .birth_node("n1", ["m1"])
            .task_node("n2", ["m2", "m3", "m4"])
            .death_node("n3", ["m5"])
            .edge("n1", "n2")
            .edge("n2", "n3")
            .build()
            .unwrap();
        let factory = GaugeFactory {
            second: second.clone(),
        };
        let b = SelfTestableBuilder::new(spec, Rc::new(factory)).build();
        let call = |id: &str, name: &str| MethodCall::generated(id, name, vec![]);
        let cases = [
            (0, vec![call("m2", "Read")]),
            (0, vec![call("m3", "Check")]),
            (7, vec![call("m2", "Read")]),
            (0, vec![call("m4", "Drain"), call("m2", "Read")]),
        ];
        let suite = TestSuite {
            class_name: "Gauge".into(),
            seed: 0,
            cases: cases
                .into_iter()
                .enumerate()
                .map(|(id, (x, calls))| TestCase {
                    id,
                    transaction_index: 0,
                    node_path: vec!["n1".into(), "n2".into()],
                    constructor: MethodCall::generated("m1", "Gauge", vec![Value::Int(x)]),
                    calls,
                })
                .collect(),
            stats: Default::default(),
        };
        let baseline = record_baseline(&b, &suite);
        second.set(true);
        let report = regression_check(&b, &suite, &baseline);
        let found: Vec<(usize, &str)> = report
            .findings
            .iter()
            .map(|f| (f.case_id, f.divergence.as_str()))
            .collect();
        assert_eq!(
            found,
            [
                (0, "call 1: expected Read() -> 0, observed Read() -> 1"),
                (
                    1,
                    "call 1: expected Check() -> NULL, observed Check() !! [DOMAIN] Check: refused"
                ),
                (
                    2,
                    "call 0: expected Gauge(7) -> NULL, observed Gauge(7) !! [DOMAIN] Gauge: no stock"
                ),
                (
                    3,
                    "call 2: expected Read() -> 0, observed InvariantTest() !! [INVARIANT] \
                     invariant is violated in Gauge::: n >= 0"
                ),
            ]
        );
    }
}
