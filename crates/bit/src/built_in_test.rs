//! The `BuiltInTest` interface (paper Figure 4) and the testable-component
//! factory used by drivers.
//!
//! The paper defines an abstract class `BuiltInTest` with two methods —
//! `InvariantTest` and `Reporter` — "created to guarantee a built-in test
//! interface independent from the target class interface". The target class
//! inherits and redefines them. In Rust the same contract is a trait.

use crate::control::BitControl;
use crate::report::StateReport;
use concat_runtime::{AssertionViolation, Component, TestException, Value};

/// Built-in test capabilities a self-testable component must provide.
///
/// Mirrors the paper's Figure 4: `InvariantTest` (drivers call it before and
/// after every method of a transaction) and `Reporter` (state dump at the
/// end of a test case), plus access to the BIT control switch.
pub trait BuiltInTest {
    /// The shared test-mode switch of this instance.
    fn bit_control(&self) -> &BitControl;

    /// Evaluates the class invariant against the current state.
    ///
    /// # Errors
    ///
    /// Returns the violated assertion when the invariant does not hold.
    /// Implementations should return `Ok(())` when BIT is disabled (the
    /// [`crate::class_invariant!`] macro does this automatically).
    fn invariant_test(&self) -> Result<(), AssertionViolation>;

    /// Captures the object's internal state for the log and the oracle.
    fn reporter(&self) -> StateReport;

    /// Reads one observable of [`BuiltInTest::reporter`] by name: always
    /// what `reporter().get(name).cloned()` returns, `None` for a name the
    /// report lacks. Invariant clauses read only the fields they name, so
    /// a component may override this to read one field without building
    /// the whole report.
    fn observe(&self, name: &str) -> Option<Value> {
        self.reporter().get(name).cloned()
    }
}

/// A component under test with built-in test capabilities.
///
/// Blanket-implemented for every `Component + BuiltInTest` type; drivers
/// hold `Box<dyn TestableComponent>`.
pub trait TestableComponent: Component + BuiltInTest {}

impl<T: Component + BuiltInTest> TestableComponent for T {}

/// Constructs fresh component instances for the driver.
///
/// Each test case begins by creating the object through one of its
/// constructors (a birth-node method) and ends by destroying it, so the
/// driver needs a way to make instances on demand — with BIT already wired
/// to the harness's [`BitControl`].
pub trait ComponentFactory {
    /// Class name of the produced components.
    fn class_name(&self) -> &str;

    /// Creates an instance via the named constructor.
    ///
    /// # Errors
    ///
    /// Returns [`TestException::UnknownMethod`] for an unknown constructor
    /// name, or any exception the constructor itself raises (e.g. a
    /// precondition violation on constructor arguments).
    fn construct(
        &self,
        constructor: &str,
        args: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use concat_runtime::{args, unknown_method, InvokeResult};

    struct Gauge {
        level: i64,
        ctl: BitControl,
    }

    impl Component for Gauge {
        fn class_name(&self) -> &'static str {
            "Gauge"
        }
        fn method_names(&self) -> Vec<&'static str> {
            vec!["Set", "Level"]
        }
        fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
            match m {
                "Set" => {
                    self.level = args::int(m, a, 0)?;
                    Ok(Value::Null)
                }
                "Level" => Ok(Value::Int(self.level)),
                _ => Err(unknown_method(self.class_name(), m)),
            }
        }
    }

    impl BuiltInTest for Gauge {
        fn bit_control(&self) -> &BitControl {
            &self.ctl
        }
        fn invariant_test(&self) -> Result<(), AssertionViolation> {
            crate::check(
                &self.ctl,
                concat_runtime::AssertionKind::Invariant,
                "Gauge",
                "",
                "0 <= level <= 10",
                (0..=10).contains(&self.level),
            )
        }
        fn reporter(&self) -> StateReport {
            let mut r = StateReport::new();
            r.set("level", Value::Int(self.level));
            r
        }
    }

    struct GaugeFactory;
    impl ComponentFactory for GaugeFactory {
        fn class_name(&self) -> &str {
            "Gauge"
        }
        fn construct(
            &self,
            constructor: &str,
            args_: &[Value],
            ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            match constructor {
                "Gauge" => {
                    let level = if args_.is_empty() {
                        0
                    } else {
                        args::int(constructor, args_, 0)?
                    };
                    Ok(Box::new(Gauge { level, ctl }))
                }
                other => Err(unknown_method("Gauge", other)),
            }
        }
    }

    #[test]
    fn factory_builds_testable_instances() {
        let ctl = BitControl::new_enabled();
        let mut g = GaugeFactory
            .construct("Gauge", &[Value::Int(3)], ctl)
            .unwrap();
        assert_eq!(g.invoke("Level", &[]).unwrap(), Value::Int(3));
        assert!(g.invariant_test().is_ok());
        assert_eq!(g.reporter().get("level"), Some(&Value::Int(3)));
    }

    #[test]
    fn invariant_detects_corrupt_state() {
        let ctl = BitControl::new_enabled();
        let mut g = GaugeFactory.construct("Gauge", &[], ctl.clone()).unwrap();
        g.invoke("Set", &[Value::Int(99)]).unwrap();
        let v = g.invariant_test().unwrap_err();
        assert_eq!(v.kind, concat_runtime::AssertionKind::Invariant);
        assert_eq!(ctl.violations(), 1);
    }

    #[test]
    fn invariant_silent_when_bit_disabled() {
        let ctl = BitControl::new(); // disabled
        let mut g = GaugeFactory.construct("Gauge", &[], ctl).unwrap();
        g.invoke("Set", &[Value::Int(99)]).unwrap();
        assert!(g.invariant_test().is_ok());
    }

    #[test]
    fn unknown_constructor_rejected() {
        let err = GaugeFactory
            .construct("NotACtor", &[], BitControl::new_enabled())
            .err()
            .unwrap();
        assert_eq!(err.tag(), "UNKNOWN_METHOD");
    }

    #[test]
    fn observe_defaults_to_the_report_field() {
        let g = GaugeFactory
            .construct("Gauge", &[Value::Int(4)], BitControl::new_enabled())
            .unwrap();
        assert_eq!(g.observe("level"), Some(Value::Int(4)));
        assert_eq!(g.observe("nope"), None);
    }

    #[test]
    fn trait_objects_compose() {
        // TestableComponent is object-safe and blanket-implemented.
        let ctl = BitControl::new_enabled();
        let boxed: Box<dyn TestableComponent> = GaugeFactory.construct("Gauge", &[], ctl).unwrap();
        assert_eq!(boxed.class_name(), "Gauge");
    }
}
