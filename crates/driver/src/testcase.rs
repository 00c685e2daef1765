//! Test cases and test suites.
//!
//! A test case (paper Figure 6) exercises one transaction: it creates the
//! object through a constructor, invokes the transaction's methods with
//! generated argument values, checks the class invariant around every call,
//! and destroys the object. A test suite (Figure 7) is an executable
//! sequence of test cases.

use concat_runtime::Value;
use std::fmt;

/// How an argument value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgOrigin {
    /// Drawn randomly from the declared domain (§3.4.1).
    Generated,
    /// A domain boundary value (extension of the random strategy).
    Boundary,
    /// Supplied by a registered object provider.
    Provided,
    /// Completed manually by the tester (structured types).
    Manual,
}

concat_runtime::keyword_table!(ArgOrigin {
    Generated => "g",
    Boundary => "b",
    Provided => "p",
    Manual => "m",
});

impl fmt::Display for ArgOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArgOrigin::Generated => "generated",
            ArgOrigin::Boundary => "boundary",
            ArgOrigin::Provided => "provided",
            ArgOrigin::Manual => "manual",
        };
        f.write_str(s)
    }
}

/// One method invocation within a test case.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCall {
    /// Method id from the t-spec (`m3`).
    pub method_id: String,
    /// Runtime method name (`UpdateQty`).
    pub method: String,
    /// Argument values, in parameter order.
    pub args: Vec<Value>,
    /// Provenance of each argument (parallel to `args`).
    pub origins: Vec<ArgOrigin>,
}

impl MethodCall {
    /// Creates a call whose arguments are all generator-produced.
    pub fn generated(
        method_id: impl Into<String>,
        method: impl Into<String>,
        args: Vec<Value>,
    ) -> Self {
        let origins = vec![ArgOrigin::Generated; args.len()];
        MethodCall {
            method_id: method_id.into(),
            method: method.into(),
            args,
            origins,
        }
    }

    /// Renders the call the way Figure 6 documents it:
    /// `UpdateQty(321, "Mary")`. The [`fmt::Display`] form, collected.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

/// Writes the [`MethodCall::render`] form straight to the formatter,
/// argument by argument.
impl fmt::Display for MethodCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.method)?;
        for (i, arg) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{arg}")?;
        }
        f.write_str(")")
    }
}

/// A generated test case: one concrete realization of one transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct TestCase {
    /// Sequential id; the paper names drivers `TestCase<id>`.
    pub id: usize,
    /// Index of the transaction (TFM path) this case exercises.
    pub transaction_index: usize,
    /// Node labels along the path, for reports and history.
    pub node_path: Vec<String>,
    /// The constructor call that creates the object (first node).
    pub constructor: MethodCall,
    /// The remaining calls, in order; the final call is the destructor.
    pub calls: Vec<MethodCall>,
}

impl TestCase {
    /// The driver name of this case (`TC0`, `TC1`, … as in Figure 6).
    pub fn name(&self) -> String {
        format!("TC{}", self.id)
    }

    /// Call `position` of the case: the constructor is call 0.
    pub(crate) fn call_at(&self, position: usize) -> Option<&MethodCall> {
        match position {
            0 => Some(&self.constructor),
            p => self.calls.get(p - 1),
        }
    }

    /// All method names exercised, constructor first.
    pub fn method_names(&self) -> Vec<&str> {
        std::iter::once(self.constructor.method.as_str())
            .chain(self.calls.iter().map(|c| c.method.as_str()))
            .collect()
    }

    /// True when the case invokes `method`, as its constructor or as one
    /// of its calls. This is the coverage contract's reach (DESIGN.md
    /// §12): only a case that invokes a method can arm a mutated site of
    /// that method.
    pub fn invokes(&self, method: &str) -> bool {
        self.constructor.method == method || self.calls.iter().any(|c| c.method == method)
    }

    /// Total number of invocations including the constructor.
    pub fn len(&self) -> usize {
        1 + self.calls.len()
    }

    /// A test case always contains at least the constructor.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when any argument still needs manual completion (`Manual`
    /// origin with a `Null` placeholder counts as completed-by-default).
    pub fn needs_manual_completion(&self) -> bool {
        std::iter::once(&self.constructor)
            .chain(self.calls.iter())
            .any(|c| c.origins.contains(&ArgOrigin::Manual))
    }
}

/// Statistics of a generation run, reported alongside the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuiteStats {
    /// Transactions enumerated from the model.
    pub transactions: usize,
    /// Test cases produced (≥ transactions when nodes have alternatives).
    pub cases: usize,
    /// True when path enumeration hit its cap (never silently).
    pub truncated: bool,
    /// Calls whose arguments required manual completion.
    pub manual_args: usize,
}

/// An executable test suite for one component (paper Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct TestSuite {
    /// Class under test.
    pub class_name: String,
    /// The seed the generator used (reproducibility).
    pub seed: u64,
    /// The generated cases, in transaction order.
    pub cases: Vec<TestCase>,
    /// Generation statistics.
    pub stats: SuiteStats,
}

impl TestSuite {
    /// Number of test cases.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// True when generation produced no cases.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// Iterates over the cases.
    pub fn iter(&self) -> std::slice::Iter<'_, TestCase> {
        self.cases.iter()
    }

    /// Returns the sub-suite containing only the cases whose ids are in
    /// `ids`, renumbering nothing (ids stay stable for history purposes).
    pub fn filtered(&self, ids: &[usize]) -> TestSuite {
        TestSuite {
            class_name: self.class_name.clone(),
            seed: self.seed,
            cases: self
                .cases
                .iter()
                .filter(|c| ids.contains(&c.id))
                .cloned()
                .collect(),
            stats: SuiteStats {
                transactions: self.stats.transactions,
                cases: self.cases.iter().filter(|c| ids.contains(&c.id)).count(),
                truncated: self.stats.truncated,
                manual_args: self.stats.manual_args,
            },
        }
    }
}

impl<'a> IntoIterator for &'a TestSuite {
    type Item = &'a TestCase;
    type IntoIter = std::slice::Iter<'a, TestCase>;
    fn into_iter(self) -> Self::IntoIter {
        self.cases.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concat_runtime::{ObjRef, Rng};

    /// The allocating renderer `render` was before `Display` wrote
    /// straight to the formatter: the byte oracle of the streaming form.
    fn render_oracle(call: &MethodCall) -> String {
        let args: Vec<String> = call.args.iter().map(Value::to_literal).collect();
        format!("{}({})", call.method, args.join(", "))
    }

    fn random_arg(rng: &mut Rng, depth: usize) -> Value {
        const TEXT: [&str; 6] = ["", "Mary", "q\"uote", "back\\slash", "new\nline", "ünï ☃"];
        const FLOATS: [f64; 6] = [-0.0, 2.0, 0.25, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        match rng.index(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Int(rng.next_u64() as i64),
            2 => Value::Float(FLOATS[rng.index(FLOATS.len())]),
            3 => Value::Str(TEXT[rng.index(TEXT.len())].to_owned()),
            4 => Value::Obj(ObjRef::new("Provider", TEXT[rng.index(TEXT.len())])),
            5 => Value::Bool(rng.coin()),
            _ => (0..rng.index(4))
                .map(|_| random_arg(rng, depth - 1))
                .collect(),
        }
    }

    #[test]
    fn streaming_call_display_equals_the_allocating_oracle() {
        let mut rng = Rng::seed_from_u64(0xCA11);
        for case in 0..1000 {
            let args: Vec<Value> = (0..rng.index(5)).map(|_| random_arg(&mut rng, 4)).collect();
            let call = MethodCall::generated("m1", "UpdateQty", args);
            let expected = render_oracle(&call);
            assert_eq!(call.render(), expected, "case {case}: {call:?}");
            assert_eq!(call.to_string(), expected, "case {case}: {call:?}");
        }
    }

    fn case(id: usize) -> TestCase {
        TestCase {
            id,
            transaction_index: id,
            node_path: vec!["n1".into(), "n2".into()],
            constructor: MethodCall::generated("m1", "Product", vec![]),
            calls: vec![MethodCall::generated(
                "m3",
                "UpdateQty",
                vec![Value::Int(5)],
            )],
        }
    }

    #[test]
    fn names_match_figure6_convention() {
        assert_eq!(case(0).name(), "TC0");
        assert_eq!(case(12).name(), "TC12");
    }

    #[test]
    fn method_names_include_constructor_first() {
        assert_eq!(case(0).method_names(), vec!["Product", "UpdateQty"]);
        assert!(case(0).invokes("Product") && case(0).invokes("UpdateQty"));
        assert!(!case(0).invokes("Absent"));
        assert_eq!(case(0).len(), 2);
        assert!(!case(0).is_empty());
    }

    #[test]
    fn call_rendering() {
        let c = MethodCall::generated(
            "m9",
            "Method1",
            vec![Value::Int(321), Value::Int(594), Value::Str("Mary".into())],
        );
        assert_eq!(c.render(), "Method1(321, 594, \"Mary\")");
        assert_eq!(c.to_string(), c.render());
    }

    #[test]
    fn manual_completion_detection() {
        let mut c = case(0);
        assert!(!c.needs_manual_completion());
        c.calls[0].origins[0] = ArgOrigin::Manual;
        assert!(c.needs_manual_completion());
    }

    #[test]
    fn suite_filtering_keeps_ids() {
        let suite = TestSuite {
            class_name: "C".into(),
            seed: 1,
            cases: vec![case(0), case(1), case(2)],
            stats: SuiteStats {
                transactions: 3,
                cases: 3,
                truncated: false,
                manual_args: 0,
            },
        };
        let sub = suite.filtered(&[0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.cases[1].id, 2);
        assert_eq!(sub.stats.cases, 2);
    }

    #[test]
    fn suite_iteration() {
        let suite = TestSuite {
            class_name: "C".into(),
            seed: 1,
            cases: vec![case(0)],
            stats: SuiteStats::default(),
        };
        assert_eq!(suite.iter().count(), 1);
        assert_eq!((&suite).into_iter().count(), 1);
        assert!(!suite.is_empty());
    }

    #[test]
    fn arg_origin_display() {
        assert_eq!(ArgOrigin::Generated.to_string(), "generated");
        assert_eq!(ArgOrigin::Manual.to_string(), "manual");
    }
}
