//! `CTypedObList`: a second derived class that *redefines* inherited
//! methods.
//!
//! `CSortableObList` only adds methods, so its reuse analysis never
//! exercises the paper's middle category — transactions whose cases are
//! "reused … in case the modification in the subclass did not change the
//! specification" (§3.4.2). `CTypedObList` fills that gap: it redefines
//! the four element-accepting methods (`AddHead`, `AddTail`, `SetAt`,
//! `InsertAfter`) to enforce an integers-only element policy (a stronger
//! precondition; same signatures, as Harrold's technique requires) and
//! inherits everything else unchanged.

use crate::oblist::CObList;
use concat_bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat_driver::InheritanceMap;
use concat_mutation::{ClonableFactory, MutationSwitch};
use concat_runtime::{
    args, unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
};
use concat_tspec::{ClassSpec, ClassSpecBuilder, Domain, MethodCategory};

/// An integers-only `CObList` subclass (redefinition subject).
#[derive(Debug)]
pub struct CTypedObList {
    base: CObList,
    ctl: BitControl,
}

impl CTypedObList {
    /// Class name used in specs and dispatch.
    pub const CLASS: &'static str = "CTypedObList";

    /// The methods this subclass redefines (same signatures, stronger
    /// precondition).
    pub const REDEFINED: [&'static str; 4] = ["AddHead", "AddTail", "SetAt", "InsertAfter"];

    /// Creates an empty typed list.
    pub fn new(ctl: BitControl, switch: MutationSwitch) -> Self {
        CTypedObList {
            base: CObList::new(ctl.clone(), switch),
            ctl,
        }
    }

    fn check_element(&self, method: &str, v: &Value) -> Result<(), TestException> {
        concat_bit::pre_condition!(&self.ctl, Self::CLASS, method, matches!(v, Value::Int(_)));
        // Deployment mode: enforce with a domain error instead, so the
        // typed invariant can never be silently broken.
        if !matches!(v, Value::Int(_)) {
            return Err(TestException::domain(method, "element must be an integer"));
        }
        Ok(())
    }
}

impl Component for CTypedObList {
    fn class_name(&self) -> &'static str {
        Self::CLASS
    }

    fn method_names(&self) -> Vec<&'static str> {
        let mut names = vec!["~CTypedObList"];
        names.extend(
            self.base
                .method_names()
                .into_iter()
                .filter(|m| *m != "~CObList"),
        );
        names
    }

    fn invoke(&mut self, method: &str, a: &[Value]) -> InvokeResult {
        match method {
            // Redefined: type-check, then invoke the inherited behaviour.
            "AddHead" | "AddTail" => {
                args::expect_arity(method, a, 1)?;
                self.check_element(method, &a[0])?;
                self.base.invoke(method, a)
            }
            "SetAt" | "InsertAfter" => {
                args::expect_arity(method, a, 2)?;
                self.check_element(method, &a[1])?;
                self.base.invoke(method, a)
            }
            "~CTypedObList" => {
                self.base.remove_all();
                Ok(Value::Null)
            }
            "~CObList" => Err(unknown_method(self.class_name(), method)),
            inherited => self.base.invoke(inherited, a),
        }
    }
}

impl BuiltInTest for CTypedObList {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }

    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        self.base.invariant_test()?;
        // The subclass strengthens the invariant: every element is Int.
        let all_ints = self
            .base
            .values()
            .is_some_and(|vs| vs.iter().all(|v| matches!(v, Value::Int(_))));
        concat_bit::check(
            &self.ctl,
            concat_runtime::AssertionKind::Invariant,
            Self::CLASS,
            "",
            "all elements are integers",
            all_ints,
        )
    }

    fn reporter(&self) -> StateReport {
        self.base.reporter()
    }

    fn observe(&self, name: &str) -> Option<Value> {
        self.base.observe(name)
    }
}

/// Factory for [`CTypedObList`] instances.
#[derive(Debug, Clone, Default)]
pub struct CTypedObListFactory {
    switch: MutationSwitch,
}

impl CTypedObListFactory {
    /// Creates a factory wired to `switch` (the inherited instrumented
    /// methods still read through it).
    pub fn new(switch: MutationSwitch) -> Self {
        CTypedObListFactory { switch }
    }
}

impl ComponentFactory for CTypedObListFactory {
    fn class_name(&self) -> &str {
        CTypedObList::CLASS
    }

    fn construct(
        &self,
        constructor: &str,
        a: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        match constructor {
            "CTypedObList" => {
                args::expect_arity(constructor, a, 0)?;
                Ok(Box::new(CTypedObList::new(ctl, self.switch.clone())))
            }
            other => Err(unknown_method(CTypedObList::CLASS, other)),
        }
    }
}

impl ClonableFactory for CTypedObListFactory {
    fn class_name(&self) -> &str {
        CTypedObList::CLASS
    }

    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
        Box::new(CTypedObListFactory::new(switch.clone()))
    }
}

/// The t-spec of `CTypedObList`: the base interface with integer-only
/// element domains (the redefinition is visible as the tightened domain)
/// and the base model shape.
pub fn typed_spec() -> ClassSpec {
    let value = || Domain::int_range(-99, 99);
    let index = || Domain::int_range(0, 1);
    ClassSpecBuilder::new(CTypedObList::CLASS)
        .superclass("CObList")
        .attribute("m_nCount", Domain::int_range(0, 99_999))
        .attribute(
            "m_pNodeHead",
            Domain::Pointer {
                class_name: "CNode".into(),
            },
        )
        .attribute(
            "m_pNodeTail",
            Domain::Pointer {
                class_name: "CNode".into(),
            },
        )
        .attribute("m_nBlockSize", Domain::int_range(1, 64))
        .constructor("m1", "CTypedObList")
        .method("m2", "AddHead", MethodCategory::Update)
        .param("newElement", value())
        .method("m3", "AddTail", MethodCategory::Update)
        .param("newElement", value())
        .method("m4", "RemoveHead", MethodCategory::Update)
        .returns("Value")
        .method("m5", "RemoveTail", MethodCategory::Update)
        .returns("Value")
        .method("m6", "GetHead", MethodCategory::Access)
        .returns("Value")
        .method("m7", "GetTail", MethodCategory::Access)
        .returns("Value")
        .method("m8", "GetAt", MethodCategory::Access)
        .param("index", index())
        .returns("Value")
        .method("m9", "SetAt", MethodCategory::Update)
        .param("index", index())
        .param("newElement", value())
        .method("m10", "InsertAfter", MethodCategory::Update)
        .param("index", index())
        .param("newElement", value())
        .method("m11", "Find", MethodCategory::Access)
        .param("searchValue", value())
        .returns("int")
        .method("m12", "RemoveAt", MethodCategory::Update)
        .param("index", index())
        .returns("Value")
        .method("m13", "GetCount", MethodCategory::Access)
        .returns("int")
        .method("m14", "IsEmpty", MethodCategory::Access)
        .returns("bool")
        .method("m15", "RemoveAll", MethodCategory::Update)
        .destructor("m16", "~CTypedObList")
        .birth_node("n1", ["m1"])
        .task_node("n2", ["m2", "m3"])
        .task_node("n3", ["m2", "m3"])
        .task_node("n4", ["m6", "m7"])
        .task_node("n5", ["m8", "m11"])
        .task_node("n6", ["m9", "m10"])
        .task_node("n7", ["m4", "m5", "m12"])
        .task_node("n8", ["m13", "m14"])
        .task_node("n9", ["m15"])
        .death_node("n10", ["m16"])
        .edge("n1", "n2")
        .edge("n2", "n3")
        .edge("n3", "n4")
        .edge("n3", "n5")
        .edge("n4", "n5")
        .edge("n4", "n7")
        .edge("n5", "n6")
        .edge("n6", "n7")
        .edge("n6", "n8")
        .edge("n7", "n8")
        .edge("n7", "n9")
        .edge("n8", "n9")
        .edge("n8", "n10")
        .edge("n9", "n10")
        .build()
        .expect("CTypedObList spec is valid")
}

/// The `CObList` → `CTypedObList` inheritance map: four redefined
/// methods, no new ones — the mirror image of the sortable subclass.
pub fn typed_inheritance_map() -> InheritanceMap {
    InheritanceMap::new()
        .lifecycle(["CObList", "~CObList", "CTypedObList", "~CTypedObList"])
        .inherit([
            "RemoveHead",
            "RemoveTail",
            "GetHead",
            "GetTail",
            "GetAt",
            "RemoveAt",
            "Find",
            "GetCount",
            "IsEmpty",
            "RemoveAll",
        ])
        .redefine(CTypedObList::REDEFINED)
}

#[cfg(test)]
mod tests {
    use super::*;
    use concat_driver::{ReuseDecision, ReusePlan, TestingHistory};

    fn list() -> CTypedObList {
        CTypedObList::new(BitControl::new_enabled(), MutationSwitch::new())
    }

    #[test]
    fn accepts_integers_like_the_base() {
        let mut l = list();
        l.invoke("AddTail", &[Value::Int(1)]).unwrap();
        l.invoke("AddHead", &[Value::Int(0)]).unwrap();
        l.invoke("InsertAfter", &[Value::Int(0), Value::Int(5)])
            .unwrap();
        l.invoke("SetAt", &[Value::Int(2), Value::Int(9)]).unwrap();
        assert_eq!(l.invoke("GetCount", &[]).unwrap(), Value::Int(3));
        assert!(l.invariant_test().is_ok());
    }

    #[test]
    fn rejects_non_integers_with_the_strengthened_precondition() {
        let mut l = list();
        assert_eq!(
            l.invoke("AddTail", &[Value::Str("x".into())])
                .unwrap_err()
                .tag(),
            "PRECONDITION"
        );
        l.invoke("AddTail", &[Value::Int(1)]).unwrap();
        assert_eq!(
            l.invoke("SetAt", &[Value::Int(0), Value::Null])
                .unwrap_err()
                .tag(),
            "PRECONDITION"
        );
    }

    #[test]
    fn deployment_mode_still_enforces_the_type() {
        let mut l = CTypedObList::new(BitControl::new(), MutationSwitch::new());
        assert_eq!(
            l.invoke("AddTail", &[Value::Str("x".into())])
                .unwrap_err()
                .tag(),
            "DOMAIN"
        );
    }

    #[test]
    fn base_destructor_is_hidden() {
        let mut l = list();
        assert!(l.has_method("~CTypedObList"));
        assert!(!l.has_method("~CObList"));
        assert_eq!(
            l.invoke("~CObList", &[]).unwrap_err().tag(),
            "UNKNOWN_METHOD"
        );
        l.invoke("AddTail", &[Value::Int(1)]).unwrap();
        l.invoke("~CTypedObList", &[]).unwrap();
        assert_eq!(l.invoke("IsEmpty", &[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn spec_and_factory_are_coherent() {
        let spec = typed_spec();
        assert!(spec.validate().is_empty());
        assert_eq!(spec.superclass.as_deref(), Some("CObList"));
        let f = CTypedObListFactory::default();
        assert!(f
            .construct("CTypedObList", &[], BitControl::new_enabled())
            .is_ok());
        assert!(f
            .construct("CObList", &[], BitControl::new_enabled())
            .is_err());
    }

    #[test]
    fn reuse_plan_exercises_all_three_categories() {
        // Generate the suite from the typed model, then classify against
        // the inheritance map: some transactions touch only inherited
        // methods (skip), some touch redefined ones (retest-reused),
        // and none is obsolete.
        let suite = concat_driver::DriverGenerator::with_seed(51)
            .generate(&typed_spec())
            .unwrap();
        let plan = ReusePlan::analyze(
            &TestingHistory::from_suite(&suite),
            &typed_inheritance_map(),
        );
        let (skip, retest, obsolete) = plan.counts();
        assert!(retest > 0, "redefined methods force retests");
        assert_eq!(obsolete, 0);
        assert_eq!(skip + retest, suite.len());
        // Adds appear in every transaction of this model, so here the
        // *redefinition* (not new methods) drives every retest decision.
        for (case_id, decision) in &plan.decisions {
            let case = suite.cases.iter().find(|c| c.id == *case_id).unwrap();
            let touches_redefined = case
                .method_names()
                .iter()
                .any(|m| CTypedObList::REDEFINED.contains(m));
            match decision {
                ReuseDecision::RetestReused => assert!(touches_redefined),
                ReuseDecision::SkipRetest => assert!(!touches_redefined),
                ReuseDecision::Obsolete => unreachable!(),
            }
        }
        let _ = skip;
    }

    #[test]
    fn typed_self_test_runs_green() {
        use concat_driver::{TestLog, TestRunner};
        let suite = concat_driver::DriverGenerator::with_seed(52)
            .generate(&typed_spec())
            .unwrap();
        let runner = TestRunner::new();
        let result = runner.run_suite(&CTypedObListFactory::default(), &suite, &mut TestLog::new());
        // Value domains are integer ranges, so the typed precondition is
        // never violated by generated inputs; only index error-recovery
        // transactions abort.
        assert!(result.passed() as f64 > 0.9 * result.cases.len() as f64);
    }

    #[test]
    fn inherited_instrumentation_still_reachable() {
        // A fault armed in the base AddHead fires through the redefined
        // method's delegation.
        use concat_mutation::{FaultPlan, Replacement};
        let switch = MutationSwitch::new();
        let mut l = CTypedObList::new(BitControl::new_enabled(), switch.clone());
        l.invoke("AddHead", &[Value::Int(1)]).unwrap();
        switch.arm(FaultPlan {
            method: "AddHead".into(),
            site: 3,
            replacement: Replacement::Var("pOldHead".into()),
        });
        l.invoke("AddHead", &[Value::Int(2)]).unwrap();
        assert!(l.invariant_test().is_err());
    }
}
