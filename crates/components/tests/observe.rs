//! `BuiltInTest::observe` reads exactly what `reporter` reports, field by
//! field, on every component of this crate: after each step of seeded
//! random walks and on a `CObList` family member whose chain an armed
//! fault has corrupted.

use concat_bit::{BitControl, ComponentFactory, TestableComponent};
use concat_components::*;
use concat_driver::{generate_walk, StepKind, WalkConfig};
use concat_mutation::{FaultPlan, MutationSwitch, Replacement};
use concat_runtime::Value;
use concat_tspec::{ClassSpec, MethodCategory};

/// Every key of the report observes to its value; an unknown name to
/// `None`.
fn assert_observe_agrees(component: &dyn TestableComponent, at: &str) {
    let report = component.reporter();
    assert!(!report.is_empty(), "{at}: empty report");
    for (key, value) in report.iter() {
        assert_eq!(component.observe(key), Some(value.clone()), "{at}: {key}");
    }
    assert_eq!(component.observe("no_such_field"), None, "{at}");
    assert_eq!(component.observe(""), None, "{at}");
}

/// Drives seeded random walks over `spec` and checks every live object
/// after every step. Returns the number of checks made.
fn walk_and_check(spec: &ClassSpec, factory: &dyn ComponentFactory) -> usize {
    let ctl = BitControl::new_enabled();
    let mut checked = 0;
    for seed in 0..24u64 {
        let config = WalkConfig::new(seed)
            .with_walks(1)
            .with_calls_per_walk(80)
            .with_objects(1 + seed as usize % 3);
        let seq = generate_walk(spec, &config, config.walk_seed(0));
        let mut slots: Vec<Option<Box<dyn TestableComponent>>> = Vec::new();
        slots.resize_with(config.objects, || None);
        for (i, step) in seq.steps.iter().enumerate() {
            let (method, args) = (&step.call.method, &step.call.args);
            match (step.kind, &mut slots[step.object]) {
                (StepKind::Construct, slot) => {
                    *slot = factory.construct(method, args, ctl.clone()).ok();
                }
                (StepKind::Invoke, Some(component)) => {
                    let _ = component.invoke(method, args);
                    if spec
                        .method(&step.call.method_id)
                        .is_some_and(|m| m.category == MethodCategory::Destructor)
                    {
                        slots[step.object] = None;
                    }
                }
                (StepKind::Invoke, None) => {}
            }
            for (oi, slot) in slots.iter().enumerate() {
                if let Some(component) = slot {
                    assert_observe_agrees(
                        component.as_ref(),
                        &format!("{} seed {seed} step {i} object {oi}", spec.class_name),
                    );
                    checked += 1;
                }
            }
        }
    }
    checked
}

#[test]
fn observe_agrees_with_reporter_on_random_walks_of_every_component() {
    let subjects: Vec<(ClassSpec, Box<dyn ComponentFactory>)> = vec![
        (coblist_spec(), Box::new(CObListFactory::default())),
        (sortable_spec(), Box::new(CSortableObListFactory::default())),
        (typed_spec(), Box::new(CTypedObListFactory::default())),
        (bounded_stack_spec(), Box::new(BoundedStackFactory)),
        (product_spec(), Box::new(ProductFactory::default())),
        (
            product_spec(),
            Box::new(ProductFactory::with_shared_db(StockDb::new())),
        ),
    ];
    for (spec, factory) in &subjects {
        let checked = walk_and_check(spec, factory.as_ref());
        assert!(checked > 500, "{}: only {checked} checks", spec.class_name);
    }
}

/// Builds a list factory around a mutation switch.
type ListFactory = fn(MutationSwitch) -> Box<dyn ComponentFactory>;

#[test]
fn observe_agrees_with_reporter_on_a_corrupt_chain() {
    let lists: [(&str, ListFactory); 3] = [
        ("CObList", |s| Box::new(CObListFactory::new(s))),
        ("CSortableObList", |s| {
            Box::new(CSortableObListFactory::new(s))
        }),
        ("CTypedObList", |s| Box::new(CTypedObListFactory::new(s))),
    ];
    for (class, factory) in lists {
        let switch = MutationSwitch::new();
        let factory = factory(switch.clone());
        let mut list = factory
            .construct(class, &[], BitControl::new_enabled())
            .unwrap();
        list.invoke("AddHead", &[Value::Int(1)]).unwrap();
        assert_observe_agrees(list.as_ref(), class);
        // The new head's next link points at itself: a cycle the
        // reporter's bounded walk gives up on.
        switch.arm(FaultPlan {
            method: "AddHead".into(),
            site: 0,
            replacement: Replacement::Var("pNewNode".into()),
        });
        list.invoke("AddHead", &[Value::Int(2)]).unwrap();
        switch.disarm();
        assert_eq!(
            list.reporter().get("elements"),
            Some(&Value::Str("<corrupt chain>".into())),
            "{class}"
        );
        assert_eq!(list.observe("m_nCount"), Some(Value::Int(2)), "{class}");
        assert_observe_agrees(list.as_ref(), class);
    }
}
