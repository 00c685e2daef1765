//! The silent panic hook of mutation runs is counted, not stacked: when
//! two services' lifetimes overlap without nesting, the caller's own
//! hook is back once the last one is gone.
//!
//! Its own test binary, so no other test races on the process-global
//! panic hook.

use concat_mutation::{Orchestrator, OrchestratorConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn overlapping_services_restore_the_callers_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let first = Orchestrator::start(OrchestratorConfig::default());
    let second = Orchestrator::start(OrchestratorConfig::default());
    drop(first);
    drop(second);
    let caught = std::panic::catch_unwind(|| panic!("a panic after both services stopped"));
    let _ = std::panic::take_hook();
    assert!(caught.is_err());
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        1,
        "the caller's hook must see a panic once both services are gone"
    );
}
