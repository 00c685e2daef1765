//! Incremental change-aware analysis: a warm rerun of an unchanged
//! campaign is pure journal replay, and a campaign widened by one method
//! re-executes only that method's mutants, salvaging the others' verdicts
//! across the campaign-global id shift. Every journaled run leaves a
//! coverage sidecar stamped with its campaign fingerprint that refuses
//! stale and unstamped loads. These are the `Q3-INC-*` and process-
//! isolated journal cells of the qualification matrix
//! (`tests/matrix/mod.rs`).

mod matrix;

#[test]
fn warm_rerun_of_unchanged_campaign_is_pure_replay() {
    matrix::qualify("warm_rerun_of_unchanged_campaign_is_pure_replay");
}

#[test]
fn one_method_change_reexecutes_only_that_method() {
    matrix::qualify("one_method_change_reexecutes_only_that_method");
}

#[test]
fn coverage_sidecar_is_fingerprint_stamped_and_refuses_stale_loads() {
    matrix::qualify("coverage_sidecar_is_fingerprint_stamped_and_refuses_stale_loads");
}
