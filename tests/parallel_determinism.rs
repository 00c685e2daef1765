//! Determinism of the parallel mutation engine: for a fixed seed, every
//! worker count yields the golden verdicts, the sequential engine's score
//! and report tables, and its classification telemetry. The merge is by
//! mutant index, so scheduling noise in the worker pool can reorder
//! *execution* but never *results*. These are the `Q3-W1`, `Q3-W8` and
//! `Q3-TRACE-W1/W2/W8` cells of the qualification matrix
//! (`tests/matrix/mod.rs`); `verdict_golden` and `trace` run the
//! two- and four-worker ones.

mod matrix;

#[test]
fn verdicts_scores_and_tables_are_identical_across_worker_counts() {
    matrix::qualify("verdicts_scores_and_tables_are_identical_across_worker_counts");
}

#[test]
fn telemetry_totals_are_identical_across_worker_counts() {
    matrix::qualify("telemetry_totals_are_identical_across_worker_counts");
}
