//! Early exit and the naive oracle. The engine stops a mutant's scope
//! run at its first differing case only when no later case could
//! quarantine the mutant: no budget, no deadline and no positive crash
//! threshold. These cells of the qualification matrix
//! (`tests/matrix/mod.rs`) cover the other side: the Table-2 and
//! Table-3 campaigns under a never-firing call budget (`Q2-FULL`,
//! `Q3-FULL`) and under a crash threshold of 1 (`Q3-CRASH1`), each
//! executing strictly more cases than its early-exit twin; and seeded
//! random campaigns (`Q*-RANDOM-*`) that vary the seed, the suite size,
//! the budget, the threshold and a never-firing deadline. Every cell's
//! verdicts must equal the naive oracle's.

mod matrix;

#[test]
fn full_scope_cells_execute_more_cases_than_their_early_exit_twins() {
    matrix::qualify("full_scope_cells_execute_more_cases_than_their_early_exit_twins");
}

#[test]
fn random_campaigns_match_the_naive_oracle() {
    matrix::qualify("random_campaigns_match_the_naive_oracle");
}
