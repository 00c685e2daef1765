//! Verdict golden files: the per-mutant verdicts of the paper's two
//! campaigns — `CSortableObList` with all five Table-2 methods and
//! `CObList` with all three Table-3 methods — on the sequential engine
//! and on two workers equal `tests/golden/table{2,3}.verdicts`. These are
//! the `Q2-SEQ`, `Q2-W2`, `Q3-SEQ` and `Q3-W2` cells of the qualification
//! matrix (`tests/matrix/mod.rs`). Regenerate after an intentional
//! verdict change with `BLESS=1 cargo test`.

mod matrix;

#[test]
fn table2_verdicts_match_golden() {
    matrix::qualify("table2_verdicts_match_golden");
}

#[test]
fn table3_verdicts_match_golden() {
    matrix::qualify("table3_verdicts_match_golden");
}
