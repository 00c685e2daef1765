//! The qualification matrix's isolation and scheduler cells: the
//! Table-3 campaign in process-isolated shards (`Q3-PROC1`, `Q3-PROC4`)
//! and on an `Orchestrator` beside neighbour campaigns (`Q3-FLEET`).
//! The matrix itself, its other cells and their checks are in
//! `tests/matrix/mod.rs`.

mod matrix;

#[test]
fn qualification_matrix() {
    matrix::qualify("qualification_matrix");
}
