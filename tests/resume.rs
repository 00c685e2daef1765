//! Resume determinism: a mutation campaign killed mid-run and resumed
//! from its verdict journal produces the verdicts, score, report and
//! classification telemetry of an uninterrupted run. The journal is cut
//! between two records, cut with a torn record after it, or left
//! complete, and a complete journal written by process shards replays
//! under them; these are the `Q3-RESUME-*` cells of the qualification
//! matrix (`tests/matrix/mod.rs`).

mod matrix;

#[test]
fn killed_campaign_resumes_byte_identical() {
    matrix::qualify("killed_campaign_resumes_byte_identical");
}

#[test]
fn torn_journal_record_is_discarded_and_resume_stays_byte_identical() {
    matrix::qualify("torn_journal_record_is_discarded_and_resume_stays_byte_identical");
}

#[test]
fn completed_journal_replays_everything_without_reexecution() {
    matrix::qualify("completed_journal_replays_everything_without_reexecution");
}

#[test]
fn journaled_process_campaign_replays_on_rerun() {
    matrix::qualify("journaled_process_campaign_replays_on_rerun");
}
