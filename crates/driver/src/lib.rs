//! # concat-driver
//!
//! The consumer-side test infrastructure of a self-testable component:
//! driver generation, execution, oracle and test-history reuse.
//!
//! Part of the `concat-rs` reproduction of *"Constructing Self-Testable
//! Software Components"* (Martins, Toyota & Yanagawa, DSN 2001). Maps to
//! paper §3.4:
//!
//! * [`DriverGenerator`] — the *transaction coverage* test selection
//!   strategy: one test case per transaction (birth→death TFM path), with
//!   parameter values drawn randomly from t-spec domains by
//!   [`InputGenerator`];
//! * [`TestRunner`] — the generated "specific driver": constructs the
//!   object, checks the class invariant around every call, catches
//!   exceptions and panics, logs to a [`TestLog`] (the paper's
//!   `Result.txt`) and records a [`Transcript`] per case;
//! * [`compare_transcripts`] — the golden-output oracle, complementing the
//!   assertion partial oracle;
//! * [`TestingHistory`] / [`ReusePlan`] — the Harrold-style hierarchical
//!   incremental reuse at transaction granularity (§3.4.2);
//! * [`render_cpp_test_case`] / [`render_cpp_suite`] — regenerate the C++
//!   artefacts of Figures 6 and 7.
//!
//! # Examples
//!
//! Generate and run a suite end to end (component elided; see
//! `concat-components` for real subjects):
//!
//! ```
//! use concat_driver::{DriverGenerator, TestLog, TestRunner};
//! use concat_tspec::{ClassSpecBuilder, Domain, MethodCategory};
//!
//! let spec = ClassSpecBuilder::new("Counter")
//!     .constructor("m1", "Counter")
//!     .method("m2", "Add", MethodCategory::Update)
//!     .param("q", Domain::int_range(0, 9))
//!     .destructor("m3", "~Counter")
//!     .birth_node("n1", ["m1"])
//!     .task_node("n2", ["m2"])
//!     .death_node("n3", ["m3"])
//!     .edge("n1", "n2")
//!     .edge("n2", "n3")
//!     .edge("n1", "n3")
//!     .build()
//!     .unwrap();
//! let suite = DriverGenerator::with_seed(1).generate(&spec).unwrap();
//! assert_eq!(suite.len(), 6); // 2 transactions x 3 covering repeats
//! # let _ = (TestRunner::new(), TestLog::new());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod amplify;
mod generator;
mod history;
mod inputs;
mod invariant;
mod log;
mod oracle;
mod persist;
mod render;
mod retarget;
mod runner;
mod selection;
mod testcase;

pub use amplify::{corpus_candidates, synthesize_candidates, CandidateSynthesis, CorpusReplay};
pub use generator::{DriverGenerator, Expansion, GenerateError, GeneratorConfig};
pub use history::{
    new_method_cases, HistoryEntry, InheritanceMap, MethodStatus, ReuseDecision, ReusePlan,
    TestingHistory,
};
pub use inputs::{InputError, InputGenerator, ObjectProvider};
pub use invariant::{
    execute_sequence, generate_walk, load_sequence, save_sequence, shrink_sequence, FailureKind,
    InvariantBreaker, InvariantSummary, StepKind, WalkConfig, WalkFailure, WalkOutcome,
    WalkSequence, WalkStep,
};
pub use log::{TestLog, LOG_WRITE_OP};
pub use oracle::{compare_transcripts, differing_cases, Divergence, ManualOracle, Verdict};
pub use persist::{
    load_history, load_suite, load_suite_from_path, save_history, save_suite, save_suite_to_path,
    PersistError, SuiteIoError, SUITE_LOAD_OP, SUITE_SAVE_OP,
};
pub use render::{render_cpp_suite, render_cpp_test_case};
pub use retarget::{retarget_suite, RetargetMap};
pub use runner::{CallOutcome, CaseResult, CaseStatus, SuiteResult, TestRunner, Transcript};
pub use selection::{select_transactions, Selection, SelectionCriterion};
pub use testcase::{ArgOrigin, MethodCall, SuiteStats, TestCase, TestSuite};
