//! # concat-mutation
//!
//! Interface mutation analysis for self-testable components.
//!
//! Part of the `concat-rs` reproduction of *"Constructing Self-Testable
//! Software Components"* (Martins, Toyota & Yanagawa, DSN 2001). The
//! paper's empirical evaluation (§4) measures the fault-revealing power of
//! generated test suites with the essential *interface mutation* operators
//! of Table 1. This crate provides the whole pipeline:
//!
//! * [`MutationOperator`] / [`ReqConst`] — the Table-1 operator catalogue;
//! * [`ClassInventory`] / [`MethodInventory`] / [`UseSite`] — where faults
//!   can be injected (the mechanical form of the paper's manual insertion
//!   rules; see DESIGN.md §2 for the substitution argument);
//! * [`enumerate_mutants`] — deterministic mutant enumeration per operator;
//! * [`MutationSwitch`] / [`FaultPlan`] — runtime activation of exactly one
//!   mutant (components read instrumented variables through the switch);
//! * [`run_mutation_analysis`] — golden run, per-mutant execution, kill
//!   classification (crash / assertion violation / output difference),
//!   equivalence probing, and the [`MutationRun`] scores;
//! * [`run_mutation_analysis_parallel`] / [`ClonableFactory`] — the same
//!   analysis sharded across worker threads, each owning its own
//!   factory/switch/runner/watchdog, with crash containment (a panicking
//!   worker quarantines only its in-flight mutant and rebuilds its
//!   harness under a restart budget) and a deterministic merge through
//!   one campaign ledger, so every worker count yields byte-identical
//!   verdicts;
//! * [`IsolationMode`] / [`ProcessIsolation`] / [`run_shard_worker`] —
//!   optional process isolation for the sharded analysis: shards become
//!   child processes streaming verdicts over a checksummed frame
//!   protocol, so a mutant that aborts or spins without a checkpoint
//!   loses only itself (quarantined with a shard-level
//!   [`QuarantineReason`]), never the campaign;
//! * [`CampaignJournal`] / [`campaign_fingerprint`] — the durable
//!   write-ahead verdict journal behind resumable campaigns (the paper's
//!   §3.4 test-history mandate): set `MutationConfig::journal_path` and a
//!   killed campaign resumes with only unfinished mutants re-executed;
//! * [`MutationMatrix`] — the method × operator aggregation behind the
//!   paper's Tables 2 and 3.
//!
//! # Examples
//!
//! ```
//! use concat_mutation::{enumerate_mutants, ClassInventory, MethodInventory};
//!
//! let inv = ClassInventory::new("C")
//!     .globals(["count"])
//!     .method(
//!         MethodInventory::new("M")
//!             .locals(["i"])
//!             .globals_used(["count"])
//!             .site(0, "i", "index"),
//!     );
//! let mutants = enumerate_mutants(&inv, &["M"]);
//! assert!(!mutants.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod amplify;
mod analysis;
mod enumerate;
mod fault;
mod inventory;
mod journal;
mod ledger;
mod matrix;
mod operators;
mod orchestrator;
mod shard;

pub use amplify::{
    amplify_suite, amplify_suite_parallel, AmplifyConfig, AmplifyOutcome, RoundReport,
};
pub use analysis::{
    run_mutation_analysis, run_mutation_analysis_parallel, IsolationMode, KillReason, MutantResult,
    MutantStatus, MutationConfig, MutationRun, ProcessIsolation, QuarantineReason,
};
pub use enumerate::{enumerate_mutants, expected_count, Mutant};
pub use fault::{coerce_int, ClonableFactory, FaultPlan, MutationSwitch, Replacement, VarEnv};
pub use inventory::{ClassInventory, MethodInventory, UseSite};
pub use journal::{
    campaign_fingerprint, campaign_header, decode_feature, decode_verdict, encode_feature,
    encode_verdict, method_fingerprints, parse_campaign_header, CampaignJournal,
    FeatureFingerprint, IncrementalResume,
};
pub use matrix::{CellStats, MutationMatrix};
pub use operators::{MutationOperator, ReqConst};
pub use orchestrator::{
    CampaignEnd, CampaignId, CampaignOutcome, CampaignPhase, CampaignRequest, CampaignStatus,
    DegradeReason, Orchestrator, OrchestratorConfig, SlotConfig, SubmitError,
};
pub use shard::{
    encode_shard_indices, parse_shard_indices, run_shard_worker, shard_worker_requested,
    ShardFrame, SHARD_FINGERPRINT_ENV, SHARD_INDICES_ENV,
};
