//! # concat-core
//!
//! Producer/consumer workflows over self-testable component bundles.
//!
//! Part of the `concat-rs` reproduction of *"Constructing Self-Testable
//! Software Components"* (Martins, Toyota & Yanagawa, DSN 2001). This is
//! the crate that ties the substrates into the paper's methodology
//! (§3.1):
//!
//! * [`SelfTestable`] / [`SelfTestableBuilder`] — the shipped bundle:
//!   t-spec + factory (+ mutation inventory + inheritance map);
//! * [`Producer`] — the producer-side packaging checks (model validated,
//!   t-spec coherent with the implementation, BIT observable);
//! * [`Consumer`] — the consumer-side session: generate from the t-spec,
//!   run in test mode, analyze; plus mutation-based quality evaluation
//!   (§4) and the incremental subclass reuse plan (§3.4.2).
//!
//! # Examples
//!
//! ```
//! use concat_core::{Consumer, Producer, SelfTestableBuilder};
//! use concat_components::{bounded_stack_spec, BoundedStackFactory};
//! use std::rc::Rc;
//!
//! // Producer side: package the component with its t-spec.
//! let bundle = SelfTestableBuilder::new(bounded_stack_spec(), Rc::new(BoundedStackFactory))
//!     .build();
//! Producer::package(&bundle).expect("coherent packaging");
//!
//! // Consumer side: self-test out of the box.
//! let report = Consumer::with_seed(42).self_test(&bundle).unwrap();
//! assert!(report.all_passed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assess;
mod bundle;
mod consumer;
mod interclass;
mod invariant;
mod producer;
mod regression;

pub use assess::{assess, TestabilityReport};
pub use bundle::{SelfTestable, SelfTestableBuilder};
pub use consumer::{Consumer, ConsumerError, PersistedSession, SelfTestReport};
pub use interclass::{CompositeFactory, CompositeSpec, CompositeSpecBuilder, Role};
pub use invariant::{InvariantCampaign, WalkRecord};
pub use producer::{PackagingError, Producer};
pub use regression::{record_baseline, regression_check, RegressionFinding, RegressionReport};
