//! # concat-runtime
//!
//! Dynamic invocation runtime for self-testable components.
//!
//! This crate is the foundation of the `concat-rs` workspace, a Rust
//! reproduction of *"Constructing Self-Testable Software Components"*
//! (Martins, Toyota & Yanagawa, DSN 2001). The paper's Concat prototype
//! generates C++ test drivers and relies on the C++ compiler to bind the
//! generated calls to the component under test. Rust has no runtime
//! reflection, so this crate provides the macro/trait-based workaround:
//!
//! * [`Value`] — dynamically typed arguments and return values covering the
//!   parameter kinds a t-spec can declare;
//! * [`Component`] — name-based method dispatch, so generated test cases can
//!   drive any component;
//! * [`TestException`] — the uniform set of exceptional outcomes (assertion
//!   violations, arity/type errors, domain errors, caught panics) that the
//!   driver and the mutation-analysis kill classifier consume.
//!
//! # Examples
//!
//! ```
//! use concat_runtime::{args, Component, InvokeResult, Value, unknown_method};
//!
//! struct Cell { v: i64 }
//! impl Component for Cell {
//!     fn class_name(&self) -> &'static str { "Cell" }
//!     fn method_names(&self) -> Vec<&'static str> { vec!["Set", "Get"] }
//!     fn invoke(&mut self, m: &str, a: &[Value]) -> InvokeResult {
//!         match m {
//!             "Set" => { self.v = args::int(m, a, 0)?; Ok(Value::Null) }
//!             "Get" => Ok(Value::Int(self.v)),
//!             _ => Err(unknown_method(self.class_name(), m)),
//!         }
//!     }
//! }
//!
//! let mut c = Cell { v: 0 };
//! c.invoke("Set", &[Value::Int(9)]).unwrap();
//! assert_eq!(c.invoke("Get", &[]).unwrap(), Value::Int(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod atomic_io;
mod clock;
mod component;
mod corpus;
mod error;
mod frame;
mod harden;
mod literal;
mod record;
mod rng;
mod supervise;
mod value;

pub use atomic_io::{
    crc32, open_headered, recover_journal, scan_journal, write_atomic, AtomicFile, Crc32, Headered,
    Journal, JournalScan,
};
pub use clock::monotonic_nanos;
pub use component::{args, unknown_method, Component};
pub use corpus::{CorpusEntry, CorpusLoad, CorpusStore};
pub use error::{AssertionKind, AssertionViolation, InvokeResult, TestException};
pub use frame::{encode_frame, FrameDecoder};
pub use harden::{
    is_transient_io, recommended_workers, Budget, BudgetResource, CancelToken, FaultInjector,
    FaultKind, InjectedFault, IoAttempt, IoPolicy, RetryPolicy, Watchdog, DEADLINE_PANIC_PAYLOAD,
};
pub use literal::{parse_value_literal, ParseValueError};
pub use record::{escape_field, hex8, unescape_field, Fields};
pub use rng::Rng;
pub use supervise::{classify_exit, terminate_child, wait_with_deadline, ExitClass, Liveness};
pub use value::{ObjRef, Value, ValueKind};
