//! Persistence of test suites and testing histories.
//!
//! The paper's test infrastructure includes "test history creation and
//! maintenance" and "test retrieval" (§3.4) — a consumer stores the
//! generated suite with the component and retrieves it on the next reuse.
//! This module provides a line-oriented text format (in the spirit of the
//! t-spec's own Figure-3 format; no external serialization dependency):
//!
//! ```text
//! suite CObList
//! seed 2001
//! stats 13 105 false 0
//! case 0 0 ["n1", "n2", "n10"]
//! ctor m1 CObList - []
//! call m2 AddHead g [5]
//! endcase
//! ```
//!
//! Argument vectors are [`Value`] literal lists (see
//! [`concat_runtime::parse_value_literal`]); argument origins are encoded
//! one letter per argument (`g`enerated / `b`oundary / `p`rovided /
//! `m`anual), `-` when there are none.

use crate::history::{HistoryEntry, TestingHistory};
use crate::testcase::{ArgOrigin, MethodCall, SuiteStats, TestCase, TestSuite};
use concat_runtime::{parse_value_literal, IoPolicy, Value};
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Operation label for guarded suite saves (fault-injection hook).
pub const SUITE_SAVE_OP: &str = "driver.suite.save";
/// Operation label for guarded suite loads (fault-injection hook).
pub const SUITE_LOAD_OP: &str = "driver.suite.load";

/// A persistence parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PersistError {}

pub(crate) fn perr(line: usize, message: impl Into<String>) -> PersistError {
    PersistError {
        line,
        message: message.into(),
    }
}

/// The non-blank lines of persisted text, trimmed and split at the first
/// space: `(1-based line number, keyword, rest)`.
pub(crate) fn keyed_lines(text: &str) -> impl Iterator<Item = (usize, &str, &str)> {
    text.lines().zip(1..).filter_map(|(raw, line_no)| {
        let line = raw.trim();
        let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
        (!line.is_empty()).then_some((line_no, keyword, rest))
    })
}

/// Writes the call part of a suite or walk-sequence line after its
/// keyword: ` <id> <name> <origins> <args>` and the newline.
pub(crate) fn write_call(out: &mut String, call: &MethodCall) {
    let origins: String = if call.origins.is_empty() {
        "-".into()
    } else {
        call.origins.iter().map(|o| o.keyword()).collect()
    };
    let args = Value::List(call.args.clone()).to_literal();
    let _ = writeln!(out, " {} {} {origins} {args}", call.method_id, call.method);
}

/// Parses what [`write_call`] writes (without its leading space).
pub(crate) fn parse_call(rest: &str, line: usize) -> Result<MethodCall, PersistError> {
    let mut parts = rest.splitn(4, ' ');
    let method_id = parts.next().filter(|s| !s.is_empty());
    let method = parts.next();
    let origins = parts.next();
    let args = parts.next();
    let (Some(method_id), Some(method), Some(origins), Some(args)) =
        (method_id, method, origins, args)
    else {
        return Err(perr(line, "call needs: <id> <name> <origins> <args>"));
    };
    let args = match parse_value_literal(args) {
        Ok(Value::List(items)) => items,
        Ok(_) => return Err(perr(line, "arguments must be a list literal")),
        Err(e) => return Err(perr(line, e.to_string())),
    };
    let origins: Vec<ArgOrigin> = if origins == "-" {
        Vec::new()
    } else {
        origins
            .chars()
            .map(|c| {
                ArgOrigin::from_keyword(c.encode_utf8(&mut [0; 4]))
                    .ok_or_else(|| perr(line, format!("unknown origin code `{c}`")))
            })
            .collect::<Result<_, _>>()?
    };
    if origins.len() != args.len() {
        return Err(perr(line, "origin count differs from argument count"));
    }
    Ok(MethodCall {
        method_id: method_id.to_owned(),
        method: method.to_owned(),
        args,
        origins,
    })
}

/// Renders strings as a list literal: `["a", "b"]`.
fn string_list(items: &[String]) -> String {
    Value::List(items.iter().map(|s| Value::Str(s.clone())).collect()).to_literal()
}

/// Parses `<case id> <transaction index> <string list>`, the shape of a
/// suite's `case` line and a history's `entry` line; `what` names the
/// list in errors.
fn parse_indexed_list(
    rest: &str,
    line: usize,
    what: &str,
) -> Result<(usize, usize, Vec<String>), PersistError> {
    let mut parts = rest.splitn(3, ' ');
    let mut index = |field: &str| {
        (parts.next().and_then(|s| s.parse().ok()))
            .ok_or_else(|| perr(line, format!("bad {field}")))
    };
    let (id, txn) = (index("case id")?, index("transaction index")?);
    let Some(Ok(Value::List(items))) = parts.next().map(parse_value_literal) else {
        return Err(perr(line, format!("bad {what}")));
    };
    let list = items.into_iter().map(|v| match v {
        Value::Str(s) => Ok(s),
        _ => Err(perr(line, format!("{what} entries must be strings"))),
    });
    Ok((id, txn, list.collect::<Result<_, _>>()?))
}

/// Renders a suite in the persistence text format.
pub fn save_suite(suite: &TestSuite) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "suite {}", suite.class_name);
    let _ = writeln!(out, "seed {}", suite.seed);
    let _ = writeln!(
        out,
        "stats {} {} {} {}",
        suite.stats.transactions, suite.stats.cases, suite.stats.truncated, suite.stats.manual_args
    );
    for case in suite {
        let path = string_list(&case.node_path);
        let _ = writeln!(out, "case {} {} {path}", case.id, case.transaction_index);
        out.push_str("ctor");
        write_call(&mut out, &case.constructor);
        for call in &case.calls {
            out.push_str("call");
            write_call(&mut out, call);
        }
        let _ = writeln!(out, "endcase");
    }
    out
}

/// A failure saving or loading a suite through the filesystem: either the
/// environment (I/O, possibly injected) or the stored text (parse).
#[derive(Debug)]
pub enum SuiteIoError {
    /// The filesystem operation failed after any retries; the error
    /// message names the path.
    Io(io::Error),
    /// The file was read but did not parse as a persisted suite.
    Parse(PersistError),
}

impl fmt::Display for SuiteIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteIoError::Io(e) => write!(f, "suite I/O failed: {e}"),
            SuiteIoError::Parse(e) => write!(f, "suite parse failed: {e}"),
        }
    }
}

impl std::error::Error for SuiteIoError {}

fn path_context(e: io::Error, verb: &str, path: &Path) -> io::Error {
    io::Error::new(
        e.kind(),
        format!("failed to {verb} suite at {}: {e}", path.display()),
    )
}

/// Saves a suite to a file under an [`IoPolicy`]: transient write
/// failures (including injected ones, op [`SUITE_SAVE_OP`]) retry with
/// backoff, and the write is atomic (temp + fsync + rename) so a kill
/// mid-save leaves the previous file intact. Returns the number of
/// retries spent, for `harden.retry` accounting.
///
/// # Errors
///
/// [`SuiteIoError::Io`] with the path named, after retries are exhausted
/// or on a persistent failure.
pub fn save_suite_to_path(
    suite: &TestSuite,
    path: impl AsRef<Path>,
    policy: &IoPolicy,
) -> Result<u32, SuiteIoError> {
    let path = path.as_ref();
    let text = save_suite(suite);
    // Atomic temp + fsync + rename: a kill mid-save can never leave a
    // torn suite file behind.
    let attempt = policy.run(SUITE_SAVE_OP, || {
        concat_runtime::write_atomic(path, text.as_bytes())
    });
    match attempt.result {
        Ok(()) => Ok(attempt.retries),
        Err(e) => Err(SuiteIoError::Io(path_context(e, "save", path))),
    }
}

/// Loads a suite from a file under an [`IoPolicy`] (op
/// [`SUITE_LOAD_OP`]). Returns the suite and the retries spent.
///
/// # Errors
///
/// [`SuiteIoError::Io`] when reading fails past the retry budget,
/// [`SuiteIoError::Parse`] when the text is not a persisted suite.
pub fn load_suite_from_path(
    path: impl AsRef<Path>,
    policy: &IoPolicy,
) -> Result<(TestSuite, u32), SuiteIoError> {
    let path = path.as_ref();
    let attempt = policy.run(SUITE_LOAD_OP, || std::fs::read_to_string(path));
    match attempt.result {
        Ok(text) => match load_suite(&text) {
            Ok(suite) => Ok((suite, attempt.retries)),
            Err(e) => Err(SuiteIoError::Parse(e)),
        },
        Err(e) => Err(SuiteIoError::Io(path_context(e, "load", path))),
    }
}

/// Parses a suite from the persistence text format.
///
/// # Errors
///
/// Returns the first [`PersistError`] with its line number.
///
/// # Examples
///
/// ```
/// use concat_driver::{load_suite, save_suite, SuiteStats, TestSuite};
///
/// let suite = TestSuite {
///     class_name: "C".into(),
///     seed: 1,
///     cases: vec![],
///     stats: SuiteStats::default(),
/// };
/// assert_eq!(load_suite(&save_suite(&suite)).unwrap(), suite);
/// ```
pub fn load_suite(text: &str) -> Result<TestSuite, PersistError> {
    let mut class_name: Option<String> = None;
    let mut seed = 0u64;
    let mut stats = SuiteStats::default();
    let mut cases: Vec<TestCase> = Vec::new();
    // The open case, and whether its `ctor` line was read.
    let mut current: Option<(TestCase, bool)> = None;

    for (line_no, keyword, rest) in keyed_lines(text).filter(|(_, k, _)| !k.starts_with('#')) {
        match keyword {
            "suite" => class_name = Some(rest.trim().to_owned()),
            "seed" => {
                seed = rest.trim().parse().map_err(|_| perr(line_no, "bad seed"))?;
            }
            "stats" => {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 4 {
                    return Err(perr(line_no, "stats needs 4 fields"));
                }
                stats = SuiteStats {
                    transactions: parts[0].parse().map_err(|_| perr(line_no, "bad count"))?,
                    cases: parts[1].parse().map_err(|_| perr(line_no, "bad count"))?,
                    truncated: parts[2].parse().map_err(|_| perr(line_no, "bad flag"))?,
                    manual_args: parts[3].parse().map_err(|_| perr(line_no, "bad count"))?,
                };
            }
            "case" => {
                if current.is_some() {
                    return Err(perr(line_no, "previous case not closed"));
                }
                let (id, transaction_index, node_path) =
                    parse_indexed_list(rest, line_no, "node path")?;
                let case = TestCase {
                    id,
                    transaction_index,
                    node_path,
                    constructor: MethodCall::generated("", "", vec![]),
                    calls: Vec::new(),
                };
                current = Some((case, false));
            }
            "ctor" => match current.as_mut() {
                Some((_, true)) => return Err(perr(line_no, "second ctor in a case")),
                Some((case, has_ctor)) => {
                    case.constructor = parse_call(rest, line_no)?;
                    *has_ctor = true;
                }
                None => return Err(perr(line_no, "ctor outside a case")),
            },
            "call" => match current.as_mut() {
                Some((case, _)) => case.calls.push(parse_call(rest, line_no)?),
                None => return Err(perr(line_no, "call outside a case")),
            },
            "endcase" => match current.take() {
                Some((case, true)) => cases.push(case),
                Some((_, false)) => return Err(perr(line_no, "case has no ctor")),
                None => return Err(perr(line_no, "endcase without a case")),
            },
            other => return Err(perr(line_no, format!("unknown record `{other}`"))),
        }
    }
    if current.is_some() {
        return Err(perr(text.lines().count(), "unterminated case"));
    }
    let class_name = class_name.ok_or_else(|| perr(1, "missing suite header"))?;
    Ok(TestSuite {
        class_name,
        seed,
        cases,
        stats,
    })
}

/// Renders a testing history in the persistence text format.
pub fn save_history(history: &TestingHistory) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "history {}", history.class_name);
    for e in &history.entries {
        let methods = string_list(&e.methods);
        let _ = writeln!(out, "entry {} {} {methods}", e.case_id, e.transaction_index);
    }
    out
}

/// Parses a testing history from the persistence text format.
///
/// # Errors
///
/// Returns the first [`PersistError`] with its line number.
pub fn load_history(text: &str) -> Result<TestingHistory, PersistError> {
    let mut class_name: Option<String> = None;
    let mut entries = Vec::new();
    for (line_no, keyword, rest) in keyed_lines(text).filter(|(_, k, _)| !k.starts_with('#')) {
        match keyword {
            "history" => class_name = Some(rest.trim().to_owned()),
            "entry" => {
                let (case_id, transaction_index, methods) =
                    parse_indexed_list(rest, line_no, "method list")?;
                entries.push(HistoryEntry {
                    case_id,
                    transaction_index,
                    methods,
                });
            }
            other => return Err(perr(line_no, format!("unknown record `{other}`"))),
        }
    }
    let class_name = class_name.ok_or_else(|| perr(1, "missing history header"))?;
    Ok(TestingHistory {
        class_name,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_suite() -> TestSuite {
        TestSuite {
            class_name: "Product".into(),
            seed: 2001,
            cases: vec![
                TestCase {
                    id: 0,
                    transaction_index: 0,
                    node_path: vec!["n1".into(), "n7".into()],
                    constructor: MethodCall::generated("m1", "Product", vec![]),
                    calls: vec![MethodCall::generated("m12", "~Product", vec![])],
                },
                TestCase {
                    id: 1,
                    transaction_index: 2,
                    node_path: vec!["n1".into(), "n2".into(), "n7".into()],
                    constructor: MethodCall {
                        method_id: "m2".into(),
                        method: "Product".into(),
                        args: vec![
                            Value::Int(3),
                            Value::Str("Soap, \"special\"".into()),
                            Value::Float(2.5),
                            Value::Null,
                        ],
                        origins: vec![
                            ArgOrigin::Generated,
                            ArgOrigin::Generated,
                            ArgOrigin::Boundary,
                            ArgOrigin::Manual,
                        ],
                    },
                    calls: vec![MethodCall {
                        method_id: "m5".into(),
                        method: "UpdateQty".into(),
                        args: vec![Value::Int(7)],
                        origins: vec![ArgOrigin::Provided],
                    }],
                },
            ],
            stats: SuiteStats {
                transactions: 3,
                cases: 2,
                truncated: true,
                manual_args: 1,
            },
        }
    }

    #[test]
    fn suite_round_trips() {
        let suite = sample_suite();
        let text = save_suite(&suite);
        let back = load_suite(&text).unwrap();
        assert_eq!(back, suite);
    }

    #[test]
    fn history_round_trips() {
        let history = TestingHistory::from_suite(&sample_suite());
        let text = save_history(&history);
        assert_eq!(load_history(&text).unwrap(), history);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let suite = sample_suite();
        let mut text = String::from("# saved by concat\n\n");
        text.push_str(&save_suite(&suite));
        assert_eq!(load_suite(&text).unwrap(), suite);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = load_suite("suite C\nbogus record").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown record"));
    }

    #[test]
    fn structural_errors_detected() {
        assert!(load_suite("ctor m1 C - []")
            .unwrap_err()
            .message
            .contains("outside"));
        assert!(load_suite("suite C\ncase 0 0 [\"n1\"]\nctor m1 C - []")
            .unwrap_err()
            .message
            .contains("unterminated"));
        // A case holds exactly one ctor line.
        let one = "suite C\ncase 0 0 [\"n1\"]\nctor m1 C - []\nendcase";
        assert_eq!(load_suite(one).unwrap().cases.len(), 1);
        assert!(load_suite("suite C\ncase 0 0 [\"n1\"]\nendcase")
            .unwrap_err()
            .message
            .contains("no ctor"));
        let two = "suite C\ncase 0 0 [\"n1\"]\nctor m1 C - []\nctor m2 C - []\nendcase";
        assert!(load_suite(two).unwrap_err().message.contains("second ctor"));
        assert!(load_suite("seed 1")
            .unwrap_err()
            .message
            .contains("missing suite header"));
        assert!(
            load_history("entry 0 0 []")
                .unwrap_err()
                .message
                .contains("unknown record")
                || load_history("entry 0 0 []").is_err()
        );
    }

    #[test]
    fn origin_mismatch_rejected() {
        let text = "suite C\ncase 0 0 []\nctor m1 C gg [5]\nendcase";
        let err = load_suite(text).unwrap_err();
        assert!(err.message.contains("origin count"));
    }

    #[test]
    fn bad_args_literal_rejected() {
        let text = "suite C\ncase 0 0 []\nctor m1 C g [oops]\nendcase";
        assert!(load_suite(text).is_err());
        let text2 = "suite C\ncase 0 0 []\nctor m1 C g 5\nendcase";
        assert!(load_suite(text2)
            .unwrap_err()
            .message
            .contains("list literal"));
    }

    #[test]
    fn generated_real_suite_round_trips() {
        use crate::generator::DriverGenerator;
        let spec = concat_tspec::ClassSpecBuilder::new("C")
            .constructor("m1", "C")
            .method("m2", "Add", concat_tspec::MethodCategory::Update)
            .param("q", concat_tspec::Domain::int_range(-5, 5))
            .method("m3", "Name", concat_tspec::MethodCategory::Update)
            .param("s", concat_tspec::Domain::string(12))
            .destructor("m4", "~C")
            .birth_node("n1", ["m1"])
            .task_node("n2", ["m2", "m3"])
            .death_node("n3", ["m4"])
            .edge("n1", "n2")
            .edge("n2", "n3")
            .build()
            .unwrap();
        let suite = DriverGenerator::with_seed(17).generate(&spec).unwrap();
        let text = save_suite(&suite);
        assert_eq!(load_suite(&text).unwrap(), suite);
    }

    #[test]
    fn guarded_save_load_round_trips_through_injected_transients() {
        use concat_runtime::{FaultInjector, FaultKind, RetryPolicy};
        let suite = TestSuite {
            class_name: "C".into(),
            seed: 5,
            cases: vec![],
            stats: SuiteStats::default(),
        };
        let dir = std::env::temp_dir().join("concat_persist_guarded_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("suite.txt");

        let injector = FaultInjector::seeded(23);
        injector.fail_nth(SUITE_SAVE_OP, 1, FaultKind::Transient);
        injector.fail_nth(SUITE_LOAD_OP, 1, FaultKind::Transient);
        let policy = IoPolicy {
            retry: RetryPolicy::no_delay(3),
            injector,
        };
        let save_retries = save_suite_to_path(&suite, &path, &policy).unwrap();
        assert_eq!(save_retries, 1);
        let (loaded, load_retries) = load_suite_from_path(&path, &policy).unwrap();
        assert_eq!(loaded, suite);
        assert_eq!(load_retries, 1);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn guarded_save_surfaces_persistent_failures_with_path() {
        use concat_runtime::{FaultInjector, FaultKind, RetryPolicy};
        let suite = TestSuite {
            class_name: "C".into(),
            seed: 5,
            cases: vec![],
            stats: SuiteStats::default(),
        };
        let injector = FaultInjector::seeded(23);
        injector.fail_always(SUITE_SAVE_OP, FaultKind::Persistent);
        let policy = IoPolicy {
            retry: RetryPolicy::no_delay(3),
            injector,
        };
        let err = save_suite_to_path(&suite, "/tmp/concat_never_saved.txt", &policy).unwrap_err();
        match err {
            SuiteIoError::Io(e) => assert!(e.to_string().contains("concat_never_saved.txt")),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn guarded_load_distinguishes_parse_errors() {
        let dir = std::env::temp_dir().join("concat_persist_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.txt");
        std::fs::write(&path, "not a suite\n").unwrap();
        let err = load_suite_from_path(&path, &IoPolicy::default()).unwrap_err();
        assert!(matches!(err, SuiteIoError::Parse(_)));
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
