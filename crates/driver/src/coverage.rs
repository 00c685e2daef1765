//! The case × feature coverage matrix behind mutation-selection.
//!
//! Every generated test case exercises a statically known set of interface
//! methods: the constructor plus every call in the transaction path. A
//! mutant of method *M* can only be reached by cases that invoke *M* — the
//! shipped components key every instrumented read by the dispatched
//! interface method, so a case that never names *M* can never arm a
//! mutated site (the **coverage contract**; see DESIGN.md §12). The
//! [`CoverageMatrix`] records that relation per suite; mutation analysis
//! uses it to skip statically unreachable cases, and the test amplifier
//! uses it to aim candidate synthesis at surviving features.

use crate::persist::{perr, PersistError};
use crate::testcase::TestSuite;
use concat_runtime::Fields;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Case × feature coverage for one test suite: which interface methods
/// each case invokes.
///
/// Rows are keyed by case id and hold the *static* method set of the
/// case (constructor first, then every call). Lookups for unknown case
/// ids are conservative: [`CoverageMatrix::covers`] returns `true`, so a
/// matrix can never cause a case to be wrongly skipped.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoverageMatrix {
    /// Class whose suite this matrix describes.
    pub class_name: String,
    rows: BTreeMap<usize, BTreeSet<String>>,
}

impl CoverageMatrix {
    /// Creates an empty matrix for `class_name`.
    pub fn new(class_name: impl Into<String>) -> Self {
        CoverageMatrix {
            class_name: class_name.into(),
            rows: BTreeMap::new(),
        }
    }

    /// Builds the matrix of a whole suite without executing it — the
    /// method sets are static properties of the generated cases.
    pub fn from_suite(suite: &TestSuite) -> Self {
        let mut matrix = CoverageMatrix::new(suite.class_name.clone());
        for case in suite {
            matrix.record(case.id, case.method_names().iter().map(|m| (*m).to_owned()));
        }
        matrix
    }

    /// Records the method set of one case. Re-recording a case id merges
    /// into the existing row.
    pub fn record(&mut self, case_id: usize, methods: impl IntoIterator<Item = String>) {
        self.rows.entry(case_id).or_default().extend(methods);
    }

    /// True when `case_id` invokes `method`. Unknown case ids are
    /// conservatively covered (the matrix only licenses skipping cases it
    /// has positively recorded as unreachable).
    pub fn covers(&self, case_id: usize, method: &str) -> bool {
        self.rows
            .get(&case_id)
            .is_none_or(|row| row.contains(method))
    }

    /// Ids of the recorded cases that invoke `method`, in id order.
    pub fn cases_covering(&self, method: &str) -> Vec<usize> {
        self.rows
            .iter()
            .filter(|(_, row)| row.contains(method))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Number of recorded cases.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no case has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes the matrix in the crate's line-oriented persistence
    /// format:
    ///
    /// ```text
    /// coverage CObList
    /// case 0 CObList AddHead ~CObList
    /// ```
    ///
    /// Method names are identifiers (no whitespace), so rows are
    /// space-separated; rows appear in case-id order.
    pub fn to_text(&self) -> String {
        let mut out = format!("coverage {}\n", self.class_name);
        for (id, row) in &self.rows {
            let _ = write!(out, "case {id}");
            for method in row {
                let _ = write!(out, " {method}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses the [`CoverageMatrix::to_text`] format. Only the exact text
    /// `to_text` writes is accepted: rows and methods in order, once
    /// each, canonical case ids, every line newline-terminated.
    ///
    /// # Errors
    ///
    /// [`PersistError`] with the 1-based offending line on malformed
    /// headers, rows, or case ids.
    pub fn from_text(text: &str) -> Result<Self, PersistError> {
        let mut lines = text.lines().zip(1..);
        let (header, _) = lines.next().ok_or_else(|| perr(1, "empty coverage text"))?;
        let class_name = header
            .strip_prefix("coverage ")
            .ok_or_else(|| perr(1, "expected `coverage <class>` header"))?;
        let mut matrix = CoverageMatrix::new(class_name);
        for (line, line_no) in lines {
            let mut fields = Fields::new(line, ' ');
            let id = (fields.expect("case").and_then(|()| fields.dec()))
                .ok_or_else(|| perr(line_no, "expected `case <id> <methods…>`"))?;
            matrix.record(id, std::iter::from_fn(|| fields.word().map(str::to_owned)));
        }
        if matrix.to_text() != text {
            return Err(perr(1, "coverage text is not in the form `to_text` writes"));
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoverageMatrix {
        let mut m = CoverageMatrix::new("C");
        m.record(0, ["C".to_owned(), "AddHead".to_owned(), "~C".to_owned()]);
        m.record(2, ["C".to_owned(), "Sort1".to_owned(), "~C".to_owned()]);
        m
    }

    #[test]
    fn covers_and_cases_covering() {
        let m = sample();
        assert!(m.covers(0, "AddHead"));
        assert!(!m.covers(0, "Sort1"));
        assert!(m.covers(2, "Sort1"));
        // Unknown cases are conservatively covered.
        assert!(m.covers(99, "Anything"));
        assert_eq!(m.cases_covering("C"), vec![0, 2]);
        assert_eq!(m.cases_covering("Sort1"), vec![2]);
        assert!(m.cases_covering("Absent").is_empty());
    }

    #[test]
    fn text_round_trip() {
        let m = sample();
        let text = m.to_text();
        assert!(text.starts_with("coverage C\n"), "{text}");
        assert!(text.contains("case 0 AddHead C ~C"), "{text}");
        let back = CoverageMatrix::from_text(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn malformed_text_rejected_with_line_numbers() {
        assert_eq!(CoverageMatrix::from_text("").unwrap_err().line, 1);
        assert_eq!(CoverageMatrix::from_text("bogus").unwrap_err().line, 1);
        let err = CoverageMatrix::from_text("coverage C\nrow 1 A").unwrap_err();
        assert_eq!(err.line, 2);
        let err = CoverageMatrix::from_text("coverage C\ncase x A").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn merges_re_recorded_rows() {
        let mut m = CoverageMatrix::new("C");
        m.record(1, ["A".to_owned()]);
        m.record(1, ["B".to_owned()]);
        assert!(m.covers(1, "A") && m.covers(1, "B"));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }
}
