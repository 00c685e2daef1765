//! Parsing the textual literal form of [`Value`]s.
//!
//! [`Value::to_literal`] renders values the way generated drivers print
//! arguments; [`parse_value_literal`] inverts that rendering so test
//! suites and histories can be persisted as text (the paper's test
//! infrastructure includes "test history creation and maintenance" and
//! "test retrieval", §3.4). The pair round-trips:
//! `parse_value_literal(&v.to_literal()) == Ok(v)`.

use crate::value::{ObjRef, Value};
use std::fmt;
use std::iter::Peekable;
use std::str::Chars;

/// A literal parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseValueError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid value literal: {}", self.message)
    }
}

impl std::error::Error for ParseValueError {}

fn err(message: impl Into<String>) -> ParseValueError {
    ParseValueError {
        message: message.into(),
    }
}

/// Deepest list nesting [`parse_value_literal`] accepts: it recurses once
/// per `[`, so a run of brackets in stored text must not overflow the
/// stack. Generated arguments are flat lists, far below this.
const MAX_LIST_DEPTH: usize = 128;

struct Cursor<'a> {
    chars: Peekable<Chars<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor {
            chars: s.chars().peekable(),
        }
    }

    fn skip_ws(&mut self) {
        while self.chars.next_if(|c| c.is_whitespace()).is_some() {}
    }

    /// Parses one value inside `depth` open lists.
    fn parse_value(&mut self, depth: usize) -> Result<Value, ParseValueError> {
        self.skip_ws();
        match self.chars.peek().copied() {
            None => Err(err("empty input")),
            Some('"') => self.parse_string(),
            Some('[') if depth == MAX_LIST_DEPTH => Err(err("lists nest too deep")),
            Some('[') => self.parse_list(depth + 1),
            Some('&') => self.parse_obj(),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => self.parse_number(),
            Some(c) if c.is_ascii_alphabetic() => self.parse_word(),
            Some(c) => Err(err(format!("unexpected character `{c}`"))),
        }
    }

    fn parse_word(&mut self) -> Result<Value, ParseValueError> {
        let mut w = String::new();
        while let Some(c) = self.chars.next_if(|c| c.is_ascii_alphanumeric()) {
            w.push(c);
        }
        match w.as_str() {
            "NULL" => Ok(Value::Null),
            "true" => Ok(Value::Bool(true)),
            "false" => Ok(Value::Bool(false)),
            "inf" => Ok(Value::Float(f64::INFINITY)),
            "NaN" => Ok(Value::Float(f64::NAN)),
            other => Err(err(format!("unknown word `{other}`"))),
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseValueError> {
        let mut s = String::new();
        let mut is_float = false;
        if let Some(c) = self.chars.next_if(|c| *c == '-' || *c == '+') {
            s.push(c);
        }
        while let Some(&c) = self.chars.peek() {
            if c.is_ascii_digit() {
                s.push(c);
                self.chars.next();
            } else if c == '.' || c == 'e' || c == 'E' {
                is_float = true;
                s.push(c);
                self.chars.next();
                if (c == 'e' || c == 'E') && matches!(self.chars.peek(), Some('+') | Some('-')) {
                    if let Some(sign) = self.chars.next() {
                        s.push(sign);
                    }
                }
            } else {
                break;
            }
        }
        // `inf`/`NaN` renderings from f64::to_string.
        if matches!(self.chars.peek(), Some('i') | Some('N')) {
            let rest: String = self.chars.clone().collect();
            if rest.starts_with("inf") {
                for _ in 0..3 {
                    self.chars.next();
                }
                let sign = if s.starts_with('-') { -1.0 } else { 1.0 };
                return Ok(Value::Float(sign * f64::INFINITY));
            }
            if rest.starts_with("NaN") {
                for _ in 0..3 {
                    self.chars.next();
                }
                return Ok(Value::Float(f64::NAN));
            }
        }
        if is_float {
            s.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err(format!("bad float `{s}`")))
        } else {
            s.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| err(format!("bad integer `{s}`")))
        }
    }

    fn parse_string(&mut self) -> Result<Value, ParseValueError> {
        self.chars.next(); // opening quote
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err(err("unterminated string")),
                Some('"') => return Ok(Value::Str(out)),
                Some('\\') => match self.chars.next() {
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('\\') => out.push('\\'),
                    Some('"') => out.push('"'),
                    Some('\'') => out.push('\''),
                    Some('0') => out.push('\0'),
                    Some('u') => {
                        if self.chars.next() != Some('{') {
                            return Err(err("bad unicode escape"));
                        }
                        let mut hex = String::new();
                        loop {
                            match self.chars.next() {
                                Some('}') => break,
                                Some(c) if c.is_ascii_hexdigit() => hex.push(c),
                                _ => return Err(err("bad unicode escape")),
                            }
                        }
                        let cp = u32::from_str_radix(&hex, 16)
                            .ok()
                            .and_then(char::from_u32)
                            .ok_or_else(|| err("bad unicode escape"))?;
                        out.push(cp);
                    }
                    other => return Err(err(format!("bad escape `\\{}`", other.unwrap_or(' ')))),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn parse_list(&mut self, depth: usize) -> Result<Value, ParseValueError> {
        self.chars.next(); // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.next_if(|c| *c == ']').is_some() {
            return Ok(Value::List(items));
        }
        loop {
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            match self.chars.next() {
                Some(',') => continue,
                Some(']') => return Ok(Value::List(items)),
                _ => return Err(err("expected `,` or `]` in list")),
            }
        }
    }

    fn parse_obj(&mut self) -> Result<Value, ParseValueError> {
        self.chars.next(); // '&'
        let mut class = String::new();
        while let Some(c) = self.chars.next_if(|c| *c != ':') {
            class.push(c);
        }
        if self.chars.next() != Some(':') {
            return Err(err("object reference needs `:`"));
        }
        // The key runs to the next list/structure delimiter (keys may
        // therefore not contain `,` or `]`; see `ObjRef` docs).
        let mut key = String::new();
        while let Some(c) = self.chars.next_if(|c| !matches!(c, ',' | ']')) {
            key.push(c);
        }
        if class.is_empty() {
            return Err(err("empty object class"));
        }
        Ok(Value::Obj(ObjRef::new(class, key)))
    }
}

/// Parses the textual literal form produced by [`Value::to_literal`].
///
/// # Errors
///
/// Returns [`ParseValueError`] on malformed input or trailing garbage.
///
/// # Examples
///
/// ```
/// use concat_runtime::{parse_value_literal, Value};
///
/// let v = Value::List(vec![Value::Int(1), Value::Str("a".into())]);
/// assert_eq!(parse_value_literal(&v.to_literal()), Ok(v));
/// ```
pub fn parse_value_literal(s: &str) -> Result<Value, ParseValueError> {
    let mut cur = Cursor::new(s);
    let v = cur.parse_value(0)?;
    cur.skip_ws();
    if cur.chars.next().is_some() {
        return Err(err("trailing characters after value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: Value) {
        let text = v.to_literal();
        let back = parse_value_literal(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(back, v, "literal was {text}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        round_trip(Value::Int(0));
        round_trip(Value::Int(-42));
        round_trip(Value::Int(i64::MAX));
        round_trip(Value::Int(i64::MIN));
        round_trip(Value::Float(2.0));
        round_trip(Value::Float(-0.125));
        round_trip(Value::Float(1e300));
    }

    #[test]
    fn strings_round_trip_with_escapes() {
        round_trip(Value::Str(String::new()));
        round_trip(Value::Str("Mary".into()));
        round_trip(Value::Str("line\nbreak\tand \"quotes\" and \\".into()));
        round_trip(Value::Str("unicode: é λ 中".into()));
    }

    #[test]
    fn objects_round_trip() {
        round_trip(Value::Obj(ObjRef::new("Provider", "p1")));
        round_trip(Value::Obj(ObjRef::new("Node", "key with spaces")));
    }

    #[test]
    fn lists_round_trip_nested() {
        round_trip(Value::List(vec![]));
        round_trip(Value::List(vec![
            Value::Int(1),
            Value::Str("a,b]".into()),
            Value::List(vec![Value::Null, Value::Obj(ObjRef::new("P", "k"))]),
        ]));
    }

    #[test]
    fn special_floats() {
        round_trip(Value::Float(f64::INFINITY));
        round_trip(Value::Float(f64::NEG_INFINITY));
        // NaN != NaN, so compare structurally.
        let back = parse_value_literal(&Value::Float(f64::NAN).to_literal()).unwrap();
        match back {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected NaN, got {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_value_literal("").is_err());
        assert!(parse_value_literal("nope").is_err());
        assert!(parse_value_literal("\"open").is_err());
        assert!(parse_value_literal("[1, 2").is_err());
        assert!(parse_value_literal("1 trailing").is_err());
        assert!(parse_value_literal("&:key").is_err());
        assert!(parse_value_literal("@wat").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value_literal(&nested(MAX_LIST_DEPTH)).is_ok());
        let err = parse_value_literal(&nested(MAX_LIST_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nest"), "{err}");
        // Unclosed brackets far past the bound are refused, not recursed.
        assert!(parse_value_literal(&"[".repeat(10_000)).is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(
            parse_value_literal("  [ 1 , 2 ]  ").unwrap(),
            Value::List(vec![Value::Int(1), Value::Int(2)])
        );
    }
}
