//! Dynamically typed values exchanged between test drivers and components.
//!
//! The paper's driver generator emits C++ code, so the compiler provides the
//! bridge between generated test cases and the component under test. Rust has
//! no runtime reflection, so generated test cases instead carry [`Value`]s and
//! components dispatch on method names (see [`crate::Component`]). `Value`
//! deliberately mirrors the parameter kinds the t-spec format of the paper
//! can describe: numeric ranges, value sets, strings, object references and
//! pointers (nullable references).

use std::fmt;

/// A dynamically typed value passed to or returned from a component method.
///
/// # Examples
///
/// ```
/// use concat_runtime::Value;
///
/// let v = Value::Int(42);
/// assert_eq!(v.kind(), concat_runtime::ValueKind::Int);
/// assert_eq!(v.as_int().unwrap(), 42);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The absence of a value: `void` returns and null pointers.
    #[default]
    Null,
    /// A boolean flag.
    Bool(bool),
    /// A signed integer. All integral t-spec domains map onto `i64`.
    Int(i64),
    /// A floating point number. Compared bitwise for oracle purposes.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence of values (arrays and variadic captures).
    List(Vec<Value>),
    /// A reference to another object, identified by class name and key.
    ///
    /// The paper passes `Provider*` style pointers; we pass opaque named
    /// handles that factories and stores can resolve.
    Obj(ObjRef),
}

/// An opaque reference to a component instance or domain object.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjRef {
    /// Class of the referenced object (e.g. `"Provider"`).
    pub class_name: String,
    /// Identifying key within that class (e.g. a provider id).
    pub key: String,
}

impl ObjRef {
    /// Creates a new object reference.
    ///
    /// ```
    /// use concat_runtime::ObjRef;
    /// let r = ObjRef::new("Provider", "acme");
    /// assert_eq!(r.class_name, "Provider");
    /// ```
    pub fn new(class_name: impl Into<String>, key: impl Into<String>) -> Self {
        ObjRef {
            class_name: class_name.into(),
            key: key.into(),
        }
    }
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}:{}", self.class_name, self.key)
    }
}

/// The kind (dynamic type tag) of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// [`Value::Null`].
    Null,
    /// [`Value::Bool`].
    Bool,
    /// [`Value::Int`].
    Int,
    /// [`Value::Float`].
    Float,
    /// [`Value::Str`].
    Str,
    /// [`Value::List`].
    List,
    /// [`Value::Obj`].
    Obj,
}

impl fmt::Display for ValueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueKind::Null => "null",
            ValueKind::Bool => "bool",
            ValueKind::Int => "int",
            ValueKind::Float => "float",
            ValueKind::Str => "string",
            ValueKind::List => "list",
            ValueKind::Obj => "object",
        };
        f.write_str(s)
    }
}

impl Value {
    /// Returns the dynamic type tag of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Null => ValueKind::Null,
            Value::Bool(_) => ValueKind::Bool,
            Value::Int(_) => ValueKind::Int,
            Value::Float(_) => ValueKind::Float,
            Value::Str(_) => ValueKind::Str,
            Value::List(_) => ValueKind::List,
            Value::Obj(_) => ValueKind::Obj,
        }
    }

    /// Returns `true` if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extracts a boolean, or reports the actual kind.
    ///
    /// # Errors
    ///
    /// Returns the actual [`ValueKind`] when the value is not a `Bool`.
    pub fn as_bool(&self) -> Result<bool, ValueKind> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(other.kind()),
        }
    }

    /// Extracts an integer, or reports the actual kind.
    ///
    /// # Errors
    ///
    /// Returns the actual [`ValueKind`] when the value is not an `Int`.
    pub fn as_int(&self) -> Result<i64, ValueKind> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(other.kind()),
        }
    }

    /// Extracts a float. Integers are widened, matching C++ implicit
    /// conversion in the generated drivers.
    ///
    /// # Errors
    ///
    /// Returns the actual [`ValueKind`] when the value is neither `Float`
    /// nor `Int`.
    pub fn as_float(&self) -> Result<f64, ValueKind> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(other.kind()),
        }
    }

    /// Extracts a string slice, or reports the actual kind.
    ///
    /// # Errors
    ///
    /// Returns the actual [`ValueKind`] when the value is not a `Str`.
    pub fn as_str(&self) -> Result<&str, ValueKind> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(other.kind()),
        }
    }

    /// Extracts a list slice, or reports the actual kind.
    ///
    /// # Errors
    ///
    /// Returns the actual [`ValueKind`] when the value is not a `List`.
    pub fn as_list(&self) -> Result<&[Value], ValueKind> {
        match self {
            Value::List(items) => Ok(items),
            other => Err(other.kind()),
        }
    }

    /// Extracts an object reference, or reports the actual kind.
    ///
    /// # Errors
    ///
    /// Returns the actual [`ValueKind`] when the value is not an `Obj`.
    pub fn as_obj(&self) -> Result<&ObjRef, ValueKind> {
        match self {
            Value::Obj(r) => Ok(r),
            other => Err(other.kind()),
        }
    }

    /// Total ordering used by the subject components when sorting lists of
    /// values (the paper sorts `CObject*` lists with user comparators).
    ///
    /// Kind order: Null < Bool < Int/Float (numeric, compared numerically)
    /// < Str < List < Obj. NaN floats compare greater than all numbers so
    /// the order stays total.
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::List(_) => 4,
                Value::Obj(_) => 5,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Obj(a), Value::Obj(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.total_cmp(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Renders the value the way generated drivers print arguments
    /// (Figure 6 of the paper): strings quoted, objects as `&Class:key`.
    /// The [`fmt::Display`] form, collected.
    pub fn to_literal(&self) -> String {
        self.to_string()
    }
}

/// Writes the [`Value::to_literal`] form straight to the formatter, lists
/// element by element. Width and precision flags are ignored.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.fract() == 0.0 && x.is_finite() => write!(f, "{x:.1}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "\"{}\"", s.escape_default()),
            Value::List(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Obj(r) => write!(f, "{r}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<ObjRef> for Value {
    fn from(r: ObjRef) -> Self {
        Value::Obj(r)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::List(items)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Value::List(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn kind_reports_every_variant() {
        assert_eq!(Value::Null.kind(), ValueKind::Null);
        assert_eq!(Value::Bool(true).kind(), ValueKind::Bool);
        assert_eq!(Value::Int(1).kind(), ValueKind::Int);
        assert_eq!(Value::Float(1.0).kind(), ValueKind::Float);
        assert_eq!(Value::Str("x".into()).kind(), ValueKind::Str);
        assert_eq!(Value::List(vec![]).kind(), ValueKind::List);
        assert_eq!(Value::Obj(ObjRef::new("A", "k")).kind(), ValueKind::Obj);
    }

    #[test]
    fn as_int_accepts_only_ints() {
        assert_eq!(Value::Int(7).as_int(), Ok(7));
        assert_eq!(Value::Str("7".into()).as_int(), Err(ValueKind::Str));
    }

    #[test]
    fn as_float_widens_ints() {
        assert_eq!(Value::Int(2).as_float(), Ok(2.0));
        assert_eq!(Value::Float(2.5).as_float(), Ok(2.5));
        assert_eq!(Value::Null.as_float(), Err(ValueKind::Null));
    }

    #[test]
    fn as_str_borrows() {
        let v = Value::Str("hello".into());
        assert_eq!(v.as_str(), Ok("hello"));
        assert_eq!(Value::Int(1).as_str(), Err(ValueKind::Int));
    }

    #[test]
    fn as_bool_and_as_obj_and_as_list() {
        assert_eq!(Value::Bool(true).as_bool(), Ok(true));
        assert_eq!(Value::Int(0).as_bool(), Err(ValueKind::Int));
        let r = ObjRef::new("Provider", "p1");
        assert_eq!(Value::Obj(r.clone()).as_obj(), Ok(&r));
        let l = Value::List(vec![Value::Int(1)]);
        assert_eq!(l.as_list().unwrap().len(), 1);
    }

    #[test]
    fn total_cmp_orders_numbers_across_variants() {
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(Value::Float(2.0).total_cmp(&Value::Int(2)), Ordering::Equal);
        assert_eq!(Value::Int(3).total_cmp(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn total_cmp_ranks_kinds() {
        assert_eq!(Value::Null.total_cmp(&Value::Bool(false)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Int(99)),
            Ordering::Greater
        );
    }

    #[test]
    fn total_cmp_is_total_on_nan() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1.0).total_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn total_cmp_lists_lexicographic() {
        let a = Value::List(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::List(vec![Value::Int(1)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        assert_eq!(c.total_cmp(&a), Ordering::Less);
    }

    #[test]
    fn literals_match_driver_rendering() {
        assert_eq!(Value::Null.to_literal(), "NULL");
        assert_eq!(Value::Int(-3).to_literal(), "-3");
        assert_eq!(Value::Float(2.0).to_literal(), "2.0");
        assert_eq!(Value::Str("Mary".into()).to_literal(), "\"Mary\"");
        assert_eq!(
            Value::Obj(ObjRef::new("Provider", "p1")).to_literal(),
            "&Provider:p1"
        );
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("a".into())]).to_literal(),
            "[1, \"a\"]"
        );
    }

    /// The allocating renderer `to_literal` was before `Display` wrote
    /// straight to the formatter: the byte oracle of the streaming form.
    fn literal_oracle(v: &Value) -> String {
        match v {
            Value::Null => "NULL".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    format!("{x:.1}")
                } else {
                    x.to_string()
                }
            }
            Value::Str(s) => format!("\"{}\"", s.escape_default()),
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(literal_oracle).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Obj(r) => r.to_string(),
        }
    }

    /// A seeded random value: lists (three draws in ten while `depth`
    /// allows) nest up to `depth` more levels.
    fn random_value(rng: &mut crate::Rng, depth: usize) -> Value {
        const FLOATS: [f64; 9] = [
            0.0,
            -0.0,
            3.0,
            -1e16,
            0.1,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ];
        const TEXT: [&str; 8] = [
            "",
            "Mary",
            "a\"b",
            "back\\slash",
            "two\nlines",
            "tab\t",
            "naïve ☃",
            "\u{7f}\0",
        ];
        match rng.index(if depth == 0 { 7 } else { 10 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.coin()),
            2 => Value::Int(rng.next_u64() as i64),
            3 => Value::Float(FLOATS[rng.index(FLOATS.len())]),
            4 => Value::Float(rng.float_in(-1e3, 1e3)),
            5 => {
                let s: String = (0..rng.index(3))
                    .map(|_| TEXT[rng.index(TEXT.len())])
                    .collect();
                Value::Str(s)
            }
            6 => Value::Obj(ObjRef::new(
                TEXT[rng.index(TEXT.len())],
                TEXT[rng.index(TEXT.len())],
            )),
            _ => Value::List(
                (0..rng.index(4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
        }
    }

    #[test]
    fn streaming_display_equals_the_allocating_oracle_on_random_values() {
        let mut rng = crate::Rng::seed_from_u64(0x5EED_1175);
        for case in 0..2000 {
            let v = random_value(&mut rng, 4);
            let expected = literal_oracle(&v);
            assert_eq!(v.to_string(), expected, "case {case}: {v:?}");
            assert_eq!(v.to_literal(), expected, "case {case}: {v:?}");
            assert_eq!(format!("{v:>200}"), expected, "flags are ignored");
        }
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(7i32), Value::Int(7));
        assert_eq!(Value::from(7usize), Value::Int(7));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(1i64)), Value::Int(1));
        let collected: Value = vec![Value::Int(1)].into_iter().collect();
        assert_eq!(collected, Value::List(vec![Value::Int(1)]));
    }

    #[test]
    fn default_is_null() {
        assert_eq!(Value::default(), Value::Null);
    }
}
