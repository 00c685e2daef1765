//! The one field codec behind every machine-written record: journal
//! records, corpus manifest entries, shard frames, environment lists.
//! [`Fields`] accepts only the form encoders write — decimal without sign
//! or leading zeros, hex as exactly eight lowercase digits, no empty
//! fields, nothing after the last one — so a decoder built on it is total
//! and canonical: if it decodes bytes `b` to `x`, encoding `x` gives back
//! exactly `b`. Free text inside a field goes through [`escape_field`].

/// A reader over one record's `sep`-delimited fields. Every reader
/// returns `None` on a missing or malformed field; decoders chain them
/// with `?` and finish with [`Fields::end`].
#[derive(Debug)]
pub struct Fields<'a> {
    /// The unread text; `None` once a field ended without a separator.
    rest: Option<&'a str>,
    sep: char,
}

impl<'a> Fields<'a> {
    /// Starts reading `record`.
    pub fn new(record: &'a str, sep: char) -> Self {
        Fields {
            rest: Some(record),
            sep,
        }
    }

    /// The next field; `None` when none is left or it is empty.
    pub fn word(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        let (field, after) = match rest.split_once(self.sep) {
            Some((field, after)) => (field, Some(after)),
            None => (rest, None),
        };
        self.rest = after;
        (!field.is_empty()).then_some(field)
    }

    /// `Some` when the next field is exactly `word`.
    pub fn expect(&mut self, word: &str) -> Option<()> {
        (self.word()? == word).then_some(())
    }

    /// The next field as canonical decimal, in range for `T`.
    pub fn dec<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let word = self.word()?;
        if word.len() > 1 && word.starts_with('0') {
            return None;
        }
        let value = word.bytes().try_fold(0u64, |acc, b| {
            let digit = b.is_ascii_digit().then(|| u64::from(b - b'0'))?;
            acc.checked_mul(10)?.checked_add(digit)
        })?;
        T::try_from(value).ok()
    }

    /// The next field as canonical hex ([`hex8`]).
    pub fn hex(&mut self) -> Option<u32> {
        hex8(self.word()?.as_bytes())
    }

    /// Everything not yet read, separators included; `None` when empty.
    pub fn rest(&mut self) -> Option<&'a str> {
        self.rest.take().filter(|rest| !rest.is_empty())
    }

    /// `Some` when every field was read and no separator trails the last.
    pub fn end(&self) -> Option<()> {
        self.rest.is_none().then_some(())
    }
}

/// Parses exactly eight lowercase hex digits, the form `{:08x}` writes.
pub fn hex8(digits: &[u8]) -> Option<u32> {
    if digits.len() != 8 {
        return None;
    }
    digits.iter().try_fold(0u32, |acc, &b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u32::from(digit))
    })
}

/// Escapes free text into one tab- and newline-free field: `\` → `\\`,
/// newline → `\n`, tab → `\t`.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Inverts [`escape_field`]; `None` for anything it never writes.
pub fn unescape_field(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next()? {
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                _ => return None,
            },
            '\n' | '\t' => return None,
            c => out.push(c),
        }
    }
    Some(out)
}

/// Writes a fieldless enum's record keywords once, deriving both
/// directions from the one table: `keyword(self)` and `from_keyword(word)`.
#[macro_export]
macro_rules! keyword_table {
    ($ty:ident { $($variant:ident => $word:literal),+ $(,)? }) => {
        impl $ty {
            /// The record keyword of this variant.
            pub fn keyword(self) -> &'static str {
                match self { $($ty::$variant => $word,)+ }
            }

            /// The variant a record keyword names, if any.
            pub fn from_keyword(word: &str) -> Option<Self> {
                match word { $($word => Some($ty::$variant),)+ _ => None }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_split_and_end() {
        let mut f = Fields::new("a\tb c\t", '\t');
        assert_eq!(f.word(), Some("a"));
        assert_eq!(f.word(), Some("b c"));
        assert_eq!(f.end(), None, "a separator trails the last field");
        assert_eq!(f.word(), None, "empty trailing field");
        assert_eq!(f.end(), Some(()));
        let mut f = Fields::new("case 1 a class name", ' ');
        assert_eq!(f.word(), Some("case"));
        assert_eq!(f.rest(), Some("1 a class name"));
        assert_eq!(f.end(), Some(()));
        assert_eq!(Fields::new("x ", ' ').rest(), Some("x "));
        assert_eq!(Fields::new("", ' ').rest(), None);
    }

    #[test]
    fn decimal_is_canonical() {
        let dec = |s: &str| Fields::new(s, ' ').dec::<u64>();
        assert_eq!(dec("0"), Some(0));
        assert_eq!(dec("18446744073709551615"), Some(u64::MAX));
        for bad in [
            "",
            "00",
            "01",
            "+1",
            "-1",
            " 1",
            "1x",
            "18446744073709551616",
        ] {
            assert_eq!(dec(bad), None, "{bad:?}");
        }
        assert_eq!(Fields::new("4294967296", ' ').dec::<u32>(), None);
    }

    #[test]
    fn hex_is_exactly_eight_lowercase_digits() {
        assert_eq!(hex8(b"00000000"), Some(0));
        assert_eq!(hex8(b"deadbeef"), Some(0xDEAD_BEEF));
        for bad in [
            "",
            "0",
            "0000000",
            "000000000",
            "DEADBEEF",
            "+0000000",
            "0000000g",
        ] {
            assert_eq!(hex8(bad.as_bytes()), None, "{bad:?}");
        }
    }

    #[test]
    fn escaping_round_trips_and_is_canonical() {
        for s in ["", "plain", "tab\there", "line\nbreak", "back\\slash\\n"] {
            let escaped = escape_field(s);
            assert!(!escaped.contains(['\n', '\t']));
            assert_eq!(unescape_field(&escaped).as_deref(), Some(s));
        }
        for bad in ["\\", "\\x", "raw\ttab", "raw\nline"] {
            assert_eq!(unescape_field(bad), None, "{bad:?}");
        }
    }
}
