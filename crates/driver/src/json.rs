//! Minimal JSON codec behind every report the workspace writes.
//!
//! The build environment has no crates.io access, so `serde_json` is not
//! available; this module implements the small, exact subset the reports
//! need: a [`Value`] tree, a writer, a recursive-descent parser, and the
//! [`Json`] trait that maps Rust values onto the tree. Report structs derive
//! their codec from their field list with [`json_record!`](crate::json_record),
//! so each schema is stated once. The rules, for every record:
//!
//! * Integers round-trip exactly (`u64`/`i64` are kept apart from `f64`),
//!   which matters for execution fingerprints; finite floats round-trip
//!   bit-exactly through Rust's shortest formatting.
//! * Non-finite floats serialise as `null`, as JSON has no representation
//!   for them; a required `f64` (or `Vec<f64>` element) decodes `null` back
//!   as `NaN`, so the report of a diverged run stays readable.
//! * An `Option` field that is absent or `null` decodes to `None`; one that
//!   is present but mistyped is an error. Every other field is required.
//! * Decode errors name the innermost offending field.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    U64(u64),
    /// A negative integer that fits `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are ordered for deterministic output.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A float value (`null` when non-finite).
    #[must_use]
    pub fn f64(v: f64) -> Self {
        if v.is_finite() {
            Self::F64(v)
        } else {
            Self::Null
        }
    }

    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Self::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::U64(v) => Some(v as f64),
            Self::I64(v) => Some(v as f64),
            Self::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Self::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True if the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Self::Null)
    }

    /// Serialises compactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Self::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Self::F64(v) => {
                if v.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float formatting.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            Self::Str(s) => write_escaped(out, s),
            Self::Arr(items) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '[',
                    ']',
                    items.iter(),
                    |out, item, d| {
                        item.write(out, indent, d);
                    },
                );
            }
            Self::Obj(map) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '{',
                    '}',
                    map.iter(),
                    |out, (k, v), d| {
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, d);
                    },
                );
            }
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // writer; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = s.chars().next().expect("non-empty checked above");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })
    }
}

/// Error decoding a report from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The text is not valid JSON.
    Parse(ParseError),
    /// A field is missing or has the wrong type.
    Field {
        /// Field name (empty until a record attributes a leaf error).
        field: &'static str,
        /// What was expected.
        expected: &'static str,
    },
}

impl DecodeError {
    /// A missing or mistyped `field`.
    pub(crate) fn field(field: &'static str, expected: &'static str) -> Self {
        Self::Field { field, expected }
    }

    /// Attributes a leaf error to `name`; an error that already names an
    /// inner field keeps it.
    fn within(self, name: &'static str) -> Self {
        match self {
            Self::Field {
                field: "",
                expected,
            } => Self::field(name, expected),
            e => e,
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => e.fmt(f),
            Self::Field { field, expected } => {
                write!(f, "report field `{field}`: {expected}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ParseError> for DecodeError {
    fn from(e: ParseError) -> Self {
        Self::Parse(e)
    }
}

/// A type with a JSON encoding. Records implement it through
/// [`json_record!`](crate::json_record); options and vectors compose
/// through it.
pub trait Json: Sized {
    /// Converts into the JSON value tree.
    fn to_value(&self) -> Value;

    /// Decodes from a JSON value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Field`] on missing/mistyped fields.
    fn from_value(v: &Value) -> Result<Self, DecodeError>;

    /// The value of an absent field, if absence is allowed (only for
    /// `Option`).
    fn absent() -> Option<Self> {
        None
    }
}

fn mistyped(expected: &'static str) -> DecodeError {
    DecodeError::field("", expected)
}

impl Json for u64 {
    fn to_value(&self) -> Value {
        Value::U64(*self)
    }

    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        v.as_u64().ok_or_else(|| mistyped("expected integer"))
    }
}

impl Json for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }

    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        v.as_usize().ok_or_else(|| mistyped("expected integer"))
    }
}

impl Json for f64 {
    fn to_value(&self) -> Value {
        Value::f64(*self)
    }

    /// Integers widen; `null` — the writer's spelling of inf/NaN — decodes
    /// as `NaN`.
    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        if v.is_null() {
            return Ok(f64::NAN);
        }
        v.as_f64().ok_or_else(|| mistyped("expected number"))
    }
}

impl Json for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        v.as_bool().ok_or_else(|| mistyped("expected bool"))
    }
}

impl Json for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| mistyped("expected string"))
    }
}

impl<T: Json> Json for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_value)
    }

    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        if v.is_null() {
            return Ok(None);
        }
        T::from_value(v).map(Some)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Json> Json for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(T::to_value).collect())
    }

    fn from_value(v: &Value) -> Result<Self, DecodeError> {
        v.as_arr()
            .ok_or_else(|| mistyped("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

/// Decodes the member `name` of the object `v` (absent counts as `null`
/// for `Option` fields, as missing for every other type). Errors name the
/// innermost offending field.
///
/// # Errors
///
/// Returns [`DecodeError::Field`] when the member is missing or mistyped.
pub fn field<T: Json>(v: &Value, name: &'static str) -> Result<T, DecodeError> {
    match v.get(name) {
        Some(item) => T::from_value(item).map_err(|e| e.within(name)),
        None => T::absent().ok_or(DecodeError::field(name, "missing")),
    }
}

/// Implements [`Json`] for a struct from its field list — each field is
/// keyed by its name — plus the inherent `to_json` / `to_json_pretty` /
/// `from_json` every report carries.
///
/// Two optional clauses cover the reports that are more than their
/// fields: `derived { key: f }` also writes `f(&record)` under `key` (a
/// convenience the decoder ignores), and `check f` runs
/// `f(&record) -> Result<(), DecodeError>` after decoding.
///
/// ```
/// use asgd_driver::json_record;
///
/// #[derive(Debug, PartialEq)]
/// struct Cell {
///     hits: u64,
///     rate: Option<f64>,
/// }
/// json_record!(Cell { hits, rate });
///
/// let cell = Cell { hits: 3, rate: None };
/// assert_eq!(cell.to_json(), r#"{"hits":3,"rate":null}"#);
/// assert_eq!(Cell::from_json(r#"{"hits":3}"#).unwrap(), cell);
/// ```
#[macro_export]
macro_rules! json_record {
    ($ty:ident { $($field:ident),* $(,)? }
     $(derived { $key:ident: $derive:expr })?
     $(check $check:expr)?) => {
        impl $crate::json::Json for $ty {
            fn to_value(&self) -> $crate::json::Value {
                $crate::json::Value::obj([
                    $((stringify!($field), $crate::json::Json::to_value(&self.$field)),)*
                    $((stringify!($key), $crate::json::Json::to_value(&$derive(self))),)?
                ])
            }

            fn from_value(v: &$crate::json::Value) -> Result<Self, $crate::json::DecodeError> {
                let record = Self {
                    $($field: $crate::json::field(v, stringify!($field))?,)*
                };
                $($check(&record)?;)?
                Ok(record)
            }
        }

        impl $ty {
            /// Serialises to compact JSON.
            #[must_use]
            pub fn to_json(&self) -> String {
                $crate::json::Json::to_value(self).to_json()
            }

            /// Serialises to pretty-printed JSON.
            #[must_use]
            pub fn to_json_pretty(&self) -> String {
                $crate::json::Json::to_value(self).to_json_pretty()
            }

            /// Parses back from JSON.
            ///
            /// # Errors
            ///
            /// Returns a `DecodeError` on malformed JSON or missing/mistyped
            /// fields.
            pub fn from_json(text: &str) -> Result<Self, $crate::json::DecodeError> {
                <Self as $crate::json::Json>::from_value(&$crate::json::parse(text)?)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exact_integers() {
        let v = Value::obj([
            ("fingerprint", Value::U64(u64::MAX)),
            ("neg", Value::I64(-42)),
            ("pi", Value::F64(0.1)),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains(&u64::MAX.to_string()));
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = Value::obj([
            (
                "arr",
                Value::Arr(vec![Value::U64(1), Value::Null, Value::Bool(true)]),
            ),
            ("s", Value::Str("line\n\"quote\" \\ tab\t".to_string())),
            ("empty_arr", Value::Arr(vec![])),
            ("empty_obj", Value::Obj(Default::default())),
        ]);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_shortest() {
        for f in [0.1, -2.5e-9, 1.0 / 3.0, f64::MAX, 5e-324] {
            let text = Value::F64(f).to_json();
            let Value::F64(back) = parse(&text).unwrap() else {
                panic!("expected float from {text}");
            };
            assert_eq!(back.to_bits(), f.to_bits(), "{text}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::f64(f64::NAN), Value::Null);
        assert_eq!(Value::F64(f64::INFINITY).to_json(), "null");
    }

    #[derive(Debug, PartialEq)]
    struct Probe {
        count: usize,
        rate: f64,
        limit: Option<f64>,
        xs: Vec<f64>,
    }
    crate::json_record!(Probe {
        count,
        rate,
        limit,
        xs
    });

    #[test]
    fn records_follow_one_decode_rule() {
        let probe = Probe {
            count: 2,
            rate: f64::INFINITY,
            limit: None,
            xs: vec![0.5, f64::NAN],
        };
        let text = probe.to_json();
        assert_eq!(
            text,
            r#"{"count":2,"limit":null,"rate":null,"xs":[0.5,null]}"#
        );
        // Required floats decode the writer's `null` as NaN; options as None.
        let back = Probe::from_json(&probe.to_json_pretty()).unwrap();
        assert!(back.rate.is_nan() && back.xs[1].is_nan());
        assert_eq!((back.limit, back.xs[0]), (None, 0.5));
        // An absent option is None; an absent required field is an error.
        let back = Probe::from_json(r#"{"count":1,"rate":1,"xs":[]}"#).unwrap();
        assert_eq!(back.limit, None);
        let err = Probe::from_json(r#"{"rate":1,"xs":[]}"#).unwrap_err();
        assert_eq!(err, DecodeError::field("count", "missing"));
        // A present-but-mistyped option, element or integer is an error
        // naming its field.
        for (bad, field) in [
            (r#"{"count":1,"rate":1,"limit":"x","xs":[]}"#, "limit"),
            (r#"{"count":1,"rate":1,"xs":[true]}"#, "xs"),
            (r#"{"count":-1,"rate":1,"xs":[]}"#, "count"),
        ] {
            let err = Probe::from_json(bad).unwrap_err();
            assert!(
                matches!(err, DecodeError::Field { field: f, .. } if f == field),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": true, "e": -1.5}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Value::as_usize), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("e").and_then(Value::as_f64), Some(-1.5));
        assert!(v.get("missing").is_none());
    }
}
