//! Offline stand-in for `serde_json`: a real [`Value`] tree with parser,
//! compact and pretty printers and the `json!` macro; typed
//! (de)serialization is a dummy (see the stand-in `serde`). Everything that
//! goes through [`Value`] behaves like the published crate.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Error of any (de)serialization call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Result alias of this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// A JSON number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

impl Number {
    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        })
    }

    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(u) => Some(u),
            _ => None,
        }
    }

    /// The number as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }

    /// A finite float as a number.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::PosInt(u) => write!(f, "{u}"),
            N::NegInt(i) => write!(f, "{i}"),
            N::Float(x) => write!(f, "{x:?}"),
        }
    }
}

/// A JSON object; keys iterate in sorted order.
pub type Map<K = String, V = Value> = BTreeMap<K, V>;

/// Any JSON value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Member `key` of an object, or element `key` of an array.
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if the value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if the value is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n("  ", depth));
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&n.to_string()),
            Value::String(s) => out.push_str(&serde::__stub_quote(s)),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = indent {
                        newline(out, d + 1);
                    }
                    item.write(out, indent.map(|d| d + 1));
                }
                if let (Some(d), false) = (indent, items.is_empty()) {
                    newline(out, d);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = indent {
                        newline(out, d + 1);
                    }
                    out.push_str(&serde::__stub_quote(k));
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent.map(|d| d + 1));
                }
                if let (Some(d), false) = (indent, map.is_empty()) {
                    newline(out, d);
                }
                out.push('}');
            }
        }
    }
}

/// `{}` prints compact JSON, `{:#}` pretty JSON with two-space indent.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f.alternate().then_some(0));
        f.write_str(&out)
    }
}

/// A type that can index into a [`Value`]: `&str`, `String` or `usize`.
pub trait Index {
    #[doc(hidden)]
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(m) => m.get(self),
            _ => None,
        }
    }
}

impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                let v = v as i128;
                Value::Number(Number(if v < 0 { N::NegInt(v as i64) } else { N::PosInt(v as u64) }))
            }
        }
    )*};
}

from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}

impl Serialize for Value {
    fn __stub_json(&self) -> Option<String> {
        Some(self.to_string())
    }
}

impl<'de> Deserialize<'de> for Value {
    fn __stub_from_json(text: &str) -> Option<Value> {
        parse(text).ok()
    }
}

/// Compact JSON text of `value` (`null` for a derived type).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.__stub_json().unwrap_or_else(|| "null".to_string()))
}

/// Pretty JSON text of `value` (`null` for a derived type).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(format!("{:#}", to_value(value)?))
}

/// `value` as a [`Value`] tree (`Null` for a derived type).
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    value.__stub_json().map_or(Ok(Value::Null), |s| parse(&s))
}

/// Parse JSON text. Succeeds for [`Value`] only; every other target type
/// reports an error, which is how callers detect the stand-in.
pub fn from_str<'a, T: Deserialize<'a>>(text: &'a str) -> Result<T> {
    parse(text)?;
    T::__stub_from_json(text)
        .ok_or_else(|| Error("stand-in serde_json cannot deserialize typed values".into()))
}

/// [`from_str`] over bytes.
pub fn from_slice<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    from_str(std::str::from_utf8(bytes).map_err(|e| Error(e.to_string()))?)
}

/// Convert a [`Value`] tree into `T`; see [`from_str`].
pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T> {
    T::__stub_from_json(&value.to_string())
        .ok_or_else(|| Error("stand-in serde_json cannot deserialize typed values".into()))
}

fn parse(text: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Nesting bound, so hostile input cannot overflow the stack.
const MAX_DEPTH: usize = 128;

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = Map::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Object(map));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.err("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("expected `:`"));
                    }
                    map.insert(key, self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Object(map));
                    }
                    if !self.eat(",") {
                        return Err(self.err("expected `,` or `}`"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n = if float {
            None
        } else if text.starts_with('-') {
            text.parse().ok().map(N::NegInt)
        } else {
            text.parse().ok().map(N::PosInt)
        };
        // Integers beyond 64 bits fall back to a float, as upstream does.
        match n.or_else(|| {
            text.parse()
                .ok()
                .filter(|f: &f64| f.is_finite())
                .map(N::Float)
        }) {
            Some(n) => Ok(Value::Number(Number(n))),
            None => Err(self.err("invalid number")),
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    out.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
                                let low = self.hex4()?;
                                code = 0x10000 + ((code - 0xD800) << 10) + (low & 0x3FF);
                            }
                            char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
                        }
                        _ => return Err(self.err("invalid escape")),
                    });
                }
            }
        }
    }
}

/// Build a [`Value`] from JSON-like syntax.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([$($inner:tt)*]) => {{
        #[allow(unused_mut)]
        let mut items: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::__json_array!(items $($inner)*);
        $crate::Value::Array(items)
    }};
    ({$($inner:tt)*}) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $crate::__json_object!(map $($inner)*);
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::to_value(&$other).expect("value serializes") };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_array {
    ($v:ident) => {};
    ($v:ident null $(, $($rest:tt)*)?) => {
        $v.push($crate::Value::Null);
        $crate::__json_array!($v $($($rest)*)?);
    };
    ($v:ident [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $v.push($crate::json!([$($inner)*]));
        $crate::__json_array!($v $($($rest)*)?);
    };
    ($v:ident {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $v.push($crate::json!({$($inner)*}));
        $crate::__json_array!($v $($($rest)*)?);
    };
    ($v:ident $value:expr , $($rest:tt)*) => {
        $v.push($crate::json!($value));
        $crate::__json_array!($v $($rest)*);
    };
    ($v:ident $value:expr) => {
        $v.push($crate::json!($value));
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($m:ident) => {};
    ($m:ident $key:tt : null $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::ToString::to_string(&$key), $crate::Value::Null);
        $crate::__json_object!($m $($($rest)*)?);
    };
    ($m:ident $key:tt : [$($inner:tt)*] $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::ToString::to_string(&$key), $crate::json!([$($inner)*]));
        $crate::__json_object!($m $($($rest)*)?);
    };
    ($m:ident $key:tt : {$($inner:tt)*} $(, $($rest:tt)*)?) => {
        $m.insert(::std::string::ToString::to_string(&$key), $crate::json!({$($inner)*}));
        $crate::__json_object!($m $($($rest)*)?);
    };
    ($m:ident $key:tt : $value:expr , $($rest:tt)*) => {
        $m.insert(::std::string::ToString::to_string(&$key), $crate::json!($value));
        $crate::__json_object!($m $($rest)*);
    };
    ($m:ident $key:tt : $value:expr) => {
        $m.insert(::std::string::ToString::to_string(&$key), $crate::json!($value));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let doc = json!({
            "a": [1, -2, 3.5, null, true],
            "b": {"nested": "q\"uote\n", "empty": {}},
            "c": 1e300,
        });
        for text in [doc.to_string(), format!("{doc:#}")] {
            assert_eq!(from_str::<Value>(&text).unwrap(), doc);
        }
        assert_eq!(doc["a"][1].as_i64(), Some(-2));
        assert_eq!(doc["b"]["nested"].as_str(), Some("q\"uote\n"));
        assert!(doc["missing"].is_null());
    }

    #[test]
    fn typed_deserialization_is_a_dummy() {
        assert!(from_str::<u64>("3").is_err());
        assert!(from_str::<Value>("[1,").is_err());
    }
}
