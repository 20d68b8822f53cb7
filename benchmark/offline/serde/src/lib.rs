//! Offline stand-in for `serde`: the two traits as markers, so that
//! `#[derive(Serialize, Deserialize)]` and `T: Serialize` bounds compile.
//!
//! Typed (de)serialization is a dummy. Only a type that overrides the
//! hidden hooks below carries data through `serde_json`; the stand-in
//! `serde_json::Value` does, and so do the scalars, strings and sequences.
//! A derived type serializes as `null` and never deserializes —
//! `swallow_metrics::serde_is_stub()` reports that state.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A type that can be written as JSON.
pub trait Serialize {
    /// Compact JSON text of `self`, or `None` for a type the stand-in
    /// cannot encode (every derived type).
    #[doc(hidden)]
    fn __stub_json(&self) -> Option<String> {
        None
    }
}

/// A type that can be read from JSON.
pub trait Deserialize<'de>: Sized {
    /// Decode from JSON text; `None` for every type but the stand-in
    /// `serde_json::Value`.
    #[doc(hidden)]
    fn __stub_from_json(_text: &str) -> Option<Self> {
        None
    }
}

/// Deserialization helpers.
pub mod de {
    /// A type deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> super::Deserialize<'de> {}
    impl<T: for<'de> super::Deserialize<'de>> DeserializeOwned for T {}
}

macro_rules! display_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn __stub_json(&self) -> Option<String> {
                Some(self.to_string())
            }
        }
        impl<'de> Deserialize<'de> for $t {}
    )*};
}

display_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn __stub_json(&self) -> Option<String> {
                // JSON has no NaN or infinity; the published crate writes null.
                Some(if self.is_finite() { format!("{self:?}") } else { "null".into() })
            }
        }
        impl<'de> Deserialize<'de> for $t {}
    )*};
}

float_impls!(f32, f64);

/// JSON string literal for `s`.
#[doc(hidden)]
pub fn __stub_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Serialize for str {
    fn __stub_json(&self) -> Option<String> {
        Some(__stub_quote(self))
    }
}

impl Serialize for String {
    fn __stub_json(&self) -> Option<String> {
        Some(__stub_quote(self))
    }
}
impl<'de> Deserialize<'de> for String {}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn __stub_json(&self) -> Option<String> {
        (**self).__stub_json()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn __stub_json(&self) -> Option<String> {
        match self {
            Some(v) => v.__stub_json(),
            None => Some("null".into()),
        }
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {}

impl<T: Serialize> Serialize for [T] {
    fn __stub_json(&self) -> Option<String> {
        let items: Option<Vec<String>> = self.iter().map(Serialize::__stub_json).collect();
        Some(format!("[{}]", items?.join(",")))
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn __stub_json(&self) -> Option<String> {
        self.as_slice().__stub_json()
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {}

impl<K: std::fmt::Display, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn __stub_json(&self) -> Option<String> {
        let members: Option<Vec<String>> = self
            .iter()
            .map(|(k, v)| {
                Some(format!(
                    "{}:{}",
                    __stub_quote(&k.to_string()),
                    v.__stub_json()?
                ))
            })
            .collect();
        Some(format!("{{{}}}", members?.join(",")))
    }
}
impl<'de, K, V> Deserialize<'de> for std::collections::BTreeMap<K, V> {}
impl<K, V, S> Serialize for std::collections::HashMap<K, V, S> {}
impl<'de, K, V, S> Deserialize<'de> for std::collections::HashMap<K, V, S> {}
