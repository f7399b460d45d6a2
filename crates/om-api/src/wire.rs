//! The one codec behind every wire type.
//!
//! [`Wire`] is a value with one JSON form: how it is written, read and
//! compared. [`wire!`] declares a struct once — each field with its wire
//! key and its kind — and derives from that one list the struct, its
//! wire equality, its encoder and its decoder. Every body, request or
//! response, `/v1` or `/internal/*`, is written by [`Wire::write`] into
//! one `String`; [`crate::json::Json::encode`] is the same writer.
//!
//! **Field kinds.** A field's kind says how it sits in its object:
//! - plain (the default): the value type decides. An `Option` is left
//!   out when `None` and reads as `None` when absent; anything else is
//!   required.
//! - `=> OrEmpty`: a `Vec` left out when empty; absent or `null` reads
//!   as empty.
//! - `=> Nullable`: an `Option<f64>` that is always written, `None` as
//!   `null`, and `null` reads back as `None`.
//!
//! **Keys.** A field's key is its name, or the literal after `as`. A
//! dotted key `"g.k"` puts the field in a nested object `g`; the fields
//! of one group are declared together, in a type that is not strict.
//!
//! **The `null` rule.** `null` is the wire form of a non-finite `f64`
//! and of nothing else: an `f64`, bare or inside an `Option`, reads
//! `null` as NaN; every other optional field reads `null` as absent.
//! Wire equality follows the bytes: all non-finite floats are one value.
//!
//! **Strictness.** A type declared `strict` rejects keys it does not
//! declare (requests and `/internal/*` bodies); the others ignore them.

use std::fmt::Write as _;

use crate::json::{write_str, Json};

/// A value with one wire form.
pub(crate) trait Wire: Sized + PartialEq {
    /// What an element of an array of these is called in a decode error.
    const NOUN: &'static str = "item";

    /// Append the value's JSON to `out`.
    fn write(&self, out: &mut String);

    /// Decode a parsed value.
    fn read(v: &Json) -> Result<Self, String>;

    /// Wire equality: exact, except that all non-finite floats are equal.
    fn same(&self, other: &Self) -> bool {
        self == other
    }

    /// Whether a field holding this value is left out of its object.
    fn omitted(&self) -> bool {
        false
    }

    /// The value of a field whose key is absent; `None` = required.
    fn absent() -> Option<Self> {
        None
    }
}

/// A wire type written as one JSON object, field by field.
pub(crate) trait Fields {
    fn write_fields(&self, o: &mut Obj<'_>);
}

pub(crate) fn encode<T: Wire>(x: &T) -> String {
    let mut out = String::with_capacity(1024);
    x.write(&mut out);
    out
}

pub(crate) fn parse<T: Wire>(text: &str) -> Result<T, String> {
    T::read(&Json::parse(text).map_err(|e| e.to_string())?)
}

/// Decode the plain field `key` of object `v`.
pub(crate) fn field<T: Wire>(v: &Json, key: &str) -> Result<T, String> {
    <Plain as Kind<T>>::read(v, key)
}

/// The object under `v`, holding no key outside `keys` when `strict`.
pub(crate) fn check_keys(v: &Json, strict: bool, keys: &[&str]) -> Result<(), String> {
    let pairs = v.as_obj().ok_or("expected a JSON object")?;
    match pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((k, _)) if strict => Err(format!("unknown field {k:?}")),
        _ => Ok(()),
    }
}

fn lookup<'v>(v: &'v Json, key: &str) -> Option<&'v Json> {
    match key.split_once('.') {
        Some((group, key)) => v.get(group)?.get(key),
        None => v.get(key),
    }
}

/// Writes one JSON object. Keys are declared identifiers, written
/// unescaped; a dotted key opens its group on the group's first field
/// and closes it on the first field outside it.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    group: Option<&'static str>,
    empty: bool,
}

impl<'a> Obj<'a> {
    pub(crate) fn new(out: &'a mut String) -> Self {
        out.push('{');
        Self {
            out,
            group: None,
            empty: true,
        }
    }

    /// Write `key`'s separator and name; the value goes to the result.
    pub(crate) fn key(&mut self, key: &'static str) -> &mut String {
        let (group, leaf) = match key.split_once('.') {
            Some((group, leaf)) => (Some(group), leaf),
            None => (None, key),
        };
        if group != self.group {
            if self.group.is_some() {
                self.out.push('}');
                self.empty = false;
            }
            if let Some(group) = group {
                self.name(group);
                self.out.push('{');
                self.empty = true;
            }
            self.group = group;
        }
        self.name(leaf);
        self.out
    }

    fn name(&mut self, name: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
    }

    pub(crate) fn field<T: Wire>(&mut self, key: &'static str, v: &T) {
        <Plain as Kind<T>>::write(self, key, v);
    }

    pub(crate) fn close(self) {
        if self.group.is_some() {
            self.out.push('}');
        }
        self.out.push('}');
    }
}

/// How a field of type `T` sits in its object.
pub(crate) trait Kind<T> {
    fn write(o: &mut Obj<'_>, key: &'static str, v: &T);
    fn read(v: &Json, key: &str) -> Result<T, String>;
    fn same(a: &T, b: &T) -> bool;
}

/// The default kind: required, or left out when `None`, as `T` says.
pub(crate) struct Plain;

impl<T: Wire> Kind<T> for Plain {
    fn write(o: &mut Obj<'_>, key: &'static str, v: &T) {
        if !v.omitted() {
            v.write(o.key(key));
        }
    }

    fn read(v: &Json, key: &str) -> Result<T, String> {
        match lookup(v, key) {
            None => T::absent().ok_or_else(|| format!("missing field {key:?}")),
            Some(x) => T::read(x).map_err(|e| format!("field {key:?}: {e}")),
        }
    }

    fn same(a: &T, b: &T) -> bool {
        a.same(b)
    }
}

/// A list left out when empty; absent or `null` reads as empty.
pub(crate) struct OrEmpty;

impl<T: Wire> Kind<Vec<T>> for OrEmpty {
    fn write(o: &mut Obj<'_>, key: &'static str, v: &Vec<T>) {
        if !v.is_empty() {
            v.write(o.key(key));
        }
    }

    fn read(v: &Json, key: &str) -> Result<Vec<T>, String> {
        match lookup(v, key) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(_) => field(v, key),
        }
    }

    fn same(a: &Vec<T>, b: &Vec<T>) -> bool {
        a.same(b)
    }
}

/// Always written: `None` as `null`, and `null` reads as `None`.
pub(crate) struct Nullable;

impl Kind<Option<f64>> for Nullable {
    fn write(o: &mut Obj<'_>, key: &'static str, v: &Option<f64>) {
        v.write(o.key(key));
    }

    fn read(v: &Json, key: &str) -> Result<Option<f64>, String> {
        match lookup(v, key) {
            Some(Json::Null) => Ok(None),
            _ => field(v, key).map(Some),
        }
    }

    fn same(a: &Option<f64>, b: &Option<f64>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => a.same(b),
            (None, None) => true,
            (Some(x), None) | (None, Some(x)) => !x.is_finite(),
        }
    }
}

impl Wire for u64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "expected a non-negative integer".to_owned())
    }
}

impl Wire for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_owned())
    }

    fn same(&self, other: &Self) -> bool {
        self == other || (!self.is_finite() && !other.is_finite())
    }
}

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a boolean".to_owned())
    }
}

impl Wire for String {
    fn write(&self, out: &mut String) {
        write_str(out, self);
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| "expected a string".to_owned())
    }
}

impl Wire for [u64; 2] {
    fn write(&self, out: &mut String) {
        let [a, b] = self;
        let _ = write!(out, "[{a},{b}]");
    }

    fn read(v: &Json) -> Result<Self, String> {
        match v.as_arr() {
            Some([a, b]) => Ok([u64::read(a)?, u64::read(b)?]),
            _ => Err("expected an array of 2 integers".to_owned()),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    /// An array inside an array is a row (`/v1/ingest`'s `rows`).
    const NOUN: &'static str = "row";

    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.write(out);
        }
        out.push(']');
    }

    fn read(v: &Json) -> Result<Self, String> {
        v.as_arr()
            .ok_or("expected an array")?
            .iter()
            .enumerate()
            .map(|(i, x)| T::read(x).map_err(|e| format!("{} {}: {e}", T::NOUN, i + 1)))
            .collect()
    }

    fn same(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.same(b))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(x) => x.write(out),
            None => out.push_str("null"),
        }
    }

    /// The `null` rule: `null` is a value only where `T` reads it as
    /// one (a non-finite `f64`); for every other `T` it is absence.
    fn read(v: &Json) -> Result<Self, String> {
        if v.is_null() {
            Ok(T::read(v).ok())
        } else {
            T::read(v).map(Some)
        }
    }

    fn same(&self, other: &Self) -> bool {
        match (self, other) {
            (Some(a), Some(b)) => a.same(b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    fn omitted(&self) -> bool {
        self.is_none()
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl Wire for Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write(out),
            Json::Num(x) => x.write(out),
            Json::Str(s) => s.write(out),
            Json::Arr(items) => items.write(out),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    k.write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn read(v: &Json) -> Result<Self, String> {
        Ok(v.clone())
    }
}

/// Declares wire structs. Each is written
///
/// ```text
/// /// docs, #[derive(..)] without PartialEq
/// pub struct Name: strict, encode, parse, from_json {
///     /// docs
///     pub field: Type,                 // plain kind, key "field"
///     pub other: Type as "key",        // another key
///     pub list: Vec<T> => OrEmpty,     // another kind
/// }
/// ```
///
/// and gets a `PartialEq` (wire equality), [`Wire`] and [`Fields`]. The
/// list after the name holds `strict` and the public methods the type
/// offers; a nested-only type has none.
macro_rules! wire {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(: $($flag:ident),+)? {$(
            $(#[$fmeta:meta])*
            $fvis:vis $field:ident: $ty:ty $(as $key:literal)? $(=> $kind:ident)?
        ),* $(,)?}
    )*) => {$(
        $(#[$meta])*
        $vis struct $name {$(
            $(#[$fmeta])*
            $fvis $field: $ty,
        )*}

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                true $(&& <$crate::wire::wire!(@kind $($kind)?) as $crate::wire::Kind<$ty>>::same(
                    &self.$field,
                    &other.$field,
                ))*
            }
        }

        impl $crate::wire::Fields for $name {
            fn write_fields(&self, o: &mut $crate::wire::Obj<'_>) {$(
                <$crate::wire::wire!(@kind $($kind)?) as $crate::wire::Kind<$ty>>::write(
                    o,
                    $crate::wire::wire!(@key $field $($key)?),
                    &self.$field,
                );
            )*}
        }

        impl $crate::wire::Wire for $name {
            fn write(&self, out: &mut String) {
                let mut o = $crate::wire::Obj::new(out);
                $crate::wire::Fields::write_fields(self, &mut o);
                o.close();
            }

            fn read(v: &$crate::json::Json) -> Result<Self, String> {
                $crate::wire::check_keys(
                    v,
                    $crate::wire::wire!(@strict $($($flag)+)?),
                    &[$($crate::wire::wire!(@key $field $($key)?)),*],
                )?;
                Ok(Self {$(
                    $field: <$crate::wire::wire!(@kind $($kind)?) as $crate::wire::Kind<$ty>>::read(
                        v,
                        $crate::wire::wire!(@key $field $($key)?),
                    )?,
                )*})
            }
        }

        $($($crate::wire::wire!(@api $name $flag);)+)?
    )*};
    (@kind) => { $crate::wire::Plain };
    (@kind $kind:ident) => { $crate::wire::$kind };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@strict) => { false };
    (@strict strict $($rest:ident)*) => { true };
    (@strict $other:ident $($rest:ident)*) => { $crate::wire::wire!(@strict $($rest)*) };
    (@api $name:ident strict) => {};
    (@api $name:ident encode) => {
        impl $name {
            /// The wire body.
            #[must_use]
            pub fn encode(&self) -> String {
                $crate::wire::encode(self)
            }
        }
    };
    (@api $name:ident parse) => {
        impl $name {
            /// Parse a wire body.
            ///
            /// # Errors
            /// A message describing the parse or shape failure.
            pub fn parse(text: &str) -> Result<Self, String> {
                $crate::wire::parse(text)
            }
        }
    };
    (@api $name:ident from_json) => {
        impl $name {
            /// Decode a parsed wire body.
            ///
            /// # Errors
            /// A message naming the malformed field.
            pub fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                <Self as $crate::wire::Wire>::read(v)
            }
        }
    };
}

pub(crate) use wire;
