//! Minimal JSON support for metric/trace export and the wire protocols.
//!
//! The simulator runs in fully offline environments with no registry access,
//! so it cannot depend on `serde`. Three parts live here:
//!
//! * **Writing** — [`JsonValue::write`] / [`JsonValue::to_json`] render a
//!   tree canonically (no whitespace, members in stored order, numbers as
//!   their raw tokens), so output is deterministic: no maps with randomized
//!   iteration order, no float formatting ambiguity. [`write_string`]
//!   appends one escaped string literal.
//! * **Reading** — [`JsonValue`] is a small recursive-descent parser over
//!   the full JSON grammar. Numbers keep their *raw source text* (see
//!   [`JsonValue::Num`]), so `parse(render(v)) == v` is exact for `u64`s
//!   beyond 2^53 and for shortest-round-trip `f64`s alike — the property
//!   the result cache, the `RunSpec` API and the job-server protocol all
//!   rely on for byte-identical round trips.
//! * **The field vocabulary** — every record codec in the workspace builds
//!   its tree with [`obj`], [`num`] and [`arr_u64`] and picks it apart with
//!   the checked readers ([`get_word`], [`get_words`], [`get_str`],
//!   [`get_bool`], [`get_f64`], [`get_arr`], [`get_obj`], [`get_u64_map`],
//!   [`get_opt`] and the value-level [`word_of`] and [`words_of`]; a plain
//!   `u64` is the word kind `u64`). A reader fails with one [`FieldError`]
//!   naming the key; each caller maps it into its own typed error. Every
//!   array reader checks every item, so a record with a stray non-numeric
//!   word is refused rather than read as a shorter one, and [`get_word`]
//!   refuses a value its [`Word`] kind cannot hold instead of truncating
//!   it.
//! * **Snapshot words** — engine and memory state is kept as `u64` words.
//!   A [`Word`] kind says how one typed value maps to its word (`u64`,
//!   `u32`, `u16`, `u8`, `usize`, `bool` as 0 or 1, [`Time`] in
//!   picoseconds, and an index stored plus one with zero for none).
//!   [`word`] and [`words`] write them; [`word_of`], [`get_word`],
//!   [`words_of`] and [`get_words`] read them straight into the typed
//!   value, refusing a word the kind cannot hold. [`get_words_n`] and
//!   [`get_arr_n`] also check the item count ("one per unit"), and
//!   [`records_of`], [`record_of`] and [`cell_of`] read fixed-width records
//!   (flat pairs or quads, one task's words, a `[]`-or-full cell). Event
//!   bodies are read through an [`EventWords`] cursor.
//!
//! # Examples
//!
//! ```
//! use pxl_sim::json::{self, FieldError, FieldProblem, JsonValue};
//!
//! let v = JsonValue::parse(r#"{"name":"uts","pes":[4,8],"ok":true,"big":70000}"#).unwrap();
//! assert_eq!(json::get_str(&v, "name"), Ok("uts"));
//! assert_eq!(json::get_words::<u64>(&v, "pes"), Ok(vec![4, 8]));
//! assert_eq!(json::get_bool(&v, "ok"), Ok(true));
//! assert_eq!(json::get_word::<u32>(&v, "big"), Ok(70_000));
//! assert_eq!(
//!     json::get_word::<u16>(&v, "big"),
//!     Err(FieldError { key: "big", problem: FieldProblem::OutOfRange("u16") })
//! );
//! assert_eq!(json::get_word::<u64>(&v, "gone").unwrap_err().to_string(), "missing field gone");
//! // Rendering is deterministic and round-trips byte-identically.
//! let text = v.to_json();
//! assert_eq!(JsonValue::parse(&text).unwrap(), v);
//! ```

use std::fmt;

use crate::time::Time;

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
///
/// Objects keep their members in *source order* (`Vec`, not a map), so a
/// parse → render cycle is deterministic and byte-preserving for canonical
/// input. Numbers are kept as raw text; use the `as_u64`/`as_i64`/`as_f64`
/// accessors to interpret them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token (e.g. `"-12.5e3"`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: members in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the problem and its byte offset.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// A number value from a `u64`.
    pub fn num_u64(n: u64) -> JsonValue {
        JsonValue::Num(n.to_string())
    }

    /// A number value from an `f64`, written with Rust's shortest
    /// round-trip `Display` (so re-parsing is bit-exact).
    pub fn num_f64(x: f64) -> JsonValue {
        JsonValue::Num(x.to_string())
    }

    /// Object member lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, if it parses exactly as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `i64`, if it parses exactly as one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members in source order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Appends the value's canonical rendering (no whitespace, members in
    /// stored order, numbers as their raw tokens) to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(raw) => out.push_str(raw),
            JsonValue::Str(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The value's canonical rendering as a fresh string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

/// A record field that could not be read: the key and what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The member (or array) the problem is in.
    pub key: &'static str,
    /// What was wrong with it.
    pub problem: FieldProblem,
}

/// What was wrong with a [`FieldError`]'s field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldProblem {
    /// The member is absent.
    Missing,
    /// The member has the wrong JSON type; the payload names the expected
    /// one ("an unsigned integer", "a string", ...).
    NotA(&'static str),
    /// An unsigned integer too large for the named target type.
    OutOfRange(&'static str),
    /// The array holds a non-`u64` item at this index.
    BadItem(usize),
    /// The object holds a non-`u64` value under this member name.
    BadMember(String),
    /// The array holds `found` items where `expected` were due.
    Length {
        /// Items the array holds.
        found: usize,
        /// Items the reader expected.
        expected: usize,
    },
    /// A flat array of fixed-width records holds a word count that is not
    /// a whole number of records.
    Width {
        /// Words the array holds.
        found: usize,
        /// Words per record.
        width: usize,
    },
}

impl FieldError {
    fn new(key: &'static str, problem: FieldProblem) -> FieldError {
        FieldError { key, problem }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = self.key;
        match &self.problem {
            FieldProblem::Missing => write!(f, "missing field {key}"),
            FieldProblem::NotA(what) => write!(f, "field {key:?} is not {what}"),
            FieldProblem::OutOfRange(ty) => write!(f, "field {key:?} is out of range for {ty}"),
            FieldProblem::BadItem(i) => write!(f, "array {key:?} holds a non-u64 at index {i}"),
            FieldProblem::BadMember(name) => {
                write!(f, "member {name:?} of {key:?} is not a u64")
            }
            FieldProblem::Length { found, expected } => {
                write!(f, "array {key:?} holds {found} items, expected {expected}")
            }
            FieldProblem::Width { found, width } => write!(
                f,
                "array {key:?} holds {found} words, not a list of {width}-word records"
            ),
        }
    }
}

impl std::error::Error for FieldError {}

/// The bare message, for decoders that report `String` errors.
impl From<FieldError> for String {
    fn from(err: FieldError) -> String {
        err.to_string()
    }
}

/// An object from `(key, value)` pairs, in the given order.
pub fn obj(members: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// A `u64` rendered exactly (raw decimal token, no f64 round trip).
pub fn num(value: u64) -> JsonValue {
    JsonValue::num_u64(value)
}

/// An array of exact `u64`s.
pub fn arr_u64(values: impl IntoIterator<Item = u64>) -> JsonValue {
    JsonValue::Array(values.into_iter().map(JsonValue::num_u64).collect())
}

/// Member `key` of `value`.
///
/// # Errors
///
/// [`FieldProblem::Missing`] when `value` has no such member.
pub fn get<'a>(value: &'a JsonValue, key: &'static str) -> Result<&'a JsonValue, FieldError> {
    value
        .get(key)
        .ok_or(FieldError::new(key, FieldProblem::Missing))
}

/// Member `key` of `value`, or `None` when it is absent or `null`.
pub fn get_opt<'a>(value: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    value.get(key).filter(|v| !v.is_null())
}

fn read_as<'a, T>(
    value: &'a JsonValue,
    key: &'static str,
    what: &'static str,
    read: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<T, FieldError> {
    read(value).ok_or(FieldError::new(key, FieldProblem::NotA(what)))
}

/// Member `key` of `value` as a string slice.
///
/// # Errors
///
/// A [`FieldError`] naming the missing or mistyped key.
pub fn get_str<'a>(value: &'a JsonValue, key: &'static str) -> Result<&'a str, FieldError> {
    read_as(get(value, key)?, key, "a string", JsonValue::as_str)
}

/// Member `key` of `value` as a boolean.
///
/// # Errors
///
/// A [`FieldError`] naming the missing or mistyped key.
pub fn get_bool(value: &JsonValue, key: &'static str) -> Result<bool, FieldError> {
    read_as(get(value, key)?, key, "a boolean", JsonValue::as_bool)
}

/// Member `key` of `value` as an `f64` (exact for shortest-round-trip
/// renderings).
///
/// # Errors
///
/// A [`FieldError`] naming the missing or mistyped key.
pub fn get_f64(value: &JsonValue, key: &'static str) -> Result<f64, FieldError> {
    read_as(get(value, key)?, key, "a number", JsonValue::as_f64)
}

/// Member `key` of `value` as an array slice.
///
/// # Errors
///
/// A [`FieldError`] naming the missing or mistyped key.
pub fn get_arr<'a>(value: &'a JsonValue, key: &'static str) -> Result<&'a [JsonValue], FieldError> {
    read_as(get(value, key)?, key, "an array", JsonValue::as_array)
}

/// Member `key` of `value` as its members in source order.
///
/// # Errors
///
/// A [`FieldError`] naming the missing or mistyped key.
pub fn get_obj<'a>(
    value: &'a JsonValue,
    key: &'static str,
) -> Result<&'a [(String, JsonValue)], FieldError> {
    read_as(get(value, key)?, key, "an object", JsonValue::as_object)
}

/// Member `key` of `value`, an object of `name: u64` members, as pairs in
/// source order.
///
/// # Errors
///
/// A [`FieldError`] naming the missing or mistyped key or the first member
/// whose value is not a `u64`.
pub fn get_u64_map<'a>(
    value: &'a JsonValue,
    key: &'static str,
) -> Result<Vec<(&'a str, u64)>, FieldError> {
    get_obj(value, key)?
        .iter()
        .map(|(name, v)| {
            v.as_u64()
                .map(|n| (name.as_str(), n))
                .ok_or_else(|| FieldError::new(key, FieldProblem::BadMember(name.clone())))
        })
        .collect()
}

/// How one typed value of a snapshot is kept as a `u64` word.
pub trait Word: Sized {
    /// The kind's name in an out-of-range refusal.
    const KIND: &'static str;

    /// The value's word.
    fn to_word(&self) -> u64;

    /// The value `word` holds, or `None` when the kind cannot hold it.
    fn from_word(word: u64) -> Option<Self>;
}

macro_rules! uint_words {
    ($($ty:ty),*) => {$(
        impl Word for $ty {
            const KIND: &'static str = stringify!($ty);

            #[allow(clippy::unnecessary_cast)]
            fn to_word(&self) -> u64 {
                *self as u64
            }

            fn from_word(word: u64) -> Option<Self> {
                <$ty>::try_from(word).ok()
            }
        }
    )*};
}
uint_words!(u64, u32, u16, u8, usize);

/// A flag: 0 or 1, nothing else.
impl Word for bool {
    const KIND: &'static str = "bool";

    fn to_word(&self) -> u64 {
        u64::from(*self)
    }

    fn from_word(word: u64) -> Option<Self> {
        match word {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// A point in simulated time, in picoseconds.
impl Word for Time {
    const KIND: &'static str = "Time";

    fn to_word(&self) -> u64 {
        self.as_ps()
    }

    fn from_word(word: u64) -> Option<Self> {
        Some(Time::from_ps(word))
    }
}

/// An index stored plus one; zero is none.
impl Word for Option<usize> {
    const KIND: &'static str = "an index plus one";

    fn to_word(&self) -> u64 {
        self.map_or(0, |i| i as u64 + 1)
    }

    fn from_word(word: u64) -> Option<Self> {
        match word.checked_sub(1) {
            None => Some(None),
            Some(i) => usize::try_from(i).ok().map(Some),
        }
    }
}

/// One word.
pub fn word<T: Word>(value: &T) -> JsonValue {
    num(value.to_word())
}

/// An array of words.
pub fn words<'a, T: Word + 'a>(values: impl IntoIterator<Item = &'a T>) -> JsonValue {
    arr_u64(values.into_iter().map(Word::to_word))
}

fn out_of_range<T: Word>(key: &'static str) -> FieldError {
    FieldError::new(key, FieldProblem::OutOfRange(T::KIND))
}

/// `value` (the field `key`) as a word of kind `T`.
///
/// # Errors
///
/// [`FieldProblem::NotA`] unless `value` is an unsigned integer,
/// [`FieldProblem::OutOfRange`] when `T` cannot hold it.
pub fn word_of<T: Word>(value: &JsonValue, key: &'static str) -> Result<T, FieldError> {
    let word = read_as(value, key, "an unsigned integer", JsonValue::as_u64)?;
    T::from_word(word).ok_or_else(|| out_of_range::<T>(key))
}

/// Member `key` of `value` as a word of kind `T`.
///
/// # Errors
///
/// A [`FieldError`] naming the missing, mistyped or out-of-range key.
pub fn get_word<T: Word>(value: &JsonValue, key: &'static str) -> Result<T, FieldError> {
    word_of(get(value, key)?, key)
}

/// `value` (the array field `key`) as words of kind `T`, every item
/// checked.
///
/// # Errors
///
/// [`FieldProblem::NotA`] when `value` is not an array,
/// [`FieldProblem::BadItem`] naming the first item that is not a `u64` and
/// [`FieldProblem::OutOfRange`] when `T` cannot hold an item.
pub fn words_of<T: Word>(value: &JsonValue, key: &'static str) -> Result<Vec<T>, FieldError> {
    read_as(value, key, "an array", JsonValue::as_array)?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let word = v
                .as_u64()
                .ok_or(FieldError::new(key, FieldProblem::BadItem(i)))?;
            T::from_word(word).ok_or_else(|| out_of_range::<T>(key))
        })
        .collect()
}

/// Member `key` of `value` as words of kind `T`.
///
/// # Errors
///
/// As [`words_of`], or [`FieldProblem::Missing`].
pub fn get_words<T: Word>(value: &JsonValue, key: &'static str) -> Result<Vec<T>, FieldError> {
    words_of(get(value, key)?, key)
}

fn check_len(key: &'static str, found: usize, expected: usize) -> Result<(), FieldError> {
    if found == expected {
        Ok(())
    } else {
        Err(FieldError::new(
            key,
            FieldProblem::Length { found, expected },
        ))
    }
}

/// Member `key` of `value` as exactly `n` words of kind `T`: one per unit,
/// per tile or per slot.
///
/// # Errors
///
/// As [`get_words`], or [`FieldProblem::Length`] for any other count.
pub fn get_words_n<T: Word>(
    value: &JsonValue,
    key: &'static str,
    n: usize,
) -> Result<Vec<T>, FieldError> {
    let words = get_words(value, key)?;
    check_len(key, words.len(), n).map(|()| words)
}

/// Member `key` of `value` as an array of exactly `n` items.
///
/// # Errors
///
/// As [`get_arr`], or [`FieldProblem::Length`] for any other count.
pub fn get_arr_n<'a>(
    value: &'a JsonValue,
    key: &'static str,
    n: usize,
) -> Result<&'a [JsonValue], FieldError> {
    let items = get_arr(value, key)?;
    check_len(key, items.len(), n).map(|()| items)
}

/// `value` (the array field `key`) as a flat list of `W`-word records of
/// kind `T`: `[a, b, a, b, ...]` for pairs.
///
/// # Errors
///
/// As [`words_of`], or [`FieldProblem::Width`] when the word count is not
/// a multiple of `W`.
pub fn records_of<T: Word + Copy, const W: usize>(
    value: &JsonValue,
    key: &'static str,
) -> Result<Vec<[T; W]>, FieldError> {
    let words = words_of::<T>(value, key)?;
    if words.len() % W != 0 {
        let problem = FieldProblem::Width {
            found: words.len(),
            width: W,
        };
        return Err(FieldError::new(key, problem));
    }
    Ok(words
        .chunks_exact(W)
        .map(|record| record.try_into().expect("chunks are W words"))
        .collect())
}

/// `value` (an item of the array field `key`) as one record of exactly
/// `W` words of kind `T`.
///
/// # Errors
///
/// As [`words_of`], or [`FieldProblem::Length`] for any other word count.
pub fn record_of<T: Word + Copy, const W: usize>(
    value: &JsonValue,
    key: &'static str,
) -> Result<[T; W], FieldError> {
    let words = words_of::<T>(value, key)?;
    check_len(key, words.len(), W)?;
    Ok(words.try_into().ok().expect("length checked"))
}

/// `value` (an item of the array field `key`) as a cell: `[]` for none,
/// or one record of exactly `W` words of kind `T`.
///
/// # Errors
///
/// As [`record_of`], for a cell that is neither empty nor full.
pub fn cell_of<T: Word + Copy, const W: usize>(
    value: &JsonValue,
    key: &'static str,
) -> Result<Option<[T; W]>, FieldError> {
    match value.as_array() {
        Some([]) => Ok(None),
        _ => record_of(value, key).map(Some),
    }
}

/// `index`, which must lie in `0..bound`: the check every index word of a
/// snapshot makes.
///
/// # Errors
///
/// Names `what`, the index and the range when it does not.
pub fn index_in(index: u64, bound: usize, what: &str) -> Result<usize, String> {
    usize::try_from(index)
        .ok()
        .filter(|&i| i < bound)
        .ok_or_else(|| format!("{what} {index} is out of range 0..{bound}"))
}

/// A cursor over one snapshot event body: a tag word, then the variant's
/// fields, read in order. Reading past the end and [`EventWords::end`]
/// with words left both refuse the body by its tag and length, so a
/// decoder states each field once and never indexes.
///
/// ```
/// use pxl_sim::json::EventWords;
///
/// let mut body = EventWords::new(1, &[3, 200]);
/// assert_eq!(body.tag(), 1);
/// assert_eq!(body.index(4, "unit"), Ok(3));
/// assert_eq!(body.word::<u8>("attempt"), Ok(200));
/// assert!(body.end().is_ok());
///
/// let mut short = EventWords::new(2, &[]);
/// assert_eq!(short.next(), Err("event tag 2 holds 1 words".to_owned()));
/// ```
#[derive(Debug)]
pub struct EventWords<'a> {
    tag: u64,
    words: &'a [u64],
    pos: usize,
}

impl<'a> EventWords<'a> {
    /// A cursor over the fields `words` of an event tagged `tag`.
    pub fn new(tag: u64, words: &'a [u64]) -> Self {
        EventWords { tag, words, pos: 0 }
    }

    /// The tag word.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The refusal of a body of the wrong length, which counts the tag.
    fn wrong_length(&self) -> String {
        let (tag, len) = (self.tag, self.words.len() + 1);
        format!("event tag {tag} holds {len} words")
    }

    /// The next `n` words.
    ///
    /// # Errors
    ///
    /// When fewer than `n` are left.
    pub fn take(&mut self, n: usize) -> Result<&'a [u64], String> {
        let words = self
            .words
            .get(self.pos..self.pos + n)
            .ok_or_else(|| self.wrong_length())?;
        self.pos += n;
        Ok(words)
    }

    /// The next word.
    ///
    /// # Errors
    ///
    /// When none is left.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<u64, String> {
        Ok(self.take(1)?[0])
    }

    /// The next word as kind `T`; `what` names it in a refusal.
    ///
    /// # Errors
    ///
    /// When none is left or `T` cannot hold it.
    pub fn word<T: Word>(&mut self, what: &str) -> Result<T, String> {
        let word = self.next()?;
        T::from_word(word).ok_or_else(|| format!("{what} {word} is out of range for {}", T::KIND))
    }

    /// The next word as an index in `0..bound` (see [`index_in`]).
    ///
    /// # Errors
    ///
    /// When none is left or it is out of range.
    pub fn index(&mut self, bound: usize, what: &str) -> Result<usize, String> {
        index_in(self.next()?, bound, what)
    }

    /// The next word as an index in `0..bound` stored plus one, zero for
    /// none.
    ///
    /// # Errors
    ///
    /// When none is left or the index is out of range.
    pub fn opt_index(&mut self, bound: usize, what: &str) -> Result<Option<usize>, String> {
        match self.next()? {
            0 => Ok(None),
            w => index_in(w - 1, bound, what).map(Some),
        }
    }

    /// Whether every word has been read.
    pub fn is_done(&self) -> bool {
        self.pos == self.words.len()
    }

    /// Ends the body.
    ///
    /// # Errors
    ///
    /// When words are left unread.
    pub fn end(self) -> Result<(), String> {
        if self.is_done() {
            Ok(())
        } else {
            Err(self.wrong_length())
        }
    }
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so an unbounded depth lets one hostile line (say, 100,000 `[`)
/// overflow the stack of whichever thread reads it. Real documents are
/// shallow: engine snapshots nest 9 levels, run specs 3.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|e| JsonError {
                message: format!("object key: {}", e.message),
                ..e
            })?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // writers; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_owned();
        Ok(JsonValue::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let mut s = String::new();
        write_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn values_parse_and_round_trip() {
        let text = r#"{"s":"x\n\"y\"","n":-12.5e3,"big":18446744073709551615,"a":[1,null,true,false],"o":{"inner":{}}}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\n\"y\""));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(-12500.0));
        assert_eq!(v.get("big").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert!(v.get("a").unwrap().as_array().unwrap()[1].is_null());
        // Byte-identical re-render (input is already canonical).
        assert_eq!(v.to_json(), text);
        // And a second parse agrees.
        assert_eq!(JsonValue::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn numbers_keep_raw_text_exactly() {
        // u64 beyond 2^53 and a shortest-round-trip f64 both survive.
        for raw in ["9007199254740993", "0.1", "-2.5e-7", "0"] {
            let v = JsonValue::parse(raw).unwrap();
            assert_eq!(v.to_json(), raw);
        }
        assert_eq!(
            JsonValue::num_f64(0.012345678901234567).as_f64().unwrap(),
            0.012345678901234567
        );
        assert_eq!(JsonValue::num_u64(u64::MAX).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn whitespace_and_nesting_are_tolerated() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.to_json(), r#"{"a":[1,2],"b":{}}"#);
    }

    #[test]
    fn object_member_order_is_preserved() {
        let v = JsonValue::parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "z");
        assert_eq!(members[1].0, "a");
        // get() returns the first member with the key.
        assert_eq!(v.get("z").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn malformed_documents_report_offsets() {
        for (text, expect) in [
            ("", "unexpected end of input"),
            ("{", "object key"),
            ("{\"a\":}", "unexpected character"),
            ("[1,]", "unexpected character"),
            ("[1 2]", "expected ',' or ']'"),
            ("{\"a\":1 \"b\":2}", "expected ',' or '}'"),
            ("\"abc", "unterminated string"),
            ("12.", "expected digits after '.'"),
            ("1e", "expected digits in exponent"),
            ("truth", "expected 'true'"),
            ("{} {}", "trailing characters"),
            ("\"\\q\"", "bad escape"),
            ("\"\\u12\"", "truncated \\u escape"),
        ] {
            let err = JsonValue::parse(text).unwrap_err();
            assert!(
                err.message.contains(expect),
                "{text:?}: got {:?}, wanted {expect:?}",
                err.message
            );
            assert!(err.offset <= text.len());
        }
    }

    #[test]
    fn nesting_is_limited_without_exhausting_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert_eq!(
            err.offset, MAX_DEPTH,
            "points at the first bracket too deep"
        );

        // A hostile line far past the limit fails fast, on a small stack.
        let hostile = "[{\"a\":".repeat(50_000);
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || JsonValue::parse(&hostile).unwrap_err())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(err.offset, MAX_DEPTH / 2 * 6);
    }

    #[test]
    fn writer_output_is_parseable() {
        // Everything write_string emits must be readable back.
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{2} unicode\u{1F600}";
        let mut out = String::new();
        write_string(&mut out, nasty);
        let v = JsonValue::parse(&out).unwrap();
        assert_eq!(v.as_str(), Some(nasty));
    }

    fn record() -> JsonValue {
        obj(vec![
            ("now_ps", num(12_345)),
            ("deque", arr_u64([1, u64::MAX, 3])),
            ("name", JsonValue::Str("pe0".to_owned())),
            ("on", JsonValue::Bool(true)),
            ("rate", JsonValue::num_f64(0.1)),
            ("depths", obj(vec![("a", num(1)), ("b", num(2))])),
            ("none", JsonValue::Null),
        ])
    }

    #[test]
    fn readers_return_typed_values() {
        let v = record();
        assert_eq!(get_word::<u64>(&v, "now_ps"), Ok(12_345));
        assert_eq!(get_word::<u16>(&v, "now_ps"), Ok(12_345u16));
        assert_eq!(get_words::<u64>(&v, "deque"), Ok(vec![1, u64::MAX, 3]));
        assert_eq!(get_str(&v, "name"), Ok("pe0"));
        assert_eq!(get_bool(&v, "on"), Ok(true));
        assert_eq!(get_f64(&v, "rate"), Ok(0.1));
        assert_eq!(get_arr(&v, "deque").unwrap().len(), 3);
        assert_eq!(get_obj(&v, "depths").unwrap().len(), 2);
        assert_eq!(get_u64_map(&v, "depths"), Ok(vec![("a", 1), ("b", 2)]));
        assert!(get_opt(&v, "none").is_none());
        assert!(get_opt(&v, "absent").is_none());
        assert!(get_opt(&v, "name").is_some());
    }

    #[test]
    fn reader_errors_name_the_key() {
        let v = record();
        let err = |key, problem| FieldError { key, problem };
        assert_eq!(
            get_word::<u64>(&v, "nope"),
            Err(err("nope", FieldProblem::Missing))
        );
        assert_eq!(
            get_word::<u64>(&v, "name"),
            Err(err("name", FieldProblem::NotA("an unsigned integer")))
        );
        assert_eq!(
            get_str(&v, "now_ps"),
            Err(err("now_ps", FieldProblem::NotA("a string")))
        );
        assert_eq!(
            get_arr(&v, "now_ps").unwrap_err().to_string(),
            "field \"now_ps\" is not an array"
        );
        assert!(get_bool(&v, "now_ps").is_err());
        assert!(get_f64(&v, "name").is_err());
        assert!(get_obj(&v, "deque").is_err());
        assert_eq!(
            get_word::<u8>(&v, "now_ps").unwrap_err().to_string(),
            "field \"now_ps\" is out of range for u8"
        );
        assert_eq!(
            String::from(err("pe", FieldProblem::Missing)),
            "missing field pe"
        );
        let bad = JsonValue::parse(r#"{"m":{"a":1,"b":"x"}}"#).unwrap();
        assert_eq!(
            get_u64_map(&bad, "m").unwrap_err().to_string(),
            "member \"b\" of \"m\" is not a u64"
        );
    }

    #[test]
    fn narrowing_refuses_instead_of_truncating() {
        let v = JsonValue::parse(r#"{"per_mille":65936,"max":4294967298}"#).unwrap();
        assert_eq!(
            get_word::<u16>(&v, "per_mille"),
            Err(FieldError {
                key: "per_mille",
                problem: FieldProblem::OutOfRange("u16")
            })
        );
        assert!(get_word::<u32>(&v, "max").is_err());
        assert_eq!(get_word::<u64>(&v, "max"), Ok(4_294_967_298));
        let edge = num(u64::from(u32::MAX));
        assert_eq!(word_of::<u32>(&edge, "x"), Ok(u32::MAX));
        assert!(word_of::<u32>(&num(u64::from(u32::MAX) + 1), "x").is_err());
    }

    #[test]
    fn u64_arrays_with_a_stray_item_are_refused_not_shortened() {
        let words = JsonValue::parse(r#"[5,"x",7]"#).unwrap();
        let err = words_of::<u64>(&words, "events").unwrap_err();
        assert_eq!(
            err,
            FieldError {
                key: "events",
                problem: FieldProblem::BadItem(1)
            }
        );
        assert_eq!(
            String::from(err),
            "array \"events\" holds a non-u64 at index 1"
        );
        assert!(words_of::<u64>(&num(5), "events")
            .unwrap_err()
            .to_string()
            .contains("\"events\" is not an array"));
        assert_eq!(
            words_of::<u64>(&arr_u64([5, u64::MAX, 7]), "events").unwrap(),
            [5, u64::MAX, 7]
        );
    }

    /// Each kind at its largest accepted word and one past it.
    #[test]
    fn word_kinds_accept_their_range_and_refuse_one_past_it() {
        fn edge<T: Word + PartialEq + std::fmt::Debug>(max: u64, want: T) {
            assert_eq!(word_of::<T>(&num(max), "w"), Ok(want), "{}", T::KIND);
            if let Some(past) = max.checked_add(1) {
                assert_eq!(
                    word_of::<T>(&num(past), "w").unwrap_err().to_string(),
                    format!("field \"w\" is out of range for {}", T::KIND)
                );
            }
        }
        edge(u64::from(u8::MAX), u8::MAX);
        edge(u64::from(u16::MAX), u16::MAX);
        edge(u64::from(u32::MAX), u32::MAX);
        edge(u64::MAX, u64::MAX);
        edge(u64::MAX, usize::MAX);
        edge(1, true);
        edge(u64::MAX, Time::from_ps(u64::MAX));
        edge(u64::MAX, Some(usize::MAX - 1));
        assert_eq!(word_of::<bool>(&num(0), "w"), Ok(false));
        assert_eq!(word_of::<Option<usize>>(&num(0), "w"), Ok(None));
        // A u64 word one past u64::MAX is no u64 at all.
        let past = JsonValue::parse("18446744073709551616").unwrap();
        assert_eq!(
            word_of::<u64>(&past, "w"),
            Err(FieldError::new(
                "w",
                FieldProblem::NotA("an unsigned integer")
            ))
        );
        // Writers are the readers' inverse.
        for value in [None, Some(0), Some(7)] {
            assert_eq!(word_of::<Option<usize>>(&word(&value), "w"), Ok(value));
        }
        let flags = words(&[true, false]);
        assert_eq!(flags.to_json(), "[1,0]");
        assert_eq!(words_of::<bool>(&flags, "f"), Ok(vec![true, false]));
    }

    #[test]
    fn word_arrays_refuse_by_key() {
        let v = JsonValue::parse(r#"{"a":[1,2,70000],"b":[1,"x"],"c":[1,2,3]}"#).unwrap();
        assert_eq!(get_words::<u32>(&v, "a"), Ok(vec![1, 2, 70_000]));
        assert_eq!(
            get_words::<u16>(&v, "a").unwrap_err().to_string(),
            "field \"a\" is out of range for u16"
        );
        assert_eq!(
            get_words::<u64>(&v, "b"),
            Err(FieldError::new("b", FieldProblem::BadItem(1)))
        );
        assert_eq!(get_words_n::<u64>(&v, "c", 3), Ok(vec![1, 2, 3]));
        assert_eq!(
            get_words_n::<u64>(&v, "c", 4).unwrap_err().to_string(),
            "array \"c\" holds 3 items, expected 4"
        );
        assert_eq!(get_arr_n(&v, "c", 3).map(<[_]>::len), Ok(3));
        assert!(get_arr_n(&v, "c", 2)
            .unwrap_err()
            .to_string()
            .starts_with("array \"c\""));
    }

    #[test]
    fn records_refuse_a_partial_record_by_key() {
        let flat = arr_u64([1, 2, 3, 4]);
        assert_eq!(
            records_of::<u64, 2>(&flat, "pairs"),
            Ok(vec![[1, 2], [3, 4]])
        );
        assert_eq!(records_of::<u64, 4>(&flat, "quads"), Ok(vec![[1, 2, 3, 4]]));
        assert_eq!(
            records_of::<u64, 3>(&flat, "triples")
                .unwrap_err()
                .to_string(),
            "array \"triples\" holds 4 words, not a list of 3-word records"
        );
        assert_eq!(record_of::<u64, 4>(&flat, "task"), Ok([1, 2, 3, 4]));
        assert_eq!(
            record_of::<u64, 2>(&flat, "task"),
            Err(FieldError::new(
                "task",
                FieldProblem::Length {
                    found: 4,
                    expected: 2
                }
            ))
        );
        assert_eq!(cell_of::<u64, 4>(&arr_u64([]), "cell"), Ok(None));
        assert_eq!(cell_of::<u64, 4>(&flat, "cell"), Ok(Some([1, 2, 3, 4])));
        assert!(cell_of::<u64, 3>(&flat, "cell")
            .unwrap_err()
            .to_string()
            .contains("\"cell\""));
        assert_eq!(records_of::<u8, 2>(&arr_u64([5, 6]), "r"), Ok(vec![[5, 6]]));
    }

    #[test]
    fn the_event_cursor_refuses_short_long_and_out_of_range_bodies() {
        // In range: an index, an index plus one, a byte, a task's words.
        let mut c = EventWords::new(7, &[3, 0, 2, 255, 8, 9]);
        assert_eq!(c.tag(), 7);
        assert_eq!(c.index(4, "unit"), Ok(3));
        assert_eq!(c.opt_index(2, "fault spec"), Ok(None));
        assert_eq!(c.opt_index(2, "fault spec"), Ok(Some(1)));
        assert_eq!(c.word::<u8>("attempt"), Ok(255));
        assert!(!c.is_done());
        assert_eq!(c.take(2), Ok(&[8, 9][..]));
        assert!(c.is_done());
        assert_eq!(c.end(), Ok(()));
        // Out of range.
        let refuse = |words: &[u64], read: &dyn Fn(&mut EventWords) -> Result<usize, String>| {
            read(&mut EventWords::new(words[0], &words[1..])).unwrap_err()
        };
        assert_eq!(
            refuse(&[0, 4], &|c| c.index(4, "unit")),
            "unit 4 is out of range 0..4"
        );
        assert_eq!(
            refuse(&[0, 3], &|c| c.opt_index(2, "fault spec").map(|_| 0)),
            "fault spec 2 is out of range 0..2"
        );
        assert_eq!(
            refuse(&[6, 256], &|c| c.word::<u8>("attempt").map(usize::from)),
            "attempt 256 is out of range for u8"
        );
        assert_eq!(
            refuse(&[0, u64::MAX], &|c| c.index(usize::MAX, "unit")),
            format!("unit {} is out of range 0..{}", u64::MAX, usize::MAX)
        );
        // Short and long.
        assert_eq!(
            refuse(&[2], &|c| c.index(4, "unit")),
            "event tag 2 holds 1 words"
        );
        assert_eq!(
            refuse(&[4, 1, 2], &|c| c.take(3).map(<[u64]>::len)),
            "event tag 4 holds 3 words"
        );
        let mut long = EventWords::new(5, &[0, 0]);
        long.index(2, "fault spec").unwrap();
        assert_eq!(long.end(), Err("event tag 5 holds 3 words".to_owned()));
    }
}
