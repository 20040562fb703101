//! A minimal self-contained JSON value, writer and parser, plus the
//! workspace's one JSON string escaper, [`push_json_str`].
//!
//! The exporter writes snapshots and the CI stage re-reads them for
//! schema validation; the build environment is offline, so both ends
//! are hand-rolled here (insertion-ordered objects, 2-space pretty
//! printing). The parser is a bounded recursive-descent reader over the
//! byte slice: depth-limited by [`MAX_JSON_DEPTH`], position-indexed
//! via `get`, and total — malformed input yields a typed [`JsonError`],
//! never a panic.

use std::fmt::Write as _;

/// Maximum nesting depth the writer emits and the parser accepts. The
/// snapshot schema needs 4; the bound exists so corrupt input cannot
/// recurse the stack away.
pub const MAX_JSON_DEPTH: usize = 40;

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers survive to ±2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// An empty array.
    pub fn arr() -> Value {
        Value::Arr(Vec::new())
    }

    /// Insert (or append) a key into an object; no-op on non-objects.
    pub fn insert(&mut self, key: &str, val: Value) {
        if let Value::Obj(pairs) = self {
            pairs.push((key.to_string(), val));
        }
    }

    /// Append an element to an array; no-op on non-arrays.
    pub fn push(&mut self, val: Value) {
        if let Value::Arr(items) = self {
            items.push(val);
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        if let Value::Obj(pairs) = self {
            pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        } else {
            None
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        if let Value::Str(s) = self {
            Some(s)
        } else {
            None
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        if let Value::Num(n) = self {
            Some(*n)
        } else {
            None
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        if let Value::Arr(items) = self {
            Some(items)
        } else {
            None
        }
    }

    /// Render as pretty-printed JSON (2-space indent, `\n` line ends,
    /// trailing newline).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out.push('\n');
        out
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

fn write_value(out: &mut String, v: &Value, depth: usize) {
    if depth > MAX_JSON_DEPTH {
        // Truncate pathological trees instead of recursing without
        // bound; the snapshot schema never comes close to this.
        out.push_str("null");
        return;
    }
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(out, *n),
        Value::Str(s) => push_json_str(out, s),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, depth + 1);
                write_value(out, item, depth + 1);
            }
            out.push('\n');
            push_indent(out, depth);
            out.push(']');
        }
        Value::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, depth + 1);
                push_json_str(out, k);
                out.push_str(": ");
                write_value(out, val, depth + 1);
            }
            out.push('\n');
            push_indent(out, depth);
            out.push('}');
        }
    }
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth.min(MAX_JSON_DEPTH + 1) {
        out.push_str("  ");
    }
}

/// Integers in the f64-exact range print without a decimal point.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Append `s` as a JSON string literal (quotes included), escaping
/// quotes, backslashes and control bytes. Unescaped runs are copied
/// whole. [`Value`]'s printer, the mx-lint reports and the mx-serve
/// response bodies all escape through this one table.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escaped bytes are ASCII, so `run..i` lies on char boundaries.
        out.push_str(s.get(run..i).unwrap_or_default());
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
    out.push('"');
}

/// Why a parse failed, with the byte offset where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonError {
    /// Input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue the expected construct.
    UnexpectedByte {
        /// Byte offset of the offender.
        at: usize,
    },
    /// Nesting exceeded [`MAX_JSON_DEPTH`].
    TooDeep {
        /// Byte offset where the limit was hit.
        at: usize,
    },
    /// A number literal did not parse.
    BadNumber {
        /// Byte offset of the literal start.
        at: usize,
    },
    /// An unknown `\` escape inside a string.
    BadEscape {
        /// Byte offset of the escape.
        at: usize,
    },
    /// Non-whitespace bytes after the top-level value.
    TrailingData {
        /// Byte offset of the first trailing byte.
        at: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::UnexpectedEnd => write!(f, "unexpected end of input"),
            JsonError::UnexpectedByte { at } => write!(f, "unexpected byte at offset {at}"),
            JsonError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_JSON_DEPTH} at offset {at}")
            }
            JsonError::BadNumber { at } => write!(f, "malformed number at offset {at}"),
            JsonError::BadEscape { at } => write!(f, "bad string escape at offset {at}"),
            JsonError::TrailingData { at } => write!(f, "trailing data at offset {at}"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document. Total: every malformed input maps to a
/// [`JsonError`].
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let mut p = Parser { src, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos < p.src.len() {
        return Err(JsonError::TrailingData { at: p.pos });
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| b == b' ' || b == b'\n' || b == b'\r' || b == b'\t')
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(x) if x == b => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(JsonError::UnexpectedByte { at: self.pos }),
            None => Err(JsonError::UnexpectedEnd),
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self
            .src
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit))
        {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(JsonError::UnexpectedByte { at: self.pos })
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_JSON_DEPTH {
            return Err(JsonError::TooDeep { at: self.pos });
        }
        match self.peek() {
            None => Err(JsonError::UnexpectedEnd),
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                // Each pass consumes at least one value, so the loop is
                // bounded by the input length via `self.pos`.
                while self.pos <= self.src.len() {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        Some(_) => return Err(JsonError::UnexpectedByte { at: self.pos }),
                        None => return Err(JsonError::UnexpectedEnd),
                    }
                }
                Err(JsonError::UnexpectedEnd)
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                while self.pos <= self.src.len() {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(pairs));
                        }
                        Some(_) => return Err(JsonError::UnexpectedByte { at: self.pos }),
                        None => return Err(JsonError::UnexpectedEnd),
                    }
                }
                Err(JsonError::UnexpectedEnd)
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(JsonError::UnexpectedByte { at: self.pos }),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'-' || b == b'+' || b == b'.' || b == b'e' || b == b'E'
        }) {
            self.pos += 1;
        }
        self.src
            .get(start..self.pos)
            .and_then(|lit| lit.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or(JsonError::BadNumber { at: start })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        let mut run_start = self.pos;
        // Scans byte-by-byte; `"` and `\` are ASCII, so UTF-8
        // continuation bytes (high bit set) pass through in the raw
        // runs copied below. Bounded by the input length via
        // `self.pos`.
        while self.pos < self.src.len() {
            match self.peek() {
                Some(b'"') => {
                    if let Some(run) = self.src.get(run_start..self.pos) {
                        out.push_str(run);
                    }
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    if let Some(run) = self.src.get(run_start..self.pos) {
                        out.push_str(run);
                    }
                    let esc_at = self.pos;
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self.src.get(self.pos + 1..self.pos + 5);
                            let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = code else {
                                return Err(JsonError::BadEscape { at: esc_at });
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::BadEscape { at: esc_at }),
                    }
                    self.pos += 1;
                    run_start = self.pos;
                }
                Some(_) => self.pos += 1,
                None => return Err(JsonError::UnexpectedEnd),
            }
        }
        Err(JsonError::UnexpectedEnd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_snapshot_shapes() {
        let mut root = Value::obj();
        root.insert("schema", "mx-obs/1".into());
        let mut m = Value::obj();
        m.insert("name", "dns.queries".into());
        m.insert("value", 42u64.into());
        let mut arr = Value::arr();
        arr.push(m);
        root.insert("metrics", arr);
        let text = root.to_string_pretty();
        let back = parse(&text).expect("own output parses");
        assert_eq!(back, root);
        assert_eq!(
            back.get("metrics")
                .and_then(|a| a.as_arr())
                .and_then(|a| a.first())
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_num()),
            Some(42.0)
        );
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{0007}f".into());
        let text = v.to_string_pretty();
        assert_eq!(parse(&text).expect("parses"), v);
        // \u and the two-char escapes parse from foreign input too.
        assert_eq!(
            parse("\"x\\u0041\\/y\"").expect("parses"),
            Value::Str("xA/y".into())
        );
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::from(7u64).to_string_pretty(), "7\n");
        assert_eq!(Value::from(0.5).to_string_pretty(), "0.5\n");
    }

    #[test]
    fn non_finite_numbers_print_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Num(n).to_string_pretty(), "null\n");
        }
    }

    #[test]
    fn pretty_output_shape() {
        let mut inner = Value::obj();
        inner.insert("items", Value::arr());
        inner.insert("empty", Value::obj());
        let mut root = Value::obj();
        root.insert("name", "a\"b".into());
        root.insert("share", 0.5.into());
        let mut arr = Value::arr();
        arr.push(inner);
        root.insert("rows", arr);
        assert_eq!(
            root.to_string_pretty(),
            "{\n  \"name\": \"a\\\"b\",\n  \"share\": 0.5,\n  \"rows\": [\n    {\n      \
             \"items\": [],\n      \"empty\": {}\n    }\n  ]\n}\n"
        );
    }

    fn json_str(s: &str) -> String {
        let mut out = String::new();
        push_json_str(&mut out, s);
        out
    }

    /// The escape table, byte for byte, against the char-at-a-time
    /// form it replaced.
    #[test]
    fn escapes_match_char_walk() {
        let all: String = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain("\u{7f}é✓\u{1F600}".chars())
            .collect();
        let mut want = String::from("\"");
        for c in all.chars() {
            match c {
                '"' => want.push_str("\\\""),
                '\\' => want.push_str("\\\\"),
                '\n' => want.push_str("\\n"),
                '\r' => want.push_str("\\r"),
                '\t' => want.push_str("\\t"),
                c if (c as u32) < 0x20 => want.push_str(&format!("\\u{:04x}", c as u32)),
                c => want.push(c),
            }
        }
        want.push('"');
        assert_eq!(json_str(&all), want);
        assert_eq!(json_str(""), "\"\"");
    }

    #[test]
    fn malformed_inputs_yield_typed_errors() {
        assert_eq!(parse(""), Err(JsonError::UnexpectedEnd));
        assert_eq!(parse("{\"a\": "), Err(JsonError::UnexpectedEnd));
        assert_eq!(parse("[1,]"), Err(JsonError::UnexpectedByte { at: 3 }));
        assert_eq!(parse("1 2"), Err(JsonError::TrailingData { at: 2 }));
        assert_eq!(parse("\"\\q\""), Err(JsonError::BadEscape { at: 1 }));
        assert!(matches!(parse("nul"), Err(JsonError::UnexpectedByte { .. })));
        // Deep nesting is rejected, not stack-overflowed.
        let deep = "[".repeat(MAX_JSON_DEPTH + 2);
        assert!(matches!(parse(&deep), Err(JsonError::TooDeep { .. })));
    }

    #[test]
    fn unicode_passthrough() {
        let v = Value::Str("héllo — ünïcode".into());
        assert_eq!(parse(&v.to_string_pretty()).expect("parses"), v);
    }
}
