//! Minimal hand-rolled JSON reader for report parse-back.
//!
//! The workspace deliberately has no serialization dependency: every
//! writer ([`crate::Report::json`], `HostProfile::to_json`,
//! `write_bench_report`) emits JSON by hand, and this module is the
//! matching reader — a recursive-descent parser over the full JSON value
//! grammar (objects, arrays, strings with escapes, numbers, literals),
//! promoted from the validator the causal-span tests introduced. The
//! cross-run archive and the report-diff engine are built on it: a report
//! that parses here is by construction structurally valid JSON.
//!
//! Numbers are held as `f64`. Every integer the simulator reports (cycle
//! counts bounded by the 2×10⁹-cycle watchdog, instruction and message
//! counters) is far below 2⁵³, so integer round-trips are exact.
//!
//! Nesting is capped at `MAX_DEPTH` arrays/objects: the parser recurses
//! once per level, so an unbounded input (say 200 000 `[`) would otherwise
//! overflow the stack and abort the process instead of returning an error.

/// Deepest array/object nesting [`parse`] accepts. The simulator's own
/// reports nest a handful of levels deep.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys keep their original order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in key order of appearance.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member of an object by key (`None` for other variants or a missing
    /// key).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative whole
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as key/value pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Required object member, as a parse-back error when absent.
    pub fn req(&self, key: &str) -> Result<&JsonValue, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing key {key:?}"), 0))
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl JsonError {
    /// An error at an explicit byte offset (0 for semantic errors raised
    /// after parsing).
    pub fn new_at(msg: impl Into<String>, at: usize) -> JsonError {
        JsonError::new(msg, at)
    }

    fn new(msg: impl Into<String>, at: usize) -> JsonError {
        JsonError {
            msg: msg.into(),
            at,
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    let v = parse_value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(JsonError::new("trailing garbage", pos));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`; `depth` counts the arrays/objects enclosing it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    match b.get(*pos) {
        None => Err(JsonError::new("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(JsonError::new("nesting too deep", *pos)),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(JsonError::new("expected ':'", *pos));
                }
                *pos += 1;
                skip_ws(b, pos);
                let val = parse_value(b, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    _ => return Err(JsonError::new("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                skip_ws(b, pos);
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(JsonError::new("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => expect_lit(b, pos, b"true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect_lit(b, pos, b"false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => expect_lit(b, pos, b"null").map(|()| JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(b, pos),
        Some(&c) => Err(JsonError::new(format!("unexpected byte {c:#04x}"), *pos)),
    }
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), JsonError> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError::new(
            format!("expected {:?}", std::str::from_utf8(lit).unwrap()),
            *pos,
        ))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if b.get(*pos) != Some(&b'"') {
        return Err(JsonError::new("expected '\"'", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        if *pos + 4 >= b.len()
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(JsonError::new("bad \\u escape", *pos));
                        }
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5]).unwrap();
                        let code = u32::from_str_radix(hex, 16).unwrap();
                        // Surrogate pairs never appear in the simulator's
                        // own output; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(JsonError::new("bad escape", *pos)),
                }
                *pos += 1;
            }
            c if c < 0x20 => return Err(JsonError::new("raw control byte in string", *pos)),
            _ => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries are
                // valid).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && b[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).unwrap());
            }
        }
    }
    Err(JsonError::new("unterminated string", *pos))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap();
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| JsonError::new(format!("bad number {text:?}"), start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_value_grammar() {
        let v =
            parse(r#"{"a":1,"b":[true,false,null,"x\n\"yA"],"c":{"d":-2.5e3},"e":0.25}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_u64), Some(1));
        let arr = v.get("b").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert!(arr[2].is_null());
        assert_eq!(arr[3].as_str(), Some("x\n\"yA"));
        assert_eq!(
            v.get("c").unwrap().get("d").and_then(JsonValue::as_f64),
            Some(-2500.0)
        );
        assert_eq!(v.get("e").and_then(JsonValue::as_f64), Some(0.25));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\"1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":}",
            "[,]",
            "01x",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_round_trip_exactly() {
        let v = parse("[2000000000,9007199254740992,0]").unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(2_000_000_000));
        assert_eq!(arr[1].as_f64(), Some(9007199254740992.0));
        assert_eq!(arr[2].as_u64(), Some(0));
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
        assert_eq!(err.at, MAX_DEPTH);
        let objs = "{\"a\":".repeat(200_000);
        assert_eq!(parse(&objs).unwrap_err().msg, "nesting too deep");
        // Exactly at the cap still parses; one level more does not.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let mut v = &parse(&at_cap).unwrap();
        for _ in 1..MAX_DEPTH {
            v = &v.as_arr().unwrap()[0];
        }
        assert_eq!(v.as_arr().map(<[JsonValue]>::len), Some(0));
        let over = format!("[{at_cap}]");
        assert_eq!(parse(&over).unwrap_err().msg, "nesting too deep");
    }

    #[test]
    fn key_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }
}
