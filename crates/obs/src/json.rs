//! A minimal JSON value, writer and parser.
//!
//! This module is the workspace's whole serialization layer: a value
//! enum, `From` conversions, one writer with a pretty and a compact
//! layout, and a small recursive descent parser (used by the trace
//! schema tests and the trace explorer's round trip). It exists so the
//! workspace carries no external serialization dependency. It began life
//! in `wadc-bench` for the figure archives and moved here when the trace
//! exporters needed it; `wadc_bench::json` re-exports it unchanged.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be populated with [`Json::field`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds a key to an object, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline, the
    /// layout the figure archives have always used.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on a single line with no indentation — the form used for
    /// JSONL streams and large trace files.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// Parses a JSON document. Accepts exactly one value surrounded by
    /// optional whitespace; returns a description of the first error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Renders into `out`: `Some(depth)` pretty-prints a value nested
    /// `depth` levels deep, `None` renders compactly.
    fn render(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|depth| depth + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Display of f64 is the shortest exact round-trip form.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, inner);
                    item.render(out, inner);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, inner);
                    escape_into(key, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.render(out, inner);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Starts a new line indented `depth` levels when pretty-printing
/// (`Some(depth)`); writes nothing when compact.
fn newline_indent(out: &mut String, indent: Option<usize>) {
    let Some(depth) = indent else { return };
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn escape_into(s: &str, out: &mut String) {
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
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
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogates decode to the replacement char;
                            // the exporters never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| "invalid utf-8")?;
                    let c = s.chars().next().ok_or("unexpected end of string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
from_int!(i32, i64, u32, u64, usize);

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Json>> From<&[T]> for Json {
    fn from(items: &[T]) -> Json {
        Json::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structure() {
        let v = Json::obj()
            .field("figure", 2)
            .field("pair", vec!["a", "b"])
            .field("series", vec![1.5, 2.0])
            .field("summary", Json::obj().field("mean", 1.75));
        let text = v.to_string_pretty();
        assert!(text.starts_with("{\n  \"figure\": 2,"));
        assert!(text.contains("\"pair\": [\n    \"a\",\n    \"b\"\n  ]"));
        assert!(text.contains("\"summary\": {\n    \"mean\": 1.75\n  }"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::from(300usize).to_string_pretty(), "300\n");
        assert_eq!(Json::from(2.5).to_string_pretty(), "2.5\n");
    }

    #[test]
    fn round_trip_precision() {
        // Display of f64 is its shortest exact form, so every finite double
        // survives either layout and the parser bit for bit — the property
        // a bandwidth trace relies on to round-trip through JSON.
        let mut values = vec![
            0.1 + 0.2,
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal
        ];
        for k in 0..=53 {
            let p = 1u64 << k;
            values.extend([p - 1, p].map(|n| n as f64));
        }
        let mut rng = wadc_sim::rng::Rng64::seed_from_u64(0x6a73_6f6e);
        for _ in 0..2_000 {
            values.push(rng.range_u64(0, 1 << 53) as f64);
            // Clearing the exponent bits keeps sign and mantissa: a
            // subnormal (or a signed zero).
            values.push(f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff));
        }
        while values.len() < 20_000 {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                values.push(x);
            }
        }
        let doc = Json::Arr(values.iter().map(|&x| Json::Num(x)).collect());
        for text in [doc.to_string_pretty(), doc.to_string_compact()] {
            let parsed = Json::parse(&text).expect("the writer's output parses");
            let back = parsed.as_arr().expect("an array");
            assert_eq!(back.len(), values.len());
            for (x, y) in values.iter().zip(back) {
                let y = y.as_num().expect("a number");
                assert_eq!(y.to_bits(), x.to_bits(), "{x:e} came back as {y:e}");
            }
        }
    }

    #[test]
    fn escapes_strings() {
        let v = Json::from("a\"b\\c\nd");
        assert_eq!(v.to_string_pretty(), "\"a\\\"b\\\\c\\nd\"\n");
    }

    #[test]
    fn non_finite_is_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_pretty(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).to_string_pretty(), "null\n");
    }

    #[test]
    fn empty_containers_stay_compact() {
        assert_eq!(Json::obj().to_string_pretty(), "{}\n");
        assert_eq!(Json::Arr(vec![]).to_string_pretty(), "[]\n");
    }

    #[test]
    fn compact_is_single_line_and_parses_back() {
        let v = Json::obj()
            .field("a", vec![1, 2])
            .field("b", Json::obj().field("c", "x\ny"));
        let text = v.to_string_compact();
        assert!(!text.contains('\n') || text.contains("\\n"));
        assert_eq!(text, "{\"a\":[1,2],\"b\":{\"c\":\"x\\ny\"}}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj()
            .field("name", "trace \"x\"\n")
            .field("n", 42)
            .field("pi", 3.25)
            .field("neg", -1.5e-3)
            .field("ok", true)
            .field("none", Json::Null)
            .field("items", vec![1, 2, 3])
            .field("nested", Json::obj().field("empty", Json::Arr(vec![])));
        let parsed = Json::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_accepts_compact_and_padded_forms() {
        let v = Json::parse(" {\"a\":[1,2],\"b\":{} } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::obj()));
    }

    #[test]
    fn parse_unicode_escapes() {
        let v = Json::parse("\"a\\u00e9b\"").unwrap();
        assert_eq!(v.as_str(), Some("aéb"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nulL").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::obj().field("k", 7).field("s", "x");
        assert_eq!(v.get("k").and_then(Json::as_num), Some(7.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }
}
