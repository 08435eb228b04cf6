//! The vendored JSON parser and writer against simple references.
//!
//! 1. **Strings decode like a char-at-a-time reference.** Seeded
//!    documents mix 1–4-byte UTF-8, raw control characters, every escape
//!    form including surrogate pairs, and quotes or backslashes at the
//!    edges of unescaped runs; a few carry a malformed escape. `parse`
//!    must return exactly what the reference decoder below returns, and
//!    reject exactly what it rejects.
//! 2. **Truncation never parses.** Every proper prefix of a compact
//!    document whose top level is an object errors, without panicking.
//! 3. **Rendering is unchanged.** `to_string` of numbers and strings is
//!    byte-identical to a `format!`-per-value renderer: ±0.0, integral
//!    floats around 1e15, subnormals, `i64::MIN`/`MAX`, inf/nan, and
//!    random bit patterns.

use serde_json::Value;

/// SplitMix64: a small seeded generator, so every run sees the same inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const PLAIN: &[&str] = &[
    "a", "Z", "0", " ", "/", "'", "{", "]", ":", ",", "é", "ß", "ж", "€", "中", "ह", "😀", "𝄞",
];
const ESCAPES: &[&str] = &[
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\n",
    "\\r",
    "\\t",
    "\\u0041",
    "\\u00e9",
    "\\u20AC",
    "\\u0000",
    "\\u001f",
    "\\uFFFD",
    "\\ud83d\\ude00",
    "\\uD834\\uDD1E",
    "\\udbff\\udfff",
];
const MALFORMED: &[&str] = &[
    "\\x",
    "\\u12",
    "\\u12G4",
    "\\ud800",
    "\\ud800x",
    "\\udc00",
    "\\ud83d\\u0041",
    "\\ud83d\\n",
    "\\",
];

/// One string literal's body (between the quotes). `malformed` lets a
/// few pieces be broken escapes.
fn literal_body(rng: &mut Rng, malformed: bool) -> String {
    let mut s = String::new();
    for _ in 0..rng.below(24) {
        match rng.below(10) {
            0..=3 => s.push_str(rng.pick(PLAIN)),
            4 => {
                let run = rng.below(40);
                s.extend(std::iter::repeat_n('r', run));
            }
            5 => s.push(char::from(rng.below(0x20) as u8)),
            6..=8 => s.push_str(rng.pick(ESCAPES)),
            _ if malformed => s.push_str(rng.pick(MALFORMED)),
            _ => s.push_str("\\u0022"),
        }
    }
    s
}

/// Reads four hex digits of a `\u` escape.
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut code = 0;
    for _ in 0..4 {
        code = code * 16 + chars.next()?.to_digit(16)?;
    }
    Some(code)
}

/// Reference decoder for one string literal, one char at a time; the
/// opening quote is already consumed. `None` marks a rejected literal.
fn decode_literal(chars: &mut std::str::Chars<'_>) -> Option<String> {
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hi = hex4(chars)?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        if chars.next()? != '\\' || chars.next()? != 'u' {
                            return None;
                        }
                        let lo = hex4(chars)?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return None;
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// Reference decoder for a compact array of string literals.
fn decode_array(doc: &str) -> Option<Vec<String>> {
    let mut chars = doc.chars();
    let mut items = Vec::new();
    if chars.next()? != '[' {
        return None;
    }
    if chars.as_str() == "]" {
        return Some(items);
    }
    loop {
        if chars.next()? != '"' {
            return None;
        }
        items.push(decode_literal(&mut chars)?);
        match chars.next()? {
            ',' => {}
            ']' if chars.as_str().is_empty() => return Some(items),
            _ => return None,
        }
    }
}

#[test]
fn strings_decode_like_a_char_at_a_time_reference() {
    let mut rng = Rng(0x5EED_0001);
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..3000 {
        let malformed = rng.below(4) == 0;
        let literals: Vec<String> = (0..rng.below(4))
            .map(|_| format!("\"{}\"", literal_body(&mut rng, malformed)))
            .collect();
        let doc = format!("[{}]", literals.join(","));
        let parsed = serde_json::parse(&doc);
        match decode_array(&doc) {
            Some(items) => {
                let expected = Value::Arr(items.into_iter().map(Value::Str).collect());
                assert_eq!(parsed, Ok(expected), "document {doc:?}");
                accepted += 1;
            }
            None => {
                assert!(parsed.is_err(), "accepted {doc:?} as {parsed:?}");
                rejected += 1;
            }
        }
    }
    assert!(accepted > 2000 && rejected > 100, "{accepted} / {rejected}");
}

fn random_value(rng: &mut Rng, depth: usize) -> Value {
    match rng.below(if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(rng.next() as i64 >> rng.below(64)),
        3 => Value::Float(rng.below(1 << 20) as f64 / 64.0 - 4096.0),
        4 => Value::Str(
            decode_literal(&mut format!("{}\"", literal_body(rng, false)).chars()).unwrap(),
        ),
        5 => Value::Arr(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => random_object(rng, depth - 1),
    }
}

fn random_object(rng: &mut Rng, depth: usize) -> Value {
    Value::Obj(
        (0..rng.below(4))
            .map(|i| (format!("k{i}\n€"), random_value(rng, depth)))
            .collect(),
    )
}

#[test]
fn every_truncated_prefix_errors() {
    let mut rng = Rng(0x5EED_0002);
    for _ in 0..48 {
        let value = random_object(&mut rng, 3);
        let doc = serde_json::to_string(&value).unwrap();
        assert_eq!(serde_json::parse(&doc).as_ref(), Ok(&value), "{doc:?}");
        for (cut, _) in doc.char_indices() {
            let prefix = &doc[..cut];
            assert!(serde_json::parse(prefix).is_err(), "accepted {prefix:?}");
        }
    }
}

/// The number and string rendering as it was when every value went
/// through its own `format!` temporary.
fn reference_render(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_nan() => "\"nan\"".to_string(),
        Value::Float(f) if f.is_infinite() => {
            if *f > 0.0 { "\"inf\"" } else { "\"-inf\"" }.to_string()
        }
        Value::Float(f) if *f == f.trunc() && f.abs() < 1e15 => format!("{f:.1}"),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => {
            let mut out = String::from('"');
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
        other => panic!("not a scalar: {other:?}"),
    }
}

#[test]
fn numbers_and_strings_render_as_before() {
    let floats = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        0.1 + 0.2,
        1.0 / 3.0,
        999_999_999_999_999.0,
        999_999_999_999_999.5,
        1e15 - 1.0,
        1e15,
        -1e15,
        1e15 + 1.0,
        1e16,
        4_503_599_627_370_496.0,
        9_007_199_254_740_992.0,
        1e21,
        1e300,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        5e-324,
        -5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let ints = [
        0,
        1,
        -1,
        10,
        -10,
        i64::MAX,
        i64::MIN,
        i64::MAX - 1,
        i64::MIN + 1,
    ];
    let mut values: Vec<Value> = floats.iter().map(|&f| Value::Float(f)).collect();
    values.extend(ints.iter().map(|&i| Value::Int(i)));
    let mut rng = Rng(0x5EED_0003);
    for _ in 0..4000 {
        values.push(Value::Float(f64::from_bits(rng.next())));
        values.push(Value::Int(rng.next() as i64 >> rng.below(64)));
    }
    values.extend((0u8..0x80).map(|b| Value::Str(format!("{}x{}", b as char, b as char))));
    for _ in 0..500 {
        let body = literal_body(&mut rng, false);
        values.push(Value::Str(
            decode_literal(&mut format!("{body}\"").chars()).unwrap(),
        ));
    }
    for v in &values {
        assert_eq!(
            serde_json::to_string(v).unwrap(),
            reference_render(v),
            "{v:?}"
        );
    }
    // The same bytes inside a container, where values share one buffer.
    let all = Value::Arr(values.clone());
    let joined: Vec<String> = values.iter().map(reference_render).collect();
    assert_eq!(
        serde_json::to_string(&all).unwrap(),
        format!("[{}]", joined.join(","))
    );
}
