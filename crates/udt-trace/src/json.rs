//! Hand-rolled JSONL / CSV codec for trace events, and the workspace's
//! JSON value parser.
//!
//! One flat JSON object per line, no external dependencies. The `"ev"`
//! field names the variant; every other field is a scalar (or, for the
//! CPU breakdown, an array of integers). [`parse_line`] is the inverse of
//! [`encode`] — the *shared parser* that the netsim, real-socket and
//! linkemu exporters are all validated against. Underneath it sits
//! [`parse`], a general (nested, linear-time) JSON reader that
//! `bench regress` also uses for the `BENCH_*.json` artifacts.

// The two float→integer casts below are integral- and range-checked at the
// cast sites (tolerating numbers an external tool re-serialised as floats).
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use crate::event::{EventKind, TraceEvent};

/// Encode one event as a single-line JSON object (no trailing newline).
pub fn encode(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(128);
    s.push_str("{\"t_ns\":");
    push_u64(&mut s, ev.t_ns);
    s.push_str(",\"conn\":");
    push_u64(&mut s, u64::from(ev.conn));
    s.push_str(",\"ev\":\"");
    s.push_str(ev.kind.name());
    s.push('"');
    ev.kind.write_fields(&mut s, false);
    s.push('}');
    s
}

/// The CSV header matching [`to_csv_row`].
pub const CSV_HEADER: &str = "t_ns,conn,ev,detail";

/// Encode one event as a CSV row: fixed `t_ns,conn,ev` columns plus a
/// `detail` column of space-separated `key=value` pairs, the JSON fields in
/// the same order (both are written from the one schema table).
pub fn to_csv_row(ev: &TraceEvent) -> String {
    let mut detail = String::new();
    ev.kind.write_fields(&mut detail, true);
    format!("{},{},{},{}", ev.t_ns, ev.conn, ev.kind.name(), detail)
}

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A non-negative integer that fits `u64` (written without `.`/`e`).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as `(key, value)` pairs in document order.
    Obj(Vec<(String, Value)>),
    /// `null`.
    Null,
}

impl Value {
    /// Unsigned view. Tolerates integral floats (numbers an external tool
    /// re-serialised).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f < 1.8e19 => Some(*f as u64),
            _ => None,
        }
    }

    /// Numeric view: integers and floats unify to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::UInt(u) => Some(*u as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array items.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render as compact single-line JSON — what [`parse`] reads back
    /// (non-finite floats render as 0, like the event encoder's).
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(256);
        self.render_into(&mut s);
        s
    }

    pub(crate) fn render_into(&self, s: &mut String) {
        let mut sep = "";
        match self {
            Value::UInt(u) => push_u64(s, *u),
            Value::Float(f) if f.is_finite() => s.push_str(&f.to_string()),
            Value::Float(_) => s.push('0'),
            Value::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Value::Str(text) => push_str_escaped(s, text),
            Value::Null => s.push_str("null"),
            Value::Arr(items) => {
                s.push('[');
                for item in items {
                    s.push_str(sep);
                    item.render_into(s);
                    sep = ",";
                }
                s.push(']');
            }
            Value::Obj(fields) => {
                s.push('{');
                for (k, v) in fields {
                    s.push_str(sep);
                    push_str_escaped(s, k);
                    s.push(':');
                    v.render_into(s);
                    sep = ",";
                }
                s.push('}');
            }
        }
    }
}

/// Parse one JSONL line back into a [`TraceEvent`].
///
/// Returns `Err` with a short description when the line is not a valid
/// event. This is the shared schema validator used by the integration
/// tests: netsim and real-socket exports must both survive it.
pub fn parse_line(line: &str) -> Result<TraceEvent, String> {
    let obj = parse(line)?;
    if !matches!(obj, Value::Obj(_)) {
        return Err("not a JSON object".into());
    }
    let get = |name: &str| obj.get(name);
    let t_ns = get("t_ns").and_then(Value::as_u64).ok_or("missing t_ns")?;
    let conn = get("conn")
        .and_then(Value::as_u64)
        .and_then(|c| u32::try_from(c).ok())
        .ok_or("missing conn")?;
    let name = get("ev").and_then(Value::as_str).ok_or("missing ev")?;

    let kind = EventKind::read(name, &obj)?;
    Ok(TraceEvent { t_ns, conn, kind })
}

// ---- JSON value parsing ----

/// Parse one JSON document. Linear in the input: every byte is looked at
/// once, and strings are copied out in runs rather than a character at a
/// time.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", char::from(c), self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece; the
            // input is a `&str` and both delimiters are ASCII, so the run
            // is valid UTF-8.
            let start = self.i;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().ok_or("truncated \\u escape")?;
                            let v = char::from(d).to_digit(16).ok_or("bad \\u escape")?;
                            code = code * 16 + v;
                        }
                        // Our writers only escape control characters;
                        // surrogate pairs are out of scope.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err("bad escape".into()),
                },
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => {}
                        Some(b']') => return Ok(Value::Arr(items)),
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => {}
                        Some(b'}') => return Ok(Value::Obj(fields)),
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at offset {}", self.i)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(&mut self, s: &str, v: Value) -> Result<Value, String> {
        if self.b[self.i..].starts_with(s.as_bytes()) {
            self.i += s.len();
            Ok(v)
        } else {
            Err(format!("expected {s} at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad number")?;
        if text.bytes().all(|c| c.is_ascii_digit()) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| format!("bad number {text:?} at offset {start}: {e}"))
    }
}

fn push_u64(s: &mut String, v: u64) {
    s.push_str(&v.to_string());
}

/// Append `v` as a quoted JSON string.
pub(crate) fn push_str_escaped(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if u32::from(c) < 0x20 => {
                let code = u32::from(c);
                s.push_str(&format!("\\u{code:04x}"));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Label;

    fn all_kinds() -> Vec<EventKind> {
        EventKind::all_kinds()
    }

    #[test]
    fn every_kind_roundtrips() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = TraceEvent {
                t_ns: 1_000_000_007 * (i as u64 + 1),
                conn: 42,
                kind,
            };
            let line = encode(&ev);
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line={line}");
        }
    }

    /// A flight dump (the lead-up to a `Broken`, then one line of every
    /// kind and the codec's edge cases) and its CSV twin, both written by
    /// the last commit whose encoder and parser were written out by hand
    /// (events added since have a line appended): the schema table reads and
    /// writes them byte for byte.
    #[test]
    fn a_dump_written_before_the_schema_table_survives_byte_for_byte() {
        let dump = include_str!("../fixtures/flight-pr18.jsonl");
        let (mut csv, mut names) = (String::new(), std::collections::BTreeSet::new());
        for line in dump.lines() {
            let ev = parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(encode(&ev), line);
            csv.push_str(&to_csv_row(&ev));
            csv.push('\n');
            names.insert(ev.kind.name());
        }
        assert_eq!(csv, include_str!("../fixtures/flight-pr18.csv"));
        assert!(all_kinds().iter().all(|k| names.contains(k.name())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("").is_err());
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{}").is_err());
        assert!(parse_line("{\"t_ns\":1}").is_err());
        assert!(parse_line("{\"t_ns\":1,\"conn\":2,\"ev\":\"zzz\"}").is_err());
        assert!(parse_line("{\"t_ns\":1,\"conn\":2,\"ev\":\"data_send\"}").is_err());
    }

    #[test]
    fn tolerates_whitespace_and_reordering() {
        let line = "{ \"ev\": \"data_recv\", \"seq\": 5, \"bytes\": 9, \"conn\": 1, \"t_ns\": 77 }";
        let ev = parse_line(line).expect("parse");
        assert_eq!(ev.t_ns, 77);
        assert_eq!(
            ev.kind,
            EventKind::DataRecv { seq: 5, bytes: 9 }
        );
    }

    #[test]
    fn big_u64_survives() {
        let ev = TraceEvent {
            t_ns: u64::MAX - 1,
            conn: 0,
            kind: EventKind::Resume {
                offset: u64::MAX - 3,
            },
        };
        let back = parse_line(&encode(&ev)).expect("parse");
        assert_eq!(back, ev);
    }

    #[test]
    fn csv_row_mirrors_json_fields() {
        let ev = TraceEvent {
            t_ns: 5,
            conn: 9,
            kind: EventKind::DataSend {
                seq: 1,
                bytes: 1472,
                retx: false,
            },
        };
        let row = to_csv_row(&ev);
        assert!(row.starts_with("5,9,data_send,"));
        assert!(row.contains("seq=1"));
        assert!(row.contains("bytes=1472"));
        assert!(row.contains("retx=false"));
        assert_eq!(CSV_HEADER.split(',').count(), 4);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let ev = TraceEvent {
            t_ns: 1,
            conn: 2,
            kind: EventKind::ChaosFault {
                stage: Label::new("a\"b\\c"),
                kind: Label::new("drop"),
                magnitude: 0,
            },
        };
        let back = parse_line(&encode(&ev)).expect("parse");
        assert_eq!(back, ev);
    }
}
