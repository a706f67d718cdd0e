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

use crate::event::{
    BufSide, ConnState, DropReason, EventKind, HsPhase, Label, TimerKind, TraceEvent,
    CPU_CATEGORY_COUNT,
};

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
    match &ev.kind {
        EventKind::DataSend { seq, bytes, retx } => {
            field_u(&mut s, "seq", u64::from(*seq));
            field_u(&mut s, "bytes", u64::from(*bytes));
            field_bool(&mut s, "retx", *retx);
        }
        EventKind::DataRecv { seq, bytes } => {
            field_u(&mut s, "seq", u64::from(*seq));
            field_u(&mut s, "bytes", u64::from(*bytes));
        }
        EventKind::DataDrop { seq, reason } => {
            field_u(&mut s, "seq", u64::from(*seq));
            field_str(&mut s, "reason", reason.as_str());
        }
        EventKind::AckSend { ack_no, ack_seq } | EventKind::AckRecv { ack_no, ack_seq } => {
            field_u(&mut s, "ack_no", u64::from(*ack_no));
            field_u(&mut s, "ack_seq", u64::from(*ack_seq));
        }
        EventKind::Ack2Send { ack_no } | EventKind::Ack2Recv { ack_no } => {
            field_u(&mut s, "ack_no", u64::from(*ack_no));
        }
        EventKind::NakSend {
            first_lo,
            first_hi,
            ranges,
        }
        | EventKind::NakRecv {
            first_lo,
            first_hi,
            ranges,
        } => {
            field_u(&mut s, "first_lo", u64::from(*first_lo));
            field_u(&mut s, "first_hi", u64::from(*first_hi));
            field_u(&mut s, "ranges", u64::from(*ranges));
        }
        EventKind::LossDetected { first_lo, first_hi } => {
            field_u(&mut s, "first_lo", u64::from(*first_lo));
            field_u(&mut s, "first_hi", u64::from(*first_hi));
        }
        EventKind::RateUpdate { period_us, cwnd } => {
            field_f(&mut s, "period_us", *period_us);
            field_f(&mut s, "cwnd", *cwnd);
        }
        EventKind::RttUpdate { rtt_us, var_us } => {
            field_u(&mut s, "rtt_us", u64::from(*rtt_us));
            field_u(&mut s, "var_us", u64::from(*var_us));
        }
        EventKind::BwEstimate { pps } => {
            field_f(&mut s, "pps", *pps);
        }
        EventKind::TimerFire { timer, count } => {
            field_str(&mut s, "timer", timer.as_str());
            field_u(&mut s, "count", u64::from(*count));
        }
        EventKind::StateChange { from, to } => {
            field_str(&mut s, "from", from.as_str());
            field_str(&mut s, "to", to.as_str());
        }
        EventKind::Handshake { phase, peer } => {
            field_str(&mut s, "phase", phase.as_str());
            field_u(&mut s, "peer", u64::from(*peer));
        }
        EventKind::Reconnect {
            attempt,
            backoff_ms,
        } => {
            field_u(&mut s, "attempt", u64::from(*attempt));
            field_u(&mut s, "backoff_ms", u64::from(*backoff_ms));
        }
        EventKind::Resume { offset } => {
            field_u(&mut s, "offset", *offset);
        }
        EventKind::BufLevel { side, used, cap } => {
            field_str(&mut s, "side", side.as_str());
            field_u(&mut s, "used", u64::from(*used));
            field_u(&mut s, "cap", u64::from(*cap));
        }
        EventKind::ChaosFault {
            stage,
            kind,
            magnitude,
        } => {
            field_str(&mut s, "stage", stage.as_str());
            field_str(&mut s, "kind", kind.as_str());
            field_u(&mut s, "magnitude", *magnitude);
        }
        EventKind::PerfSample {
            rtt_us,
            period_us,
            cwnd,
            rate_pps,
            bw_pps,
            sent,
            retx_pkts,
            bytes,
            delivered,
        } => {
            field_f(&mut s, "rtt_us", *rtt_us);
            field_f(&mut s, "period_us", *period_us);
            field_f(&mut s, "cwnd", *cwnd);
            field_f(&mut s, "rate_pps", *rate_pps);
            field_f(&mut s, "bw_pps", *bw_pps);
            field_u(&mut s, "sent", *sent);
            field_u(&mut s, "retx_pkts", *retx_pkts);
            field_u(&mut s, "bytes", *bytes);
            field_u(&mut s, "delivered", *delivered);
        }
        EventKind::CpuBreakdown { nanos } => {
            key(&mut s, "nanos");
            Value::Arr(nanos.iter().map(|n| Value::UInt(*n)).collect()).render_into(&mut s);
        }
        EventKind::PathUp { path } | EventKind::PathDown { path } => {
            field_u(&mut s, "path", u64::from(*path));
        }
        EventKind::PathSend { path, seq, bytes } | EventKind::PathRecv { path, seq, bytes } => {
            field_u(&mut s, "path", u64::from(*path));
            field_u(&mut s, "seq", u64::from(*seq));
            field_u(&mut s, "bytes", u64::from(*bytes));
        }
        EventKind::PathLoss { path, lost } => {
            field_u(&mut s, "path", u64::from(*path));
            field_u(&mut s, "lost", u64::from(*lost));
        }
        EventKind::PathRate {
            path,
            bw_pps,
            rtt_us,
            loss_pct,
        } => {
            field_u(&mut s, "path", u64::from(*path));
            field_f(&mut s, "bw_pps", *bw_pps);
            field_f(&mut s, "rtt_us", *rtt_us);
            field_f(&mut s, "loss_pct", *loss_pct);
        }
        EventKind::AuthFail { seq } | EventKind::AuthReplay { seq } => {
            field_u(&mut s, "seq", u64::from(*seq));
        }
        EventKind::AuthReject { peer } => {
            field_u(&mut s, "peer", u64::from(*peer));
        }
        EventKind::BatchRecv { pkts } => {
            field_u(&mut s, "pkts", u64::from(*pkts));
        }
    }
    s.push('}');
    s
}

/// The CSV header matching [`to_csv_row`].
pub const CSV_HEADER: &str = "t_ns,conn,ev,detail";

/// Encode one event as a CSV row: fixed `t_ns,conn,ev` columns plus a
/// `detail` column of space-separated `key=value` pairs (derived from the
/// JSON encoding, so the two formats cannot drift apart).
pub fn to_csv_row(ev: &TraceEvent) -> String {
    let json = encode(ev);
    let mut detail = String::new();
    if let Ok(Value::Obj(fields)) = parse(&json) {
        for (k, v) in fields {
            if k == "t_ns" || k == "conn" || k == "ev" {
                continue;
            }
            if !detail.is_empty() {
                detail.push(' ');
            }
            detail.push_str(&k);
            detail.push('=');
            match v {
                Value::UInt(u) => detail.push_str(&u.to_string()),
                Value::Float(f) => detail.push_str(&f.to_string()),
                Value::Bool(b) => detail.push_str(if b { "true" } else { "false" }),
                Value::Str(sv) => detail.push_str(&sv),
                Value::Arr(a) => {
                    let parts: Vec<String> = a
                        .iter()
                        .filter_map(Value::as_u64)
                        .map(|u| u.to_string())
                        .collect();
                    detail.push_str(&parts.join(";"));
                }
                Value::Obj(_) | Value::Null => {}
            }
        }
    }
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

    fn as_u32(&self) -> Option<u32> {
        self.as_u64().and_then(|u| u32::try_from(u).ok())
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

    fn render_into(&self, s: &mut String) {
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
    let t_ns = get("t_ns")
        .and_then(Value::as_u64)
        .ok_or("missing t_ns")?;
    let conn = get("conn").and_then(Value::as_u32).ok_or("missing conn")?;
    let name = get("ev").and_then(Value::as_str).ok_or("missing ev")?;

    let req_u32 = |f: &str| -> Result<u32, String> {
        get(f)
            .and_then(Value::as_u32)
            .ok_or_else(|| format!("{name}: missing {f}"))
    };
    let req_u64 = |f: &str| -> Result<u64, String> {
        get(f)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{name}: missing {f}"))
    };
    let req_f64 = |f: &str| -> Result<f64, String> {
        get(f)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: missing {f}"))
    };
    let req_str = |f: &str| -> Result<&str, String> {
        get(f)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{name}: missing {f}"))
    };

    let kind = match name {
        "data_send" => EventKind::DataSend {
            seq: req_u32("seq")?,
            bytes: req_u32("bytes")?,
            retx: matches!(get("retx"), Some(Value::Bool(true))),
        },
        "data_recv" => EventKind::DataRecv {
            seq: req_u32("seq")?,
            bytes: req_u32("bytes")?,
        },
        "data_drop" => EventKind::DataDrop {
            seq: req_u32("seq")?,
            reason: DropReason::from_name(req_str("reason")?)
                .ok_or_else(|| format!("bad drop reason in {line}"))?,
        },
        "ack_send" => EventKind::AckSend {
            ack_no: req_u32("ack_no")?,
            ack_seq: req_u32("ack_seq")?,
        },
        "ack_recv" => EventKind::AckRecv {
            ack_no: req_u32("ack_no")?,
            ack_seq: req_u32("ack_seq")?,
        },
        "ack2_send" => EventKind::Ack2Send {
            ack_no: req_u32("ack_no")?,
        },
        "ack2_recv" => EventKind::Ack2Recv {
            ack_no: req_u32("ack_no")?,
        },
        "nak_send" => EventKind::NakSend {
            first_lo: req_u32("first_lo")?,
            first_hi: req_u32("first_hi")?,
            ranges: req_u32("ranges")?,
        },
        "nak_recv" => EventKind::NakRecv {
            first_lo: req_u32("first_lo")?,
            first_hi: req_u32("first_hi")?,
            ranges: req_u32("ranges")?,
        },
        "loss" => EventKind::LossDetected {
            first_lo: req_u32("first_lo")?,
            first_hi: req_u32("first_hi")?,
        },
        "rate" => EventKind::RateUpdate {
            period_us: req_f64("period_us")?,
            cwnd: req_f64("cwnd")?,
        },
        "rtt" => EventKind::RttUpdate {
            rtt_us: req_u32("rtt_us")?,
            var_us: req_u32("var_us")?,
        },
        "bw" => EventKind::BwEstimate {
            pps: req_f64("pps")?,
        },
        "timer" => EventKind::TimerFire {
            timer: TimerKind::from_name(req_str("timer")?)
                .ok_or_else(|| format!("bad timer in {line}"))?,
            count: req_u32("count")?,
        },
        "state" => EventKind::StateChange {
            from: ConnState::from_name(req_str("from")?)
                .ok_or_else(|| format!("bad state in {line}"))?,
            to: ConnState::from_name(req_str("to")?)
                .ok_or_else(|| format!("bad state in {line}"))?,
        },
        "handshake" => EventKind::Handshake {
            phase: HsPhase::from_name(req_str("phase")?)
                .ok_or_else(|| format!("bad phase in {line}"))?,
            peer: req_u32("peer")?,
        },
        "reconnect" => EventKind::Reconnect {
            attempt: req_u32("attempt")?,
            backoff_ms: req_u32("backoff_ms")?,
        },
        "resume" => EventKind::Resume {
            offset: req_u64("offset")?,
        },
        "buf" => EventKind::BufLevel {
            side: BufSide::from_name(req_str("side")?)
                .ok_or_else(|| format!("bad side in {line}"))?,
            used: req_u32("used")?,
            cap: req_u32("cap")?,
        },
        "chaos" => EventKind::ChaosFault {
            stage: Label::new(req_str("stage")?),
            kind: Label::new(req_str("kind")?),
            magnitude: req_u64("magnitude")?,
        },
        "perf" => EventKind::PerfSample {
            rtt_us: req_f64("rtt_us")?,
            period_us: req_f64("period_us")?,
            cwnd: req_f64("cwnd")?,
            rate_pps: req_f64("rate_pps")?,
            bw_pps: req_f64("bw_pps")?,
            sent: req_u64("sent")?,
            retx_pkts: req_u64("retx_pkts")?,
            bytes: req_u64("bytes")?,
            delivered: req_u64("delivered")?,
        },
        "cpu" => {
            let arr: Vec<u64> = get("nanos")
                .and_then(Value::items)
                .and_then(|a| a.iter().map(Value::as_u64).collect())
                .ok_or_else(|| format!("cpu: missing nanos in {line}"))?;
            let nanos = <[u64; CPU_CATEGORY_COUNT]>::try_from(arr).map_err(|a| {
                format!(
                    "cpu: expected {CPU_CATEGORY_COUNT} categories, got {}",
                    a.len()
                )
            })?;
            EventKind::CpuBreakdown { nanos }
        }
        "path_up" => EventKind::PathUp {
            path: req_u32("path")?,
        },
        "path_down" => EventKind::PathDown {
            path: req_u32("path")?,
        },
        "path_send" => EventKind::PathSend {
            path: req_u32("path")?,
            seq: req_u32("seq")?,
            bytes: req_u32("bytes")?,
        },
        "path_recv" => EventKind::PathRecv {
            path: req_u32("path")?,
            seq: req_u32("seq")?,
            bytes: req_u32("bytes")?,
        },
        "path_loss" => EventKind::PathLoss {
            path: req_u32("path")?,
            lost: req_u32("lost")?,
        },
        "path_rate" => EventKind::PathRate {
            path: req_u32("path")?,
            bw_pps: req_f64("bw_pps")?,
            rtt_us: req_f64("rtt_us")?,
            loss_pct: req_f64("loss_pct")?,
        },
        "auth_fail" => EventKind::AuthFail {
            seq: req_u32("seq")?,
        },
        "auth_replay" => EventKind::AuthReplay {
            seq: req_u32("seq")?,
        },
        "auth_reject" => EventKind::AuthReject {
            peer: req_u32("peer")?,
        },
        "batch" => EventKind::BatchRecv {
            pkts: req_u32("pkts")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
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

fn key(s: &mut String, name: &str) {
    s.push_str(",\"");
    s.push_str(name);
    s.push_str("\":");
}

fn field_u(s: &mut String, name: &str, v: u64) {
    key(s, name);
    push_u64(s, v);
}

fn field_bool(s: &mut String, name: &str, v: bool) {
    key(s, name);
    Value::Bool(v).render_into(s);
}

fn field_f(s: &mut String, name: &str, v: f64) {
    key(s, name);
    // Rust's float Display is the shortest round-trippable form; NaN/inf
    // render as 0.
    Value::Float(v).render_into(s);
}

fn field_str(s: &mut String, name: &str, v: &str) {
    key(s, name);
    push_str_escaped(s, v);
}

/// Append `v` as a quoted JSON string.
fn push_str_escaped(s: &mut String, v: &str) {
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

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::DataSend {
                seq: 7,
                bytes: 1472,
                retx: true,
            },
            EventKind::DataRecv { seq: 8, bytes: 100 },
            EventKind::DataDrop {
                seq: 9,
                reason: DropReason::Queue,
            },
            EventKind::AckSend {
                ack_no: 3,
                ack_seq: 100,
            },
            EventKind::AckRecv {
                ack_no: 3,
                ack_seq: 100,
            },
            EventKind::Ack2Send { ack_no: 3 },
            EventKind::Ack2Recv { ack_no: 3 },
            EventKind::NakSend {
                first_lo: 10,
                first_hi: 12,
                ranges: 2,
            },
            EventKind::NakRecv {
                first_lo: 10,
                first_hi: 12,
                ranges: 2,
            },
            EventKind::LossDetected {
                first_lo: 10,
                first_hi: 12,
            },
            EventKind::RateUpdate {
                period_us: 11.25,
                cwnd: 4096.0,
            },
            EventKind::RttUpdate {
                rtt_us: 100_000,
                var_us: 25_000,
            },
            EventKind::BwEstimate { pps: 83333.33 },
            EventKind::TimerFire {
                timer: TimerKind::Exp,
                count: 5,
            },
            EventKind::StateChange {
                from: ConnState::Connected,
                to: ConnState::Broken,
            },
            EventKind::Handshake {
                phase: HsPhase::Accepted,
                peer: 0xDEAD,
            },
            EventKind::Reconnect {
                attempt: 2,
                backoff_ms: 250,
            },
            EventKind::Resume { offset: 1 << 40 },
            EventKind::BufLevel {
                side: BufSide::Rcv,
                used: 100,
                cap: 8192,
            },
            EventKind::ChaosFault {
                stage: Label::new("loss"),
                kind: Label::new("drop"),
                magnitude: 1,
            },
            EventKind::PerfSample {
                rtt_us: 199.5,
                period_us: 12.0,
                cwnd: 16.0,
                rate_pps: 80000.0,
                bw_pps: 83000.0,
                sent: 123456,
                retx_pkts: 12,
                bytes: 1_000_000,
                delivered: 990_000,
            },
            EventKind::CpuBreakdown {
                nanos: [1, 2, 3, 4, 5, 6, 7, 8, 9],
            },
            EventKind::PathUp { path: 2 },
            EventKind::PathDown { path: 2 },
            EventKind::PathSend {
                path: 1,
                seq: 0x7FFF_FFFF,
                bytes: 1452,
            },
            EventKind::PathRecv {
                path: 1,
                seq: 0,
                bytes: 1452,
            },
            EventKind::PathLoss { path: 0, lost: 17 },
            EventKind::PathRate {
                path: 3,
                bw_pps: 8333.5,
                rtt_us: 20125.0,
                loss_pct: 0.75,
            },
            EventKind::AuthFail { seq: 101 },
            EventKind::AuthReplay { seq: 102 },
            EventKind::AuthReject { peer: 0xBEEF },
            EventKind::BatchRecv { pkts: 27 },
        ]
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
