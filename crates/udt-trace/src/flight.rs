//! Flight recorder: post-mortem JSONL dumps.
//!
//! When a connection breaks, a handshake is rejected, or an invariant
//! hook fires, the last ring-buffer contents are written as JSONL next to
//! the run artifacts so the failure can be replayed offline instead of
//! re-run with printlns. File name shape:
//! `udt-flight-<conn-hex>-<reason>.jsonl`.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::event::TraceEvent;
use crate::json;
use crate::Tracer;

/// Sanitise a reason string for use in a file name.
fn slug(reason: &str) -> String {
    reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .take(48)
        .collect()
}

/// Write `events` as JSONL at `path`, one event per line, sorted by
/// timestamp: the ring preserves push order, but clones feeding one ring
/// from several threads can interleave slightly out of order, and exports
/// are canonically time-sorted. Returns the event count. Every exporter
/// (flight dumps, `bench exp fig7 --trace`) funnels through here, so files
/// on disk always match the schema [`json::parse_line`] validates.
pub fn write_jsonl(path: &Path, events: &[TraceEvent]) -> std::io::Result<usize> {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| e.t_ns);
    let mut out = String::with_capacity(sorted.len() * 128 + 16);
    for ev in sorted {
        out.push_str(&json::encode(ev));
        out.push('\n');
    }
    let mut f = fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    f.flush()?;
    Ok(events.len())
}

/// Write `events` as a flight recording under `dir`, returning the path
/// written. Creates `dir` if needed.
pub fn dump_events(
    dir: &Path,
    conn: u32,
    reason: &str,
    events: &[TraceEvent],
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("udt-flight-{conn:08x}-{}.jsonl", slug(reason)));
    write_jsonl(&path, events)?;
    Ok(path)
}

/// Snapshot `tracer` and dump it under `dir`. Returns `None` when the
/// tracer is disabled or the write fails — flight recording must never
/// turn a protocol failure into an I/O panic, so errors are swallowed.
pub fn dump(dir: &Path, conn: u32, reason: &str, tracer: &Tracer) -> Option<PathBuf> {
    if !tracer.is_enabled() {
        return None;
    }
    let events = tracer.snapshot();
    dump_events(dir, conn, reason, &events).ok()
}

/// Read a flight-recorder (or exporter) JSONL file back into events.
/// Returns `Err` on the first malformed line.
pub fn read_jsonl(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(json::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, TimerKind};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("udt-trace-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn dump_and_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let events = vec![
            TraceEvent {
                t_ns: 20,
                conn: 7,
                kind: EventKind::TimerFire {
                    timer: TimerKind::Exp,
                    count: 3,
                },
            },
            TraceEvent {
                t_ns: 10,
                conn: 7,
                kind: EventKind::DataSend {
                    seq: 1,
                    bytes: 1400,
                    retx: false,
                },
            },
        ];
        let path = dump_events(&dir, 7, "broken", &events).expect("dump");
        assert!(path.file_name().is_some_and(|n| n
            .to_string_lossy()
            .starts_with("udt-flight-00000007-broken")));
        let back = read_jsonl(&path).expect("read");
        // Dump sorts by timestamp.
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].t_ns, 10);
        assert_eq!(back[1].t_ns, 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_tracer_dumps_nothing() {
        let dir = tmpdir("disabled");
        assert!(dump(&dir, 1, "broken", &Tracer::disabled()).is_none());
        assert!(!dir.exists());
    }

    #[test]
    fn reason_is_sanitised() {
        let dir = tmpdir("slug");
        let path = dump_events(&dir, 1, "weird reason/with:stuff", &[]).expect("dump");
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        assert_eq!(
            name.as_deref(),
            Some("udt-flight-00000001-weird-reason-with-stuff.jsonl")
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
