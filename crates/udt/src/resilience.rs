//! Session resilience: reconnect-with-backoff and resumable transfers.
//!
//! A terminally `Broken` connection (EXP escalation, §3.5) normally ends
//! the transfer; everything confirmed so far is lost to the application.
//! This module layers *sessions* over connections so a fault that outlasts
//! the broken-silence floor only costs the outage, not the transfer:
//!
//! * [`ResilientSession`] (client side) wraps connect + transfer in a
//!   [`RetryPolicy`] loop: when the connection breaks it reconnects with
//!   exponential backoff and deterministic jitter, carrying a non-zero
//!   `session_token` in the handshake extension, and resumes the transfer
//!   at the confirmed high-water mark instead of byte 0.
//! * [`SessionTable`] (server side) remembers, per token, how many
//!   contiguous bytes reached the disk; the listener answers reconnect
//!   handshakes with that offset (upload resume) and GCs idle entries.
//! * [`ResumableFileSink`] / [`serve_download`] are the server-side
//!   transfer loops: they stage data in the `.part` file, record progress
//!   in the table, and atomically rename on completion.
//!
//! ## Transfer framing
//!
//! Each transfer connection starts with a 16-byte preamble — start offset
//! and total length, both big-endian u64 — written by whichever side
//! sends the file bytes. The preamble, not the handshake, is
//! authoritative for where the stream starts: the handshake offset is a
//! *hint* read from the session table, which may lag the sink while a
//! previous connection is still draining its receive buffer. A sender
//! that starts at a stale (lower) offset merely re-sends bytes the sink
//! overwrites with identical data; a preamble offset *beyond* the staged
//! data is impossible in-protocol and rejected as corruption.
//!
//! ## State machine
//!
//! ```text
//! Connected ──broken──▶ Reconnecting ──handshake ok──▶ Resumed ─▶ Connected
//!     │                     │  ▲                          (skip confirmed
//!     └─transfer done─▶ Done└──┴─backoff·jitter,          bytes, continue)
//!                            attempts/deadline exhausted ─▶ Failed
//! ```

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::Rng;

use udt_metrics::counters::{SessionCounters, SessionSnapshot};
use udt_trace::{Emitter, EventKind};

use crate::config::{RetryPolicy, UdtConfig};
use crate::conn::UdtConnection;
use crate::error::{Result, UdtError};
use crate::file::part_path;

/// Length of the per-connection transfer preamble: start offset (u64 BE)
/// + total length (u64 BE).
const PREAMBLE_LEN: usize = 16;

/// `true` for errors a reconnect can plausibly cure: outages and
/// flush/handshake timeouts. Version mismatches, drained listeners and
/// local file errors are permanent.
pub fn retryable(err: &UdtError) -> bool {
    matches!(
        err,
        UdtError::Broken
            | UdtError::FlushTimeout
            | UdtError::NotConnected
            | UdtError::ConnectTimeout { .. }
            | UdtError::Io(_)
    )
}

/// Server-side per-session resume state: token → confirmed contiguous
/// byte high-water mark. Shared between the application's transfer loop
/// (which records progress) and the listener's handshake thread (which
/// answers reconnects with it and GCs idle entries).
#[derive(Debug, Default)]
pub struct SessionTable {
    inner: Mutex<HashMap<u64, SessionEntry>>,
}

#[derive(Debug, Clone, Copy)]
struct SessionEntry {
    offset: u64,
    last_seen: Instant,
}

impl SessionTable {
    /// Fresh empty table.
    pub fn new() -> Arc<SessionTable> {
        Arc::new(SessionTable::default())
    }

    /// Record that `offset` contiguous bytes of session `token` are
    /// staged. Monotonic: a lower offset never overwrites a higher one
    /// (late writers lose). Token 0 ("not resumable") is ignored.
    pub fn record(&self, token: u64, offset: u64) {
        if token == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        let e = inner.entry(token).or_insert(SessionEntry {
            offset: 0,
            last_seen: Instant::now(),
        });
        e.offset = e.offset.max(offset);
        e.last_seen = Instant::now();
    }

    /// The confirmed high-water mark for `token` (0 if unknown).
    pub fn offset(&self, token: u64) -> u64 {
        if token == 0 {
            return 0;
        }
        self.inner.lock().get(&token).map_or(0, |e| e.offset)
    }

    /// Forget a completed session.
    pub fn remove(&self, token: u64) {
        self.inner.lock().remove(&token);
    }

    /// Evict entries idle for at least `ttl`; returns how many.
    pub fn gc(&self, ttl: Duration) -> u64 {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let before = inner.len();
        inner.retain(|_, e| now.duration_since(e.last_seen) < ttl);
        (before - inner.len()) as u64
    }

    /// Number of live session entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// `true` if no sessions are tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn read_preamble(conn: &UdtConnection) -> Result<(u64, u64)> {
    let mut buf = [0u8; PREAMBLE_LEN];
    let mut got = 0;
    while got < PREAMBLE_LEN {
        let n = conn.recv(&mut buf[got..])?;
        if n == 0 {
            // Peer closed before framing the transfer: nothing to resume,
            // treat like an outage so the supervisor retries.
            return Err(UdtError::Broken);
        }
        got += n;
    }
    // Both 8-byte slices of the fixed 16-byte header: infallible conversions.
    // udt-lint: allow(unwrap)
    let start = u64::from_be_bytes(buf[..8].try_into().expect("8 bytes"));
    // udt-lint: allow(unwrap)
    let total = u64::from_be_bytes(buf[8..].try_into().expect("8 bytes"));
    Ok((start, total))
}

fn send_preamble(conn: &UdtConnection, start: u64, total: u64) -> Result<()> {
    let mut buf = [0u8; PREAMBLE_LEN];
    buf[..8].copy_from_slice(&start.to_be_bytes());
    buf[8..].copy_from_slice(&total.to_be_bytes());
    conn.send(&buf)
}

/// Client-side supervisor: a connection plus the [`RetryPolicy`] that
/// revives it. One session = one token = one logical peer relationship;
/// run any number of transfers over it, each of which survives outages by
/// reconnecting and resuming.
pub struct ResilientSession {
    server: SocketAddr,
    cfg: UdtConfig,
    token: u64,
    /// Session-level events, tagged with the (folded) session token since
    /// the session outlives any one connection id; the reconnect/resume
    /// counters are their fold (`reconnect_successes` has no event).
    events: Emitter<SessionCounters>,
    conn: Option<UdtConnection>,
}

impl ResilientSession {
    /// Connect a resilient session to `server`. The initial connect is
    /// itself retried under `cfg.retry` when it fails transiently.
    pub fn connect(server: SocketAddr, cfg: UdtConfig) -> Result<ResilientSession> {
        let token = rand::thread_rng().gen_range(1..=u64::MAX);
        // The token folded into a 32-bit trace id.
        let id = (token ^ (token >> 32)) as u32;
        let events: Emitter<SessionCounters> = Emitter::new(cfg.tracer.clone(), id, 0);
        if let Some(hub) = &cfg.metrics {
            // Label by token (the session outlives any one connection id);
            // a clash only degrades observability.
            let tok = format!("{token:016x}");
            let _ = hub
                .registry()
                .register_family(&[("session", tok.as_str())], Arc::clone(events.counters()));
        }
        let mut sess = ResilientSession {
            server,
            cfg,
            token,
            events,
            conn: None,
        };
        match UdtConnection::connect_session(server, sess.cfg.clone(), token, 0) {
            Ok(c) => sess.conn = Some(c),
            Err(e) if retryable(&e) => {
                let c = sess.reconnect(0, e)?;
                sess.conn = Some(c);
            }
            Err(e) => return Err(e),
        }
        Ok(sess)
    }

    /// The session token carried in every handshake of this session.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Snapshot of the reconnect/resume counters.
    pub fn counters(&self) -> SessionSnapshot {
        self.events.counters().snapshot()
    }

    /// Upload `len` bytes of `path`. Survives outages: on `Broken` (or a
    /// failed flush) the session reconnects under the retry policy, asks
    /// the server how much it already staged, and re-sends only the rest.
    /// Returns the total bytes the server confirmed (always `len` on
    /// success).
    pub fn upload(&mut self, path: &Path, len: u64) -> Result<u64> {
        loop {
            let conn = match self.conn.take() {
                Some(c) => c,
                None => self.reconnect(0, UdtError::Broken)?,
            };
            // Resume where the server says it is. On the first attempt
            // this is 0 (fresh token); after a reconnect it is the
            // server's staged high-water mark, i.e. bytes we skip.
            let start = conn.peer_resume_offset().min(len);
            if start > 0 {
                self.events.emit(EventKind::Resume { offset: start });
            }
            let attempt = (|| {
                send_preamble(&conn, start, len)?;
                conn.sendfile(path, start, len - start)?;
                conn.close()
            })();
            match attempt {
                Ok(()) => return Ok(len),
                Err(e) if retryable(&e) => {
                    // The connection is dead; drop it and loop into a
                    // policy-driven reconnect.
                    drop(conn);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Download `len` bytes into `dest`. Data is staged in the `.part`
    /// file; on an outage the session reconnects, advertises how many
    /// bytes are already staged, and the server re-sends only the rest.
    /// The destination path appears only on completion (atomic rename).
    pub fn download(&mut self, dest: &Path, len: u64) -> Result<u64> {
        let part = part_path(dest);
        loop {
            let have = std::fs::metadata(&part).map(|m| m.len()).unwrap_or(0).min(len);
            let conn = match self.conn.take() {
                Some(c) => c,
                None => {
                    if have > 0 {
                        self.events.emit(EventKind::Resume { offset: have });
                    }
                    self.reconnect(have, UdtError::Broken)?
                }
            };
            match Self::download_once(&conn, &part, len) {
                Ok(()) => {
                    std::fs::rename(&part, dest).map_err(UdtError::File)?;
                    return Ok(len);
                }
                Err(e) if retryable(&e) => drop(conn),
                Err(e) => return Err(e),
            }
        }
    }

    fn download_once(conn: &UdtConnection, part: &Path, len: u64) -> Result<()> {
        let (start, total) = read_preamble(conn)?;
        if total != len {
            return Err(UdtError::File(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "peer framed a transfer of a different length",
            )));
        }
        let mut f = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(part)
            .map_err(UdtError::File)?;
        let staged = f.metadata().map_err(UdtError::File)?.len();
        if start > staged {
            return Err(UdtError::File(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "peer resumed beyond the staged data",
            )));
        }
        f.seek(SeekFrom::Start(start)).map_err(UdtError::File)?;
        let mut written = start;
        let mut chunk = vec![0u8; 1 << 16];
        while written < total {
            let want = ((total - written) as usize).min(chunk.len());
            let n = conn.recv(&mut chunk[..want])?;
            if n == 0 {
                // Early EOF without the full payload: retry as an outage.
                return Err(UdtError::Broken);
            }
            f.write_all(&chunk[..n]).map_err(UdtError::File)?;
            written += n as u64;
        }
        f.set_len(total).map_err(UdtError::File)?;
        f.flush().map_err(UdtError::File)?;
        Ok(())
    }

    /// Close the session's live connection, if any.
    pub fn close(&mut self) -> Result<()> {
        match self.conn.take() {
            Some(c) => c.close(),
            None => Ok(()),
        }
    }

    /// Policy-driven reconnect. `local_resume` is this side's receive
    /// high-water mark to advertise. `orig` is returned verbatim when the
    /// policy allows no attempts; otherwise the last connect error wins.
    fn reconnect(&mut self, local_resume: u64, orig: UdtError) -> Result<UdtConnection> {
        let policy: RetryPolicy = self.cfg.retry;
        let outage_start = Instant::now();
        let mut last_err = orig;
        for attempt in 1..=policy.max_attempts {
            let backoff = policy.backoff(attempt, self.token);
            if let Some(deadline) = policy.deadline {
                if outage_start.elapsed() + backoff >= deadline {
                    break;
                }
            }
            std::thread::sleep(backoff);
            self.events.emit(EventKind::Reconnect {
                attempt,
                // udt-lint: allow(as-cast) — backoff is policy-bounded, fits u32 ms
                backoff_ms: backoff.as_millis() as u32,
            });
            match UdtConnection::connect_session(
                self.server,
                self.cfg.clone(),
                self.token,
                local_resume,
            ) {
                Ok(c) => {
                    self.events.counters().reconnect_successes(1);
                    return Ok(c);
                }
                Err(e) if retryable(&e) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }
}

/// Server-side resumable upload sink for one destination path. Absorb
/// each accepted connection of the session in turn; the sink stages data
/// in the `.part` file, records progress into the [`SessionTable`] (which
/// the listener serves back to reconnecting peers), and renames onto the
/// destination when the transfer completes.
pub struct ResumableFileSink {
    dest: std::path::PathBuf,
    sessions: Arc<SessionTable>,
}

impl ResumableFileSink {
    /// A sink writing to `dest`, reporting progress into `sessions`
    /// (normally [`crate::socket::UdtListener::sessions`]).
    pub fn new(dest: &Path, sessions: Arc<SessionTable>) -> ResumableFileSink {
        ResumableFileSink {
            dest: dest.to_path_buf(),
            sessions,
        }
    }

    /// Drain one connection into the staging file. Returns `Ok(true)`
    /// when the transfer completed (file renamed into place), `Ok(false)`
    /// when the connection died first — accept the session's next
    /// connection and call `absorb` again. Non-outage errors (disk,
    /// corrupt framing) are returned as `Err`.
    pub fn absorb(&self, conn: &UdtConnection) -> Result<bool> {
        let token = conn.session_token();
        let (start, total) = match read_preamble(conn) {
            Ok(p) => p,
            Err(e) if retryable(&e) => return Ok(false),
            Err(e) => return Err(e),
        };
        let part = part_path(&self.dest);
        let mut f = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&part)
            .map_err(UdtError::File)?;
        let staged = f.metadata().map_err(UdtError::File)?.len();
        if start > staged {
            return Err(UdtError::File(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "peer resumed beyond the staged data",
            )));
        }
        f.seek(SeekFrom::Start(start)).map_err(UdtError::File)?;
        let mut written = start;
        let mut chunk = vec![0u8; 1 << 16];
        let done = loop {
            if written >= total {
                break true;
            }
            let want = ((total - written) as usize).min(chunk.len());
            match conn.recv(&mut chunk[..want]) {
                Ok(0) => break false, // peer closed short: outage
                Ok(n) => {
                    f.write_all(&chunk[..n]).map_err(UdtError::File)?;
                    written += n as u64;
                    self.sessions.record(token, written);
                }
                Err(e) if retryable(&e) => break false,
                Err(e) => return Err(e),
            }
        };
        f.flush().map_err(UdtError::File)?;
        self.sessions.record(token, written);
        if done {
            f.set_len(total).map_err(UdtError::File)?;
            drop(f);
            std::fs::rename(&part, &self.dest).map_err(UdtError::File)?;
            self.sessions.remove(token);
        }
        Ok(done)
    }
}

/// Serve one download connection: send `len` bytes of `path` starting at
/// the offset the peer advertised in its handshake (its staged `.part`
/// length), preceded by the transfer preamble. Returns the bytes sent
/// this connection; a retryable error means the peer will reconnect —
/// accept again and call this again.
pub fn serve_download(conn: &UdtConnection, path: &Path, len: u64) -> Result<u64> {
    let start = conn.peer_resume_offset().min(len);
    send_preamble(conn, start, len)?;
    let sent = conn.sendfile(path, start, len - start)?;
    conn.close()?;
    Ok(sent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_table_is_monotonic_and_gcs() {
        let t = SessionTable::new();
        assert_eq!(t.offset(7), 0);
        t.record(7, 100);
        t.record(7, 50); // late writer loses
        assert_eq!(t.offset(7), 100);
        t.record(7, 250);
        assert_eq!(t.offset(7), 250);
        // Token 0 is "not resumable" and never stored.
        t.record(0, 999);
        assert_eq!(t.offset(0), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.gc(Duration::from_secs(60)), 0);
        assert_eq!(t.gc(Duration::ZERO), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn session_table_remove_forgets() {
        let t = SessionTable::new();
        t.record(3, 10);
        t.remove(3);
        assert_eq!(t.offset(3), 0);
    }

    #[test]
    fn retryable_classification() {
        assert!(retryable(&UdtError::Broken));
        assert!(retryable(&UdtError::FlushTimeout));
        assert!(retryable(&UdtError::ConnectTimeout { retries: 3 }));
        assert!(retryable(&UdtError::Io(std::io::Error::other("x"))));
        assert!(!retryable(&UdtError::HandshakeRejected {
            reason: "version",
            retries: 1
        }));
        assert!(!retryable(&UdtError::Drained));
        assert!(!retryable(&UdtError::File(std::io::Error::other("x"))));
    }
}
