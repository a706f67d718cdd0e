//! Per-connection runtime state for the authenticated profile.
//!
//! The cryptographic primitives (SipHash-2-4 MAC, key derivation, replay
//! window) live in [`udt_proto::auth`]; this module holds the policy knob
//! and the per-connection verification context the demultiplexer consults
//! on every datagram. See DESIGN.md "Authenticated transport" for the
//! wire format, key schedule and threat model.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use udt_metrics::counters::AuthCounters;
use udt_proto::auth::{MacKey, ReplayCheck, ReplayWindow, TAG_LEN};
use udt_proto::SeqNo;
use udt_trace::{Emitter, EventKind, Tracer};

/// Whether (and how hard) a connection insists on packet authentication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AuthPolicy {
    /// No authentication: the pre-shared key (if any) is unused and
    /// peers negotiate a plaintext session. The default.
    #[default]
    Off,
    /// Authenticate when the peer can, fall back to plaintext when it
    /// cannot (legacy peers, `Off` peers).
    Prefer,
    /// Refuse to complete an unauthenticated handshake: plaintext peers
    /// are rejected with a typed `HandshakeRejected` reason.
    Require,
}

impl AuthPolicy {
    /// `true` unless the policy is [`AuthPolicy::Off`].
    pub fn enabled(self) -> bool {
        self != AuthPolicy::Off
    }
}

/// Per-connection verification context, installed on the mux once the
/// handshake has negotiated authentication. The demux thread consults it
/// on every inbound datagram for this connection; the send path uses
/// `tx_key` to append trailer tags.
pub(crate) struct AuthCtx {
    /// Key for packets we send (our direction).
    pub tx_key: MacKey,
    /// Key for packets the peer sends (their direction).
    pub rx_key: MacKey,
    /// Anti-replay window over delivered data sequence numbers.
    pub replay: Mutex<ReplayWindow>,
    /// Where `auth_fail` / `auth_replay` events go; `tags_bad` and
    /// `replays` are their fold, `tags_ok` is bumped beside them.
    events: Emitter<AuthCounters>,
    /// Local connection id (flight-dump labeling).
    local_id: u32,
    /// Where to dump a flight recording when a forged-packet storm is
    /// detected (`None`: no dumps).
    pub flight_dir: Option<PathBuf>,
    storm_fired: AtomicBool,
}

/// Bad-tag count after which an authenticated connection dumps one flight
/// recording (reason `auth-storm`) into its `flight_dir`.
const STORM_THRESHOLD: u64 = 64;

impl AuthCtx {
    pub fn new(
        tx_key: MacKey,
        rx_key: MacKey,
        tracer: Tracer,
        local_id: u32,
        flight_dir: Option<PathBuf>,
    ) -> AuthCtx {
        AuthCtx {
            tx_key,
            rx_key,
            replay: Mutex::new(ReplayWindow::new()),
            events: Emitter::new(tracer, local_id, 0),
            local_id,
            flight_dir,
            storm_fired: AtomicBool::new(false),
        }
    }

    /// This connection's `tags_ok` / `tags_bad` / `replays`.
    pub fn counters(&self) -> &Arc<AuthCounters> {
        self.events.counters()
    }

    /// Verify the trailer tag of a raw inbound datagram. On success
    /// returns the datagram length *without* the tag; on failure emits
    /// `auth_fail`, fires the storm dump when warranted, and returns `None`.
    pub fn verify_trailer(&self, buf: &[u8], seq_hint: u32) -> Option<usize> {
        if buf.len() < TAG_LEN {
            self.record_bad(seq_hint);
            return None;
        }
        let body = buf.len() - TAG_LEN;
        // udt-lint: allow(unwrap) — the slice is exactly TAG_LEN bytes
        let claimed = u64::from_be_bytes(buf[body..].try_into().expect("tag slice"));
        if self.rx_key.verify(&buf[..body], claimed) {
            self.counters().tags_ok(1);
            Some(body)
        } else {
            self.record_bad(seq_hint);
            None
        }
    }

    /// Is this authenticated data sequence number a replay of an
    /// already-delivered packet?
    pub fn is_replay(&self, seq: SeqNo) -> bool {
        if self.replay.lock().check(seq) == ReplayCheck::Replay {
            self.events.emit(EventKind::AuthReplay { seq: seq.raw() });
            true
        } else {
            false
        }
    }

    /// Record that an authenticated data packet was actually delivered
    /// (queued to the connection), arming the replay window for it.
    pub fn mark_delivered(&self, seq: SeqNo) {
        self.replay.lock().mark(seq);
    }

    fn record_bad(&self, seq_hint: u32) {
        self.events.emit(EventKind::AuthFail { seq: seq_hint });
        let bad = self.counters().snapshot().tags_bad;
        if bad >= STORM_THRESHOLD
            && !self.storm_fired.swap(true, Ordering::Relaxed)
        {
            if let Some(dir) = &self.flight_dir {
                let _ =
                    udt_trace::flight::dump(dir, self.local_id, "auth-storm", self.events.tracer());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_proto::PreSharedKey;

    fn ctx() -> AuthCtx {
        let psk = PreSharedKey::from_bytes([9u8; 16]);
        AuthCtx::new(
            psk.session_key(1, 2, true),
            psk.session_key(1, 2, false),
            Tracer::disabled(),
            7,
            None,
        )
    }

    #[test]
    fn trailer_roundtrip_and_rejection() {
        let c = ctx();
        let mut buf = b"hello world, this is a datagram".to_vec();
        let tag = c.rx_key.tag(&buf);
        buf.extend_from_slice(&tag.to_be_bytes());
        assert_eq!(c.verify_trailer(&buf, 0), Some(buf.len() - TAG_LEN));
        // Flip one payload bit: the tag no longer verifies.
        let mut bad = buf.clone();
        bad[3] ^= 0x40;
        assert_eq!(c.verify_trailer(&bad, 0), None);
        // Flip one tag bit: same.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(c.verify_trailer(&bad, 0), None);
        // Too short to even hold a tag.
        assert_eq!(c.verify_trailer(b"tiny", 0), None);
        let s = c.counters().snapshot();
        assert_eq!(s.tags_ok, 1);
        assert_eq!(s.tags_bad, 3);
    }

    #[test]
    fn replay_marking() {
        let c = ctx();
        let s = SeqNo::new(500);
        assert!(!c.is_replay(s));
        c.mark_delivered(s);
        assert!(c.is_replay(s));
        assert_eq!(c.counters().snapshot().replays, 1);
    }

    #[test]
    fn policy_enabled() {
        assert!(!AuthPolicy::Off.enabled());
        assert!(AuthPolicy::Prefer.enabled());
        assert!(AuthPolicy::Require.enabled());
        assert_eq!(AuthPolicy::default(), AuthPolicy::Off);
    }
}
