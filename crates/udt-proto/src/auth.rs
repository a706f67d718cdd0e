//! Authenticated-transport primitives: keyed MAC, key derivation, the
//! handshake UDT-AUTH field, and the anti-replay window.
//!
//! UDT's wire format has no integrity protection: any on-path party can
//! forge DATA, ACK, NAK or Shutdown packets that a live connection will
//! act on (the related work of Bernardo & Hoang names exactly this gap
//! and proposes a negotiated authentication option). This module supplies
//! the dependency-free building blocks for the authenticated profile:
//!
//! * [`siphash24`] — a hand-rolled SipHash-2-4 core. SipHash is a keyed
//!   pseudo-random function designed for exactly this use (short-input
//!   MACs where an attacker controls the message); 2-4 is the original
//!   recommended round count.
//! * [`PreSharedKey`] / [`MacKey`] — the 128-bit pre-shared secret and the
//!   per-purpose 128-bit MAC keys derived from it. Both redact their
//!   `Debug` output so key material cannot leak through logs.
//! * [`AuthField`] — the UDT-AUTH handshake-extension field (negotiation
//!   flags, client nonce, field-level tag).
//! * [`handshake_tag`] — MAC over a canonical serialization of every
//!   handshake field, so request/challenge/response packets cannot be
//!   tampered with or replayed across connection attempts (the tag binds
//!   the client's fresh nonce).
//! * [`ReplayWindow`] — a bitmap over the blessed 31-bit [`SeqNo`] space
//!   recording which data sequence numbers were already *delivered*, so a
//!   captured-and-replayed (correctly tagged) packet is recognized.
//!
//! Threat model and non-goals are documented in DESIGN.md: packets are
//! authenticated, not encrypted; keys are pre-shared, there is no PKI.

// Numeric casts in this module are deliberate: bounded protocol arithmetic
// over 32-bit wire fields and 64-bit hash words, argued at the cast sites.
#![allow(clippy::cast_possible_truncation)]

use crate::ctrl::HandshakeData;
use crate::seqno::SeqNo;

/// Trailer tag length appended to every authenticated packet, bytes.
pub const TAG_LEN: usize = 8;

/// Magic marking the UDT-AUTH block inside the handshake extension
/// (ASCII `"UDTA"`). Distinguishes the block from unrelated trailing
/// bytes a future extension revision might append.
pub const AUTH_MAGIC: u32 = 0x5544_5441;

/// Encoded length of the UDT-AUTH handshake block: magic + flags + nonce
/// + 64-bit field tag.
pub const HS_AUTH_LEN: usize = 4 + 4 + 4 + 8;

/// [`AuthField::flags`] bit: the sender's policy is `Require` — it will
/// not complete an unauthenticated handshake. Lets the *other* side fail
/// fast with a useful diagnostic instead of a bare timeout.
pub const AUTH_REQUIRE: u32 = 1;

/// The UDT-AUTH field riding the version-gated handshake extension.
///
/// `nonce` is chosen fresh by the client per connection attempt and echoed
/// by the server, binding every handshake tag (and the derived session
/// keys) to this attempt; `tag` authenticates the whole handshake packet
/// at field level (data/control trailer tags cannot cover the handshake
/// itself, which is what negotiates them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthField {
    /// Negotiation flags ([`AUTH_REQUIRE`]).
    pub flags: u32,
    /// Client-chosen per-attempt nonce, echoed by the server.
    pub nonce: u32,
    /// Field-level MAC over the canonical handshake serialization
    /// ([`handshake_tag`]).
    pub tag: u64,
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

/// SipHash-2-4 of `msg` under the 128-bit key `(k0, k1)`.
///
/// Matches the reference implementation bit-for-bit (see the known-answer
/// tests below), so tags are portable across endianness and versions.
pub fn siphash24(k0: u64, k1: u64, msg: &[u8]) -> u64 {
    let mut v = [
        k0 ^ 0x736f_6d65_7073_6575,
        k1 ^ 0x646f_7261_6e64_6f6d,
        k0 ^ 0x6c79_6765_6e65_7261,
        k1 ^ 0x7465_6462_7974_6573,
    ];
    let mut chunks = msg.chunks_exact(8);
    for c in &mut chunks {
        // udt-lint: allow(unwrap) — chunks_exact(8) yields exactly 8 bytes
        let m = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        v[3] ^= m;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= m;
    }
    let rem = chunks.remainder();
    let mut last = (msg.len() as u64 & 0xff) << 56;
    for (i, &b) in rem.iter().enumerate() {
        last |= u64::from(b) << (8 * i);
    }
    v[3] ^= last;
    sipround(&mut v);
    sipround(&mut v);
    v[0] ^= last;
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

/// Constant-time comparison of two 64-bit tags.
///
/// The XOR/OR fold touches every bit before the single final branch, so
/// the comparison's timing does not reveal *which* bytes of a forged tag
/// were wrong (the classic byte-by-byte-compare MAC oracle).
#[inline]
pub fn ct_eq64(a: u64, b: u64) -> bool {
    let x = a ^ b;
    // Collapse all 64 difference bits into bit 63 without shortcutting.
    ((x | x.wrapping_neg()) >> 63) == 0
}

/// A 128-bit pre-shared key, the root of all derived MAC keys.
///
/// Deliberately *not* `Debug`-derivable as raw bytes: formatting a key
/// prints a redacted placeholder (and udt-lint's `secret-material` rule
/// rejects formatting key-named identifiers in library code outright).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PreSharedKey([u8; 16]);

impl std::fmt::Debug for PreSharedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PreSharedKey(..)")
    }
}

impl PreSharedKey {
    /// Wrap raw key bytes.
    pub const fn from_bytes(b: [u8; 16]) -> PreSharedKey {
        PreSharedKey(b)
    }

    /// Parse exactly 32 hex characters (the `--auth-key` CLI format).
    pub fn from_hex(s: &str) -> Result<PreSharedKey, &'static str> {
        let s = s.trim();
        if s.len() != 32 {
            return Err("auth key must be exactly 32 hex characters (128 bits)");
        }
        let mut b = [0u8; 16];
        for (i, slot) in b.iter_mut().enumerate() {
            let hi = hex_val(s.as_bytes()[2 * i])?;
            let lo = hex_val(s.as_bytes()[2 * i + 1])?;
            *slot = (hi << 4) | lo;
        }
        Ok(PreSharedKey(b))
    }

    fn halves(&self) -> (u64, u64) {
        // udt-lint: allow(unwrap) — both 8-byte slices of a 16-byte array
        let k0 = u64::from_le_bytes(self.0[..8].try_into().expect("8 bytes"));
        // udt-lint: allow(unwrap)
        let k1 = u64::from_le_bytes(self.0[8..].try_into().expect("8 bytes"));
        (k0, k1)
    }

    /// Derive a labeled MAC key: two independent SipHash evaluations of
    /// the label under the pre-shared key form the derived key's halves.
    fn derive(&self, label: &[u8]) -> MacKey {
        let (p0, p1) = self.halves();
        let mut l0 = label.to_vec();
        l0.extend_from_slice(b".k0");
        let mut l1 = label.to_vec();
        l1.extend_from_slice(b".k1");
        MacKey {
            k0: siphash24(p0, p1, &l0),
            k1: siphash24(p0, p1, &l1),
        }
    }

    /// The handshake MAC key (shared by both directions: handshake tags
    /// are bound to a role via the `req_type` inside the serialization).
    pub fn handshake_key(&self) -> MacKey {
        self.derive(b"udt-auth.hs")
    }

    /// Per-connection, per-direction session key for packet trailer tags,
    /// bound to the client's fresh `nonce` and the listener's SYN
    /// `cookie` (the "both cookies" of the negotiation: one secret from
    /// each side of the exchange). Direction separation means a captured
    /// client→server packet can never verify as server→client traffic
    /// (reflection attacks).
    pub fn session_key(&self, nonce: u32, cookie: u32, client_to_server: bool) -> MacKey {
        let mut label = Vec::with_capacity(24);
        label.extend_from_slice(b"udt-auth.sess.");
        label.push(if client_to_server { b'c' } else { b's' });
        label.extend_from_slice(&nonce.to_be_bytes());
        label.extend_from_slice(&cookie.to_be_bytes());
        self.derive(&label)
    }
}

fn hex_val(c: u8) -> Result<u8, &'static str> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err("auth key contains a non-hex character"),
    }
}

/// A derived 128-bit MAC key (redacted `Debug`, like [`PreSharedKey`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MacKey {
    k0: u64,
    k1: u64,
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MacKey(..)")
    }
}

impl MacKey {
    /// MAC `msg` under this key.
    pub fn tag(&self, msg: &[u8]) -> u64 {
        siphash24(self.k0, self.k1, msg)
    }

    /// Constant-time verification of a claimed tag over `msg`.
    pub fn verify(&self, msg: &[u8], claimed: u64) -> bool {
        ct_eq64(self.tag(msg), claimed)
    }
}

/// Field-level MAC over a canonical serialization of one handshake packet.
///
/// Covers every semantic field (version, type, sequence, MSS, windows,
/// ids, the resilience extension, the auth flags and nonce) so an on-path
/// party can neither tamper with a handshake nor splice a captured one
/// into a different attempt: the client's fresh `nonce` is part of the
/// serialization, and `req_type` separates the three exchange roles.
pub fn handshake_tag(key: &MacKey, h: &HandshakeData, flags: u32, nonce: u32) -> u64 {
    let mut msg = Vec::with_capacity(64);
    msg.extend_from_slice(b"udt-auth.hs-tag");
    msg.extend_from_slice(&h.version.to_be_bytes());
    msg.extend_from_slice(&h.req_type.to_wire().to_be_bytes());
    msg.extend_from_slice(&h.init_seq.raw().to_be_bytes());
    msg.extend_from_slice(&h.mss.to_be_bytes());
    msg.extend_from_slice(&h.max_flow_win.to_be_bytes());
    msg.extend_from_slice(&h.socket_id.to_be_bytes());
    let (cookie, token, resume) = h
        .ext
        .map_or((0, 0, 0), |e| (e.cookie, e.session_token, e.resume_offset));
    msg.extend_from_slice(&cookie.to_be_bytes());
    msg.extend_from_slice(&token.to_be_bytes());
    msg.extend_from_slice(&resume.to_be_bytes());
    msg.extend_from_slice(&flags.to_be_bytes());
    msg.extend_from_slice(&nonce.to_be_bytes());
    key.tag(&msg)
}

/// Sequence-number capacity of the anti-replay bitmap. A power of two
/// that divides the 2³¹ sequence space, so the modular slot index is
/// wrap-transparent (the same sequence number always lands in the same
/// slot, before and after the space wraps).
pub const REPLAY_WINDOW_PKTS: u32 = 1 << 16;

const REPLAY_WORDS: usize = (REPLAY_WINDOW_PKTS as usize) / 64;

/// Verdict of [`ReplayWindow::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayCheck {
    /// Not seen before (or ahead of the window): deliverable.
    Fresh,
    /// Already delivered once, or too old to tell: a replay.
    Replay,
}

/// Sliding already-delivered bitmap over the 31-bit sequence space.
///
/// Semantics: [`mark`](ReplayWindow::mark) records a data packet that was
/// actually *delivered* to the connection; [`check`](ReplayWindow::check)
/// asks whether a verified-authentic packet should be dropped as a
/// replay. Legitimate retransmissions of packets that were lost (never
/// delivered, so never marked) stay `Fresh`; a captured copy of a
/// delivered packet is `Replay`. Anything further behind the newest
/// delivery than the window span is `Replay` too — the receive buffer
/// could not accept it anyway (its capacity is far smaller), so no
/// legitimate packet is ever that old.
///
/// `check` and `mark` are split so the caller can mark only after the
/// packet was really handed on (a packet shed by a full queue must stay
/// unmarked, or its retransmission would be swallowed as a replay).
pub struct ReplayWindow {
    /// Newest marked sequence number (valid once `primed`).
    top: SeqNo,
    primed: bool,
    bits: Vec<u64>,
}

impl Default for ReplayWindow {
    fn default() -> ReplayWindow {
        ReplayWindow::new()
    }
}

impl ReplayWindow {
    /// Empty window.
    pub fn new() -> ReplayWindow {
        ReplayWindow {
            top: SeqNo::ZERO,
            primed: false,
            bits: vec![0u64; REPLAY_WORDS],
        }
    }

    #[inline]
    fn slot(seq: SeqNo) -> (usize, u64) {
        let idx = (seq.raw() & (REPLAY_WINDOW_PKTS - 1)) as usize;
        (idx / 64, 1u64 << (idx % 64))
    }

    /// Was `seq` already delivered (or is it too old to tell)?
    pub fn check(&self, seq: SeqNo) -> ReplayCheck {
        if !self.primed {
            return ReplayCheck::Fresh;
        }
        let d = self.top.offset_to(seq);
        if d > 0 {
            return ReplayCheck::Fresh; // ahead of everything delivered
        }
        #[allow(clippy::cast_sign_loss)]
        let behind = (-d) as u32;
        if behind >= REPLAY_WINDOW_PKTS {
            return ReplayCheck::Replay; // older than the window remembers
        }
        let (w, m) = ReplayWindow::slot(seq);
        if self.bits[w] & m != 0 {
            ReplayCheck::Replay
        } else {
            ReplayCheck::Fresh
        }
    }

    /// Record that `seq` was delivered. Advancing past the previous top
    /// clears the slots in between (they now describe the new window).
    pub fn mark(&mut self, seq: SeqNo) {
        if !self.primed {
            self.primed = true;
            self.top = seq;
            let (w, m) = ReplayWindow::slot(seq);
            self.bits[w] |= m;
            return;
        }
        let d = self.top.offset_to(seq);
        if d > 0 {
            #[allow(clippy::cast_sign_loss)]
            let ahead = d as u32;
            if ahead >= REPLAY_WINDOW_PKTS {
                // Jumped a whole window: nothing recorded remains valid.
                self.bits.iter_mut().for_each(|w| *w = 0);
            } else {
                let mut s = self.top;
                for _ in 0..ahead.saturating_sub(1) {
                    s = s.next();
                    let (w, m) = ReplayWindow::slot(s);
                    self.bits[w] &= !m;
                }
            }
            self.top = seq;
        }
        let (w, m) = ReplayWindow::slot(seq);
        self.bits[w] |= m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::{HandshakeExt, HandshakeReqType};
    use crate::seqno::SEQ_MAX;

    #[test]
    fn siphash24_known_answers() {
        // Official SipHash-2-4 test vectors: key = 00..0f, message =
        // 00, 01, 02, … of increasing length.
        let k0 = 0x0706_0504_0302_0100u64;
        let k1 = 0x0f0e_0d0c_0b0a_0908u64;
        let msg: Vec<u8> = (0u8..16).collect();
        let expect: [u64; 9] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
            0x8567_6696_d7fb_7e2d,
            0xcf27_94e0_2771_87b7,
            0x1876_5564_cd99_a68d,
            0xcbc9_466e_58fe_e3ce,
            0xab02_00f5_8b01_d137,
            0x93f5_f579_9a93_2462,
        ];
        for (len, want) in expect.iter().enumerate() {
            assert_eq!(siphash24(k0, k1, &msg[..len]), *want, "len {len}");
        }
    }

    #[test]
    fn ct_eq64_agrees_with_eq() {
        let cases = [0u64, 1, u64::MAX, 0x8000_0000_0000_0000, 42];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(ct_eq64(a, b), a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn keys_redact_debug_output() {
        let psk = PreSharedKey::from_bytes([7u8; 16]);
        assert_eq!(format!("{psk:?}"), "PreSharedKey(..)");
        assert_eq!(format!("{:?}", psk.handshake_key()), "MacKey(..)");
    }

    #[test]
    fn hex_parsing_roundtrip_and_errors() {
        let psk = PreSharedKey::from_hex("000102030405060708090a0b0c0d0e0f").unwrap();
        assert_eq!(
            psk,
            PreSharedKey::from_bytes([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])
        );
        assert!(PreSharedKey::from_hex("deadbeef").is_err());
        assert!(PreSharedKey::from_hex("zz0102030405060708090a0b0c0d0e0f").is_err());
    }

    #[test]
    fn derived_keys_separate_by_label_and_direction() {
        let psk = PreSharedKey::from_bytes(*b"0123456789abcdef");
        let hs = psk.handshake_key();
        let c2s = psk.session_key(7, 9, true);
        let s2c = psk.session_key(7, 9, false);
        assert_ne!(hs.tag(b"x"), c2s.tag(b"x"));
        assert_ne!(c2s.tag(b"x"), s2c.tag(b"x"));
        assert_ne!(psk.session_key(8, 9, true).tag(b"x"), c2s.tag(b"x"));
        assert_ne!(psk.session_key(7, 10, true).tag(b"x"), c2s.tag(b"x"));
        // Deterministic: the same derivation always yields the same key.
        assert_eq!(psk.session_key(7, 9, true).tag(b"x"), c2s.tag(b"x"));
    }

    #[test]
    fn handshake_tag_binds_every_field() {
        let psk = PreSharedKey::from_bytes([3u8; 16]);
        let hs = psk.handshake_key();
        let base = HandshakeData {
            version: 2,
            req_type: HandshakeReqType::Request,
            init_seq: SeqNo::new(100),
            mss: 1500,
            max_flow_win: 8192,
            socket_id: 77,
            ext: Some(HandshakeExt {
                cookie: 5,
                session_token: 6,
                resume_offset: 7,
                auth: None,
            }),
        };
        let t0 = handshake_tag(&hs, &base, 0, 42);
        // Every mutated copy must produce a different tag.
        let mut m = base;
        m.version = 3;
        assert_ne!(handshake_tag(&hs, &m, 0, 42), t0);
        let mut m = base;
        m.req_type = HandshakeReqType::Response;
        assert_ne!(handshake_tag(&hs, &m, 0, 42), t0);
        let mut m = base;
        m.init_seq = SeqNo::new(101);
        assert_ne!(handshake_tag(&hs, &m, 0, 42), t0);
        let mut m = base;
        m.ext = Some(HandshakeExt {
            cookie: 9,
            session_token: 6,
            resume_offset: 7,
            auth: None,
        });
        assert_ne!(handshake_tag(&hs, &m, 0, 42), t0);
        assert_ne!(handshake_tag(&hs, &base, 1, 42), t0);
        assert_ne!(handshake_tag(&hs, &base, 0, 43), t0);
        // And the same inputs reproduce the same tag.
        assert_eq!(handshake_tag(&hs, &base, 0, 42), t0);
    }

    #[test]
    fn replay_window_basics() {
        let mut w = ReplayWindow::new();
        let s = SeqNo::new(1000);
        assert_eq!(w.check(s), ReplayCheck::Fresh);
        w.mark(s);
        assert_eq!(w.check(s), ReplayCheck::Replay);
        // A gap: 1001 lost (never marked), 1002 delivered.
        w.mark(SeqNo::new(1002));
        assert_eq!(w.check(SeqNo::new(1001)), ReplayCheck::Fresh);
        assert_eq!(w.check(SeqNo::new(1002)), ReplayCheck::Replay);
        assert_eq!(w.check(SeqNo::new(1000)), ReplayCheck::Replay);
        // Ahead is always fresh.
        assert_eq!(w.check(SeqNo::new(5000)), ReplayCheck::Fresh);
    }

    #[test]
    fn replay_window_expires_old_slots() {
        let mut w = ReplayWindow::new();
        w.mark(SeqNo::new(10));
        // Advance exactly one window: slot 10 must have been cleared by
        // the sweep, and anything behind the window reads as replay.
        w.mark(SeqNo::new(10 + REPLAY_WINDOW_PKTS));
        assert_eq!(w.check(SeqNo::new(10)), ReplayCheck::Replay); // too old
        assert_eq!(
            w.check(SeqNo::new(11 + REPLAY_WINDOW_PKTS)),
            ReplayCheck::Fresh
        );
        // The slot that aliases seq 10 (same index, one window later) was
        // cleared when the window slid — 10 + 2^16 itself is the top.
        assert_eq!(
            w.check(SeqNo::new(9 + REPLAY_WINDOW_PKTS)),
            ReplayCheck::Fresh
        );
    }

    #[test]
    fn replay_window_is_wrap_transparent() {
        let mut w = ReplayWindow::new();
        let hi = SeqNo::new(SEQ_MAX - 1);
        w.mark(hi);
        assert_eq!(w.check(hi), ReplayCheck::Replay);
        // Cross the 2³¹ wrap: mark SEQ_MAX and 1, leave 0 undelivered.
        w.mark(SeqNo::new(SEQ_MAX));
        w.mark(SeqNo::new(1));
        assert_eq!(w.check(SeqNo::new(0)), ReplayCheck::Fresh); // lost, retransmittable
        assert_eq!(w.check(SeqNo::new(SEQ_MAX)), ReplayCheck::Replay);
        assert_eq!(w.check(hi), ReplayCheck::Replay);
        assert_eq!(w.check(SeqNo::new(1)), ReplayCheck::Replay);
        w.mark(SeqNo::new(0));
        assert_eq!(w.check(SeqNo::new(0)), ReplayCheck::Replay);
        // Far ahead on the wrapped side stays fresh.
        assert_eq!(w.check(SeqNo::new(100)), ReplayCheck::Fresh);
    }

    #[test]
    fn replay_window_giant_jump_clears_everything() {
        let mut w = ReplayWindow::new();
        for i in 0..64u32 {
            w.mark(SeqNo::new(i));
        }
        // Jump several windows ahead: all old state must be invalid.
        let far = SeqNo::new(10 * REPLAY_WINDOW_PKTS);
        w.mark(far);
        assert_eq!(w.check(far), ReplayCheck::Replay);
        assert_eq!(w.check(far.next()), ReplayCheck::Fresh);
        // The aliased slots of 0..64 (same bitmap indices) are clean.
        assert_eq!(
            w.check(SeqNo::new(10 * REPLAY_WINDOW_PKTS - 7)),
            ReplayCheck::Fresh
        );
    }
}
