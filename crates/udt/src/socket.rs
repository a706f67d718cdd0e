//! Connection establishment: [`UdtListener`] and [`UdtConnection::connect`].
//!
//! The baseline handshake is a two-message exchange over UDP (§4.7-era
//! UDT):
//!
//! 1. the client sends a Handshake *request* (destination id 0) carrying
//!    its protocol version, initial sequence number, proposed MSS, maximum
//!    flow window, and its local socket id; it retransmits until answered;
//! 2. the server replies with a Handshake *response* addressed to the
//!    client's id, carrying the server's own initial sequence number,
//!    socket id, and the negotiated (minimum) MSS and window.
//!
//! Hardened listeners (the default) insert a SYN-cookie round before step
//! 2: an uncookied request is answered with a stateless *challenge*
//! carrying a cookie derived from a listener secret, the peer address and
//! a coarse time bucket; only a request echoing a valid cookie allocates
//! any state. The listener additionally rate-limits handshake traffic per
//! peer address, bounds the accept backlog, garbage-collects idle
//! handshake/session state, and supports [`UdtListener::drain`] for
//! graceful shutdown. Duplicate requests (response loss) are answered
//! idempotently from a small cache.
//!
//! Connection requests may carry the resilience extension (session token +
//! resume offset) used by [`crate::resilience`] to resume interrupted
//! transfers; the listener answers with the session's stored high-water
//! mark so an uploading client can skip what the server already has.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::Mutex;
use rand::Rng;

use udt_metrics::counters::{AuthCounters, AuthSnapshot, ListenerCounters, ListenerSnapshot};
use udt_proto::auth::{ct_eq64, handshake_tag, AuthField, MacKey, AUTH_REQUIRE};
use udt_proto::ctrl::{ControlBody, ControlPacket, HandshakeData, HandshakeExt, HandshakeReqType};
use udt_proto::{Packet, SeqNo, SEQ_MAX};
use udt_trace::{Emitter, EventKind, HsPhase};

use crate::auth::{AuthCtx, AuthPolicy};
use crate::config::UdtConfig;
use crate::conn::{SessionMeta, UdtConnection};
use crate::error::{Result, UdtError};
use crate::instrument::Instrument;
use crate::mux::Mux;
use crate::resilience::SessionTable;

/// UDT protocol version implemented (the SC'04 revision).
pub const UDT_VERSION: u32 = 2;

/// Global socket-id allocator (non-zero; id 0 addresses listeners).
static NEXT_ID: AtomicU32 = AtomicU32::new(0);

fn gen_socket_id() -> u32 {
    let base = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    // Salt with randomness so ids don't collide across processes.
    let salt: u32 = rand::thread_rng().gen_range(1..0x0100_0000);
    (salt.wrapping_mul(2654435761).wrapping_add(base)) | 1
}

fn gen_init_seq() -> SeqNo {
    SeqNo::new(rand::thread_rng().gen_range(0..=SEQ_MAX))
}

/// Depth, in packets, of the queue that holds a connection's inbound
/// traffic while its handshake completes ([`Mux::attach`] then switches
/// it to inline delivery). A peer can have its 16-packet initial window
/// in flight before we answer; the mux floors the queue at 64 batches.
const HANDSHAKE_QUEUE_PKTS: usize = 256;

/// Cookie time buckets are this wide; a cookie is honoured for the bucket
/// it was minted in plus the previous one, so its usable lifetime is
/// between one and two bucket widths (the classic SYN-cookie scheme).
const COOKIE_BUCKET: Duration = Duration::from_secs(64);

/// splitmix64 mixing step — the cookie MAC and jitter PRNG share it.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the handshake cookie for one (peer, socket id, time bucket).
/// Keyed by a per-listener random secret; never returns 0 (0 on the wire
/// means "no cookie yet").
fn cookie_for(secret: u64, peer: SocketAddr, socket_id: u32, bucket: u64) -> u32 {
    let mut h = secret;
    match peer.ip() {
        std::net::IpAddr::V4(v4) => {
            h = mix64(h ^ u64::from(u32::from(v4)));
        }
        std::net::IpAddr::V6(v6) => {
            let o = v6.octets();
            // Both 8-byte slices of a 16-byte array: infallible conversions.
            // udt-lint: allow(unwrap)
            h = mix64(h ^ u64::from_be_bytes(o[..8].try_into().expect("8 octets")));
            // udt-lint: allow(unwrap)
            h = mix64(h ^ u64::from_be_bytes(o[8..].try_into().expect("8 octets")));
        }
    }
    h = mix64(h ^ (u64::from(peer.port()) << 32) ^ u64::from(socket_id));
    h = mix64(h ^ bucket);
    let c = (h >> 32) as u32 ^ (h as u32);
    if c == 0 {
        1
    } else {
        c
    }
}

/// Fail fast on an unusable authentication configuration: `Prefer` and
/// `Require` promise MAC coverage they cannot deliver without key
/// material, so they are rejected before any packet is sent.
fn check_auth_cfg(cfg: &UdtConfig) -> Result<()> {
    if cfg.auth.enabled() && cfg.auth_key.is_none() {
        return Err(UdtError::AuthConfig(match cfg.auth {
            AuthPolicy::Require => "auth: Require without auth_key",
            _ => "auth: Prefer without auth_key",
        }));
    }
    Ok(())
}

/// Build the client-side verification context for one `(nonce, cookie)`
/// pair. Installed on the mux *eagerly* (with cookie 0) before the first
/// request and re-keyed when the listener's challenge supplies the real
/// cookie, so there is no window in which an authenticated peer's tagged
/// packets would be dropped as unverifiable.
fn client_auth_ctx(cfg: &UdtConfig, nonce: u32, cookie: u32, local_id: u32) -> Option<Arc<AuthCtx>> {
    let k = cfg.auth_key.as_ref()?;
    Some(Arc::new(AuthCtx::new(
        k.session_key(nonce, cookie, true),
        k.session_key(nonce, cookie, false),
        cfg.tracer.clone(),
        local_id,
        cfg.flight_dir.clone(),
    )))
}

impl UdtConnection {
    /// Connect to a UDT listener at `server`.
    pub fn connect(server: SocketAddr, cfg: UdtConfig) -> Result<UdtConnection> {
        UdtConnection::connect_session(server, cfg, 0, 0)
    }

    /// Connect carrying the resilience extension: `token` identifies a
    /// resumable session (0 = none) and `resume_offset` is this side's
    /// confirmed receive high-water mark for it. Used by
    /// [`crate::resilience::ResilientSession`]; plain [`connect`] passes
    /// zeros.
    ///
    /// [`connect`]: UdtConnection::connect
    pub fn connect_session(
        server: SocketAddr,
        cfg: UdtConfig,
        token: u64,
        resume_offset: u64,
    ) -> Result<UdtConnection> {
        let mut cfg = cfg;
        check_auth_cfg(&cfg)?;
        crate::obs::init(&mut cfg)?;
        let bind_addr: SocketAddr = if server.is_ipv4() {
            // udt-lint: allow(unwrap) — literal addresses always parse
            "0.0.0.0:0".parse().expect("addr")
        } else {
            // udt-lint: allow(unwrap)
            "[::]:0".parse().expect("addr")
        };
        let mux = Mux::bind(bind_addr, &cfg)?;
        let local_id = gen_socket_id();
        let rx = mux.register(local_id, HANDSHAKE_QUEUE_PKTS);
        let init_seq = cfg
            .force_init_seq
            .map(SeqNo::new)
            .unwrap_or_else(gen_init_seq);
        let instr = Instrument::default();
        let deadline = Instant::now() + cfg.connect_timeout;
        // UDT-AUTH negotiation state. The nonce is fresh per connect call
        // but constant across retransmissions, so the listener's
        // idempotent-response cache still works; the key (if policy is
        // `Off`) is deliberately left unused.
        let auth_on = cfg.auth.enabled();
        let auth_nonce: u32 = if auth_on { rand::thread_rng().gen() } else { 0 };
        let auth_flags = if cfg.auth == AuthPolicy::Require {
            AUTH_REQUIRE
        } else {
            0
        };
        let hs_key: Option<MacKey> = if auth_on {
            cfg.auth_key.as_ref().map(udt_proto::PreSharedKey::handshake_key)
        } else {
            None
        };
        let mut auth_ctx: Option<Arc<AuthCtx>> = None;
        if auth_on {
            auth_ctx = client_auth_ctx(&cfg, auth_nonce, 0, local_id);
            if let Some(c) = &auth_ctx {
                mux.set_auth(local_id, Arc::clone(c));
            }
        }
        // Echoed back once the listener challenges us; 0 until then.
        let mut cookie = 0u32;
        let mut retries = 0u32;
        // The most recent structurally-delivered-but-unacceptable answer;
        // reported instead of a bare timeout so the caller can tell "the
        // server is down" from "the server refused us".
        let mut reject: Option<&'static str> = None;
        // This end's handshake progress, on the trace (a client keeps no
        // handshake counters).
        let tracer = cfg.tracer.clone();
        let hs = move |phase, peer| tracer.emit(local_id, EventKind::Handshake { phase, peer });
        'solicit: loop {
            let mut req_h = HandshakeData {
                version: UDT_VERSION,
                req_type: HandshakeReqType::Request,
                init_seq,
                mss: cfg.mss,
                max_flow_win: cfg.rcv_buf_pkts,
                socket_id: local_id,
                ext: Some(HandshakeExt {
                    cookie,
                    session_token: token,
                    resume_offset,
                    auth: None,
                }),
            };
            if let Some(hk) = &hs_key {
                // Tag the request at field level (the trailer MAC cannot
                // cover the packet that negotiates it). The tag binds the
                // echoed cookie, so each cookie round gets a fresh one.
                let tag = handshake_tag(hk, &req_h, auth_flags, auth_nonce);
                if let Some(e) = &mut req_h.ext {
                    e.auth = Some(AuthField {
                        flags: auth_flags,
                        nonce: auth_nonce,
                        tag,
                    });
                }
            }
            let req = Packet::Control(ControlPacket {
                timestamp_us: 0,
                conn_id: 0,
                body: ControlBody::Handshake(req_h),
            });
            mux.send(&req, server, &instr)?;
            hs(HsPhase::Request, 0);
            retries += 1;
            let wait_until = Instant::now() + cfg.handshake_retry;
            loop {
                let now = Instant::now();
                if now >= wait_until {
                    break;
                }
                let batch = match rx.recv_timeout(wait_until - now) {
                    Ok(batch) => batch,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return Err(UdtError::NotConnected),
                };
                for (pkt, from, _) in batch {
                    let Packet::Control(c) = pkt else { continue };
                    let ControlBody::Handshake(h) = c.body else {
                        continue;
                    };
                    match h.req_type {
                        HandshakeReqType::Challenge => {
                            // Stateless listener wants proof of
                            // reachability: echo its cookie in a fresh
                            // request right away — but only adopt a
                            // cookie this endpoint's auth policy lets
                            // it trust.
                            if let Some(e) = h.ext {
                                match (e.auth, &hs_key) {
                                    (Some(af), Some(hk)) => {
                                        // Both sides keyed: the tag must
                                        // verify and the nonce must be
                                        // ours, else the challenge is
                                        // forged or cross-keyed.
                                        let tag =
                                            handshake_tag(hk, &h, af.flags, af.nonce);
                                        if !(ct_eq64(tag, af.tag)
                                            && af.nonce == auth_nonce)
                                        {
                                            reject = Some(
                                                "server authentication failed (key mismatch?)",
                                            );
                                            continue;
                                        }
                                        // Re-key the session context with
                                        // the real cookie before echoing
                                        // it (the listener derives from
                                        // the cookie it gets back).
                                        if let Some(c) = client_auth_ctx(
                                            &cfg, auth_nonce, e.cookie, local_id,
                                        ) {
                                            mux.set_auth(local_id, Arc::clone(&c));
                                            auth_ctx = Some(c);
                                        }
                                    }
                                    (Some(af), None) => {
                                        // Keyless side of a keyed server.
                                        if af.flags & AUTH_REQUIRE != 0 {
                                            reject =
                                                Some("server requires authentication");
                                            continue;
                                        }
                                    }
                                    (None, _) => {
                                        if cfg.auth == AuthPolicy::Require {
                                            reject = Some(
                                                "peer did not authenticate (auth required)",
                                            );
                                            continue;
                                        }
                                    }
                                }
                                cookie = e.cookie;
                                hs(HsPhase::Challenge, 0);
                                continue 'solicit;
                            }
                        }
                        HandshakeReqType::Response => {
                            // A response must be structurally plausible
                            // before it may establish state: right
                            // protocol version, a non-zero peer id (0
                            // addresses listeners), and an MSS a sane
                            // peer could have proposed. Anything else is
                            // remembered as a rejection and the retry
                            // loop re-solicits.
                            if h.version != UDT_VERSION {
                                reject = Some("peer speaks a different protocol version");
                                continue;
                            }
                            if h.socket_id == 0 {
                                reject = Some("peer answered with a zero socket id");
                                continue;
                            }
                            if h.mss < crate::config::MIN_MSS {
                                reject = Some("peer proposed an unusable MSS");
                                continue;
                            }
                            match (h.ext.and_then(|e| e.auth), &hs_key) {
                                (Some(af), Some(hk)) => {
                                    // Authenticated response: the tag
                                    // covers every negotiated field and
                                    // the nonce pins it to this attempt.
                                    let tag = handshake_tag(hk, &h, af.flags, af.nonce);
                                    if !(ct_eq64(tag, af.tag) && af.nonce == auth_nonce) {
                                        reject = Some(
                                            "server authentication failed (key mismatch?)",
                                        );
                                        continue;
                                    }
                                    // Keep the installed context: the
                                    // session is authenticated.
                                }
                                (None, Some(_)) => {
                                    if cfg.auth == AuthPolicy::Require {
                                        reject = Some(
                                            "peer did not authenticate (auth required)",
                                        );
                                        continue;
                                    }
                                    // Prefer: the peer cannot or will
                                    // not authenticate — downgrade to a
                                    // plaintext session.
                                    mux.clear_auth(local_id);
                                    auth_ctx = None;
                                }
                                // Keyless this side: any auth field the
                                // server sent is unverifiable noise (a
                                // Require server would not have answered
                                // a keyless request); ignore it.
                                (_, None) => {}
                            }
                            hs(HsPhase::Accepted, h.socket_id);
                            let negotiated = UdtConfig {
                                mss: cfg.mss.min(h.mss),
                                ..cfg
                            };
                            let meta = SessionMeta {
                                token,
                                peer_resume: h.ext.map_or(0, |e| e.resume_offset),
                            };
                            return UdtConnection::establish(
                                mux,
                                negotiated,
                                local_id,
                                h.socket_id,
                                from,
                                init_seq,
                                h.init_seq,
                                &rx,
                                meta,
                                auth_ctx,
                            );
                        }
                        HandshakeReqType::Request => {}
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err(match reject {
                    Some(reason) => {
                        hs(HsPhase::Rejected, 0);
                        // A refused handshake is a fatal event worth a
                        // flight recording, same as a broken connection.
                        if let Some(dir) = &cfg.flight_dir {
                            let _ = udt_trace::flight::dump(
                                dir,
                                local_id,
                                "handshake-rejected",
                                &cfg.tracer,
                            );
                        }
                        UdtError::HandshakeRejected { reason, retries }
                    }
                    None => UdtError::ConnectTimeout { retries },
                });
            }
        }
    }
}

/// Idempotent-response cache plus eviction metadata, shared between the
/// service thread and [`UdtListener::conn_table_len`].
type ConnTable = Arc<Mutex<HashMap<(SocketAddr, u32), (Packet, Instant)>>>;

/// A UDT listener: accepts connections on one UDP port. All accepted
/// connections share the port (demultiplexed by connection id).
pub struct UdtListener {
    mux: Arc<Mux>,
    accepted: Receiver<UdtConnection>,
    draining: Arc<AtomicBool>,
    counters: Arc<ListenerCounters>,
    auth_counters: Arc<AuthCounters>,
    sessions: Arc<SessionTable>,
    conn_table: ConnTable,
    service: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl UdtListener {
    /// Bind a listener.
    pub fn bind(addr: SocketAddr, cfg: UdtConfig) -> Result<UdtListener> {
        UdtListener::bind_with_sessions(addr, cfg, SessionTable::new())
    }

    /// Bind a listener sharing an externally-owned [`SessionTable`], so
    /// the application can record per-session transfer progress that
    /// survives individual connections (the resume high-water mark).
    pub fn bind_with_sessions(
        addr: SocketAddr,
        cfg: UdtConfig,
        sessions: Arc<SessionTable>,
    ) -> Result<UdtListener> {
        let mut cfg = cfg;
        check_auth_cfg(&cfg)?;
        let hub = crate::obs::init(&mut cfg)?;
        let mux = Mux::bind(addr, &cfg)?;
        let hs_queue = mux.set_listener();
        let (tx, rx) = crossbeam::channel::bounded(cfg.accept_backlog.max(1));
        let draining = Arc::new(AtomicBool::new(false));
        let hs: Emitter<ListenerCounters> = Emitter::new(cfg.tracer.clone(), 0, 0);
        let auth: Emitter<AuthCounters> = Emitter::new(cfg.tracer.clone(), 0, 0);
        let (counters, auth_counters) = (Arc::clone(hs.counters()), Arc::clone(auth.counters()));
        if let Some(hub) = hub {
            let port = mux.local_addr().port().to_string();
            let labels = [("listener", port.as_str())];
            // Fail-soft: a clash only degrades observability.
            let _ = hub.registry().register_family(&labels, Arc::clone(&counters));
            let _ = hub
                .registry()
                .register_family(&labels, Arc::clone(&auth_counters));
        }
        let conn_table: ConnTable = Arc::new(Mutex::new(HashMap::new()));
        let service = {
            let mux = Arc::clone(&mux);
            let draining = Arc::clone(&draining);
            let sessions = Arc::clone(&sessions);
            let conn_table = Arc::clone(&conn_table);
            std::thread::Builder::new()
                .name("udt-listen".into())
                .spawn(move || {
                    listener_service(ListenerCtx {
                        mux,
                        cfg,
                        hs_queue,
                        accepted: tx,
                        draining,
                        hs,
                        auth,
                        sessions,
                        conn_table,
                    });
                })?
        };
        Ok(UdtListener {
            mux,
            accepted: rx,
            draining,
            counters,
            auth_counters,
            sessions,
            conn_table,
            service: Mutex::new(Some(service)),
        })
    }

    /// The bound local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.mux.local_addr()
    }

    /// Block until a connection is established.
    pub fn accept(&self) -> Result<UdtConnection> {
        if self.draining.load(Ordering::Relaxed) {
            return Err(UdtError::Drained);
        }
        self.accepted.recv().map_err(|_| UdtError::NotConnected)
    }

    /// Accept with a timeout. `Ok(None)` means no connection arrived.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Option<UdtConnection>> {
        if self.draining.load(Ordering::Relaxed) {
            return Err(UdtError::Drained);
        }
        match self.accepted.recv_timeout(timeout) {
            Ok(c) => Ok(Some(c)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(UdtError::NotConnected),
        }
    }

    /// Graceful shutdown: stop answering new handshakes and refuse
    /// further [`accept`](UdtListener::accept) calls, but leave already
    /// established connections (which own their own threads and share the
    /// port demultiplexer) untouched so in-flight transfers finish. Keep
    /// the listener alive until those transfers are done — dropping it
    /// shuts the shared socket down.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Snapshot of the hardening counters (cookies, rate limiting,
    /// backlog, GC).
    pub fn counters(&self) -> ListenerSnapshot {
        self.counters.snapshot()
    }

    /// Snapshot of the handshake-level authentication counters: requests
    /// rejected for missing (`unauth_rejected`) or invalid (`tags_bad`)
    /// UDT-AUTH credentials, and requests whose field tag verified
    /// (`tags_ok`). Per-connection trailer-tag counters live on the
    /// connections themselves
    /// ([`UdtConnection::auth_counters`](crate::UdtConnection::auth_counters)).
    pub fn auth_counters(&self) -> AuthSnapshot {
        self.auth_counters.snapshot()
    }

    /// The session table used to answer resume offsets.
    pub fn sessions(&self) -> Arc<SessionTable> {
        Arc::clone(&self.sessions)
    }

    /// Number of handshake connection-table entries currently allocated
    /// (test observable: a flood that never echoes a cookie must leave
    /// this at zero).
    pub fn conn_table_len(&self) -> usize {
        self.conn_table.lock().len()
    }
}

impl Drop for UdtListener {
    fn drop(&mut self) {
        // Hangs up on the service thread's queue as well: it returns at once.
        self.mux.shutdown();
        if let Some(h) = self.service.lock().take() {
            let _ = h.join();
        }
    }
}

/// Everything the handshake service thread needs.
struct ListenerCtx {
    mux: Arc<Mux>,
    cfg: UdtConfig,
    hs_queue: Receiver<crate::mux::MuxMsg>,
    accepted: Sender<UdtConnection>,
    draining: Arc<AtomicBool>,
    /// Handshake events, tagged 0 (the listener) unless said otherwise;
    /// the hardening counters are their fold (`gc_evictions` has no event).
    hs: Emitter<ListenerCounters>,
    /// `auth_fail` / `auth_reject` events of handshakes, and their counters.
    auth: Emitter<AuthCounters>,
    sessions: Arc<SessionTable>,
    conn_table: ConnTable,
}

/// Per-peer handshake rate limiting: fixed one-second windows. The map
/// itself is attacker-influenced state, so it is swept aggressively and
/// hard-capped (dropping over-cap traffic is exactly the rate limiter's
/// job anyway).
struct RateTable {
    windows: HashMap<SocketAddr, (Instant, u32)>,
}

/// Above this many distinct peers in one sweep interval the rate table
/// stops admitting new ones (spoofed-source floods otherwise grow it
/// without bound).
const RATE_TABLE_CAP: usize = 4096;

impl RateTable {
    fn new() -> RateTable {
        RateTable {
            windows: HashMap::new(),
        }
    }

    /// `true` if a handshake from `peer` is within its per-second budget.
    fn admit(&mut self, peer: SocketAddr, limit: u32, now: Instant) -> bool {
        match self.windows.get_mut(&peer) {
            Some((start, count)) => {
                if now.duration_since(*start) >= Duration::from_secs(1) {
                    *start = now;
                    *count = 0;
                }
                *count += 1;
                *count <= limit
            }
            None => {
                if self.windows.len() >= RATE_TABLE_CAP {
                    return false;
                }
                self.windows.insert(peer, (now, 1));
                true
            }
        }
    }

    /// Drop windows idle long enough to have refilled anyway.
    fn sweep(&mut self, now: Instant) {
        self.windows
            .retain(|_, (start, _)| now.duration_since(*start) < Duration::from_secs(2));
    }
}

#[allow(clippy::needless_pass_by_value)] // thread entry point: owns its context
fn listener_service(ctx: ListenerCtx) {
    let instr = Instrument::default();
    let secret: u64 = rand::thread_rng().gen();
    let auth_on = ctx.cfg.auth.enabled();
    let hs_key: Option<MacKey> = if auth_on {
        ctx.cfg
            .auth_key
            .as_ref()
            .map(udt_proto::PreSharedKey::handshake_key)
    } else {
        None
    };
    let auth_flags = if ctx.cfg.auth == AuthPolicy::Require {
        AUTH_REQUIRE
    } else {
        0
    };
    let epoch = Instant::now();
    let mut rate = RateTable::new();
    let mut last_gc = Instant::now();
    let gc_interval = (ctx.cfg.handshake_cache_ttl / 4).max(Duration::from_secs(1));
    // Until the listener is dropped and `Mux::shutdown` hangs up on the queue.
    loop {
        let msg = ctx.hs_queue.recv_timeout(Duration::from_millis(100));
        let now = Instant::now();
        // Periodic GC of idle state, even when no traffic arrives.
        if now.duration_since(last_gc) >= gc_interval {
            last_gc = now;
            let ttl = ctx.cfg.handshake_cache_ttl;
            let mut evicted = 0u64;
            ctx.conn_table.lock().retain(|_, (_, seen)| {
                let keep = now.duration_since(*seen) < ttl;
                if !keep {
                    evicted += 1;
                }
                keep
            });
            evicted += ctx.sessions.gc(ttl);
            if evicted > 0 {
                ctx.hs.counters().gc_evictions(evicted);
            }
            rate.sweep(now);
        }
        let (pkt, from, _) = match msg {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let Packet::Control(c) = pkt else { continue };
        let ControlBody::Handshake(h) = c.body else {
            continue;
        };
        if h.req_type != HandshakeReqType::Request
            || h.version != UDT_VERSION
            || h.socket_id == 0
            || h.mss < crate::config::MIN_MSS
        {
            // Malformed or corrupted request: never let it negotiate an
            // unusable connection (e.g. an MSS below the header size).
            continue;
        }
        // A request answered with something other than a connection: one
        // event, which the hardening counters fold.
        let shed = |phase| {
            let peer = h.socket_id;
            ctx.hs.emit(EventKind::Handshake { phase, peer });
        };
        if !rate.admit(from, ctx.cfg.handshake_rate_limit, now) {
            shed(HsPhase::RateLimited);
            continue;
        }
        if ctx.draining.load(Ordering::Relaxed) {
            // Draining: answer nothing; the peer's solicitations time out.
            continue;
        }
        let key = (from, h.socket_id);
        let cached = {
            let mut table = ctx.conn_table.lock();
            table.get_mut(&key).map(|(resp, seen)| {
                // Duplicate request (our response was lost): re-answer
                // idempotently, refreshing the entry's idle clock.
                *seen = now;
                resp.clone()
            })
        };
        if let Some(resp) = cached {
            let _ = ctx.mux.send(&resp, from, &instr);
            continue;
        }
        // SYN-cookie gate: no state below this point for unproven peers.
        if ctx.cfg.require_cookie {
            let bucket = now.duration_since(epoch).as_secs() / COOKIE_BUCKET.as_secs();
            let echoed = h.ext.map_or(0, |e| e.cookie);
            let valid = echoed != 0
                && (echoed == cookie_for(secret, from, h.socket_id, bucket)
                    || (bucket > 0
                        && echoed == cookie_for(secret, from, h.socket_id, bucket - 1)));
            if !valid {
                if echoed != 0 {
                    // Wrong or expired cookie: say so, then re-challenge
                    // so a peer whose cookie merely aged out can recover.
                    shed(HsPhase::Rejected);
                }
                shed(HsPhase::Challenge);
                let mut ch_h = HandshakeData {
                    version: UDT_VERSION,
                    req_type: HandshakeReqType::Challenge,
                    init_seq: h.init_seq,
                    mss: h.mss,
                    max_flow_win: h.max_flow_win,
                    socket_id: 0,
                    ext: Some(HandshakeExt {
                        cookie: cookie_for(secret, from, h.socket_id, bucket),
                        session_token: h.ext.map_or(0, |e| e.session_token),
                        resume_offset: 0,
                        auth: None,
                    }),
                };
                if let Some(hk) = &hs_key {
                    // Authenticate the challenge (and with it, the cookie)
                    // so a keyed client only echoes cookies this listener
                    // really minted. The client's nonce is echoed back;
                    // keyless clients get nonce 0 and ignore the field.
                    let nonce = h.ext.and_then(|e| e.auth).map_or(0, |af| af.nonce);
                    let tag = handshake_tag(hk, &ch_h, auth_flags, nonce);
                    if let Some(e) = &mut ch_h.ext {
                        e.auth = Some(AuthField {
                            flags: auth_flags,
                            nonce,
                            tag,
                        });
                    }
                }
                let challenge = Packet::Control(ControlPacket {
                    timestamp_us: 0,
                    conn_id: h.socket_id,
                    body: ControlBody::Handshake(ch_h),
                });
                let _ = ctx.mux.send(&challenge, from, &instr);
                continue;
            }
        }
        // UDT-AUTH gate: a request past the cookie proof must also present
        // a valid field-level tag before an authenticated session is
        // granted. Under `Require` an unauthenticated request is dropped
        // as silently as a bad cookie (no oracle for key guessing), but on
        // the trace; under `Prefer` it falls back to plaintext.
        let req_auth = h.ext.and_then(|e| e.auth);
        let authenticated = match (&hs_key, req_auth) {
            (Some(hk), Some(af)) => {
                let ok = ct_eq64(handshake_tag(hk, &h, af.flags, af.nonce), af.tag);
                if ok {
                    ctx.auth.counters().tags_ok(1);
                } else {
                    // A tag was presented but did not verify: wrong key or
                    // a tampered handshake (`seq` 0: not a data packet).
                    ctx.auth.emit(EventKind::AuthFail { seq: 0 });
                }
                ok
            }
            _ => false,
        };
        if auth_on && !authenticated && ctx.cfg.auth == AuthPolicy::Require {
            if req_auth.is_none() {
                ctx.auth.emit(EventKind::AuthReject { peer: h.socket_id });
            }
            continue;
        }
        // Backlog gate: a full accept queue sheds load *before* any
        // allocation, and the shed request is not cached, so the peer's
        // retransmission retries cleanly once the queue empties.
        if ctx.accepted.len() >= ctx.cfg.accept_backlog {
            shed(HsPhase::BacklogDrop);
            continue;
        }
        let local_id = gen_socket_id();
        let our_init = ctx
            .cfg
            .force_init_seq
            .map(SeqNo::new)
            .unwrap_or_else(gen_init_seq);
        let negotiated_mss = ctx.cfg.mss.min(h.mss);
        let token = h.ext.map_or(0, |e| e.session_token);
        let resp_ext = h.ext.map(|e| HandshakeExt {
            cookie: 0,
            session_token: e.session_token,
            // Upload resume: tell the client how much of this session we
            // already confirmed, so it can skip re-sending it.
            resume_offset: ctx.sessions.offset(token),
            auth: None,
        });
        let mut resp_h = HandshakeData {
            version: UDT_VERSION,
            req_type: HandshakeReqType::Response,
            init_seq: our_init,
            mss: negotiated_mss,
            max_flow_win: ctx.cfg.rcv_buf_pkts,
            socket_id: local_id,
            ext: resp_ext,
        };
        if authenticated {
            // Close the loop: tag the response (binding the negotiated
            // parameters and the client's nonce) so the client knows an
            // authenticated session was really granted by the key holder.
            if let (Some(hk), Some(af)) = (&hs_key, req_auth) {
                let tag = handshake_tag(hk, &resp_h, auth_flags, af.nonce);
                if let Some(e) = &mut resp_h.ext {
                    e.auth = Some(AuthField {
                        flags: auth_flags,
                        nonce: af.nonce,
                        tag,
                    });
                }
            }
        }
        let resp = Packet::Control(ControlPacket {
            timestamp_us: 0,
            conn_id: h.socket_id,
            body: ControlBody::Handshake(resp_h),
        });
        let rx = ctx.mux.register(local_id, HANDSHAKE_QUEUE_PKTS);
        let conn_auth = if authenticated {
            req_auth.and_then(|af| {
                let k = ctx.cfg.auth_key.as_ref()?;
                // Session keys derive from the client's fresh nonce plus
                // the cookie it echoed (0 when `require_cookie` is off —
                // the client derived with 0 too, having never been
                // challenged).
                let echoed = h.ext.map_or(0, |e| e.cookie);
                Some(Arc::new(AuthCtx::new(
                    k.session_key(af.nonce, echoed, false),
                    k.session_key(af.nonce, echoed, true),
                    ctx.cfg.tracer.clone(),
                    local_id,
                    ctx.cfg.flight_dir.clone(),
                )))
            })
        } else {
            None
        };
        if let Some(c) = &conn_auth {
            // Enforcement must precede the response: the client may send
            // tagged packets the instant it processes our answer.
            ctx.mux.set_auth(local_id, Arc::clone(c));
        }
        let conn_cfg = UdtConfig {
            mss: negotiated_mss,
            ..ctx.cfg.clone()
        };
        let meta = SessionMeta {
            token,
            peer_resume: h.ext.map_or(0, |e| e.resume_offset),
        };
        let conn = match UdtConnection::establish(
            Arc::clone(&ctx.mux),
            conn_cfg,
            local_id,
            h.socket_id,
            from,
            our_init,
            h.init_seq,
            &rx,
            meta,
            conn_auth,
        ) {
            Ok(conn) => conn,
            Err(_) => {
                // Thread spawn failed (resource exhaustion). Allocate no
                // state and stay silent; the peer's retry finds a
                // hopefully-healthier process.
                return;
            }
        };
        let _ = ctx.mux.send(&resp, from, &instr);
        ctx.conn_table.lock().insert(key, (resp, now));
        match ctx.accepted.try_send(conn) {
            Ok(()) => ctx.hs.emit_as(
                local_id,
                EventKind::Handshake {
                    phase: HsPhase::Accepted,
                    peer: h.socket_id,
                },
            ),
            Err(TrySendError::Full(conn)) => {
                // Raced past the pre-check; undo so the peer retries.
                shed(HsPhase::BacklogDrop);
                ctx.conn_table.lock().remove(&key);
                drop(conn);
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_ids_are_nonzero_and_distinct() {
        let a = gen_socket_id();
        let b = gen_socket_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn cookies_differ_by_peer_and_bucket_and_never_zero() {
        let a: SocketAddr = "10.0.0.1:5000".parse().unwrap();
        let b: SocketAddr = "10.0.0.2:5000".parse().unwrap();
        assert_ne!(cookie_for(7, a, 1, 0), cookie_for(7, b, 1, 0));
        assert_ne!(cookie_for(7, a, 1, 0), cookie_for(7, a, 1, 1));
        assert_ne!(cookie_for(7, a, 1, 0), cookie_for(8, a, 1, 0));
        for s in 0..64u64 {
            assert_ne!(cookie_for(s, a, 1, 0), 0);
        }
        let v6: SocketAddr = "[2001:db8::1]:5000".parse().unwrap();
        assert_ne!(cookie_for(7, v6, 1, 0), 0);
    }

    #[test]
    fn connect_times_out_without_server() {
        let cfg = UdtConfig {
            connect_timeout: Duration::from_millis(300),
            handshake_retry: Duration::from_millis(50),
            ..UdtConfig::default()
        };
        // An ephemeral UDP port with nothing listening on UDT.
        let err = UdtConnection::connect("127.0.0.1:9".parse().unwrap(), cfg);
        match err {
            Err(UdtError::ConnectTimeout { retries }) => assert!(retries >= 2),
            Err(other) => panic!("expected ConnectTimeout, got {other:?}"),
            Ok(_) => panic!("expected ConnectTimeout, got a connection"),
        }
    }

    #[test]
    fn dropping_a_listener_does_not_wait_out_a_poll_tick() {
        // Best of three; the service thread polls its queue every 100 ms.
        let took = (0..3).map(|_| {
            let l = UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default());
            let t0 = Instant::now();
            drop(l.unwrap());
            t0.elapsed()
        });
        let took = took.min().unwrap();
        assert!(took < Duration::from_millis(20), "drop took {took:?}");
    }

    #[test]
    fn loopback_connect_and_echo() {
        let listener =
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut buf = vec![0u8; 1 << 16];
            let mut total = Vec::new();
            loop {
                let n = conn.recv(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                total.extend_from_slice(&buf[..n]);
            }
            total
        });
        let conn = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        conn.send(&payload).unwrap();
        conn.close().unwrap();
        let got = server.join().unwrap();
        assert_eq!(got.len(), payload.len());
        assert_eq!(got, payload);
    }

    #[test]
    fn round_trips_stay_clean_and_on_the_mux_thread() {
        use crate::ConnStats;
        const ROUNDS: u64 = 500;
        let listener =
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut req = [0u8; 64];
            for _ in 0..ROUNDS {
                conn.recv_exact(&mut req).unwrap();
                conn.send(&[req[0]; 1024]).unwrap();
            }
            (listener, conn)
        });
        let client = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
        let mut rsp = [0u8; 1024];
        for i in 0..ROUNDS {
            client.send(&[i as u8; 64]).unwrap();
            client.recv_exact(&mut rsp).unwrap();
            assert!(rsp.iter().all(|&b| b == i as u8), "round {i} echoed wrong");
        }
        let (_listener, server) = server.join().unwrap();
        for (name, conn) in [("client", &client), ("server", &server)] {
            let st = conn.stats();
            assert_eq!(ConnStats::get(&st.pkts_received), ROUNDS, "{name}");
            assert_eq!(ConnStats::get(&st.naks_sent), 0, "{name} sent NAKs");
            assert_eq!(ConnStats::get(&st.naks_received), 0, "{name} got NAKs");
            assert_eq!(ConnStats::get(&st.pkts_duplicate), 0, "{name} saw duplicates");
            assert_eq!(ConnStats::get(&st.pkts_rejected), 0, "{name} rejected packets");
            // One receive path: nothing was processed off the demux thread
            // (neither side had data queued while its handshake ran).
            assert_eq!(conn.sh.off_mux_data.load(Ordering::Relaxed), 0, "{name}");
        }
    }

    #[test]
    fn legacy_client_connects_when_cookie_not_required() {
        // A listener configured for pre-extension peers accepts a request
        // with no extension and answers with a bare response.
        let listener = UdtListener::bind(
            "127.0.0.1:0".parse().unwrap(),
            UdtConfig {
                require_cookie: false,
                ..UdtConfig::default()
            },
        )
        .unwrap();
        let addr = listener.local_addr();
        let handle = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            (listener, c)
        });
        let conn = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
        let (listener, server_conn) = handle.join().unwrap();
        assert_eq!(listener.counters().handshakes_accepted, 1);
        assert_eq!(server_conn.session_token(), 0);
        conn.close().unwrap();
    }

    #[test]
    fn mss_negotiates_to_minimum() {
        let listener = UdtListener::bind(
            "127.0.0.1:0".parse().unwrap(),
            UdtConfig {
                mss: 9000,
                ..UdtConfig::default()
            },
        )
        .unwrap();
        let addr = listener.local_addr();
        let handle = std::thread::spawn(move || listener.accept().unwrap());
        let conn = UdtConnection::connect(
            addr,
            UdtConfig {
                mss: 1400,
                ..UdtConfig::default()
            },
        )
        .unwrap();
        let server_conn = handle.join().unwrap();
        assert_eq!(conn.config().mss, 1400);
        assert_eq!(server_conn.config().mss, 1400);
        conn.close().unwrap();
    }

    #[test]
    fn multiple_connections_share_listener_port() {
        let listener =
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let mut sums = Vec::new();
            for _ in 0..3 {
                let conn = listener.accept().unwrap();
                let mut buf = vec![0u8; 4096];
                let mut sum = 0u64;
                loop {
                    let n = conn.recv(&mut buf).unwrap();
                    if n == 0 {
                        break;
                    }
                    sum += buf[..n].iter().map(|&b| u64::from(b)).sum::<u64>();
                }
                sums.push(sum);
            }
            sums
        });
        let mut want = Vec::new();
        let mut clients = Vec::new();
        for k in 1..=3u8 {
            let conn = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
            let data = vec![k; 10_000];
            want.push(10_000u64 * u64::from(k));
            conn.send(&data).unwrap();
            clients.push(conn);
        }
        for c in clients {
            c.close().unwrap();
        }
        let mut got = server.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn accept_timeout_returns_none_under_no_load() {
        let listener =
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
        let got = listener.accept_timeout(Duration::from_millis(100)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn accept_after_drain_is_refused() {
        let listener =
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
        listener.drain();
        assert!(matches!(listener.accept(), Err(UdtError::Drained)));
        assert!(matches!(
            listener.accept_timeout(Duration::from_millis(10)),
            Err(UdtError::Drained)
        ));
        // And new handshakes go unanswered: a connect against the drained
        // listener times out rather than establishing.
        let addr = listener.local_addr();
        let err = UdtConnection::connect(
            addr,
            UdtConfig {
                connect_timeout: Duration::from_millis(300),
                handshake_retry: Duration::from_millis(50),
                ..UdtConfig::default()
            },
        );
        assert!(matches!(err, Err(UdtError::ConnectTimeout { .. })));
        assert_eq!(listener.conn_table_len(), 0);
    }

    #[test]
    fn listener_drop_mid_handshake_joins_service_thread() {
        // Drop the listener while a client is mid-solicitation; Drop must
        // join the "udt-listen" service thread (no leak), and the client
        // must fail cleanly rather than hang.
        let listener = UdtListener::bind(
            "127.0.0.1:0".parse().unwrap(),
            UdtConfig {
                // Never answer the first solicitation so the handshake is
                // genuinely in flight when the listener dies.
                handshake_rate_limit: 0,
                ..UdtConfig::default()
            },
        )
        .unwrap();
        let addr = listener.local_addr();
        let client = std::thread::spawn(move || {
            UdtConnection::connect(
                addr,
                UdtConfig {
                    connect_timeout: Duration::from_millis(500),
                    handshake_retry: Duration::from_millis(50),
                    ..UdtConfig::default()
                },
            )
        });
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        drop(listener); // joins the service thread internally
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "listener drop must not hang on its service thread"
        );
        assert!(client.join().unwrap().is_err());
    }
}
