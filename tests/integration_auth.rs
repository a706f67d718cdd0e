//! UDT-AUTH integration: the authenticated transport profile end to end.
//!
//! Covers the negotiation matrix (Off/Prefer/Require × keyed/keyless),
//! fail-fast misconfiguration, and — the point of the profile — behaviour
//! under an *active adversary* (the udt-chaos `Adversary` impairment):
//!
//! * a plaintext session demonstrably accepts forged/corrupted traffic or
//!   dies to a spoofed Shutdown;
//! * the same seeded adversary against an authenticated session delivers a
//!   byte-identical stream with every forgery and replay rejected and
//!   counted (visible in the trace timeline).

// Test data patterns use deliberate truncating casts.
#![allow(clippy::cast_possible_truncation)]

use std::time::Duration;

use udt::{AuthPolicy, PreSharedKey, UdtConfig, UdtConnection, UdtError, UdtListener};
use linkemu::LinkEmu;
use udt_chaos::scenario::{ImpairmentSpec, Scenario};
use udt_proto::SEQ_MAX;
use udt_trace::{EventKind, Tracer};

/// Real-socket tests spin sender/receiver/relay threads with busy-wait
/// pacing; serialize them so CI timing assumptions hold (same pattern as
/// `integration_chaos.rs`).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(0x9E3779B9) >> 9) as u8 ^ salt)
        .collect()
}

const KEY: [u8; 16] = [0x42; 16];

fn keyed(policy: AuthPolicy) -> UdtConfig {
    UdtConfig {
        auth: policy,
        auth_key: Some(PreSharedKey::from_bytes(KEY)),
        linger: Duration::from_secs(30),
        ..UdtConfig::default()
    }
}

fn plain() -> UdtConfig {
    UdtConfig {
        linger: Duration::from_secs(30),
        ..UdtConfig::default()
    }
}

/// Receive everything until EOF (or an error, for sessions an adversary
/// managed to kill); returns the bytes that were delivered.
fn recv_all(conn: &UdtConnection) -> Vec<u8> {
    let mut buf = vec![0u8; 1 << 16];
    let mut out = Vec::new();
    loop {
        match conn.recv(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Negotiation matrix.
// ---------------------------------------------------------------------------

#[test]
fn authenticated_loopback_transfer_counts_tags() {
    let _serial = serial();
    let listener =
        UdtListener::bind("127.0.0.1:0".parse().unwrap(), keyed(AuthPolicy::Require)).unwrap();
    let l_counters = {
        let server = std::thread::spawn({
            let listener_addr = listener.local_addr();
            move || {
                let conn = UdtConnection::connect(listener_addr, keyed(AuthPolicy::Require))
                    .expect("authenticated connect");
                assert!(conn.is_authenticated(), "client session must be authed");
                let data = pattern(500_000, 0x11);
                conn.send(&data).unwrap();
                conn.close().unwrap();
                data
            }
        });
        let conn = listener.accept().unwrap();
        assert!(conn.is_authenticated(), "server session must be authed");
        let got = recv_all(&conn);
        let sent = server.join().unwrap();
        assert_eq!(got, sent, "authenticated transfer corrupted");
        let c = conn.auth_counters().expect("auth counters on authed conn");
        assert!(c.tags_ok > 0, "no inbound tags verified: {c:?}");
        assert_eq!(c.tags_bad, 0, "clean loopback produced bad tags: {c:?}");
        assert_eq!(c.replays, 0, "clean loopback produced replays: {c:?}");
        listener.auth_counters()
    };
    // The listener verified at least the final cookied request's field tag.
    assert!(l_counters.tags_ok >= 1, "listener verified no handshakes");
    assert_eq!(l_counters.unauth_rejected, 0);
}

#[test]
fn require_client_rejects_plaintext_server_with_typed_error() {
    let _serial = serial();
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), plain()).unwrap();
    let addr = listener.local_addr();
    // Keep the listener accepting so the client really talks to it.
    let _srv = std::thread::spawn(move || {
        let _ = listener.accept_timeout(Duration::from_secs(3));
        listener
    });
    let cfg = UdtConfig {
        connect_timeout: Duration::from_millis(1200),
        ..keyed(AuthPolicy::Require)
    };
    match UdtConnection::connect(addr, cfg) {
        Err(UdtError::HandshakeRejected { reason, .. }) => {
            assert!(
                reason.contains("did not authenticate"),
                "wrong reason: {reason}"
            );
        }
        Err(other) => panic!("expected HandshakeRejected, got {other:?}"),
        Ok(_) => panic!("expected HandshakeRejected, got a connection"),
    }
}

#[test]
fn require_server_drops_plaintext_and_wrong_key_clients() {
    let _serial = serial();
    // Without the cookie round the request reaches the auth gate directly,
    // exercising the listener's unauth_rejected / tags_bad accounting.
    let cfg = UdtConfig {
        require_cookie: false,
        ..keyed(AuthPolicy::Require)
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg).unwrap();
    let addr = listener.local_addr();
    let short = |cfg: UdtConfig| UdtConfig {
        connect_timeout: Duration::from_millis(900),
        ..cfg
    };
    // Plaintext client: silently ignored, so the connect times out.
    match UdtConnection::connect(addr, short(plain())) {
        Err(UdtError::ConnectTimeout { .. }) => {}
        Err(other) => panic!("expected ConnectTimeout, got {other:?}"),
        Ok(_) => panic!("expected ConnectTimeout, got a connection"),
    }
    assert!(
        listener.auth_counters().unauth_rejected > 0,
        "plaintext request was not counted as rejected"
    );
    // Wrong-key client: counted as a bad tag, equally silently.
    let wrong = UdtConfig {
        auth_key: Some(PreSharedKey::from_bytes([0x66; 16])),
        ..short(keyed(AuthPolicy::Require))
    };
    match UdtConnection::connect(addr, wrong) {
        Err(UdtError::ConnectTimeout { .. } | UdtError::HandshakeRejected { .. }) => {}
        Err(other) => panic!("expected a failed connect, got {other:?}"),
        Ok(_) => panic!("expected a failed connect, got a connection"),
    }
    assert!(
        listener.auth_counters().tags_bad > 0,
        "wrong-key request was not counted"
    );
}

#[test]
fn prefer_downgrades_to_plaintext_against_keyless_peers() {
    let _serial = serial();
    // Keyed Prefer client ↔ plaintext server.
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), plain()).unwrap();
    let addr = listener.local_addr();
    let srv = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        recv_all(&conn)
    });
    let conn = UdtConnection::connect(addr, keyed(AuthPolicy::Prefer)).unwrap();
    assert!(
        !conn.is_authenticated(),
        "downgraded session must be plaintext"
    );
    assert!(conn.auth_counters().is_none());
    let data = pattern(200_000, 0x22);
    conn.send(&data).unwrap();
    conn.close().unwrap();
    assert_eq!(srv.join().unwrap(), data);

    // Plaintext client ↔ keyed Prefer server.
    let listener =
        UdtListener::bind("127.0.0.1:0".parse().unwrap(), keyed(AuthPolicy::Prefer)).unwrap();
    let addr = listener.local_addr();
    let srv = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let authed = conn.is_authenticated();
        (recv_all(&conn), authed)
    });
    let conn = UdtConnection::connect(addr, plain()).unwrap();
    assert!(!conn.is_authenticated());
    let data = pattern(200_000, 0x33);
    conn.send(&data).unwrap();
    conn.close().unwrap();
    let (got, authed) = srv.join().unwrap();
    assert_eq!(got, data);
    assert!(!authed, "server must have downgraded too");
}

#[test]
fn misconfigured_auth_fails_fast() {
    let cfg = UdtConfig {
        auth: AuthPolicy::Require,
        ..UdtConfig::default()
    };
    assert!(matches!(
        UdtConnection::connect("127.0.0.1:9".parse().unwrap(), cfg.clone()),
        Err(UdtError::AuthConfig(_))
    ));
    assert!(matches!(
        UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg),
        Err(UdtError::AuthConfig(_))
    ));
}

// ---------------------------------------------------------------------------
// Active adversary.
// ---------------------------------------------------------------------------

/// Run one transfer through a fault-injecting relay under `scenario`. Returns
/// `(sent, received, server tags_bad, server replays)`.
fn adversarial_transfer(
    scenario: &Scenario,
    cfg: UdtConfig,
    bytes: usize,
) -> (Vec<u8>, Vec<u8>, u64, u64) {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let relay = LinkEmu::from_scenario(scenario, listener.local_addr()).unwrap();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let got = recv_all(&conn);
        let (bad, replays) = conn
            .auth_counters()
            .map_or((0, 0), |c| (c.tags_bad, c.replays));
        (got, bad, replays)
    });
    let conn = UdtConnection::connect(relay.client_addr(), cfg).unwrap();
    let data = pattern(bytes, 0x5A);
    // An adversary may kill a plaintext session mid-send; that is the
    // observable result, not a test failure.
    let _ = conn.send(&data);
    let _ = conn.close();
    let (got, bad, replays) = server.join().unwrap();
    relay.shutdown();
    (data, got, bad, replays)
}

/// The satellite regression: one spoofed Shutdown must not tear down an
/// authenticated connection — while it demonstrably kills a plaintext one.
#[test]
fn spoofed_shutdown_kills_plaintext_but_not_authenticated_sessions() {
    let _serial = serial();
    let scenario = |seed| {
        Scenario::new("shutdown-spoof", seed)
            .forward(ImpairmentSpec::Adversary {
                forge_data: 0.0,
                forge_ack: 0.0,
                replay: 0.0,
                tag_flip: 0.0,
                forge_shutdown_after: Some(60),
            })
            .forward(ImpairmentSpec::RateClamp {
                bps: 40_000_000.0,
                max_backlog_us: 500_000,
            })
    };
    // Plaintext: the forged Shutdown is obeyed and the transfer truncates.
    let short_linger = UdtConfig {
        linger: Duration::from_secs(2),
        ..plain()
    };
    let (sent, got, _, _) = adversarial_transfer(&scenario(7), short_linger, 2_000_000);
    assert!(
        got.len() < sent.len(),
        "plaintext session should have died to the spoofed Shutdown \
         (got {} of {} bytes)",
        got.len(),
        sent.len()
    );
    // Authenticated: same seed, same forgery — rejected, counted, survived.
    let (sent, got, bad, _) =
        adversarial_transfer(&scenario(7), keyed(AuthPolicy::Require), 2_000_000);
    assert_eq!(got, sent, "authenticated transfer must complete intact");
    assert!(bad >= 1, "the forged Shutdown was never counted");
}

/// The headline acceptance scenario: forged DATA/ACKs, captured replays,
/// tag bit-flips and a spoofed Shutdown, all from one seed. The plaintext
/// session accepts corruption or dies; the authenticated session delivers
/// byte-identically with every attack rejected, counted, and on the trace.
#[test]
fn seeded_adversary_corrupts_plaintext_but_not_authenticated_transfers() {
    let _serial = serial();
    let scenario = |seed| {
        Scenario::new("adversary", seed)
            .forward(ImpairmentSpec::Adversary {
                forge_data: 0.05,
                forge_ack: 0.02,
                replay: 0.05,
                tag_flip: 0.02,
                forge_shutdown_after: Some(800),
            })
            .forward(ImpairmentSpec::RateClamp {
                bps: 40_000_000.0,
                max_backlog_us: 500_000,
            })
    };
    let short_linger = UdtConfig {
        linger: Duration::from_secs(2),
        ..plain()
    };
    let (sent, got, _, _) = adversarial_transfer(&scenario(0xBAD), short_linger, 2_000_000);
    assert_ne!(
        got, sent,
        "plaintext session should have accepted forged/corrupted data or died"
    );
    // Authenticated run, with a tracer to see the rejections land.
    let tracer = Tracer::ring(1 << 14);
    let cfg = UdtConfig {
        tracer: tracer.clone(),
        ..keyed(AuthPolicy::Require)
    };
    let (sent, got, bad, replays) = adversarial_transfer(&scenario(0xBAD), cfg, 2_000_000);
    assert_eq!(
        got, sent,
        "authenticated transfer must be byte-identical under the adversary"
    );
    assert!(bad > 0, "forgeries/tag flips were never counted");
    assert!(replays > 0, "replays were never counted");
    let events = tracer.snapshot();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::AuthFail { .. })),
        "no auth_fail events on the trace"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::AuthReplay { .. })),
        "no auth_replay events on the trace"
    );
}

/// Anti-replay across the 2³¹ sequence wrap: start just below `SEQ_MAX`
/// so the transfer crosses it, with an adversary replaying 10% of
/// captured traffic. The window must both reject the replays *and* stay
/// transparent to the wrap (no stall, no false positives on fresh data).
#[test]
fn replay_window_survives_sequence_wrap() {
    let _serial = serial();
    // Clamp the data rate so the transfer (~400 ms) comfortably outlasts
    // REPLAY_DELAY_US — replays must land while the stream is still live.
    let scenario = Scenario::new("wrap-replay", 3)
        .forward(ImpairmentSpec::Adversary {
            forge_data: 0.0,
            forge_ack: 0.0,
            replay: 0.1,
            tag_flip: 0.0,
            forge_shutdown_after: None,
        })
        .forward(ImpairmentSpec::RateClamp {
            bps: 20_000_000.0,
            max_backlog_us: 500_000,
        });
    let cfg = UdtConfig {
        force_init_seq: Some(SEQ_MAX - 200),
        ..keyed(AuthPolicy::Require)
    };
    let (sent, got, _, replays) = adversarial_transfer(&scenario, cfg, 1_000_000);
    assert_eq!(got, sent, "transfer must cross the wrap intact");
    assert!(replays > 0, "replays across the wrap were never detected");
}

/// A forged *answer* to a `Shutdown`. The peer is unreachable (the relay is
/// gone), so nothing genuine can answer the client's close; an off-path
/// attacker who knows the connection id then sends the 16 bytes that would.
/// Returns `(copies the client sent, whether it took the exchange as
/// answered, forgeries its auth gate counted)`.
fn close_with_a_forged_answer(cfg: UdtConfig) -> (usize, bool, u64) {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let relay = LinkEmu::from_scenario(&Scenario::new("clean", 1), listener.local_addr()).unwrap();
    let (hang_up, wait) = std::sync::mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let _ = wait.recv();
        drop(conn);
    });
    let tracer = Tracer::ring(1 << 12);
    let cfg = UdtConfig {
        tracer: tracer.clone(),
        ..cfg
    };
    let client = UdtConnection::connect(relay.client_addr(), cfg).unwrap();
    client.send(b"x").unwrap();
    while client.unflushed_pkts() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    relay.shutdown();
    // Events carry the id packets for this connection must be addressed to.
    let id = tracer.snapshot().iter().map(|e| e.conn).find(|&c| c != 0).unwrap();
    let mut forged = Vec::new();
    for word in [0x8005_0000u32, 1, 0, id] {
        forged.extend_from_slice(&word.to_be_bytes());
    }
    client.close().unwrap();
    let attacker = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    attacker.send_to(&forged, client.local_addr()).unwrap();
    // The repeats (if any) run their course; the gate has counted by then.
    let t0 = std::time::Instant::now();
    let done = |t: &Tracer| {
        t.snapshot().iter().find_map(|e| match e.kind {
            EventKind::ShutdownDone { answered } => Some(answered),
            _ => None,
        })
    };
    let answered = loop {
        if let Some(answered) = done(&tracer) {
            break answered;
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "the exchange never ended");
        std::thread::sleep(Duration::from_millis(1));
    };
    let bad = client.auth_counters().map_or(0, |c| c.tags_bad);
    let sent = |e: &udt_trace::TraceEvent| matches!(e.kind, EventKind::ShutdownSend { .. });
    let copies = tracer.snapshot().iter().filter(|e| sent(e)).count();
    drop(client);
    let _ = hang_up.send(());
    server.join().unwrap();
    (copies, answered, bad)
}

/// On a plaintext connection the forged answer ends the exchange; on an
/// authenticated one it is rejected and counted like any forged control
/// packet, and the unanswered `Shutdown` is repeated to the end.
#[test]
fn a_forged_shutdown_answer_does_not_stop_an_authenticated_close() {
    let _serial = serial();
    assert_eq!(close_with_a_forged_answer(plain()), (1, true, 0));
    assert_eq!(close_with_a_forged_answer(keyed(AuthPolicy::Require)), (3, false, 1));
}
