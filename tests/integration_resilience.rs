//! Resilience integration: reconnect-with-backoff sessions, resumable
//! transfers, and the hardened listener — proved end to end with udt-chaos.
//!
//! The headline test pushes a 4 MB upload through a `linkemu` fault-injecting relay whose
//! link goes dark in *both* directions for longer than the 10 s
//! broken-silence floor, so the connection goes terminally `Broken` on
//! both sides. The [`udt::ResilientSession`] must reconnect under its
//! retry policy, resume at the server's confirmed offset (strictly less
//! than the file — some bytes, not all, are skipped), and deliver a
//! byte-identical file. The whole scenario is seeded and must behave the
//! same across two runs.
//!
//! The listener-hardening tests throw a thousand spoofed handshakes, a
//! handshake burst, and a full accept queue at a listener and assert it
//! allocates nothing for attackers, keeps serving legitimate peers, and
//! garbage-collects what it cached.

// Test data patterns use deliberate truncating casts.
#![allow(clippy::cast_possible_truncation)]

use std::net::UdpSocket;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use udt_metrics::counters::SessionSnapshot;
use udt_proto::ctrl::{ControlBody, ControlPacket, HandshakeData, HandshakeExt, HandshakeReqType};
use udt_proto::{encode, Packet, SeqNo};

use udt::{
    ResilientSession, ResumableFileSink, RetryPolicy, UdtConfig, UdtConnection, UdtListener,
};
use linkemu::LinkEmu;
use udt_chaos::scenario::{ImpairmentSpec, Scenario};

/// These tests spin relay/server threads with real-time pacing; serialize
/// them so CI timing assumptions hold (same pattern as the other
/// socket-level integration suites).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(0x9E3779B9) >> 9) as u8 ^ salt)
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("udt-resilience-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Poll `cond` until it holds or `deadline` passes; returns its final value.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    cond()
}

// ---------------------------------------------------------------------------
// Tentpole: resume through a blackout longer than the broken-silence floor.
// ---------------------------------------------------------------------------

/// One seeded run of the blackout-upload scenario. Returns the received
/// bytes and the session's counters; all structural assertions happen
/// inside so a failure names the run that broke.
fn blackout_upload_run(seed: u64, run: u32, dir: &Path, data: &[u8]) -> (Vec<u8>, SessionSnapshot) {
    let len = data.len() as u64;
    let src = dir.join(format!("up-src-{run}.bin"));
    let dest = dir.join(format!("up-dest-{run}.bin"));
    std::fs::write(&src, data).unwrap();

    // Clamp the forward (data) path so the file cannot finish before the
    // lights go out, then cut *both* directions for 10.2 s — longer than
    // the 10 s broken-silence floor, so EXP escalation declares the
    // connection terminally Broken on each side (a one-way blackout would
    // be defeated by the other side's keepalives resetting EXP).
    let scenario = Scenario::new("resume-blackout", seed)
        .forward(ImpairmentSpec::RateClamp {
            bps: 30_000_000.0,
            max_backlog_us: 200_000,
        })
        .both(ImpairmentSpec::Blackout {
            start_us: 500_000,
            duration_us: 10_200_000,
            period_us: None,
        });

    // Long linger: close() must keep flushing until the EXP ladder itself
    // declares the peer gone, exercising the Broken path rather than a
    // local flush deadline.
    let cfg = UdtConfig {
        linger: Duration::from_secs(60),
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(200),
            ..RetryPolicy::default()
        },
        ..UdtConfig::default()
    };

    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let sessions = listener.sessions();
    let relay = LinkEmu::from_scenario(&scenario, listener.local_addr()).unwrap();

    let sink_dest = dest.clone();
    let server = std::thread::spawn(move || {
        let sink = ResumableFileSink::new(&sink_dest, sessions);
        // First connection dies in the blackout (absorb → Ok(false));
        // the session's reconnect lands as a fresh accept.
        for _ in 0..8 {
            let Some(conn) = listener.accept_timeout(Duration::from_secs(20)).unwrap() else {
                return false;
            };
            match sink.absorb(&conn) {
                Ok(true) => return true,
                Ok(false) => continue,
                Err(e) => panic!("sink failed non-retryably: {e}"),
            }
        }
        false
    });

    let mut sess = ResilientSession::connect(relay.client_addr(), cfg).unwrap();
    let sent = sess.upload(&src, len).unwrap();
    assert_eq!(sent, len, "run {run}: upload reported a short transfer");
    assert!(
        server.join().unwrap(),
        "run {run}: sink never saw the transfer complete"
    );
    let snap = sess.counters();
    let out = std::fs::read(&dest).unwrap();
    relay.shutdown();

    assert!(
        snap.reconnect_attempts >= 1 && snap.reconnect_successes >= 1,
        "run {run}: expected at least one successful reconnect, got {snap:?}"
    );
    // Resume must actually skip bytes confirmed before the outage — and
    // must not claim the whole file was skipped (the blackout struck
    // mid-transfer, so *some* bytes had to be re-sent).
    assert!(
        snap.resumed_bytes > 0,
        "run {run}: reconnect re-sent from byte 0 (no resume)"
    );
    assert!(
        snap.resumed_bytes < len,
        "run {run}: resumed_bytes {} not strictly below file size {len}",
        snap.resumed_bytes
    );
    (out, snap)
}

#[test]
fn upload_resumes_through_blackout_longer_than_broken_floor() {
    let _s = serial();
    let dir = scratch_dir("upload");
    let data = pattern(4_000_000, 0xA7);

    // Same seed, twice: the resilience outcome must be reproducible.
    let (out_a, snap_a) = blackout_upload_run(20_040_608, 1, &dir, &data);
    let (out_b, snap_b) = blackout_upload_run(20_040_608, 2, &dir, &data);

    assert_eq!(out_a, data, "run 1 delivered corrupted bytes");
    assert_eq!(out_b, data, "run 2 delivered corrupted bytes");
    assert_eq!(
        out_a, out_b,
        "same seed, same file: runs must agree byte-for-byte"
    );
    // Both runs took the same path through the state machine:
    // Connected → Broken → Reconnecting → Resumed.
    assert!(snap_a.reconnect_successes >= 1 && snap_b.reconnect_successes >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Download resume (fast EXP ladder so the outage round-trip stays cheap).
// ---------------------------------------------------------------------------

#[test]
fn download_resumes_after_mid_stream_break() {
    let _s = serial();
    let dir = scratch_dir("download");
    let len: u64 = 2_000_000;
    let data = pattern(len as usize, 0x3C);
    let src = dir.join("dl-src.bin");
    let dest = dir.join("dl-dest.bin");
    std::fs::write(&src, &data).unwrap();

    // Data flows server→client here, so the clamp goes on the reverse
    // path; the blackout still cuts both directions.
    let scenario = Scenario::new("resume-download", 7_071)
        .reverse(ImpairmentSpec::RateClamp {
            bps: 30_000_000.0,
            max_backlog_us: 200_000,
        })
        .both(ImpairmentSpec::Blackout {
            start_us: 300_000,
            duration_us: 1_500_000,
            period_us: None,
        });

    // A short EXP ladder (count 4, 700 ms floor) so Broken lands in ~1.2 s
    // of silence instead of 10 s — the resume logic is identical.
    let cfg = UdtConfig {
        max_exp_count: 4,
        broken_silence_floor: Duration::from_millis(700),
        connect_timeout: Duration::from_secs(3),
        linger: Duration::from_secs(2),
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        },
        ..UdtConfig::default()
    };

    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let relay = LinkEmu::from_scenario(&scenario, listener.local_addr()).unwrap();

    let served_src = src;
    let server = std::thread::spawn(move || {
        // Each accepted connection serves from the offset the client
        // advertised (its staged `.part` length); an outage mid-serve just
        // means "accept the reconnect and go again".
        for _ in 0..8 {
            let Some(conn) = listener.accept_timeout(Duration::from_secs(15)).unwrap() else {
                return false;
            };
            match udt::serve_download(&conn, &served_src, len) {
                Ok(_) => return true,
                Err(e) if udt::resilience::retryable(&e) => continue,
                Err(e) => panic!("serve_download failed non-retryably: {e}"),
            }
        }
        false
    });

    let mut sess = ResilientSession::connect(relay.client_addr(), cfg).unwrap();
    let got = sess.download(&dest, len).unwrap();
    assert_eq!(got, len);
    assert!(server.join().unwrap(), "server never completed a serve");
    relay.shutdown();

    let snap = sess.counters();
    assert!(
        snap.reconnect_successes >= 1,
        "download survived without reconnecting? {snap:?}"
    );
    assert!(
        snap.resumed_bytes > 0 && snap.resumed_bytes < len,
        "expected a partial resume, got {snap:?}"
    );
    let out = std::fs::read(&dest).unwrap();
    assert_eq!(out, data, "downloaded bytes differ from the source");
    // The staging file must be gone: completion renames it into place.
    assert!(
        !udt::file::part_path(&dest).exists(),
        ".part staging file left behind after completion"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Hardened listener: floods, bursts, backlog, GC.
// ---------------------------------------------------------------------------

fn spoofed_request(socket_id: u32, cookie: u32) -> Vec<u8> {
    let pkt = Packet::Control(ControlPacket {
        timestamp_us: 0,
        conn_id: 0,
        body: ControlBody::Handshake(HandshakeData {
            version: 2,
            req_type: HandshakeReqType::Request,
            init_seq: SeqNo::new(9),
            mss: 1500,
            max_flow_win: 8192,
            socket_id,
            ext: Some(HandshakeExt {
                cookie,
                session_token: 0,
                resume_offset: 0,
                auth: None,
            }),
        }),
    });
    let mut buf = BytesMut::new();
    encode(&pkt, &mut buf);
    buf.to_vec()
}

#[test]
fn spoofed_handshake_flood_allocates_nothing_and_legit_peer_connects() {
    let _s = serial();
    // Rate limit wide open: this test isolates the cookie gate; the rate
    // limiter gets its own test below.
    let cfg = UdtConfig {
        handshake_rate_limit: 1_000_000,
        accept_backlog: 2,
        ..UdtConfig::default()
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg).unwrap();
    let addr = listener.local_addr();

    // 1000 handshakes guessing a cookie they were never issued. The
    // listener must answer each with (at most) a fresh challenge and
    // allocate no connection state whatsoever.
    let flood = std::thread::spawn(move || {
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        for i in 0..1_000u32 {
            raw.send_to(&spoofed_request(10_000 + i, 0xDEAD_BEEF), addr)
                .unwrap();
            if i % 64 == 63 {
                // Pace just below the handshake queue's drain rate so every
                // packet reaches the cookie gate instead of being shed
                // earlier by the bounded mux queue (also sound hardening,
                // but not what this test measures).
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    });

    // A legitimate peer connects *while* the flood is in flight.
    let conn = UdtConnection::connect(addr, UdtConfig::default())
        .expect("legitimate connect failed during flood");
    flood.join().unwrap();

    assert!(
        wait_until(Duration::from_secs(5), || listener
            .counters()
            .cookies_rejected
            >= 1_000),
        "flood not fully rejected: {:?}",
        listener.counters()
    );
    let snap = listener.counters();
    assert_eq!(
        snap.handshakes_accepted, 1,
        "only the legitimate peer may establish"
    );
    assert_eq!(
        listener.conn_table_len(),
        1,
        "spoofed handshakes must allocate zero connection-table entries"
    );

    let server_conn = listener
        .accept_timeout(Duration::from_secs(2))
        .unwrap()
        .expect("legit connection never reached the accept queue");
    conn.send(b"through the storm").unwrap();
    let mut buf = [0u8; 64];
    let n = server_conn.recv(&mut buf).unwrap();
    assert_eq!(&buf[..n], b"through the storm");
    conn.close().unwrap();

    // Backlog shedding: with the queue (depth 2) left undrained, extra
    // fully-negotiated peers are dropped pre-allocation and counted.
    let clients: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let cfg = UdtConfig {
                    connect_timeout: Duration::from_millis(1_500),
                    ..UdtConfig::default()
                };
                UdtConnection::connect(addr, cfg).is_ok()
            })
        })
        .collect();
    assert!(
        wait_until(Duration::from_secs(4), || listener.counters().backlog_drops >= 1),
        "overflowing the accept queue never incremented backlog_drops: {:?}",
        listener.counters()
    );
    // Drain the queue so the shed client's retries can land, then let the
    // clients finish; at least the two queued ones must have connected.
    let mut queued = Vec::new();
    while let Ok(Some(c)) = listener.accept_timeout(Duration::from_millis(400)) {
        queued.push(c);
    }
    let ok = clients
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|ok| *ok)
        .count();
    assert!(ok >= 2, "expected at least 2 of 3 clients through, got {ok}");
}

#[test]
fn handshake_burst_is_rate_limited_per_peer() {
    let _s = serial();
    let cfg = UdtConfig {
        handshake_rate_limit: 5,
        ..UdtConfig::default()
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg).unwrap();
    let addr = listener.local_addr();

    // 50 uncookied requests from one source in a tight burst: at most the
    // per-window budget may be answered with challenges, the rest shed.
    let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
    for i in 0..50u32 {
        raw.send_to(&spoofed_request(20_000 + i, 0), addr).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(5), || {
            let s = listener.counters();
            s.rate_limited + s.challenges_sent >= 50
        }),
        "burst not fully processed: {:?}",
        listener.counters()
    );
    let snap = listener.counters();
    assert!(
        snap.rate_limited >= 40,
        "rate limiter shed too little: {snap:?}"
    );
    assert!(
        // The burst can straddle two 1 s windows, so allow two budgets.
        snap.challenges_sent <= 10,
        "rate limiter challenged too much of the burst: {snap:?}"
    );
    assert_eq!(listener.conn_table_len(), 0);
}

#[test]
fn idle_handshake_cache_entries_are_garbage_collected() {
    let _s = serial();
    let cfg = UdtConfig {
        handshake_cache_ttl: Duration::from_secs(1),
        ..UdtConfig::default()
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg).unwrap();
    let addr = listener.local_addr();

    let client = std::thread::spawn(move || UdtConnection::connect(addr, UdtConfig::default()));
    let server_conn = listener
        .accept_timeout(Duration::from_secs(3))
        .unwrap()
        .expect("accept");
    let conn = client.join().unwrap().expect("connect");
    assert_eq!(
        listener.conn_table_len(),
        1,
        "established handshake should be cached for idempotent re-answers"
    );
    // The cache entry is only touched by handshake retransmits, not data,
    // so it idles out after the TTL even while the connection lives on.
    assert!(
        wait_until(Duration::from_secs(6), || listener.conn_table_len() == 0),
        "idle cache entry never evicted: {:?}",
        listener.counters()
    );
    assert!(listener.counters().gc_evictions >= 1);
    // The connection itself is unaffected by cache GC.
    conn.send(b"still here").unwrap();
    let mut buf = [0u8; 32];
    assert_eq!(server_conn.recv(&mut buf).unwrap(), 10);
    conn.close().unwrap();
}
