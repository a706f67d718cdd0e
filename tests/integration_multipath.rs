//! Multipath bonding integration: bonded goodput over asymmetric links,
//! seamless failover through a seeded blackout, and the per-path trace
//! schema — proved end to end across netsim, linkemu, and real sockets.
//!
//! The headline comparison pits the bonded session's failover against the
//! PR-2 reconnect-resume machinery under the *same* blackout: one of two
//! linkemu paths goes dark for 2.5 s mid-transfer. The bonded session must
//! keep delivering on the survivor (trace shows `path_down`/`path_up`,
//! zero `reconnect`/`resume` events) and its longest receiver stall must
//! be measurably shorter than the [`udt::ResilientSession`] baseline,
//! which has no choice but to ride the outage out and re-handshake.

// Test data patterns use deliberate truncating casts.
#![allow(clippy::cast_possible_truncation)]

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkemu::{LinkEmu, LinkSpec};
use udt::{
    bonded_accept, bonded_connect, ResilientSession, ResumableFileSink, RetryPolicy, UdtConfig,
    UdtConnection, UdtListener, UdtPathStream,
};
use udt_algo::Nanos;
use udt_chaos::{ImpairmentSpec, Scenario};
use udt_multipath::{
    run_bonded_sim, BondedCfg, BondedSender, BondedSimCfg, PathConnector, PathId, PathStream,
    SimPathSpec, StreamError,
};
use udt_proto::{SeqNo, SEQ_MAX};
use udt_trace::{json, EventKind, TraceEvent, Tracer};

/// Socket-level tests spin relay/listener threads with real-time pacing;
/// serialize them so CI timing assumptions hold (same pattern as the
/// other integration suites).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(0x9E37_79B9) >> 9) as u8 ^ salt)
        .collect()
}

/// Longest gap between consecutive increases of `progress`, polled until
/// `stop` is raised. The lead-in before the first byte and the tail after
/// the last are not counted — only mid-transfer stalls.
fn max_stall(stop: &AtomicBool, mut progress: impl FnMut() -> u64) -> Duration {
    let mut last_val = 0u64;
    let mut last_t: Option<Instant> = None;
    let mut worst = Duration::ZERO;
    loop {
        let done = stop.load(Ordering::Acquire);
        let v = progress();
        if v > last_val {
            let now = Instant::now();
            if let Some(t) = last_t {
                worst = worst.max(now - t);
            }
            last_val = v;
            last_t = Some(now);
        }
        if done {
            return worst;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// (1) Netsim: bonded goodput beats the best single path, reproducibly.
// ---------------------------------------------------------------------------

fn asymmetric_paths() -> Vec<SimPathSpec> {
    vec![
        SimPathSpec::clean(12e6, Nanos::from_millis(6)),
        SimPathSpec::clean(30e6, Nanos::from_millis(8)),
        SimPathSpec::clean(60e6, Nanos::from_millis(10)),
    ]
}

#[test]
fn bonded_goodput_beats_best_single_path_and_reproduces() {
    let data = pattern(3 * 1024 * 1024, 0x5B);
    let bonded_cfg = BondedSimCfg {
        paths: asymmetric_paths(),
        ..BondedSimCfg::default()
    };
    let bonded = run_bonded_sim(&bonded_cfg, &data, &Tracer::disabled());
    assert_eq!(bonded.out, data, "bonded stream must be byte-identical");
    let t_bonded = bonded
        .complete_at_ns
        .expect("bonded transfer completed before the horizon");
    assert!(
        bonded.per_path_chunks.iter().all(|&c| c > 0),
        "every path must carry traffic: {:?}",
        bonded.per_path_chunks
    );

    // Best single path: the 60 Mb/s link on its own, same data.
    let single_cfg = BondedSimCfg {
        paths: vec![asymmetric_paths().pop().expect("specs")],
        ..BondedSimCfg::default()
    };
    let single = run_bonded_sim(&single_cfg, &data, &Tracer::disabled());
    assert_eq!(single.out, data);
    let t_single = single
        .complete_at_ns
        .expect("single-path transfer completed before the horizon");
    assert!(
        t_bonded < t_single,
        "bonded goodput must strictly beat the best single path: \
         bonded {t_bonded} ns vs single {t_single} ns ({:?} vs {:?} bps)",
        bonded.goodput_bps(),
        single.goodput_bps()
    );

    // Same seed, same config: the run is deterministic to the nanosecond.
    let again = run_bonded_sim(&bonded_cfg, &data, &Tracer::disabled());
    assert_eq!(again.complete_at_ns, Some(t_bonded), "completion time drifted");
    assert_eq!(
        again.per_path_chunks, bonded.per_path_chunks,
        "per-path chunk split drifted between identical runs"
    );
}

// ---------------------------------------------------------------------------
// (2) Failover: a blacked-out linkemu path migrates traffic with zero
//     session-level reconnects, and stalls less than reconnect-resume.
// ---------------------------------------------------------------------------

/// The seeded outage both halves of the comparison run under: the link
/// goes dark in both directions from t=1.0 s to t=3.5 s.
fn blackout() -> ImpairmentSpec {
    ImpairmentSpec::Blackout {
        start_us: 1_000_000,
        duration_us: 2_500_000,
        period_us: None,
    }
}

/// Bonded transfer over two linkemu chains, path 0 suffering the
/// blackout. Returns the received bytes, the longest receiver stall, and
/// the session trace.
fn bonded_blackout_run(data: &[u8]) -> (Vec<u8>, Duration, Vec<TraceEvent>) {
    let tracer = Tracer::ring(1 << 15);
    // Aggressive per-path liveness on both ends (bonded_connect applies
    // the same tuning client-side via bonded_path_cfg).
    let listener_cfg = UdtConfig {
        max_exp_count: 4,
        broken_silence_floor: Duration::from_millis(800),
        ..UdtConfig::default()
    };
    let listener = Arc::new(
        UdtListener::bind("127.0.0.1:0".parse().unwrap(), listener_cfg).expect("bind"),
    );
    let server_addr = listener.local_addr();

    let impaired = || LinkSpec::clean(40e6, Duration::from_millis(2)).impair(blackout());
    let clean = || LinkSpec::clean(40e6, Duration::from_millis(2));
    let link_a = LinkEmu::start(impaired(), impaired(), server_addr).expect("link A");
    let link_b = LinkEmu::start(clean(), clean(), server_addr).expect("link B");

    let mp = BondedCfg {
        chunk_len: 16 * 1024,
        window_chunks: 256,
        tracer: tracer.clone(),
        conn: 77,
        rejoin_backoff: Duration::from_millis(150),
        max_rejoins: 60,
        ..BondedCfg::default()
    };
    let base_cfg = UdtConfig {
        connect_timeout: Duration::from_millis(300),
        ..UdtConfig::default()
    };

    let rx = Arc::new(bonded_accept(Arc::clone(&listener), 2, mp.clone()));
    let mut tx =
        bonded_connect(&[link_a.client_addr(), link_b.client_addr()], &base_cfg, mp)
            .expect("bonded connect");

    let done = Arc::new(AtomicBool::new(false));
    let drain = {
        let rx = Arc::clone(&rx);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut got = Vec::new();
            let mut buf = vec![0u8; 64 * 1024];
            loop {
                match rx.recv_timeout(&mut buf, Duration::from_secs(20)) {
                    Ok(0) => break,
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) => panic!("bonded recv failed: {e}"),
                }
            }
            done.store(true, Ordering::Release);
            got
        })
    };
    let sender = {
        let data = data.to_vec();
        std::thread::spawn(move || {
            tx.send(&data).expect("bonded send survives the blackout");
            tx.finish(Duration::from_secs(60)).expect("finish");
            tx.counters()
        })
    };

    let stall = max_stall(&done, || rx.progress());
    let got = drain.join().expect("drain thread");
    let counters = sender.join().expect("sender thread");
    assert!(
        counters.iter().all(|c| c.chunks_sent > 0),
        "both paths should have carried chunks: {counters:?}"
    );
    link_a.shutdown();
    link_b.shutdown();
    (got, stall, tracer.snapshot())
}

/// The PR-2 baseline: the same data size and the same blackout, but a
/// single path and the reconnect-resume machinery. Returns the longest
/// receiver-side stall (watched via the sink's staging file).
fn baseline_blackout_run(dir: &Path, data: &[u8]) -> Duration {
    let len = data.len() as u64;
    let src = dir.join("mp-base-src.bin");
    let dest = dir.join("mp-base-dest.bin");
    std::fs::write(&src, data).unwrap();

    // Clamp the data path to the same 40 Mb/s one bonded path gets, so
    // neither transfer can finish before the lights go out.
    let scenario = Scenario::new("multipath-baseline", 41)
        .forward(ImpairmentSpec::RateClamp {
            bps: 40e6,
            max_backlog_us: 200_000,
        })
        .both(blackout());
    // Same aggressive liveness detection the bonded paths run with: the
    // comparison measures the recovery *strategy*, not the EXP ladder.
    let cfg = UdtConfig {
        max_exp_count: 4,
        broken_silence_floor: Duration::from_millis(800),
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

    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let part = udt::file::part_path(&dest);
        let dest = dest.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            max_stall(&done, || {
                std::fs::metadata(&part)
                    .or_else(|_| std::fs::metadata(&dest))
                    .map_or(0, |m| m.len())
            })
        })
    };

    let mut sess = ResilientSession::connect(relay.client_addr(), cfg).unwrap();
    let sent = sess.upload(&src, len).unwrap();
    assert_eq!(sent, len, "baseline upload reported a short transfer");
    assert!(server.join().unwrap(), "baseline sink never completed");
    done.store(true, Ordering::Release);
    let stall = watcher.join().expect("watcher thread");
    relay.shutdown();

    // The baseline must really have taken the reconnect-resume path —
    // otherwise the stall comparison proves nothing.
    let snap = sess.counters();
    assert!(
        snap.reconnect_successes >= 1 && snap.resumed_bytes > 0,
        "baseline never reconnect-resumed: {snap:?}"
    );
    let out = std::fs::read(&dest).unwrap();
    assert_eq!(out, data, "baseline delivered corrupted bytes");
    stall
}

#[test]
fn failover_beats_reconnect_resume_through_seeded_blackout() {
    let _s = serial();
    let dir = std::env::temp_dir().join(format!("udt-multipath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let bonded_data = pattern(36 * 1024 * 1024, 0xC4);
    let (got, bonded_stall, events) = bonded_blackout_run(&bonded_data);
    assert_eq!(got, bonded_data, "bonded stream must be byte-identical");

    // The failover must be invisible at the session level: paths go down
    // and come back, the session never reconnects or resumes.
    let first_down = events
        .iter()
        .find(|e| e.kind.name() == "path_down")
        .expect("blackout must produce a path_down event")
        .t_ns;
    assert!(
        events
            .iter()
            .any(|e| e.kind.name() == "path_up" && e.t_ns > first_down),
        "dead path never re-joined after the blackout"
    );
    assert!(
        !events
            .iter()
            .any(|e| e.kind.name() == "reconnect" || e.kind.name() == "resume"),
        "failover must not trip session-level reconnect/resume"
    );

    let baseline_stall = baseline_blackout_run(&dir, &pattern(12 * 1024 * 1024, 0x1F));
    assert!(
        bonded_stall + Duration::from_millis(400) < baseline_stall,
        "bonded failover should stall measurably less than reconnect-resume: \
         bonded {bonded_stall:?} vs baseline {baseline_stall:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// (3) Per-path trace events round-trip through the shared parser.
// ---------------------------------------------------------------------------

#[test]
fn per_path_trace_events_roundtrip_through_shared_parser() {
    let tracer = Tracer::ring(1 << 14);
    let cfg = BondedSimCfg {
        paths: vec![
            SimPathSpec::clean(20e6, Nanos::from_millis(5)),
            SimPathSpec::clean(40e6, Nanos::from_millis(9)),
        ],
        ..BondedSimCfg::default()
    };
    let data = pattern(192 * 1024, 0x2E);
    let r = run_bonded_sim(&cfg, &data, &tracer);
    assert_eq!(r.out, data);
    // The sim emits up/send/recv/rate; cover the failover pair too so all
    // six path event kinds pass through the same validator.
    tracer.emit(cfg.conn, EventKind::PathDown { path: 0 });
    tracer.emit(cfg.conn, EventKind::PathLoss { path: 0, lost: 3 });

    let events = tracer.snapshot();
    let mut seen_path_kinds = std::collections::BTreeSet::new();
    for ev in &events {
        let line = json::encode(ev);
        let back = json::parse_line(&line)
            .unwrap_or_else(|e| panic!("shared parser rejected {line}: {e}"));
        assert_eq!(&back, ev, "lossy round-trip for {line}");
        if ev.kind.name().starts_with("path_") {
            seen_path_kinds.insert(ev.kind.name());
        }
    }
    for want in [
        "path_up",
        "path_down",
        "path_send",
        "path_recv",
        "path_loss",
        "path_rate",
    ] {
        assert!(
            seen_path_kinds.contains(want),
            "missing {want} in the traced run: {seen_path_kinds:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// (4) Satellite: bonded 2^31 wrap over real sockets, paths at different
//     initial sequence numbers.
// ---------------------------------------------------------------------------

/// Per-path connector that forces a *different* UDT initial sequence
/// number on each path, so both the session space and the per-path packet
/// spaces wrap at different points of the same transfer.
struct WrapConnector {
    addr: SocketAddr,
    cfgs: Vec<UdtConfig>,
}

impl PathConnector for WrapConnector {
    fn connect(&self, path: PathId) -> Result<Box<dyn PathStream>, StreamError> {
        let cfg = self.cfgs[path.0 as usize % self.cfgs.len()].clone();
        let conn = UdtConnection::connect(self.addr, cfg)
            .map_err(|e| StreamError::new(format!("{path}: {e}")))?;
        Ok(Box::new(UdtPathStream::new(conn)))
    }
}

#[test]
fn bonded_session_wraps_over_sockets_with_mismatched_path_init_seqs() {
    let _s = serial();
    let listener = Arc::new(
        UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).expect("bind"),
    );
    let addr = listener.local_addr();
    // Session numbering starts 80 chunks below the wrap; path 0's packet
    // space starts 40 packets below it, path 1's nowhere near it.
    let mp = BondedCfg {
        chunk_len: 4096,
        window_chunks: 128,
        init_seq: SeqNo::new(SEQ_MAX - 80),
        ..BondedCfg::default()
    };
    let connector = Arc::new(WrapConnector {
        addr,
        cfgs: vec![
            UdtConfig {
                force_init_seq: Some(SEQ_MAX - 40),
                ..UdtConfig::default()
            },
            UdtConfig {
                force_init_seq: Some(512),
                ..UdtConfig::default()
            },
        ],
    });
    let rx = bonded_accept(Arc::clone(&listener), 2, mp.clone());
    let mut tx = BondedSender::start(connector, 2, mp).expect("bonded start");

    let data = pattern(2 * 1024 * 1024, 0x99); // 512 chunks: crosses the wrap
    tx.send(&data).expect("send");
    tx.finish(Duration::from_secs(60)).expect("finish");

    let mut got = Vec::new();
    let mut buf = vec![0u8; 32 * 1024];
    loop {
        match rx.recv_timeout(&mut buf, Duration::from_secs(20)) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) => panic!("recv failed: {e}"),
        }
    }
    assert_eq!(got, data, "wrapped bonded stream must be byte-identical");
    let per_path: Vec<u64> = rx.counters().iter().map(|c| c.chunks_recv).collect();
    assert!(
        per_path.iter().all(|&c| c > 0),
        "both paths should deliver across the wrap: {per_path:?}"
    );
}
