//! Cross-crate integration: one TraceEvent schema across worlds.
//!
//! The tracing tentpole's core promise is that the simulator, the real
//! socket stack, the link emulator and the fault injector all speak one
//! event vocabulary, validated by one parser. These tests export a netsim
//! timeline and a real-socket timeline as JSONL, feed both through the
//! shared parser and compare the two vocabularies (both hosts run one
//! protocol core, so on a lossy run they must say the same things), then
//! force a chaos-driven `Broken` and check the flight recorder dump
//! interleaves the injected faults with the protocol's reaction.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netsim::agents::udt::{attach_udt_flow_traced, UdtSenderCfg};
use netsim::{dumbbell, DumbbellCfg};
use udt_algo::Nanos;
use udt_chaos::ImpairmentSpec;
use udt_trace::{flight, json, ConnState, EventKind, TimerKind, TraceEvent, Tracer};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("udt-trace-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn export_jsonl(path: &PathBuf, events: &[TraceEvent]) {
    let mut out = String::new();
    for ev in events {
        out.push_str(&json::encode(ev));
        out.push('\n');
    }
    std::fs::write(path, out).expect("write jsonl");
}

/// What only a socket host has to report: batches off the kernel, the
/// connection lifecycle, the handshake, buffer levels.
const SOCKET_ONLY: [&str; 4] = ["batch", "state", "handshake", "buf"];

/// What a lossy run emits only if a retransmission happened to race the
/// repair of the same packet (a duplicate): either host may or may not.
const SCHEDULE_DEPENDENT: [&str; 1] = ["data_drop"];

/// The protocol event names in `events`: everything but the lists above.
fn protocol_names(events: &[TraceEvent]) -> BTreeSet<&'static str> {
    events
        .iter()
        .map(|e| e.kind.name())
        .filter(|n| !SOCKET_ONLY.contains(n) && !SCHEDULE_DEPENDENT.contains(n))
        .collect()
}

#[test]
fn netsim_and_socket_exports_share_one_schema() {
    let dir = tmpdir("schema");

    // World 1: discrete-event simulator, virtual time.
    let mut d = dumbbell(DumbbellCfg {
        flows: 1,
        rate_bps: 2e7,
        one_way_delay: Nanos::from_millis(10),
        queue_cap: 20, // small queue: force loss so NAK events appear
    });
    let f = d.sim.add_flow();
    let mut cfg = UdtSenderCfg::bulk(d.sinks[0], f);
    cfg.total_pkts = Some(3_000);
    let sim_tracer = Tracer::with_clock(1 << 14, d.sim.trace_clock());
    attach_udt_flow_traced(&mut d.sim, d.sources[0], d.sinks[0], cfg, &sim_tracer);
    d.sim.run_until(Nanos::from_secs(20));
    let sim_events = sim_tracer.snapshot();
    assert!(!sim_events.is_empty(), "sim emitted nothing");
    let sim_path = dir.join("sim.jsonl");
    export_jsonl(&sim_path, &sim_events);

    // World 2: real sockets through a 2 %-loss emulated link, monotonic time.
    let sock_tracer = Tracer::ring(1 << 16);
    let ucfg = udt::UdtConfig {
        tracer: sock_tracer.clone(),
        ..udt::UdtConfig::default()
    };
    let listener =
        udt::UdtListener::bind("127.0.0.1:0".parse().expect("addr"), ucfg.clone()).expect("bind");
    let mut lossy = linkemu::LinkSpec::clean(100e6, Duration::from_millis(5));
    lossy.loss_prob = 0.02;
    lossy.seed = 77;
    let clean = linkemu::LinkSpec::clean(100e6, Duration::from_millis(5));
    let emu = linkemu::LinkEmu::start(lossy, clean, listener.local_addr()).expect("linkemu");
    let addr = emu.client_addr();
    let delivered = Arc::new(AtomicU64::new(0));
    let server = {
        let delivered = Arc::clone(&delivered);
        std::thread::spawn(move || {
            let conn = listener.accept().expect("accept");
            let mut buf = vec![0u8; 1 << 16];
            loop {
                match conn.recv(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        delivered.fetch_add(n as u64, Ordering::Relaxed);
                    }
                }
            }
        })
    };
    let conn = udt::UdtConnection::connect(addr, ucfg).expect("connect");
    let chunk = vec![0u8; 1 << 16];
    for _ in 0..30 {
        conn.send(&chunk).expect("send");
    }
    conn.close().expect("close");
    server.join().expect("server");
    emu.shutdown();
    let sock_events = sock_tracer.snapshot();
    assert!(!sock_events.is_empty(), "sockets emitted nothing");
    let sock_path = dir.join("sock.jsonl");
    export_jsonl(&sock_path, &sock_events);

    // The shared parser must accept every line of both exports, and the
    // round-trip must be lossless.
    let sim_back = flight::read_jsonl(&sim_path).expect("sim export parses");
    assert_eq!(sim_back, sim_events);
    let sock_back = flight::read_jsonl(&sock_path).expect("socket export parses");
    assert_eq!(sock_back, sock_events);

    // Both hosts run one protocol core: a lossy transfer makes them emit
    // the same set of protocol events, the whole data/ACK/ACK2/NAK/timer
    // vocabulary.
    let (sim_names, sock_names) = (protocol_names(&sim_events), protocol_names(&sock_events));
    assert_eq!(sim_names, sock_names, "the hosts' protocol vocabularies differ");
    let expected = [
        "ack2_recv", "ack2_send", "ack_recv", "ack_send", "bw", "data_recv", "data_send", "loss",
        "nak_recv", "nak_send", "rate", "rtt", "timer",
    ];
    assert_eq!(sim_names, BTreeSet::from(expected));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_blackout_leaves_interleaved_flight_dump() {
    let dir = tmpdir("flight");

    let tracer = Tracer::ring(1 << 15);
    let cfg = udt::UdtConfig {
        tracer: tracer.clone(),
        flight_dir: Some(dir.clone()),
        max_exp_count: 4,
        broken_silence_floor: Duration::from_millis(400),
        linger: Duration::from_millis(200),
        ..udt::UdtConfig::default()
    };

    let listener =
        udt::UdtListener::bind("127.0.0.1:0".parse().expect("addr"), cfg.clone()).expect("bind");
    let spec = |seed| {
        let mut s = linkemu::LinkSpec::clean(20e6, Duration::from_millis(1));
        s.seed = seed;
        s.impair(ImpairmentSpec::Blackout {
            start_us: 500_000,
            duration_us: 120_000_000, // permanent at test scale
            period_us: None,
        })
        .with_tracer(tracer.clone(), 0)
    };
    let emu = linkemu::LinkEmu::start(spec(3), spec(5), listener.local_addr()).expect("emu");

    let server = std::thread::spawn(move || {
        let Ok(conn) = listener.accept() else { return };
        let mut buf = vec![0u8; 1 << 16];
        while matches!(conn.recv(&mut buf), Ok(n) if n > 0) {}
    });
    let conn = udt::UdtConnection::connect(emu.client_addr(), cfg).expect("connect");
    let chunk = vec![0u8; 1 << 14];
    let t0 = std::time::Instant::now();
    while t0.elapsed() < Duration::from_secs(20) && conn.send(&chunk).is_ok() {}
    let _ = conn.close();
    let _ = server.join();
    emu.shutdown();

    let dump = std::fs::read_dir(&dir)
        .expect("read dump dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with("-broken.jsonl"))
        })
        .expect("a Broken endpoint must dump a flight recording");
    let events = flight::read_jsonl(&dump).expect("dump parses under the shared schema");

    let first_fault = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::ChaosFault { .. }))
        .expect("injected faults must appear in the dump");
    let broken = events
        .iter()
        .find(|e| {
            matches!(
                e.kind,
                EventKind::StateChange {
                    to: ConnState::Broken,
                    ..
                }
            )
        })
        .expect("the Broken transition must be recorded");
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::TimerFire {
                timer: TimerKind::Exp,
                ..
            }
        )),
        "the EXP escalation must be recorded"
    );
    assert!(
        first_fault.t_ns < broken.t_ns,
        "faults must precede the Broken transition on the shared timeline"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
