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
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netsim::agents::udt::{attach_udt_flow_traced, UdtReceiver, UdtSender, UdtSenderCfg};
use netsim::{dumbbell, DumbbellCfg};
use udt_algo::Nanos;
use udt_chaos::ImpairmentSpec;
use udt_metrics::counters::{ConnStats, CounterFamily};
use udt_trace::{flight, json, ConnState, EventKind, Fold, TimerKind, TraceEvent, Tracer};

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

/// The counters that are folds over events: all but the byte counts, which
/// are taken where `send`/`recv` cross the API and have no event.
fn event_derived(stats: &ConnStats) -> Vec<(&'static str, u64)> {
    let mut all = stats.samples();
    all.retain(|(name, _)| !name.starts_with("bytes_"));
    all
}

/// Replay an exported timeline — re-read from disk through `parse_line` —
/// through the library's fold, one `ConnStats` per connection id.
fn replay(path: &Path) -> std::collections::BTreeMap<u32, ConnStats> {
    let mut conns = std::collections::BTreeMap::<u32, ConnStats>::new();
    for ev in flight::read_jsonl(path).expect("export parses") {
        conns.entry(ev.conn).or_default().apply(&ev.kind);
    }
    conns
}

/// The `sent(retx) recvd acks naks drops chaos exp` columns `udtmon --once`
/// prints for connection `conn` of the file at `path`.
fn udtmon_row(path: &Path, conn: u32) -> Vec<String> {
    // Cargo builds `udt`'s binaries beside the test executables' `deps/`.
    let exe = std::env::current_exe().expect("test exe");
    let udtmon = exe.parent().and_then(|deps| deps.parent()).expect("target dir").join("udtmon");
    assert!(udtmon.exists(), "{} not built: run `cargo build -p udt --bins`", udtmon.display());
    let out = std::process::Command::new(udtmon).arg("--once").arg(path).output().expect("udtmon");
    assert!(out.status.success(), "udtmon failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let row = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some(&format!("{conn:x}")))
        .unwrap_or_else(|| panic!("no row for {conn:x} in:\n{text}"));
    row.replace(['(', ')'], " ").split_whitespace().skip(2).take(8).map(String::from).collect()
}

/// What that row must read for a connection whose counters are `stats`
/// (no link or chaos events carry a connection's id in these runs).
fn expected_row(stats: &ConnStats) -> Vec<String> {
    let get = ConnStats::get;
    let retx = get(&stats.pkts_retransmitted);
    [
        get(&stats.pkts_sent) + retx,
        retx,
        get(&stats.pkts_received),
        get(&stats.acks_sent) + get(&stats.acks_received),
        get(&stats.naks_sent) + get(&stats.naks_received),
        get(&stats.pkts_duplicate) + get(&stats.pkts_rejected),
        0,
        get(&stats.exp_timeouts),
    ]
    .map(|v| v.to_string())
    .to_vec()
}

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
    let (sid, rid) =
        attach_udt_flow_traced(&mut d.sim, d.sources[0], d.sinks[0], cfg, &sim_tracer);
    d.sim.run_until(Nanos::from_secs(20));
    let sim_events = sim_tracer.snapshot();
    assert!(!sim_events.is_empty(), "sim emitted nothing");
    assert_eq!(sim_events.len() as u64, sim_tracer.pushed(), "sim ring wrapped");
    let sim_path = dir.join("sim.jsonl");
    export_jsonl(&sim_path, &sim_events);

    // The invariant, simulator host: the two agents of the flow share its id
    // on the timeline, so the fold of the export is their counters summed;
    // and the accessors experiments call read those same counters.
    let (snd, rcv) = (d.sim.agent_as::<UdtSender>(sid), d.sim.agent_as::<UdtReceiver>(rid));
    let flow = u32::try_from(f.0).expect("flow id");
    let sim_fold = replay(&sim_path).remove(&flow).expect("the flow is on the timeline");
    let live: Vec<_> = event_derived(snd.stats())
        .into_iter()
        .zip(event_derived(rcv.stats()))
        .map(|((name, a), (_, b))| (name, a + b))
        .collect();
    assert_eq!(event_derived(&sim_fold), live, "netsim counters are not the fold of its export");
    assert!(ConnStats::get(&sim_fold.naks_received) > 0, "the run was meant to be lossy");
    assert_eq!(snd.sent_new(), ConnStats::get(&sim_fold.pkts_sent));
    assert_eq!(snd.sent_retx(), ConnStats::get(&sim_fold.pkts_retransmitted));
    assert_eq!(rcv.received_pkts(), ConnStats::get(&sim_fold.pkts_received));
    assert_eq!(rcv.duplicate_pkts(), ConnStats::get(&sim_fold.pkts_duplicate));
    assert_eq!(udtmon_row(&sim_path, flow), expected_row(&sim_fold));

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
            let _ = conn.close();
            conn
        })
    };
    let conn = udt::UdtConnection::connect(addr, ucfg).expect("connect");
    let chunk = vec![0u8; 1 << 16];
    for _ in 0..30 {
        conn.send(&chunk).expect("send");
    }
    conn.close().expect("close");
    let served = server.join().expect("server");
    // close() returns with its Shutdown unanswered: the export is taken (and
    // the link goes) once the timeline shows the exchange has ended.
    let t0 = std::time::Instant::now();
    while !sock_tracer.snapshot().iter().any(|e| e.kind.name() == "shutdown_done") {
        assert!(t0.elapsed() < Duration::from_secs(5), "the Shutdown exchange never ended");
        std::thread::sleep(Duration::from_millis(1));
    }
    emu.shutdown();
    let sock_events = sock_tracer.snapshot();
    assert!(!sock_events.is_empty(), "sockets emitted nothing");
    assert_eq!(sock_events.len() as u64, sock_tracer.pushed(), "socket ring wrapped");
    let sock_path = dir.join("sock.jsonl");
    export_jsonl(&sock_path, &sock_events);

    // The invariant, socket host: both closed connections' counters are the
    // fold of what the export holds under their ids, and `udtmon` prints
    // them. (Which id is whose: only the client sent data.)
    let mut sock_fold = replay(&sock_path);
    sock_fold.remove(&0); // the listener's handshake events
    assert_eq!(sock_fold.len(), 2, "two connections on the timeline");
    for (id, fold) in &sock_fold {
        let sender = ConnStats::get(&fold.pkts_sent) > 0;
        let live = if sender { conn.stats() } else { served.stats() };
        assert_eq!(
            event_derived(fold),
            event_derived(live),
            "{} counters are not the fold of its export",
            if sender { "client" } else { "server" }
        );
        assert_eq!(udtmon_row(&sock_path, *id), expected_row(fold));
    }
    assert!(ConnStats::get(&conn.stats().naks_received) > 0, "2 % loss and no NAK");

    // The shared parser must accept every line of both exports, and the
    // round-trip must be lossless.
    let sim_back = flight::read_jsonl(&sim_path).expect("sim export parses");
    assert_eq!(sim_back, sim_events);
    let sock_back = flight::read_jsonl(&sock_path).expect("socket export parses");
    assert_eq!(sock_back, sock_events);

    // Both hosts run one protocol core: a lossy transfer makes them emit
    // the same set of protocol events, the whole data/ACK/ACK2/NAK/timer
    // vocabulary and the close exchange.
    let (sim_names, sock_names) = (protocol_names(&sim_events), protocol_names(&sock_events));
    assert_eq!(sim_names, sock_names, "the hosts' protocol vocabularies differ");
    let expected = [
        "ack2_recv", "ack2_send", "ack_recv", "ack_send", "bw", "data_recv", "data_send", "loss",
        "nak_recv", "nak_send", "rate", "rtt", "shutdown_done", "shutdown_send", "timer",
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
