//! Flight-recorder drill.
//!
//! A real-socket transfer runs through `linkemu` with a seeded chaos
//! chain: bursty Gilbert-Elliott loss from the start (provoking NAK
//! traffic), then a permanent blackout. The endpoints' EXP ladders run
//! out, the connections go `Broken`, and each dumps its tracer ring as a
//! flight recording. Because the sockets and the link share one tracer,
//! the dump shows the injected faults and the protocol's reaction —
//! NAKs, EXP expirations, the `Broken` transition — on one timeline,
//! which is the whole point of the recorder: a post-mortem that explains
//! *why* the connection died without re-running under printlns.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkemu::{LinkEmu, LinkSpec};
use udt::{Tracer, UdtConfig, UdtConnection, UdtListener};
use udt_chaos::ImpairmentSpec;
use udt_trace::{flight, ConnState, EventKind, TimerKind, TraceEvent};

use crate::report::Report;

/// Blackout onset, µs on the link clock (after handshake + NAK activity).
const BLACKOUT_START_US: u64 = 2_000_000;

fn spec(seed: u64, tracer: &Tracer) -> LinkSpec {
    let mut s = LinkSpec::clean(50e6, Duration::from_millis(2));
    s.seed = seed;
    s.impair(ImpairmentSpec::GilbertElliott {
        p_good_to_bad: 0.005,
        p_bad_to_good: 0.2,
        loss_good: 0.0,
        loss_bad: 0.3,
    })
    .impair(ImpairmentSpec::Blackout {
        start_us: BLACKOUT_START_US,
        duration_us: 600_000_000, // permanent at test scale
        period_us: None,
    })
    // Link-conn tag 0: protocol events carry the sockets' ids, the link's
    // faults carry 0 — distinguishable, same timeline.
    .with_tracer(tracer.clone(), 0)
}

/// Run the drill, returning the report and the dump directory used.
pub fn run_in(dir: &PathBuf) -> Report {
    let mut rep = Report::new(
        "flightrec",
        "Flight recorder under seeded chaos (bursty loss + blackout)",
        format!(
            "real sockets via linkemu, 50 Mb/s / 4 ms RTT, GE loss, blackout at {} s; dumps in {}",
            BLACKOUT_START_US as f64 / 1e6,
            dir.display()
        ),
    );
    let _ = std::fs::remove_dir_all(dir);

    // Big enough that the ring's window spans the whole drill (~3 s at
    // ~15k events/s): the dump must still contain the early NAK phase.
    let tracer = Tracer::ring(1 << 16);
    let cfg = UdtConfig {
        tracer: tracer.clone(),
        flight_dir: Some(dir.clone()),
        // Shrink the death ladder so the drill concludes in a few seconds.
        max_exp_count: 4,
        broken_silence_floor: Duration::from_millis(600),
        linger: Duration::from_millis(300),
        ..UdtConfig::default()
    };

    let listener =
        UdtListener::bind("127.0.0.1:0".parse().expect("addr"), cfg.clone()).expect("bind");
    let emu = LinkEmu::start(spec(11, &tracer), spec(23, &tracer), listener.local_addr())
        .expect("start linkemu");

    let delivered = Arc::new(AtomicU64::new(0));
    let server = {
        let delivered = Arc::clone(&delivered);
        std::thread::spawn(move || {
            let Ok(conn) = listener.accept() else { return };
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

    let conn = UdtConnection::connect(emu.client_addr(), cfg).expect("connect");
    let chunk = vec![0u8; 1 << 14];
    let t0 = Instant::now();
    let mut sent = 0u64;
    // Stream until the blackout breaks the connection (bounded for safety).
    while t0.elapsed() < Duration::from_secs(30) {
        match conn.send(&chunk) {
            Ok(()) => sent += chunk.len() as u64,
            Err(_) => break,
        }
    }
    let broke_after = t0.elapsed();
    let _ = conn.close();
    let _ = server.join();
    emu.shutdown();

    rep.row(format!(
        "sent {:.1} MB, delivered {:.1} MB before the link died; sender saw Broken after {:.1} s",
        sent as f64 / 1e6,
        delivered.load(Ordering::Relaxed) as f64 / 1e6,
        broke_after.as_secs_f64()
    ));

    // A Broken endpoint must have dumped a flight recording.
    let dumps: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .is_some_and(|n| n.to_string_lossy().ends_with("-broken.jsonl"))
                })
                .collect()
        })
        .unwrap_or_default();
    rep.shape(
        "a flight recording is dumped when the connection breaks",
        !dumps.is_empty(),
        format!("{} dump(s) under {}", dumps.len(), dir.display()),
    );
    let Some(path) = dumps.first() else {
        return rep;
    };

    // Every line must survive the shared schema parser.
    let events: Vec<TraceEvent> = match flight::read_jsonl(path) {
        Ok(evs) => {
            rep.shape(
                "every dumped line parses under the shared schema",
                !evs.is_empty(),
                format!("{} events in {}", evs.len(), path.display()),
            );
            evs
        }
        Err(e) => {
            rep.shape("every dumped line parses under the shared schema", false, e);
            return rep;
        }
    };

    let first_chaos = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::ChaosFault { .. }));
    let naks = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::NakSend { .. } | EventKind::NakRecv { .. }))
        .count();
    let exp_fires = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::TimerFire {
                    timer: TimerKind::Exp,
                    ..
                }
            )
        })
        .count();
    let broken_at = events
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
        .map(|e| e.t_ns);
    rep.row(format!(
        "timeline: {} events, {naks} NAK events, {exp_fires} EXP expirations",
        events.len()
    ));
    rep.shape(
        "injected chaos faults appear in the dump",
        first_chaos.is_some(),
        format!(
            "first fault at t={:?} µs",
            first_chaos.map(|e| e.t_ns / 1_000)
        ),
    );
    rep.shape(
        "the protocol's loss/keep-alive reaction is recorded (NAK or EXP)",
        naks > 0 && exp_fires > 0,
        format!("{naks} NAKs, {exp_fires} EXP fires"),
    );
    rep.shape(
        "the Broken transition is on the same timeline, after the faults",
        match (first_chaos, broken_at) {
            (Some(f), Some(b)) => f.t_ns < b,
            _ => false,
        },
        format!(
            "first fault t={:?} µs, Broken t={:?} µs",
            first_chaos.map(|e| e.t_ns / 1_000),
            broken_at.map(|t| t / 1_000)
        ),
    );
    rep
}

/// Default entry point.
pub fn run() -> Report {
    let dir = std::env::temp_dir().join(format!("udt-flightrec-{}", std::process::id()));
    let rep = run_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    rep
}
