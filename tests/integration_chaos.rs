//! Cross-crate chaos integration: the udt-chaos impairment pipeline driving
//! all three layers — netsim links, the linkemu UDP path, and
//! real UDT sockets — with the two properties the subsystem promises:
//!
//! 1. **Determinism**: the same scenario seed reproduces the identical
//!    injected-fault schedule, and a seeded netsim run under impairments is
//!    byte-for-byte repeatable.
//! 2. **Survivability**: a UDT transfer completes, uncorrupted, through
//!    Gilbert–Elliott bursty loss (40% in the bad state), reordering,
//!    duplication, and a 200 ms blackout — without panic or deadlock.

// Test data patterns use deliberate truncating casts.
#![allow(clippy::cast_possible_truncation)]

use std::time::Duration;

use linkemu::{LinkEmu, LinkSpec};
use udt::{ConnStats, UdtConfig, UdtConnection, UdtListener};
use udt_chaos::scenario::{presets, Direction, ImpairmentSpec, Scenario};
use udt_metrics::counters::FaultSnapshot;

/// Real-socket tests spin sender/receiver/relay threads with busy-wait
/// pacing; serialize them so CI timing assumptions hold (same pattern as
/// `integration_lossy.rs`).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(0x9E3779B9) >> 9) as u8 ^ salt)
        .collect()
}

// ---------------------------------------------------------------------------
// Determinism: fault schedules.
// ---------------------------------------------------------------------------

#[test]
fn same_seed_reproduces_identical_fault_schedule() {
    let schedule = |seed: u64| {
        presets::bursty_blackout(seed)
            .build(Direction::Forward)
            .with_log()
            .dry_run(5_000, 1500, 100)
    };
    let a = schedule(42);
    let b = schedule(42);
    assert!(!a.is_empty(), "scenario injected no faults at all");
    assert_eq!(a, b, "same seed must reproduce the exact fault schedule");
    let c = schedule(43);
    assert_ne!(a, c, "different seeds should not produce the same schedule");
}

// ---------------------------------------------------------------------------
// Determinism: netsim under impairments.
// ---------------------------------------------------------------------------

mod netsim_chaos {
    use super::*;
    use netsim::agents::udt::{attach_udt_flow, UdtSenderCfg};
    use netsim::{dumbbell, paper_queue_cap, DumbbellCfg};
    use udt_algo::Nanos;

    /// One seeded dumbbell run with an impairment chain on the bottleneck.
    /// Returns per-flow delivered bytes plus the chain's own accounting.
    fn run_once(seed: u64, impaired: bool) -> (Vec<u64>, u64, u64, Vec<FaultSnapshot>) {
        let rate = 1e8;
        let rtt = Nanos::from_millis(40);
        let mut d = dumbbell(DumbbellCfg {
            flows: 2,
            rate_bps: rate,
            one_way_delay: Nanos(rtt.0 / 2),
            queue_cap: paper_queue_cap(rate, rtt, 1500),
        });
        if impaired {
            let scenario = Scenario::new("netsim-chaos", seed)
                .forward(ImpairmentSpec::GilbertElliott {
                    p_good_to_bad: 0.01,
                    p_bad_to_good: 0.3,
                    loss_good: 0.0,
                    loss_bad: 0.35,
                })
                .forward(ImpairmentSpec::Duplicate { prob: 0.01, copies: 1 })
                .forward(ImpairmentSpec::Jitter { max_us: 500 });
            d.sim
                .link_mut(d.bottleneck)
                .set_impairments(scenario.build(Direction::Forward));
        }
        let mut flows = Vec::new();
        for i in 0..2 {
            let f = d.sim.add_flow();
            let mut cfg = UdtSenderCfg::bulk(d.sinks[i], f);
            cfg.start_at = Nanos::from_millis(i as u64 * 500);
            attach_udt_flow(&mut d.sim, d.sources[i], d.sinks[i], cfg);
            flows.push(f);
        }
        d.sim.run_until(Nanos::from_secs(10));
        let delivered: Vec<u64> = flows.iter().map(|f| d.sim.delivered(*f)).collect();
        let st = &d.sim.link(d.bottleneck).stats;
        let counters: Vec<FaultSnapshot> = d
            .sim
            .link(d.bottleneck)
            .chaos_counters()
            .iter()
            .map(|(_, c)| c.snapshot())
            .collect();
        (delivered, st.chaos_drops, st.chaos_dups, counters)
    }

    #[test]
    fn impaired_runs_are_reproducible() {
        let a = run_once(7, true);
        let b = run_once(7, true);
        assert_eq!(a, b, "impaired netsim run diverged between identical seeds");
        // Non-vacuous: the chain actually dropped and duplicated packets.
        assert!(a.1 > 0, "expected chaos drops on the bottleneck");
        assert!(a.2 > 0, "expected chaos duplicates on the bottleneck");
        // Per-stage counters agree with the link-level totals.
        let dropped: u64 = a.3.iter().map(|s| s.dropped).sum();
        assert_eq!(dropped, a.1);
    }

    #[test]
    fn bursty_loss_reduces_throughput() {
        let clean = run_once(7, false);
        let impaired = run_once(7, true);
        let clean_total: u64 = clean.0.iter().sum();
        let impaired_total: u64 = impaired.0.iter().sum();
        assert!(
            impaired_total < clean_total,
            "bursty loss should cost throughput ({impaired_total} vs {clean_total})"
        );
        // The protocol still made real progress through the bursts. Bursty
        // loss legitimately devastates loss-driven AIMD (that is the point
        // of the ablation), so this is a stall detector, not a rate floor.
        assert!(
            impaired_total > 1_000_000,
            "transfer collapsed under impairment: {impaired_total} vs {clean_total}"
        );
    }
}

// ---------------------------------------------------------------------------
// Survivability: real sockets through the acceptance scenario.
// ---------------------------------------------------------------------------

/// The headline acceptance test: a UDT transfer through Gilbert–Elliott
/// bursty loss (40% loss in the bad state), random reordering, duplication,
/// and a single 200 ms blackout, all injected by a linkemu relay. The
/// forward path is rate-clamped so the transfer provably spans the blackout
/// window instead of finishing before it.
#[test]
fn transfer_survives_bursty_blackout_scenario() {
    let _serial = serial();
    let scenario = Scenario::new("acceptance", 0xC0FFEE)
        .forward(ImpairmentSpec::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.25,
            loss_good: 0.0,
            loss_bad: 0.4,
        })
        .forward(ImpairmentSpec::Reorder { prob: 0.05, max_extra_us: 2_000 })
        .forward(ImpairmentSpec::Duplicate { prob: 0.02, copies: 1 })
        .forward(ImpairmentSpec::Blackout {
            start_us: 300_000,
            duration_us: 200_000,
            period_us: None,
        })
        .forward(ImpairmentSpec::RateClamp { bps: 40_000_000.0, max_backlog_us: 500_000 });
    let cfg = UdtConfig {
        linger: Duration::from_secs(60),
        ..UdtConfig::default()
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let relay = LinkEmu::from_scenario(&scenario, listener.local_addr()).unwrap();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let mut buf = vec![0u8; 1 << 16];
        let mut out = Vec::new();
        loop {
            let n = conn.recv(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        out
    });
    let conn = UdtConnection::connect(relay.client_addr(), cfg).unwrap();
    let data = pattern(3_000_000, 0x5A);
    conn.send(&data).unwrap();
    conn.close().unwrap();
    let got = server.join().unwrap();
    assert_eq!(got, data, "data corrupted crossing the chaos scenario");
    assert!(
        ConnStats::get(&conn.stats().pkts_retransmitted) > 0,
        "bursty loss must have forced retransmissions"
    );
    // Every headline impairment demonstrably engaged.
    let stage = |name: &str| -> FaultSnapshot {
        relay
            .fault_counters_a_to_b()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("missing stage {name}"))
            .1
            .snapshot()
    };
    assert!(stage("gilbert-elliott").dropped > 0, "GE loss never fired");
    assert!(stage("blackout").dropped > 0, "blackout never engaged");
    assert!(stage("duplicate").duplicated > 0, "duplication never fired");
    assert!(stage("reorder").delayed_pkts > 0, "reordering never fired");
    relay.shutdown();
}

/// The same scenario definition driven through linkemu's impairment chain
/// (layer 2 of 3): counters must attribute the faults per direction.
#[test]
fn linkemu_chain_counts_faults_per_direction() {
    let _serial = serial();
    let fwd = LinkSpec::clean(100e6, Duration::from_millis(2)).impair(
        ImpairmentSpec::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 0.35,
        },
    );
    let rev = LinkSpec::clean(100e6, Duration::from_millis(2));
    let cfg = UdtConfig {
        linger: Duration::from_secs(60),
        ..UdtConfig::default()
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let emu = LinkEmu::start(fwd, rev, listener.local_addr()).unwrap();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let mut buf = vec![0u8; 1 << 16];
        let mut total = 0usize;
        loop {
            let n = conn.recv(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        total
    });
    let conn = UdtConnection::connect(emu.client_addr(), cfg).unwrap();
    let data = pattern(1_000_000, 0x33);
    conn.send(&data).unwrap();
    conn.close().unwrap();
    assert_eq!(server.join().unwrap(), data.len());
    let fwd_dropped: u64 = emu
        .fault_counters_a_to_b()
        .iter()
        .map(|(_, c)| c.snapshot().dropped)
        .sum();
    assert!(fwd_dropped > 0, "forward GE stage recorded no drops");
    assert_eq!(
        emu.a_to_b.chaos_drops.load(std::sync::atomic::Ordering::Relaxed),
        fwd_dropped,
        "per-direction stat and per-stage counters disagree"
    );
    // The reverse direction carried no impairments at all.
    assert!(emu.fault_counters_b_to_a().is_empty());
    assert_eq!(
        emu.b_to_a.chaos_drops.load(std::sync::atomic::Ordering::Relaxed),
        0
    );
    emu.shutdown();
}

// ---------------------------------------------------------------------------
// Teardown: the answered Shutdown exchange under loss.
// ---------------------------------------------------------------------------

/// The `shutdown_send` copies and the `shutdown_done` verdicts on a timeline.
type Exchange = (Vec<u32>, Vec<bool>);

fn shutdown_events(tracer: &udt_trace::Tracer) -> Exchange {
    let (mut copies, mut done) = (Vec::new(), Vec::new());
    for e in tracer.snapshot() {
        match e.kind {
            udt_trace::EventKind::ShutdownSend { copy } => copies.push(copy),
            udt_trace::EventKind::ShutdownDone { answered } => done.push(answered),
            _ => {}
        }
    }
    (copies, done)
}

/// The server's reader thread: what its blocked `recv()` returned, and the
/// endpoints, still alive.
type Reader = std::thread::JoinHandle<(Result<usize, udt::UdtError>, UdtConnection, UdtListener)>;

/// A flushed, idle connection through `relay`, a byte exchanged each way so
/// that the client has measured the path (an ACK2 came back: its repeat
/// interval is the one-SYN floor, not the 300 ms an unmeasured path gets):
/// `(client, its tracer, the server's reader thread)`. The reader is blocked
/// in `recv()`; it hands back what that returns, and the connection.
fn idle_pair_through(
    listener: UdtListener,
    relay: &LinkEmu,
) -> (UdtConnection, udt_trace::Tracer, Reader) {
    let reader = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(conn.recv(&mut buf).unwrap(), 1);
        conn.send(b"y").unwrap();
        (conn.recv(&mut buf), conn, listener)
    });
    let tracer = udt_trace::Tracer::ring(1 << 12);
    let cfg = UdtConfig {
        tracer: tracer.clone(),
        ..UdtConfig::default()
    };
    let client = UdtConnection::connect(relay.client_addr(), cfg).unwrap();
    client.send(b"x").unwrap();
    assert_eq!(client.recv(&mut [0u8; 8]).unwrap(), 1);
    let measured = |t: &udt_trace::Tracer| {
        let ack2 = |e: &udt_trace::TraceEvent| matches!(e.kind, udt_trace::EventKind::Ack2Recv { .. });
        t.snapshot().iter().any(ack2)
    };
    while client.unflushed_pkts() > 0 || !measured(&tracer) {
        std::thread::sleep(Duration::from_millis(1));
    }
    (client, tracer, reader)
}

/// Close an idle connection 2 ms into a 9 ms blackout of direction `dir`, so
/// that the first packet of the exchange going that way — the first
/// `Shutdown` forward, the first answer in reverse — is lost, and the repeat
/// (a SYN later at the earliest) is not. `None` if this run's `close()` was
/// scheduled past the window (the relay then dropped nothing): try again.
fn close_through_a_blackout(dir: Direction) -> Option<(Option<usize>, Exchange)> {
    let (start, window) = (Duration::from_millis(150), Duration::from_millis(9));
    let blackout = ImpairmentSpec::Blackout {
        start_us: start.as_micros() as u64,
        duration_us: window.as_micros() as u64,
        period_us: None,
    };
    let scenario = Scenario::new("lost-shutdown", 1);
    let scenario = match dir {
        Direction::Forward => scenario.forward(blackout),
        Direction::Reverse => scenario.reverse(blackout),
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
    let relay = LinkEmu::from_scenario(&scenario, listener.local_addr()).unwrap();
    let t0 = std::time::Instant::now();
    let (client, tracer, reader) = idle_pair_through(listener, &relay);
    std::thread::sleep((t0 + start + Duration::from_millis(2)).saturating_duration_since(std::time::Instant::now()));
    client.close().unwrap();
    // Joins the timer thread: the exchange is over. The peer is still there
    // (inside `reader`) to answer a repeat.
    drop(client);
    let (eof, _server, _listener) = reader.join().unwrap();
    let faults = match dir {
        Direction::Forward => relay.fault_counters_a_to_b(),
        Direction::Reverse => relay.fault_counters_b_to_a(),
    };
    let dropped: u64 = faults.iter().map(|(_, c)| c.snapshot().dropped).sum();
    (dropped == 1).then_some((eof.ok(), shutdown_events(&tracer)))
}

/// A lost first `Shutdown`, and separately a lost first answer, are repaired
/// by one repeat on the timer: the peer's blocked `recv()` returns EOF (not
/// `Broken`), and the initiator sent two copies, not three.
#[test]
fn a_lost_shutdown_or_a_lost_answer_costs_one_repeat() {
    let _serial = serial();
    for dir in [Direction::Forward, Direction::Reverse] {
        let (eof, exchange) = (0..5)
            .find_map(|_| close_through_a_blackout(dir))
            .unwrap_or_else(|| panic!("{dir:?}: close() never landed inside the blackout"));
        assert_eq!(eof, Some(0), "{dir:?}: the peer must see EOF");
        assert_eq!(exchange, (vec![1, 2], vec![true]), "{dir:?}");
    }
}

/// The peer's endpoint is gone (the path to it is): `close()` still returns
/// at once, and the drop that waits for the exchange gives up after the
/// third copy, two repeat intervals (a SYN each on loopback) later.
#[test]
fn close_against_a_vanished_peer_returns_at_once_and_drop_gives_up() {
    let _serial = serial();
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
    let relay = LinkEmu::from_scenario(&Scenario::new("clean", 1), listener.local_addr()).unwrap();
    let (client, tracer, reader) = idle_pair_through(listener, &relay);
    relay.shutdown();
    let t0 = std::time::Instant::now();
    client.close().unwrap();
    let closed = t0.elapsed();
    drop(client);
    let dropped = t0.elapsed();
    assert!(closed < Duration::from_millis(20), "close() took {closed:?}");
    assert!(
        (Duration::from_millis(20)..Duration::from_millis(150)).contains(&dropped),
        "drop took {dropped:?}: two 10 ms repeat intervals, plus slack"
    );
    assert_eq!(shutdown_events(&tracer), (vec![1, 2, 3], vec![false]));
    // The server never heard a thing; its reader stays blocked until its
    // EXP ladder runs out, long after this test: detach it.
    drop(reader);
}
