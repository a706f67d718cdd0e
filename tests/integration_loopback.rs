//! Cross-crate integration: real UDT sockets over clean loopback.

// Test data patterns use deliberate truncating casts.
#![allow(clippy::cast_possible_truncation)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use udt::{ConnStats, UdtConfig, UdtConnection, UdtError, UdtListener};

fn cfg() -> UdtConfig {
    UdtConfig::default()
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(2654435761) >> 11) as u8 ^ salt)
        .collect()
}

fn echo_server(listener: UdtListener) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let conn = listener.accept().expect("accept");
        let mut buf = vec![0u8; 1 << 16];
        let mut out = Vec::new();
        loop {
            let n = conn.recv(&mut buf).expect("recv");
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        out
    })
}

#[test]
fn large_transfer_is_byte_exact() {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg()).unwrap();
    let addr = listener.local_addr();
    let server = echo_server(listener);
    let conn = UdtConnection::connect(addr, cfg()).unwrap();
    let data = pattern(3_000_000, 7);
    conn.send(&data).unwrap();
    conn.close().unwrap();
    assert_eq!(server.join().unwrap(), data);
}

#[test]
fn many_small_sends_preserve_order() {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg()).unwrap();
    let addr = listener.local_addr();
    let server = echo_server(listener);
    let conn = UdtConnection::connect(addr, cfg()).unwrap();
    let mut want = Vec::new();
    for i in 0..2_000u32 {
        let msg = format!("message-{i};");
        conn.send(msg.as_bytes()).unwrap();
        want.extend_from_slice(msg.as_bytes());
    }
    conn.close().unwrap();
    assert_eq!(server.join().unwrap(), want);
}

#[test]
fn duplex_transfer_both_directions() {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg()).unwrap();
    let addr = listener.local_addr();
    let up = pattern(400_000, 1);
    let down = pattern(500_000, 2);
    let down2 = down.clone();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        // Send downstream while reading upstream.
        let down = down2;
        let writer = {
            let conn = std::sync::Arc::new(conn);
            let c2 = std::sync::Arc::clone(&conn);
            let h = std::thread::spawn(move || c2.send(&down).unwrap());
            (conn, h)
        };
        let (conn, h) = writer;
        let mut got = Vec::new();
        let mut buf = vec![0u8; 1 << 16];
        while got.len() < 400_000 {
            let n = conn.recv(&mut buf).unwrap();
            assert!(n > 0, "premature EOF");
            got.extend_from_slice(&buf[..n]);
        }
        h.join().unwrap();
        got
    });
    let conn = UdtConnection::connect(addr, cfg()).unwrap();
    let c = Arc::new(conn);
    let c2 = Arc::clone(&c);
    let up2 = up.clone();
    let writer = std::thread::spawn(move || c2.send(&up2).unwrap());
    let mut got = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    while got.len() < 500_000 {
        let n = c.recv(&mut buf).unwrap();
        assert!(n > 0, "premature EOF");
        got.extend_from_slice(&buf[..n]);
    }
    writer.join().unwrap();
    assert_eq!(got, down);
    let up_got = server.join().unwrap();
    assert_eq!(up_got, up);
    c.close().unwrap();
}

#[test]
fn small_buffers_still_deliver_everything() {
    // Tiny windows force constant flow-control blocking.
    let small = UdtConfig {
        snd_buf_pkts: 32,
        rcv_buf_pkts: 32,
        ..UdtConfig::default()
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), small.clone()).unwrap();
    let addr = listener.local_addr();
    let server = echo_server(listener);
    let conn = UdtConnection::connect(addr, small).unwrap();
    let data = pattern(500_000, 3);
    conn.send(&data).unwrap();
    conn.close().unwrap();
    assert_eq!(server.join().unwrap(), data);
}

#[test]
fn eof_semantics_after_close() {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg()).unwrap();
    let addr = listener.local_addr();
    let server = std::thread::spawn(move || {
        let conn = listener.accept().unwrap();
        let mut buf = [0u8; 64];
        let n = conn.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"bye");
        // After the peer closes, recv must return 0 — repeatedly.
        assert_eq!(conn.recv(&mut buf).unwrap(), 0);
        assert_eq!(conn.recv(&mut buf).unwrap(), 0);
    });
    let conn = UdtConnection::connect(addr, cfg()).unwrap();
    conn.send(b"bye").unwrap();
    conn.close().unwrap();
    server.join().unwrap();
    // Sending after close errors.
    assert!(matches!(
        conn.send(b"more"),
        Err(UdtError::NotConnected) | Err(UdtError::Broken)
    ));
}

#[test]
fn concurrent_connections_do_not_interfere() {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg()).unwrap();
    let addr = listener.local_addr();
    let n_conns = 4;
    let total_ok = Arc::new(AtomicUsize::new(0));
    let server = {
        let total_ok = Arc::clone(&total_ok);
        std::thread::spawn(move || {
            let mut handles = Vec::new();
            for _ in 0..n_conns {
                let conn = listener.accept().unwrap();
                let total_ok = Arc::clone(&total_ok);
                handles.push(std::thread::spawn(move || {
                    let mut buf = vec![0u8; 1 << 16];
                    let mut got = Vec::new();
                    loop {
                        let n = conn.recv(&mut buf).unwrap();
                        if n == 0 {
                            break;
                        }
                        got.extend_from_slice(&buf[..n]);
                    }
                    total_ok.fetch_add(1, Ordering::Relaxed);
                    got
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    };
    let mut clients = Vec::new();
    for k in 0..n_conns {
        clients.push(std::thread::spawn(move || {
            let conn = UdtConnection::connect(addr, cfg()).unwrap();
            let data = pattern(200_000, 0x10 + k as u8);
            conn.send(&data).unwrap();
            conn.close().unwrap();
            data
        }));
    }
    let sent: Vec<Vec<u8>> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let received = server.join().unwrap();
    assert_eq!(received.len(), n_conns);
    assert_eq!(total_ok.load(Ordering::Relaxed), n_conns);
    // Each received stream matches exactly one sent stream.
    for got in &received {
        assert!(
            sent.iter().any(|s| s == got),
            "a received stream matches no sent stream (cross-connection mixing?)"
        );
    }
}

#[test]
fn stats_reflect_the_transfer() {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg()).unwrap();
    let addr = listener.local_addr();
    let server = echo_server(listener);
    let conn = UdtConnection::connect(addr, cfg()).unwrap();
    let data = pattern(1_000_000, 9);
    conn.send(&data).unwrap();
    let stats = conn.stats();
    // Bytes are counted when buffered; packets when transmitted.
    assert_eq!(ConnStats::get(&stats.bytes_sent), data.len() as u64);
    conn.close().unwrap();
    server.join().unwrap();
    let pkts = ConnStats::get(&stats.pkts_sent);
    let payload = conn.config().payload_size() as u64;
    assert!(pkts >= data.len() as u64 / payload);
    assert!(ConnStats::get(&stats.acks_received) > 0, "no ACKs seen");
}

#[test]
fn jumbo_mss_works_on_loopback() {
    let jumbo = UdtConfig {
        mss: 9000,
        ..UdtConfig::default()
    };
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), jumbo.clone()).unwrap();
    let addr = listener.local_addr();
    let server = echo_server(listener);
    let conn = UdtConnection::connect(addr, jumbo).unwrap();
    assert_eq!(conn.config().mss, 9000);
    let data = pattern(2_000_000, 4);
    conn.send(&data).unwrap();
    conn.close().unwrap();
    assert_eq!(server.join().unwrap(), data);
}

/// A connected pair over loopback: `(listener, server end, client end)`.
fn pair() -> (UdtListener, UdtConnection, UdtConnection) {
    pair_with(&cfg())
}

fn pair_with(cfg: &UdtConfig) -> (UdtListener, UdtConnection, UdtConnection) {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).unwrap();
    let addr = listener.local_addr();
    let cfg = cfg.clone();
    let client = std::thread::spawn(move || UdtConnection::connect(addr, cfg).unwrap());
    let server = listener.accept().unwrap();
    (listener, server, client.join().unwrap())
}

#[test]
fn idle_connection_keeps_its_timers_running() {
    // No packet traffic wakes the timer threads: for three idle seconds
    // they must keep EXP firing on their own. Each firing sends a
    // keep-alive, the idle peer answers it, and either one resets the EXP
    // of the side it reaches: both sides stay at the un-escalated 300 ms
    // cadence, ten firings each at most. Unsent or unanswered, a side
    // would climb its back-off ladder and fire less.
    let tracer = udt_trace::Tracer::ring(1 << 12);
    let traced = UdtConfig {
        tracer: tracer.clone(),
        ..cfg()
    };
    let (_listener, server, client) = pair_with(&traced);
    let arrivals = || {
        let batch =
            |e: &udt_trace::TraceEvent| matches!(e.kind, udt_trace::EventKind::BatchRecv { .. });
        tracer.snapshot().iter().filter(|e| batch(e)).count()
    };
    let before = arrivals();
    std::thread::sleep(std::time::Duration::from_secs(3));
    let fired = |c: &UdtConnection| ConnStats::get(&c.stats().exp_timeouts);
    let total = fired(&server) + fired(&client);
    assert!(total >= 6, "EXP fired only {total} times in 3 idle seconds");
    assert!(total <= 22, "{total} EXP firings in 3 idle seconds");
    // A keep-alive and at most one answer per firing: no rally.
    let kept_alive = arrivals() - before;
    assert!(
        (6..=44).contains(&kept_alive),
        "{kept_alive} keep-alives arrived in 3 idle seconds"
    );
    // Still connected, both ways, and both timer threads still tick: each
    // end acknowledges what it received (a SYN period or so later).
    let mut buf = [0u8; 8];
    client.send(b"ping").unwrap();
    assert_eq!(server.recv(&mut buf).unwrap(), 4);
    server.send(b"pong").unwrap();
    assert_eq!(client.recv(&mut buf).unwrap(), 4);
    assert_eq!(&buf[..4], b"pong");
    let t0 = std::time::Instant::now();
    for (name, conn) in [("server", &server), ("client", &client)] {
        while ConnStats::get(&conn.stats().acks_sent) == 0 {
            let waited = t0.elapsed();
            assert!(waited.as_secs() < 5, "{name}: timer thread sent no ACK");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}

#[test]
fn idle_pair_outlives_the_silence_floor() {
    // Being probed must not count as having been heard: the side whose EXP
    // fires first sends keep-alives that refresh its peer's EXP, so the
    // peer never probes on its own, and unless it answers, the prober hears
    // nothing and gives up at the floor — a live, idle pair going Broken.
    let floor = std::time::Duration::from_secs(1);
    let short = UdtConfig {
        broken_silence_floor: floor,
        max_exp_count: 3,
        ..cfg()
    };
    let (_listener, server, client) = pair_with(&short);
    std::thread::sleep(3 * floor);
    let mut buf = [0u8; 8];
    client.send(b"ping").expect("client end broke while idle");
    assert_eq!(
        server.recv(&mut buf).expect("server end broke while idle"),
        4
    );
    server.send(b"pong").unwrap();
    assert_eq!(client.recv(&mut buf).unwrap(), 4);
    assert_eq!(&buf[..4], b"pong");
}

#[test]
fn fresh_connections_stay_in_slow_start_until_the_path_is_measured() {
    // The first window of a connection is sixteen packets. Crossing as the
    // trains of one flush they are no arrival interval at all, not fifteen:
    // a receiver that advertised its unmeasured 16-packet floor on the first
    // ACK would end the sender's slow start there, at (RTT + SYN) / cwnd —
    // hundreds of microseconds a packet. How the sixteen are cut depends on
    // the random initial sequence number, so ask several connections.
    for _ in 0..8 {
        let (_listener, server, client) = pair();
        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; 1 << 16];
            let mut got = 0;
            while got < 2_000_000 {
                got += server.recv(&mut buf).unwrap();
            }
        });
        client.send(&pattern(2_000_000, 9)).unwrap();
        reader.join().unwrap();
        let period = client.pkt_snd_period_us();
        assert!(period < 40.0, "sending period {period} us after 2 MB");
    }
}

/// The smallest of three measurements: on a loaded test host scheduling
/// noise only ever adds to a latency, so the best attempt bounds what the
/// code itself costs, while a real defect slows all three.
fn best_of_three(measure: impl Fn() -> std::time::Duration) -> std::time::Duration {
    (0..3).map(|_| measure()).min().unwrap()
}

#[test]
fn blocked_recv_sees_peer_close_promptly() {
    let late = best_of_three(|| {
        let (_listener, server, client) = pair();
        let reader = std::thread::spawn(move || {
            let mut buf = [0u8; 64];
            let n = server.recv(&mut buf).unwrap();
            (n, std::time::Instant::now())
        });
        // Let the reader block on the empty buffer (and sit out a couple of
        // its own wait timeouts), then close.
        std::thread::sleep(std::time::Duration::from_millis(250));
        let t0 = std::time::Instant::now();
        client.close().unwrap();
        let (n, woke) = reader.join().unwrap();
        assert_eq!(n, 0, "EOF, not data");
        woke.saturating_duration_since(t0)
    });
    assert!(
        late < std::time::Duration::from_millis(20),
        "recv() returned {late:?} after the peer's close() began"
    );
}

#[test]
fn close_on_a_flushed_connection_joins_its_threads_promptly() {
    // close() is a final ACK and one Shutdown: no sleep, no wait for the
    // answer. The answer is a loopback round trip away, and with it the
    // timer thread ends the exchange, so the drop that joins it adds no poll
    // tick either.
    let times: Vec<_> = (0..3)
        .map(|_| {
            let (_listener, server, client) = pair();
            client.send(b"x").unwrap();
            let mut buf = [0u8; 8];
            assert_eq!(server.recv(&mut buf).unwrap(), 1);
            while client.unflushed_pkts() > 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let t0 = std::time::Instant::now();
            client.close().unwrap();
            let closed = t0.elapsed();
            drop(client);
            assert_eq!(server.recv(&mut buf).unwrap(), 0, "the live peer saw EOF");
            (closed, t0.elapsed() - closed)
        })
        .collect();
    let closed = times.iter().map(|t| t.0).min().unwrap();
    let dropped = times.iter().map(|t| t.1).min().unwrap();
    let ms = std::time::Duration::from_millis;
    assert!(closed < ms(5), "close() took {closed:?}");
    assert!(dropped < ms(20), "drop after close() took {dropped:?}");
}

#[test]
fn both_ends_closing_at_once_need_no_repeat() {
    // Each end's Shutdown is the other's answer. Nothing was exchanged, so a
    // repeat would come 300 ms (the unmeasured RTT bound) after the first
    // copy: finishing sooner means neither end waited for one.
    for _ in 0..10 {
        let (_listener, server, client) = pair();
        let t0 = std::time::Instant::now();
        let other = std::thread::spawn(move || {
            server.close().unwrap();
            drop(server);
        });
        client.close().unwrap();
        drop(client);
        other.join().unwrap();
        let took = t0.elapsed();
        assert!(took < std::time::Duration::from_millis(250), "closing both took {took:?}");
    }
}
