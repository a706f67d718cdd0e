//! Real-socket experiment helpers: run an actual UDT transfer between two
//! endpoints in this process — through a `linkemu` emulated path, straight
//! over loopback, or through a `linkemu` fault injector running a
//! `udt-chaos` scenario.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkemu::{LinkEmu, LinkSpec};
use udt::{ResilientSession, ResumableFileSink, UdtConfig, UdtConnection, UdtListener};
use udt_chaos::Scenario;
use udt_metrics::counters::{AuthSnapshot, ListenerSnapshot, SessionSnapshot};

use crate::instrshot::InstrumentSnapshot;

/// An emulated path (named after the paper's testbed sites).
#[derive(Debug, Clone)]
pub struct EmuPath {
    /// Label for reports.
    pub label: &'static str,
    /// Line rate, bits/s.
    pub rate_bps: f64,
    /// Round-trip time.
    pub rtt: Duration,
    /// Random loss probability per fragment (0 for clean).
    pub loss_prob: f64,
    /// Path MTU.
    pub mtu: usize,
}

impl EmuPath {
    /// Clean path.
    pub fn clean(label: &'static str, rate_bps: f64, rtt: Duration) -> EmuPath {
        EmuPath {
            label,
            rate_bps,
            rtt,
            loss_prob: 0.0,
            mtu: 65_535,
        }
    }

    fn spec(&self, seed: u64) -> LinkSpec {
        let mut s = LinkSpec::clean(self.rate_bps, self.rtt / 2);
        s.loss_prob = self.loss_prob;
        s.mtu = self.mtu;
        s.seed = seed;
        s
    }
}

/// Results of one real transfer.
#[derive(Debug)]
pub struct TransferOut {
    /// Bytes delivered to the receiving application.
    pub bytes: u64,
    /// Wall time of the transfer, seconds.
    pub secs: f64,
    /// Delivered-bytes samples at `sample_s` intervals (cumulative).
    pub samples: Vec<u64>,
    /// Sampling interval used.
    pub sample_s: f64,
    /// Sending-side instrumentation snapshot.
    pub snd_instr: InstrumentSnapshot,
    /// Receiving-side instrumentation snapshot.
    pub rcv_instr: InstrumentSnapshot,
    /// Process CPU seconds consumed during the transfer.
    pub cpu_secs: f64,
    /// Data packets sent (first transmissions).
    pub pkts_sent: u64,
    /// Data packets retransmitted.
    pub pkts_retx: u64,
}

impl TransferOut {
    /// Mean application throughput, bits/s.
    pub fn throughput_bps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.secs.max(1e-9)
    }

    /// Retransmissions per first transmission.
    pub fn retransmit_ratio(&self) -> f64 {
        if self.pkts_sent == 0 {
            0.0
        } else {
            self.pkts_retx as f64 / self.pkts_sent as f64
        }
    }

    /// Per-interval throughput series, bits/s.
    pub fn series_bps(&self) -> Vec<f64> {
        self.samples
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 * 8.0 / self.sample_s)
            .collect()
    }
}

/// Stream data through an emulated `path` for `duration` (or until
/// `total_bytes` when set), sampling receiver progress. A connection that
/// breaks ends the transfer: the result reports what got through.
pub fn run_transfer(
    path: &EmuPath,
    cfg: UdtConfig,
    duration: Duration,
    total_bytes: Option<u64>,
    sample_s: f64,
) -> TransferOut {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone())
        .expect("bind listener");
    let emu = LinkEmu::start(path.spec(11), path.spec(23), listener.local_addr())
        .expect("start linkemu");
    let (out, _) = transfer(
        listener,
        emu.client_addr(),
        cfg,
        duration,
        total_bytes,
        Some(sample_s),
    );
    emu.shutdown();
    out
}

/// A direct-loopback (no emulation) blast, for the CPU experiments.
pub fn run_loopback_blast(cfg: UdtConfig, total_bytes: u64) -> TransferOut {
    let listener = UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone())
        .expect("bind listener");
    let addr = listener.local_addr();
    let (out, sent) = transfer(listener, addr, cfg, Duration::ZERO, Some(total_bytes), None);
    assert_eq!(sent, total_bytes, "loopback blast broke mid-send");
    out
}

/// One sender → one receiver through `target` (the listener itself, or a
/// relay in front of it). Returns the measurements and the bytes the
/// sender got into the connection before stopping.
fn transfer(
    listener: UdtListener,
    target: std::net::SocketAddr,
    cfg: UdtConfig,
    duration: Duration,
    total_bytes: Option<u64>,
    sample_s: Option<f64>,
) -> (TransferOut, u64) {
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
            InstrumentSnapshot::take(conn.instrument())
        })
    };

    let conn = UdtConnection::connect(target, cfg).expect("connect");
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = sample_s.map(|every| {
        let delivered = Arc::clone(&delivered);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut samples = vec![0u64];
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_secs_f64(every));
                samples.push(delivered.load(Ordering::Relaxed));
            }
            samples
        })
    });

    let cpu0 = crate::cpu::process_cpu_seconds();
    let t0 = Instant::now();
    let chunk = vec![0u8; 1 << 16];
    let mut sent = 0u64;
    loop {
        let n = match total_bytes {
            Some(total) if sent >= total => break,
            Some(total) => ((total - sent) as usize).min(chunk.len()),
            None if t0.elapsed() >= duration => break,
            None => chunk.len(),
        };
        if conn.send(&chunk[..n]).is_err() {
            break; // connection broke: report what got through
        }
        sent += n as u64;
    }
    let snd_instr = InstrumentSnapshot::take(conn.instrument());
    let _ = conn.close();
    let pkts_sent = udt::ConnStats::get(&conn.stats().pkts_sent);
    let pkts_retx = udt::ConnStats::get(&conn.stats().pkts_retransmitted);
    let secs = t0.elapsed().as_secs_f64();
    let cpu_secs = crate::cpu::process_cpu_seconds() - cpu0;
    let rcv_instr = server.join().expect("server thread");
    stop.store(true, Ordering::Relaxed);
    let samples = sampler.map_or_else(Vec::new, |s| s.join().expect("sampler"));
    let out = TransferOut {
        bytes: delivered.load(Ordering::Relaxed),
        secs,
        samples,
        sample_s: sample_s.unwrap_or(1.0),
        snd_instr,
        rcv_instr,
        cpu_secs,
        pkts_sent,
        pkts_retx,
    };
    (out, sent)
}

/// Deterministic payload for byte-identity checks; `salt` keeps the
/// streams of one experiment's parts distinct.
pub fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(0x9E37_79B9) >> 9) as u8 ^ salt)
        .collect()
}

/// One plain connection through a fault-injecting relay running
/// `scenario`: send `data`, close, and return what the receiving
/// application got plus the accepted connection's auth counters. Nothing
/// here panics on a dead link — a transfer the scenario killed simply
/// returns short, which is what the callers measure.
pub fn transfer_through(
    scenario: &Scenario,
    cfg: &UdtConfig,
    data: &[u8],
) -> (Vec<u8>, Option<AuthSnapshot>) {
    let listener =
        UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).expect("bind listener");
    let relay = LinkEmu::from_scenario(scenario, listener.local_addr()).expect("start relay");
    let server = std::thread::spawn(move || {
        let Ok(Some(conn)) = listener.accept_timeout(Duration::from_secs(10)) else {
            return (Vec::new(), None);
        };
        let mut buf = vec![0u8; 1 << 16];
        let mut out = Vec::new();
        loop {
            match conn.recv(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
            }
        }
        (out, conn.auth_counters())
    });
    if let Ok(conn) = UdtConnection::connect(relay.client_addr(), cfg.clone()) {
        // The sender just pushes until done or until the link's death
        // surfaces; the measurement is what the *receiver* kept.
        let _ = conn.send(data);
        let _ = conn.close();
    }
    let got = server.join().expect("server thread");
    relay.shutdown();
    got
}

/// Outcome of [`resilient_upload_through`].
#[derive(Debug)]
pub struct ResilientUpload {
    /// Bytes the session reports as uploaded.
    pub sent: u64,
    /// Whether the sink saw the file complete.
    pub completed: bool,
    /// Wall time from first connect to the sink's verdict.
    pub elapsed: Duration,
    /// The session's reconnect/resume counters.
    pub session: SessionSnapshot,
    /// The listener's handshake counters.
    pub listener: ListenerSnapshot,
}

/// Upload `src` (`len` bytes) into `dest` with a [`ResilientSession`]
/// through a fault-injecting relay running `scenario`; the server side is
/// a [`ResumableFileSink`] that takes up to `accepts` (re)connections,
/// waiting `accept_wait` for each.
pub fn resilient_upload_through(
    scenario: &Scenario,
    cfg: &UdtConfig,
    src: &Path,
    dest: &Path,
    len: u64,
    accepts: usize,
    accept_wait: Duration,
) -> ResilientUpload {
    let listener =
        UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).expect("bind listener");
    let sessions = listener.sessions();
    let relay = LinkEmu::from_scenario(scenario, listener.local_addr()).expect("start relay");
    let sink_dest = dest.to_path_buf();
    let server = std::thread::spawn(move || {
        let sink = ResumableFileSink::new(&sink_dest, sessions);
        for _ in 0..accepts {
            let Some(conn) = listener.accept_timeout(accept_wait).expect("accept") else {
                break;
            };
            match sink.absorb(&conn) {
                Ok(true) => return (true, listener.counters()),
                Ok(false) => continue,
                Err(e) => panic!("sink failed non-retryably: {e}"),
            }
        }
        (false, listener.counters())
    });
    let t0 = Instant::now();
    let mut sess =
        ResilientSession::connect(relay.client_addr(), cfg.clone()).expect("session connect");
    let sent = sess.upload(src, len).expect("resilient upload");
    let elapsed = t0.elapsed();
    let (completed, listener) = server.join().expect("server thread");
    relay.shutdown();
    ResilientUpload {
        sent,
        completed,
        elapsed,
        session: sess.counters(),
        listener,
    }
}
