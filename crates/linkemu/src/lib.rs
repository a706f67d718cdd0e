//! Userspace UDP link emulator.
//!
//! The paper's testbed experiments (Figures 11–15, Table 2) ran over
//! StarLight/CA*net/SARA optical paths — 1 Gb/s with RTTs from 0.04 ms to
//! 110 ms. This crate stands in for those links on a single machine: a UDP
//! relay that imposes a serialization rate (token-less transmit clock, like
//! a fixed-capacity line card), a propagation delay, a bounded DropTail
//! buffer, and optional random loss — per direction. It is also the
//! workspace's only UDP relay: a pure fault injector is the same relay over
//! an unshaped link ([`LinkSpec::unshaped`], [`LinkEmu::from_scenario`]),
//! where only the `udt-chaos` impairment chain decides when a datagram
//! leaves.
//!
//! ```text
//!   client ⇄ [socket A  relay  socket B] ⇄ server
//! ```
//!
//! The server's address is fixed at construction; the client's address is
//! learned from its first datagram (so ordinary connect-to-the-relay
//! clients work unchanged). Each direction runs on its own thread with a
//! time-ordered release queue.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use udt_chaos::scenario::{Direction as ChaosDir, ImpairmentSpec, Scenario};
use udt_chaos::ImpairmentChain;
use udt_metrics::counters::FaultCounters;
use udt_trace::{DropReason, EventKind, Tracer};

/// Impairments for one direction of the emulated link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Line rate, bits/second.
    pub rate_bps: f64,
    /// One-way propagation delay.
    pub delay: Duration,
    /// DropTail buffer bound, packets.
    pub queue_pkts: usize,
    /// Independent random loss probability (0.0 for none), applied per
    /// IP-level fragment (see `mtu`): a datagram of `f` fragments survives
    /// with probability `(1-p)^f`, reproducing the fragmentation loss
    /// amplification behind the paper's Figure 15 ("segmentation collapse").
    pub loss_prob: f64,
    /// Path MTU, bytes. Datagrams larger than this are "fragmented": they
    /// still arrive as one UDP datagram (loopback transport), but pay the
    /// serialization cost of per-fragment headers and the amplified loss
    /// probability above.
    pub mtu: usize,
    /// RNG seed for loss injection (and the impairment chain's stages).
    pub seed: u64,
    /// Additional impairment chain (udt-chaos), applied per datagram after
    /// the legacy fragment loss and before queue admission. The legacy
    /// `loss_prob`/`mtu` pair is exactly
    /// [`ImpairmentSpec::Bernoulli`]`{ loss, mtu }` — kept as dedicated
    /// fields for the existing experiments' ergonomics.
    pub impairments: Vec<ImpairmentSpec>,
    /// Trace sink: link-level drops (DropTail queue, legacy random loss)
    /// and every chaos-chain fault are emitted as events, timestamped
    /// relative to the relay's start epoch. Disabled by default.
    pub tracer: Tracer,
    /// Connection/flow tag carried by this direction's trace events.
    pub trace_conn: u32,
}

impl LinkSpec {
    /// A clean link of the given rate and delay with a BDP-sized buffer.
    pub fn clean(rate_bps: f64, delay: Duration) -> LinkSpec {
        let bdp_pkts = (rate_bps * delay.as_secs_f64() / (1500.0 * 8.0)).ceil() as usize;
        LinkSpec {
            rate_bps,
            delay,
            queue_pkts: bdp_pkts.max(100),
            loss_prob: 0.0,
            mtu: 65_535,
            seed: 7,
            impairments: Vec::new(),
            tracer: Tracer::disabled(),
            trace_conn: 0,
        }
    }

    /// An unshaped link: infinite rate, no delay, unbounded queue. A
    /// datagram is released when the impairment chain's verdict says so and
    /// for no other reason (serialization time is zero, so the transmit
    /// clock never runs ahead of `now`).
    pub fn unshaped(seed: u64) -> LinkSpec {
        LinkSpec {
            queue_pkts: usize::MAX,
            seed,
            ..LinkSpec::clean(f64::INFINITY, Duration::ZERO)
        }
    }

    /// Append an impairment stage to this direction's chain.
    pub fn impair(mut self, spec: ImpairmentSpec) -> LinkSpec {
        self.impairments.push(spec);
        self
    }

    /// Emit this direction's drops and injected faults into `tracer`,
    /// tagging events with `conn` (use the flow/socket id the traced
    /// connection reports, so link and protocol events join up).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer, conn: u32) -> LinkSpec {
        self.tracer = tracer;
        self.trace_conn = conn;
        self
    }

    /// Build the live chain for this spec. Stage seeds derive from
    /// `seed` through the scenario machinery, with the given direction
    /// tag keeping the two directions of a symmetric link independent.
    fn build_chain(&self, dir: ChaosDir) -> ImpairmentChain {
        let mut sc = Scenario::new("linkemu", self.seed);
        sc.forward = self.impairments.clone();
        sc.reverse = self.impairments.clone();
        sc.build(dir)
            .with_tracer(self.tracer.clone(), self.trace_conn)
    }
}

/// Per-direction counters.
#[derive(Debug, Default)]
pub struct DirStats {
    /// Datagrams forwarded.
    pub forwarded: AtomicU64,
    /// Datagrams dropped at the DropTail buffer.
    pub queue_drops: AtomicU64,
    /// Datagrams dropped by random loss.
    pub random_drops: AtomicU64,
    /// Datagrams dropped by the impairment chain (per-stage attribution
    /// lives in [`LinkEmu::fault_counters_a_to_b`] / `_b_to_a`).
    pub chaos_drops: AtomicU64,
    /// Extra datagram copies injected by the impairment chain.
    pub chaos_dups: AtomicU64,
}

/// A running emulated link.
pub struct LinkEmu {
    addr_a: SocketAddr,
    addr_b: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Stats for the A→B (client→server) direction.
    pub a_to_b: Arc<DirStats>,
    /// Stats for the B→A (server→client) direction.
    pub b_to_a: Arc<DirStats>,
    a_to_b_faults: Vec<(&'static str, Arc<FaultCounters>)>,
    b_to_a_faults: Vec<(&'static str, Arc<FaultCounters>)>,
}

/// One queued datagram, min-ordered by release time with FIFO
/// tie-breaking (the impairment chain can invert release order, so a
/// plain FIFO no longer works).
struct Queued {
    release_at: Instant,
    seq: u64,
    data: Vec<u8>,
}

impl PartialEq for Queued {
    fn eq(&self, other: &Queued) -> bool {
        self.release_at == other.release_at && self.seq == other.seq
    }
}
impl Eq for Queued {}
impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Queued) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Queued {
    fn cmp(&self, other: &Queued) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .release_at
            .cmp(&self.release_at)
            .then(other.seq.cmp(&self.seq))
    }
}

struct Direction {
    /// Socket this direction receives on.
    rx: UdpSocket,
    /// Socket this direction transmits from.
    tx: UdpSocket,
    /// Fixed destination (server side), if any.
    fixed_peer: Option<SocketAddr>,
    /// Learned destination, shared with the opposite direction.
    learned_peer: Arc<Mutex<Option<SocketAddr>>>,
    /// Where this direction *learns* a peer (writes sender addresses).
    learn_into: Option<Arc<Mutex<Option<SocketAddr>>>>,
    spec: LinkSpec,
    chain: ImpairmentChain,
    epoch: Instant,
    stats: Arc<DirStats>,
    stop: Arc<AtomicBool>,
    /// Time-ordered release queue and its FIFO tie-break counter.
    queue: BinaryHeap<Queued>,
    seq: u64,
    /// Virtual transmitter clock: when the "wire" frees up.
    wire_free_at: Instant,
}

impl Direction {
    /// Record a link-level drop on the trace timeline (relay-epoch time,
    /// so chain faults and drops share one clock). Single branch when
    /// tracing is off.
    fn trace_drop(&self, reason: DropReason) {
        self.spec.tracer.emit_at(
            self.epoch.elapsed().as_nanos() as u64,
            self.spec.trace_conn,
            EventKind::DataDrop { seq: 0, reason },
        );
    }

    /// Offer one datagram to the link `extra_us` after now: DropTail
    /// admission, then a slot on the transmit clock (every copy and every
    /// injected datagram serializes separately), then propagation.
    fn admit(&mut self, data: Vec<u8>, extra_us: u64) {
        if self.queue.len() >= self.spec.queue_pkts {
            self.stats.queue_drops.fetch_add(1, Ordering::Relaxed);
            self.trace_drop(DropReason::Queue);
            return;
        }
        let now = Instant::now();
        // Per-fragment IP header overhead on the wire.
        let fragments = data.len().div_ceil(self.spec.mtu).max(1);
        let wire_bytes = data.len() + (fragments - 1) * 28;
        let tx_time = Duration::from_secs_f64(wire_bytes as f64 * 8.0 / self.spec.rate_bps);
        self.wire_free_at = self.wire_free_at.max(now) + tx_time;
        self.queue.push(Queued {
            release_at: self.wire_free_at + self.spec.delay + Duration::from_micros(extra_us),
            seq: self.seq,
            data,
        });
        self.seq += 1;
    }

    fn run(mut self) {
        let mut rng = SmallRng::seed_from_u64(self.spec.seed);
        let mut buf = vec![0u8; 65_536];
        self.rx
            .set_read_timeout(Some(Duration::from_micros(200)))
            // udt-lint: allow(unwrap) — only fails for a zero Duration
            .expect("set_read_timeout");
        // The loop never blocks longer than the read timeout, no matter
        // how far in the future the queue's releases are (a blackout or a
        // long reorder delay must not stall shutdown).
        while !self.stop.load(Ordering::Relaxed) {
            // Release everything due.
            let now = Instant::now();
            while self.queue.peek().is_some_and(|q| q.release_at <= now) {
                // udt-lint: allow(unwrap) — pop after a successful peek is infallible
                let q = self.queue.pop().expect("peeked");
                if let Some(dest) = self.fixed_peer.or_else(|| *self.learned_peer.lock()) {
                    let _ = self.tx.send_to(&q.data, dest);
                    self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                }
            }
            // Wait for input, bounded so releases stay timely.
            match self.rx.recv_from(&mut buf) {
                Ok((n, from)) => {
                    if let Some(learn) = &self.learn_into {
                        let mut slot = learn.lock();
                        if slot.map(|p| p != from).unwrap_or(true) {
                            *slot = Some(from);
                        }
                    }
                    if self.spec.loss_prob > 0.0 {
                        let fragments = n.div_ceil(self.spec.mtu).max(1);
                        let survive = (1.0 - self.spec.loss_prob).powi(fragments as i32);
                        if rng.gen::<f64>() >= survive {
                            self.stats.random_drops.fetch_add(1, Ordering::Relaxed);
                            self.trace_drop(DropReason::RandomLoss);
                            continue;
                        }
                    }
                    // Impairment chain: may drop, delay, duplicate, or
                    // corrupt the datagram bytes in place.
                    let mut data = buf[..n].to_vec();
                    if self.chain.is_empty() {
                        self.admit(data, 0);
                        continue;
                    }
                    let now_us = self.epoch.elapsed().as_micros() as u64;
                    let verdict = self.chain.apply(now_us, n, Some(&mut data));
                    if verdict.dropped() {
                        self.stats.chaos_drops.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.stats
                            .chaos_dups
                            .fetch_add(verdict.copies.len() as u64 - 1, Ordering::Relaxed);
                    }
                    for extra_us in verdict.copies {
                        self.admit(data.clone(), extra_us);
                    }
                    // Forgeries and replays cross the same link as the
                    // traffic that provoked them — also when that packet
                    // itself was dropped — so a delayed replay really
                    // arrives after the original it duplicates.
                    for inj in verdict.injections {
                        self.admit(inj.data, inj.delay_us);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
    }
}

impl LinkEmu {
    /// Start an emulated duplex link in front of `server`. Clients talk to
    /// [`LinkEmu::client_addr`]; the relay forwards to `server` over the
    /// A→B impairments and returns the server's datagrams to the (learned)
    /// client over the B→A impairments.
    pub fn start(to_server: LinkSpec, to_client: LinkSpec, server: SocketAddr) -> io::Result<LinkEmu> {
        let sock_a = UdpSocket::bind("127.0.0.1:0")?; // faces the client
        let sock_b = UdpSocket::bind("127.0.0.1:0")?; // faces the server
        let addr_a = sock_a.local_addr()?;
        let addr_b = sock_b.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let a_to_b = Arc::new(DirStats::default());
        let b_to_a = Arc::new(DirStats::default());
        let client_peer = Arc::new(Mutex::new(None));
        let epoch = Instant::now();

        let fwd_chain = to_server.build_chain(ChaosDir::Forward);
        let rev_chain = to_client.build_chain(ChaosDir::Reverse);
        let a_to_b_faults = fwd_chain.counter_handles();
        let b_to_a_faults = rev_chain.counter_handles();

        let fwd = Direction {
            rx: sock_a.try_clone()?,
            tx: sock_b.try_clone()?,
            fixed_peer: Some(server),
            learned_peer: Arc::clone(&client_peer),
            learn_into: Some(Arc::clone(&client_peer)),
            spec: to_server,
            chain: fwd_chain,
            epoch,
            stats: Arc::clone(&a_to_b),
            stop: Arc::clone(&stop),
            queue: BinaryHeap::new(),
            seq: 0,
            wire_free_at: epoch,
        };
        let rev = Direction {
            rx: sock_b,
            tx: sock_a,
            fixed_peer: None, // send to the learned client
            learned_peer: client_peer,
            learn_into: None,
            spec: to_client,
            chain: rev_chain,
            epoch,
            stats: Arc::clone(&b_to_a),
            stop: Arc::clone(&stop),
            queue: BinaryHeap::new(),
            seq: 0,
            wire_free_at: epoch,
        };
        let threads = vec![
            std::thread::Builder::new()
                .name("linkemu-fwd".into())
                .spawn(move || fwd.run())?,
            std::thread::Builder::new()
                .name("linkemu-rev".into())
                .spawn(move || rev.run())?,
        ];
        Ok(LinkEmu {
            addr_a,
            addr_b,
            stop,
            threads,
            a_to_b,
            b_to_a,
            a_to_b_faults,
            b_to_a_faults,
        })
    }

    /// Symmetric link: same impairments both ways (each direction still
    /// draws independent randomness from the shared seed).
    pub fn start_symmetric(spec: LinkSpec, server: SocketAddr) -> io::Result<LinkEmu> {
        LinkEmu::start(spec.clone(), spec, server)
    }

    /// A pure fault injector in front of `server`: both directions
    /// unshaped, each running its side of `scenario`. The scenario clock
    /// (`now_us` of time-windowed impairments such as blackouts) starts
    /// at 0 when this returns.
    pub fn from_scenario(scenario: &Scenario, server: SocketAddr) -> io::Result<LinkEmu> {
        let dir = |stages: &[ImpairmentSpec]| LinkSpec {
            impairments: stages.to_vec(),
            ..LinkSpec::unshaped(scenario.seed)
        };
        LinkEmu::start(dir(&scenario.forward), dir(&scenario.reverse), server)
    }

    /// Per-stage impairment-chain counters of the A→B direction.
    pub fn fault_counters_a_to_b(&self) -> &[(&'static str, Arc<FaultCounters>)] {
        &self.a_to_b_faults
    }

    /// Per-stage impairment-chain counters of the B→A direction.
    pub fn fault_counters_b_to_a(&self) -> &[(&'static str, Arc<FaultCounters>)] {
        &self.b_to_a_faults
    }

    /// The address clients should send to (and will receive from).
    pub fn client_addr(&self) -> SocketAddr {
        self.addr_a
    }

    /// The address the server will see datagrams from.
    pub fn server_facing_addr(&self) -> SocketAddr {
        self.addr_b
    }

    /// Stop the relay threads and wait for them (what dropping does).
    pub fn shutdown(self) {}
}

impl Drop for LinkEmu {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udp() -> UdpSocket {
        UdpSocket::bind("127.0.0.1:0").expect("bind")
    }

    /// One ping/pong through `emu`, checking the server sees the relay's
    /// server-facing address.
    fn ping_pong(emu: &LinkEmu, server: &UdpSocket) {
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        client.send(b"ping").unwrap();
        let mut buf = [0u8; 64];
        server
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let (n, from) = server.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
        assert_eq!(from, emu.server_facing_addr());
        server.send_to(b"pong", from).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let n = client.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong");
    }

    #[test]
    fn relays_datagrams_both_ways() {
        let server = udp();
        let emu = LinkEmu::start_symmetric(
            LinkSpec::clean(1e9, Duration::from_millis(1)),
            server.local_addr().unwrap(),
        )
        .unwrap();
        ping_pong(&emu, &server);
        emu.shutdown();
    }

    #[test]
    fn transparent_scenario_relays_both_ways() {
        let server = udp();
        let emu = LinkEmu::from_scenario(&Scenario::new("clear", 1), server.local_addr().unwrap())
            .unwrap();
        ping_pong(&emu, &server);
        emu.shutdown();
    }

    #[test]
    fn duplication_multiplies_deliveries() {
        let server = udp();
        let scenario = Scenario::new("dup", 3).forward(ImpairmentSpec::Duplicate {
            prob: 1.0,
            copies: 1,
        });
        let emu = LinkEmu::from_scenario(&scenario, server.local_addr().unwrap()).unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        for _ in 0..20 {
            client.send(b"d").unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        server
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut buf = [0u8; 16];
        let mut got = 0;
        while server.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, 40, "every datagram should arrive twice");
        assert_eq!(emu.fault_counters_a_to_b()[0].1.snapshot().duplicated, 20);
        assert_eq!(emu.a_to_b.forwarded.load(Ordering::Relaxed), 40);
        emu.shutdown();
    }

    #[test]
    fn total_loss_blocks_forward_direction_only() {
        let server = udp();
        let scenario = Scenario::new("mute", 5).forward(ImpairmentSpec::Bernoulli {
            loss: 1.0,
            mtu: None,
        });
        let emu = LinkEmu::from_scenario(&scenario, server.local_addr().unwrap()).unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        client.send(b"lost").unwrap();
        let mut buf = [0u8; 16];
        server
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        assert!(
            server.recv_from(&mut buf).is_err(),
            "forward direction should be mute"
        );
        // The relay learned the client before the chain dropped its
        // datagram, so the (transparent) reverse path still delivers.
        server.send_to(b"back", emu.server_facing_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let n = client.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"back");
        assert_eq!(emu.fault_counters_a_to_b()[0].1.snapshot().dropped, 1);
        emu.shutdown();
    }

    #[test]
    fn drop_during_blackout_shuts_down_promptly() {
        let server = udp();
        // Blackout active from t=0 for 60 s: packets pile up dropped and
        // nothing is released, the worst case for a sleepy relay loop.
        let scenario = Scenario::new("dark", 9)
            .both(ImpairmentSpec::Blackout {
                start_us: 0,
                duration_us: 60_000_000,
                period_us: None,
            })
            .both(ImpairmentSpec::Jitter { max_us: 50_000 });
        let emu = LinkEmu::from_scenario(&scenario, server.local_addr().unwrap()).unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        for _ in 0..50 {
            client.send(b"x").unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        drop(emu);
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "relay drop took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn adversary_stage_injects_forgeries_even_past_a_drop() {
        let server = udp();
        // A shaped link whose chain forges one Shutdown at the first
        // packet it sees and then loses that packet: the forgery alone
        // must reach the server socket.
        let fwd = LinkSpec::clean(1e9, Duration::from_millis(1))
            .impair(ImpairmentSpec::Adversary {
                forge_data: 0.0,
                forge_ack: 0.0,
                replay: 0.0,
                tag_flip: 0.0,
                forge_shutdown_after: Some(1),
            })
            .impair(ImpairmentSpec::Bernoulli {
                loss: 1.0,
                mtu: None,
            });
        let emu = LinkEmu::start(
            fwd,
            LinkSpec::clean(1e9, Duration::ZERO),
            server.local_addr().unwrap(),
        )
        .unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        // A data packet toward connection 0xAB: seq, timestamp, conn id.
        let mut pkt = Vec::new();
        pkt.extend_from_slice(&1000u32.to_be_bytes());
        pkt.extend_from_slice(&0u32.to_be_bytes());
        pkt.extend_from_slice(&0xABu32.to_be_bytes());
        pkt.extend_from_slice(&[0x55; 64]);
        client.send(&pkt).unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut buf = [0u8; 128];
        let (n, _) = server.recv_from(&mut buf).expect("forged datagram");
        assert_eq!(&buf[..4], &0x8005_0000u32.to_be_bytes(), "Shutdown header");
        assert_eq!(
            &buf[12..n],
            &0xABu32.to_be_bytes(),
            "aimed at the observed id"
        );
        assert!(
            server.recv_from(&mut buf).is_err(),
            "the original was dropped"
        );
        assert_eq!(emu.fault_counters_a_to_b()[0].1.snapshot().injected, 1);
        assert_eq!(emu.a_to_b.chaos_drops.load(Ordering::Relaxed), 1);
        emu.shutdown();
    }

    #[test]
    fn delay_is_applied() {
        let server = udp();
        let emu = LinkEmu::start_symmetric(
            LinkSpec::clean(1e9, Duration::from_millis(30)),
            server.local_addr().unwrap(),
        )
        .unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        let t0 = Instant::now();
        client.send(b"x").unwrap();
        let mut buf = [0u8; 8];
        server
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let (_, from) = server.recv_from(&mut buf).unwrap();
        let one_way = t0.elapsed();
        assert!(one_way >= Duration::from_millis(29), "one way {one_way:?}");
        // Round trip ≈ 60 ms.
        server.send_to(b"y", from).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        client.recv(&mut buf).unwrap();
        let rtt = t0.elapsed();
        assert!(rtt >= Duration::from_millis(58), "rtt {rtt:?}");
        assert!(rtt < Duration::from_millis(500), "rtt {rtt:?}");
        emu.shutdown();
    }

    #[test]
    fn rate_limit_spaces_packets() {
        let server = udp();
        // 8 Mb/s: a 1000-byte datagram serializes in 1 ms.
        let emu = LinkEmu::start_symmetric(
            LinkSpec::clean(8e6, Duration::from_millis(0)),
            server.local_addr().unwrap(),
        )
        .unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        let n_pkts = 20;
        for _ in 0..n_pkts {
            client.send(&[0u8; 1000]).unwrap();
        }
        server
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let t0 = Instant::now();
        let mut buf = [0u8; 2048];
        for _ in 0..n_pkts {
            server.recv_from(&mut buf).unwrap();
        }
        let elapsed = t0.elapsed();
        // 20 packets at 1 ms each ≈ 19 ms after the first arrives.
        assert!(
            elapsed >= Duration::from_millis(15),
            "packets arrived too fast: {elapsed:?}"
        );
        emu.shutdown();
    }

    #[test]
    fn droptail_bounds_burst() {
        let server = udp();
        let mut spec = LinkSpec::clean(1e6, Duration::from_millis(1));
        spec.queue_pkts = 5;
        let emu = LinkEmu::start_symmetric(spec, server.local_addr().unwrap());
        let emu = emu.unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        for _ in 0..200 {
            client.send(&[0u8; 1200]).unwrap();
        }
        std::thread::sleep(Duration::from_millis(300));
        let drops = emu.a_to_b.queue_drops.load(Ordering::Relaxed);
        assert!(drops > 0, "expected queue drops, got none");
        emu.shutdown();
    }

    #[test]
    fn random_loss_drops_roughly_proportionally() {
        let server = udp();
        let mut spec = LinkSpec::clean(1e9, Duration::from_millis(0));
        spec.loss_prob = 0.5;
        spec.seed = 42;
        let emu = LinkEmu::start(
            spec,
            LinkSpec::clean(1e9, Duration::from_millis(0)),
            server.local_addr().unwrap(),
        )
        .unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        // Pace the sends so the relay's socket buffer cannot overflow and
        // shadow the loss statistics.
        for i in 0..1000 {
            client.send(&[0u8; 100]).unwrap();
            if i % 20 == 19 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        std::thread::sleep(Duration::from_millis(300));
        let dropped = emu.a_to_b.random_drops.load(Ordering::Relaxed);
        let seen = dropped + emu.a_to_b.forwarded.load(Ordering::Relaxed);
        assert!(seen > 900, "relay only saw {seen} of 1000 datagrams");
        let frac = dropped as f64 / seen as f64;
        assert!(
            (0.4..0.6).contains(&frac),
            "~50% should drop; got {dropped}/{seen}"
        );
        emu.shutdown();
    }

    #[test]
    fn traced_link_records_drops_by_reason() {
        let server = udp();
        let tracer = Tracer::ring(1 << 12);
        // Slow line + tiny queue + heavy random loss: both drop paths fire.
        let mut spec =
            LinkSpec::clean(1e6, Duration::from_millis(1)).with_tracer(tracer.clone(), 9);
        spec.queue_pkts = 5;
        spec.loss_prob = 0.3;
        let emu = LinkEmu::start(
            spec,
            LinkSpec::clean(1e9, Duration::ZERO),
            server.local_addr().unwrap(),
        )
        .unwrap();
        let client = udp();
        client.connect(emu.client_addr()).unwrap();
        for i in 0..300 {
            client.send(&[0u8; 1200]).unwrap();
            if i % 20 == 19 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        std::thread::sleep(Duration::from_millis(300));
        let random_drops = emu.a_to_b.random_drops.load(Ordering::Relaxed);
        let queue_drops = emu.a_to_b.queue_drops.load(Ordering::Relaxed);
        emu.shutdown();
        assert!(random_drops > 0, "no random drops at 30% loss");
        assert!(queue_drops > 0, "no queue drops with a 5-packet queue");
        // The trace mirrors the counters exactly, tagged and attributed.
        let events = tracer.snapshot();
        let count = |want: DropReason| {
            events
                .iter()
                .filter(|e| {
                    e.conn == 9
                        && matches!(e.kind, EventKind::DataDrop { reason, .. } if reason == want)
                })
                .count() as u64
        };
        assert_eq!(count(DropReason::RandomLoss), random_drops);
        assert_eq!(count(DropReason::Queue), queue_drops);
    }
}
