//! UDP demultiplexer: one socket, many connections.
//!
//! Every UDT packet carries a destination connection id; a single demux
//! thread drains the socket in batches (one `recvmmsg` per wakeup on
//! Linux, each message a datagram or a whole train of them, see
//! [`crate::mmsg`]), one pooled buffer per packet, groups each decoded
//! batch by connection id (handshake requests, which carry id 0, go to the
//! listener queue) and **runs every established connection's share to
//! completion right there**, through the [`PacketSink`] its id maps to —
//! no per-connection queue, thread or wake-up between the socket and the
//! protocol state (UDT4's `CRcvQueue::worker` has the same shape). A queue
//! remains only where a blocking caller needs one: the handshake phase of
//! `connect`/the listener ([`Mux::register`], then [`Mux::attach`]) and
//! the raw pump in [`crate::datapath`]. Sends go out through the shared
//! socket from any thread; a caller's burst is one flush, cut into trains
//! of equal-length packets that each cross the kernel as one message.
//!
//! Steady-state allocation discipline: receive buffers come from the
//! recycling [`BufPool`] (the receive call copies each packet out of its
//! train into one), send buffers and the flush's header arrays from
//! per-thread scratch, and the per-connection grouping vectors are
//! demux-thread scratch reused across wakeups; only a queue route takes
//! ownership of its batch vector.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::BytesMut;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;
use udt_algo::{Nanos, PROBE_INTERVAL};
use udt_metrics::counters::{BatchCounters, BatchSnapshot};
use udt_proto::ctrl::type_code;
use udt_proto::{decode, encode, Packet, SeqNo};
use udt_trace::{DropReason, EventKind, Tracer};

use crate::auth::AuthCtx;
use crate::config::UdtConfig;
use crate::instrument::{Category, Instrument};
use crate::mmsg::{thread_cpu_ns, BatchIo, Datagram, RecvScratch, SendScratch};
use crate::pool::BufPool;

/// A routed inbound packet: the packet, its source, and its arrival stamp
/// (see [`Datagram`]; a timeline of its own, not the connection clock's).
pub(crate) type MuxMsg = (Packet, SocketAddr, Nanos);

/// One demux wakeup's worth of packets for a single connection.
pub(crate) type MuxBatch = Vec<MuxMsg>;

/// Inline consumer of one connection's share of each demux wakeup.
pub(crate) trait PacketSink: Send + Sync {
    /// Process `batch` in order, draining it. Runs on the `udt-mux` thread
    /// (once, for packets queued during the handshake, on the thread
    /// calling [`Mux::attach`]), never under the registry lock. `recv_ns`
    /// is the batch's share of the receive syscall's CPU time (Table 3).
    fn deliver(&self, batch: &mut MuxBatch, recv_ns: u64);
}

/// Where the demux thread sends a connection id's packets.
enum Route {
    /// A blocking caller drains a queue (handshake phase, raw pump).
    Queue(Sender<MuxBatch>),
    /// Established connection, processed inline. Weak: the connection
    /// owns an `Arc<Mux>`, the registry must not own the connection back.
    Sink(Weak<dyn PacketSink>),
}

/// One wakeup in this many brackets its receive call with thread-CPU-time
/// readings (a real syscall each, ~0.3 µs) and books the difference times
/// this factor: an unbiased `UdpRecv` figure at negligible datapath cost.
const RECV_CPU_SAMPLE: u64 = 8;

/// Recycled receive-buffer pool depth, in buffers. Exhaustion is never
/// fatal — the pool falls back to counted fresh allocations (`pool_misses`
/// in the batch counters).
const BUF_POOL_PKTS: usize = 256;

pub(crate) struct Mux {
    socket: UdpSocket,
    local_addr: SocketAddr,
    /// The registry: held for lookups, queue pushes and route swaps only.
    conns: Mutex<HashMap<u32, Route>>,
    listener: Mutex<Option<Sender<MuxMsg>>>,
    stop: AtomicBool,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Authenticated-profile contexts, by local connection id. A present
    /// entry makes the demux thread require (and strip) a valid trailer
    /// tag on every non-handshake datagram for that connection — forged
    /// packets are dropped *before* decode, so they can never reach the
    /// connection's protocol state (no EXP refresh, no forged Shutdown).
    auth: Mutex<HashMap<u32, Arc<AuthCtx>>>,
    /// Batched syscall front end (trains over `recvmmsg`/`sendmmsg`, or
    /// the per-datagram fallback).
    io: BatchIo,
    /// Recycled receive buffers; zero per-packet allocation in steady
    /// state.
    pool: BufPool,
    /// Batch-size and pool hit/miss accounting, shared with the pool.
    counters: Arc<BatchCounters>,
    /// Batch-size histograms, present only when the config carries a
    /// [`crate::obs::MetricsHub`].
    obs: Option<MuxObs>,
    /// Max messages (datagrams or trains) drained per demux wakeup
    /// (`rcv_batch_pkts`).
    rcv_batch: usize,
    /// Where demux-level drops (queue shed) are recorded.
    tracer: Tracer,
}

/// Per-mux histogram set (labelled `mux="<local port>"`).
struct MuxObs {
    recv_batch: Arc<udt_metrics::hist::Histogram>,
    send_batch: Arc<udt_metrics::hist::Histogram>,
}

/// Minimal raw-header peek: `(is_control, type_code, conn_id, seq)`
/// without decoding the packet. Returns `None` when the buffer is too
/// short to carry the respective header (the decoder will reject it too).
fn peek_header(buf: &[u8]) -> Option<(bool, u16, u32, u32)> {
    if buf.len() < 12 {
        return None;
    }
    // udt-lint: allow(unwrap) — 4-byte slices of a length-checked buffer
    let w0 = u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes"));
    if w0 & 0x8000_0000 == 0 {
        // udt-lint: allow(unwrap)
        let conn_id = u32::from_be_bytes(buf[8..12].try_into().expect("4 bytes"));
        Some((false, 0, conn_id, w0 & 0x7FFF_FFFF))
    } else {
        if buf.len() < 16 {
            return None;
        }
        let tc = ((w0 >> 16) & 0x7FFF) as u16;
        // udt-lint: allow(unwrap)
        let conn_id = u32::from_be_bytes(buf[12..16].try_into().expect("4 bytes"));
        Some((true, tc, conn_id, 0))
    }
}

impl Mux {
    /// Bind a socket and start the demux thread. `cfg` supplies the
    /// datapath tuning: receive batch size, buffer-pool depth, and the
    /// MSS the pool stride is derived from.
    pub fn bind(addr: SocketAddr, cfg: &UdtConfig) -> io::Result<Arc<Mux>> {
        let socket = UdpSocket::bind(addr)?;
        let local_addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(100)))?;
        // Deep UDP socket buffers (reference-implementation parity): a
        // kernel queue that absorbs a burst becomes one `recvmmsg` batch
        // instead of drops. Best-effort; `0` keeps the OS default.
        crate::mmsg::set_socket_buffers(&socket, cfg.udp_sndbuf_bytes, cfg.udp_rcvbuf_bytes);
        // Arrival times for the receiver's packet-pair and arrival-speed
        // estimators must not depend on when this process gets to a packet.
        crate::mmsg::enable_arrival_stamps(&socket);
        let rcv_batch = cfg.rcv_batch_pkts.max(1) as usize;
        if rcv_batch > 1 {
            // Take trains whole; the batched receive splits them. (The
            // one-datagram receive of `rcv_batch_pkts = 1` cannot: there
            // the kernel splits them before they are queued.)
            crate::mmsg::enable_trains(&socket);
        }
        let counters = Arc::new(BatchCounters::new());
        // Stride covers a full data packet plus trailer tag, with a floor
        // that fits every control packet (largest: a 64-range NAK).
        let stride = (cfg.mss as usize).max(512) + 72;
        let pool = BufPool::new(BUF_POOL_PKTS, stride, Arc::clone(&counters));
        let obs = cfg.metrics.as_ref().map(|hub| {
            let port = local_addr.port().to_string();
            let labels = [("mux", port.as_str())];
            let reg = hub.registry();
            // Registration failures (e.g. a port reused within one hub)
            // degrade observability, never the datapath.
            let _ = reg.register_family(&labels, Arc::clone(&counters));
            if let Ok(h) = reg.histogram(
                "udt_mux_pool_sweep_ns",
                "duration of buffer-pool reclaim sweeps, nanoseconds",
                &labels,
            ) {
                pool.set_sweep_hist(h);
            }
            let hist = |name: &str, help: &str| {
                reg.histogram(name, help, &labels)
                    .unwrap_or_else(|_| Arc::new(udt_metrics::hist::Histogram::new()))
            };
            MuxObs {
                recv_batch: hist(
                    "udt_mux_recv_batch_pkts",
                    "datagrams drained from the UDP socket per demux wakeup",
                ),
                send_batch: hist(
                    "udt_mux_send_batch_pkts",
                    "data packets coalesced per socket flush",
                ),
            }
        });
        let mux = Arc::new(Mux {
            socket,
            local_addr,
            conns: Mutex::new(HashMap::new()),
            listener: Mutex::new(None),
            stop: AtomicBool::new(false),
            thread: Mutex::new(None),
            auth: Mutex::new(HashMap::new()),
            io: BatchIo::detect(),
            pool,
            counters,
            obs,
            rcv_batch,
            tracer: cfg.tracer.clone(),
        });
        let weak = Arc::downgrade(&mux);
        let rx = mux.socket.try_clone()?;
        let handle = std::thread::Builder::new()
            .name("udt-mux".into())
            .spawn(move || {
                let mut scratch = RecvScratch::default();
                // Raw datagrams land here, then regroup per connection id;
                // both vectors (and the groups' inner ones) are reused.
                let mut raw: Vec<Datagram> = Vec::with_capacity(64);
                let mut groups: Vec<(u32, MuxBatch)> = Vec::with_capacity(4);
                let mut wakeups = 0u64;
                loop {
                    let Some(mux) = weak.upgrade() else { return };
                    if mux.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    raw.clear();
                    // CPU, not wall time: the call blocks for the first datagram.
                    let cpu0 = wakeups.is_multiple_of(RECV_CPU_SAMPLE).then(thread_cpu_ns);
                    wakeups += 1;
                    match mux
                        .io
                        .recv_batch(&rx, &mux.pool, mux.rcv_batch, &mut scratch, &mut raw)
                    {
                        Ok(0) => {}
                        Ok(_) => {
                            let recv_ns = cpu0.map_or(0, |c0| {
                                thread_cpu_ns().saturating_sub(c0) * RECV_CPU_SAMPLE
                            });
                            mux.process_batch(&mut raw, &mut groups, recv_ns);
                        }
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut
                                || e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return,
                    }
                }
            })?;
        *mux.thread.lock() = Some(handle);
        Ok(mux)
    }

    /// Gate one raw inbound datagram through the authenticated profile.
    ///
    /// Returns the number of leading bytes to decode (the trailer tag is
    /// stripped when present); `None` means drop: missing/invalid tag or a
    /// replay. The replay window is armed at delivery ([`Mux::mark_delivered`]),
    /// not here: a packet shed at a full queue must stay retransmittable.
    /// Handshake control packets always pass untagged — they are
    /// authenticated at field level ([`udt_proto::auth::handshake_tag`]),
    /// since they are what negotiates the trailer keys in the first place.
    fn auth_gate(&self, buf: &[u8]) -> Option<usize> {
        let Some((is_ctrl, tc, conn_id, raw_seq)) = peek_header(buf) else {
            return Some(buf.len()); // let the decoder reject it
        };
        if conn_id == 0 {
            return Some(buf.len()); // listener handshake traffic
        }
        let ctx = self.auth.lock().get(&conn_id).cloned();
        let Some(ctx) = ctx else {
            return Some(buf.len()); // plaintext connection
        };
        if is_ctrl && tc == type_code::HANDSHAKE {
            return Some(buf.len());
        }
        let seq_hint = if is_ctrl { 0 } else { raw_seq };
        let body = ctx.verify_trailer(buf, seq_hint)?;
        if !is_ctrl && ctx.is_replay(SeqNo::new(raw_seq)) {
            return None;
        }
        Some(body)
    }

    /// Arm the replay window for the authenticated data packets of a batch
    /// that is now certain to reach connection `id`.
    fn mark_delivered(&self, id: u32, batch: &MuxBatch) {
        let Some(ctx) = self.auth.lock().get(&id).cloned() else {
            return; // plaintext connection
        };
        for (pkt, ..) in batch {
            if let Packet::Data(d) = pkt {
                ctx.mark_delivered(d.seq);
            }
        }
    }

    /// Demultiplex one receive batch: auth-gate and decode every datagram
    /// (per-packet semantics identical to the per-packet path), group the
    /// survivors by connection id in `groups` (scratch, left empty), then
    /// per group resolve the route under the registry lock and — with the
    /// lock released — run the sink. `recv_ns` is the receive call's CPU
    /// time, apportioned to the sinks by packets.
    fn process_batch(
        &self,
        raw: &mut Vec<Datagram>,
        groups: &mut Vec<(u32, MuxBatch)>,
        recv_ns: u64,
    ) {
        let total = raw.len() as u64;
        self.counters.recv_batches(1);
        self.counters.recv_pkts(total);
        if let Some(o) = &self.obs {
            o.recv_batch.record(total);
        }
        let mut used = 0;
        for (buf, from, arrival) in raw.drain(..) {
            let Some(body) = self.auth_gate(&buf) else {
                self.pool.put(buf); // failed tag/replay check: drop
                continue;
            };
            let mut buf = buf;
            buf.truncate(body);
            let datagram = buf.freeze();
            // Remember the allocation so the pool reclaims it once every
            // downstream reader has dropped it.
            self.pool.retire(&datagram);
            let Ok(pkt) = decode(datagram) else {
                continue; // malformed datagram: drop
            };
            let id = pkt.conn_id();
            if id == 0 {
                // Handshake traffic addressed to no connection: the
                // listener's, one message per packet (cold path).
                if let Some(l) = self.listener.lock().as_ref() {
                    let _ = l.try_send((pkt, from, Nanos(arrival)));
                }
                continue;
            }
            let known = groups[..used].iter().position(|g| g.0 == id);
            let slot = known.unwrap_or_else(|| {
                if used == groups.len() {
                    groups.push((id, Vec::with_capacity(8))); // warm-up growth only
                }
                groups[used].0 = id;
                used += 1;
                used - 1
            });
            groups[slot].1.push((pkt, from, Nanos(arrival)));
        }
        for (id, batch) in &mut groups[..used] {
            let mut shed = false;
            let sink = {
                let conns = self.conns.lock();
                match conns.get(id) {
                    // A channel push, not connection code; the queue takes
                    // the vector. This thread is the queue's only producer:
                    // seen not full, the push cannot fail for lack of room.
                    Some(Route::Queue(tx)) if !tx.is_full() => {
                        self.mark_delivered(*id, batch);
                        let _ = tx.try_send(std::mem::take(batch));
                        None
                    }
                    // Bounded queues: shedding beats unbounded RAM.
                    Some(Route::Queue(_)) => {
                        shed = true;
                        None
                    }
                    Some(Route::Sink(sink)) => sink.upgrade(),
                    None => None,
                }
            };
            if let Some(sink) = sink {
                self.mark_delivered(*id, batch);
                sink.deliver(batch, recv_ns * batch.len() as u64 / total);
            }
            for (pkt, ..) in batch.iter().filter(|_| shed) {
                let seq = match pkt {
                    Packet::Data(d) => d.seq.raw(),
                    Packet::Control(_) => 0,
                };
                let reason = DropReason::Shed;
                self.tracer.emit(*id, EventKind::DataDrop { seq, reason });
            }
            batch.clear();
        }
    }

    /// Local socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Point-in-time batch/pool efficiency counters.
    pub fn batch_counters(&self) -> BatchSnapshot {
        self.counters.snapshot()
    }

    /// True while the multi-message syscalls are in use (false on
    /// non-Linux targets or after a runtime `ENOSYS` downgrade).
    pub fn batched_io(&self) -> bool {
        self.io.is_batched()
    }

    /// Register the listener queue (handshake requests land here).
    pub fn set_listener(&self) -> Receiver<MuxMsg> {
        let (tx, rx) = crossbeam::channel::bounded(256);
        *self.listener.lock() = Some(tx);
        rx
    }

    /// Register a queue route under `local_id`: packets for it wait for a
    /// blocking caller. `depth` is in *packets*: the queue holds up to
    /// `depth / rcv_batch` full batches (floored generously so sparse
    /// single-packet batches keep a usable queue).
    pub fn register(&self, local_id: u32, depth: usize) -> Receiver<MuxBatch> {
        let batches = (depth / self.rcv_batch).max(64);
        let (tx, rx) = crossbeam::channel::bounded(batches);
        self.conns.lock().insert(local_id, Route::Queue(tx));
        rx
    }

    /// Switch `local_id` from its queue `rx` to inline delivery into
    /// `sink`. What the queue still holds is delivered first, on the
    /// calling thread; the switch happens under the registry lock with the
    /// queue seen empty, and the demux thread feeds a queue only under that
    /// lock — so the sink gets every packet once, in arrival order.
    pub fn attach(&self, local_id: u32, sink: &Arc<dyn PacketSink>, rx: &Receiver<MuxBatch>) {
        loop {
            while let Ok(mut batch) = rx.try_recv() {
                sink.deliver(&mut batch, 0);
            }
            let mut conns = self.conns.lock();
            if rx.is_empty() {
                conns.insert(local_id, Route::Sink(Arc::downgrade(sink)));
                return;
            }
        }
    }

    /// Remove a connection's route (and its auth context, if any).
    pub fn unregister(&self, local_id: u32) {
        self.conns.lock().remove(&local_id);
        self.auth.lock().remove(&local_id);
    }

    /// Install (or replace) the authenticated-profile context for
    /// `local_id`: inbound non-handshake datagrams for that id now require
    /// a valid trailer tag.
    pub fn set_auth(&self, local_id: u32, ctx: Arc<AuthCtx>) {
        self.auth.lock().insert(local_id, ctx);
    }

    /// Drop the auth context for `local_id` (negotiated downgrade under
    /// `AuthPolicy::Prefer`).
    pub fn clear_auth(&self, local_id: u32) {
        self.auth.lock().remove(&local_id);
    }

    /// Encode and send one untagged packet. Returns the wall-clock cost in
    /// nanoseconds.
    pub fn send(&self, pkt: &Packet, to: SocketAddr, instr: &Instrument) -> io::Result<u64> {
        self.send_batch(std::slice::from_ref(pkt), to, instr, None)
    }

    /// Encode and send a burst of packets to one destination as a single
    /// socket flush (one `sendmmsg` of trains when available and there is
    /// more than one packet, the plain `send_to` otherwise), appending
    /// trailer tags when an auth context is supplied. A train ends after
    /// the first packet of a §3.4 probe pair: the pair leaves in one flush
    /// but reaches the receiver as two units with two arrival stamps, which
    /// is the dispersion it exists to measure. Encoding writes into
    /// per-thread scratch slots — no allocation in steady state. Returns
    /// the wall-clock cost of the whole flush in nanoseconds (the §4.4
    /// send-cost feedback for the burst; callers divide by the burst
    /// length for the per-packet figure).
    pub fn send_batch(
        &self,
        pkts: &[Packet],
        to: SocketAddr,
        instr: &Instrument,
        auth: Option<&AuthCtx>,
    ) -> io::Result<u64> {
        if pkts.is_empty() {
            return Ok(0);
        }
        thread_local! {
            // Initializer runs once per thread; the slots grow to batch
            // size below and are reused, like the flush's header arrays
            // beside them, for every later flush.
            static SLOTS: std::cell::RefCell<(Vec<BytesMut>, SendScratch)> =
                std::cell::RefCell::default();
        }
        SLOTS.with(|cell| {
            let (slots, scratch) = &mut *cell.borrow_mut();
            if slots.len() < pkts.len() {
                // Warm-up growth only; steady state reuses the slots.
                slots.resize_with(pkts.len(), || BytesMut::with_capacity(2048));
            }
            {
                let _t = instr.scope(Category::Packing);
                for (pkt, buf) in pkts.iter().zip(slots.iter_mut()) {
                    buf.clear();
                    encode(pkt, buf);
                    if let Some(ctx) = auth {
                        let tag = ctx.tx_key.tag(&buf[..]);
                        buf.extend_from_slice(&tag.to_be_bytes());
                    }
                }
            }
            let t0 = std::time::Instant::now();
            let res = {
                let _t = instr.scope(Category::UdpSend);
                let first_of_pair = |i: usize| {
                    matches!(&pkts[i], Packet::Data(d) if d.seq.raw().is_multiple_of(PROBE_INTERVAL))
                };
                let bufs = &slots[..pkts.len()];
                self.io
                    .send_batch(&self.socket, bufs, to, first_of_pair, scratch)
            };
            let sent = res?;
            self.counters.send_batches(1);
            self.counters.send_pkts(sent as u64);
            if let Some(o) = &self.obs {
                o.send_batch.record(sent as u64);
            }
            Ok(t0.elapsed().as_nanos() as u64)
        })
    }

    /// Ask the demux thread to exit (it also exits when the last Arc
    /// drops) and hang up on the listener queue. Neither waits out a poll
    /// tick: the queue's reader sees `Disconnected`, and an empty datagram
    /// to our own address (the decoder rejects it) ends the blocking receive.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        *self.listener.lock() = None;
        let mut me = self.local_addr;
        if me.ip().is_unspecified() {
            me.set_ip(match me {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = self.socket.send_to(&[], me);
    }
}

impl Drop for Mux {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.thread.lock().take() {
            // The final Arc can be dropped *by the demux thread itself*
            // (it briefly upgrades its Weak); joining ourselves would
            // deadlock, so let the thread wind down on its own then.
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use udt_proto::ctrl::ControlPacket;
    use udt_proto::DataPacket;

    fn bind_test(addr: &str) -> Arc<Mux> {
        Mux::bind(addr.parse().unwrap(), &UdtConfig::default()).unwrap()
    }

    /// Pop the next single packet out of a batched queue.
    fn recv_one(q: &Receiver<MuxBatch>, timeout: Duration) -> Option<MuxMsg> {
        q.recv_timeout(timeout).ok().and_then(|b| b.into_iter().next())
    }

    #[test]
    fn routes_by_conn_id() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let q7 = b.register(7, 64);
        let q9 = b.register(9, 64);
        let instr = Instrument::default();
        a.send(
            &Packet::Control(ControlPacket::keepalive(7)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        a.send(
            &Packet::Control(ControlPacket::keepalive(9)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        let (p7, from7, _) = recv_one(&q7, Duration::from_secs(2)).unwrap();
        assert_eq!(p7.conn_id(), 7);
        assert_eq!(from7, a.local_addr());
        let (p9, ..) = recv_one(&q9, Duration::from_secs(2)).unwrap();
        assert_eq!(p9.conn_id(), 9);
        assert!(q7.try_recv().is_err(), "no cross-routing");
    }

    #[test]
    fn listener_gets_id_zero() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let lq = b.set_listener();
        let instr = Instrument::default();
        a.send(
            &Packet::Control(ControlPacket::keepalive(0)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        let (pkt, ..) = lq.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(pkt.conn_id(), 0);
    }

    #[test]
    fn batched_send_delivers_every_packet_and_counts() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let q = b.register(3, 8192);
        let instr = Instrument::default();
        let pkts: Vec<Packet> = (0u32..24)
            .map(|i| {
                Packet::Data(DataPacket {
                    seq: SeqNo::new(i),
                    timestamp_us: 0,
                    conn_id: 3,
                    payload: Bytes::from_static(b"batched-payload"),
                })
            })
            .collect();
        a.send_batch(&pkts, b.local_addr(), &instr, None).unwrap();
        let mut stamps = Vec::new();
        while stamps.len() < 24 {
            let batch = q.recv_timeout(Duration::from_secs(2)).unwrap();
            for (pkt, from, arrival) in batch {
                assert_eq!(pkt.conn_id(), 3);
                assert_eq!(from, a.local_addr());
                let Packet::Data(d) = pkt else {
                    panic!("data only")
                };
                assert_eq!(d.seq.raw() as usize, stamps.len(), "in order");
                stamps.push(arrival);
            }
        }
        // One flush is one syscall however many trains it was cut into,
        // and a packet is a packet whichever train carried it.
        let snd = a.batch_counters();
        assert_eq!(snd.send_pkts, 24);
        assert_eq!(snd.send_batches, 1);
        // The §3.4 probe pairs (0, 1) and (16, 17) are never in one train:
        // each arrives with two stamps, trains or no trains.
        assert_ne!(stamps[0], stamps[1]);
        assert_ne!(stamps[16], stamps[17]);
        if a.io.trains_enabled() && stamps[1] == stamps[2] {
            assert!(stamps[1..17].iter().all(|&t| t == stamps[1]), "{stamps:?}");
            assert!(stamps[17..].iter().all(|&t| t == stamps[17]), "{stamps:?}");
        } else {
            println!("SKIP: no trains on this kernel, 24 stamps for 24 packets");
        }
        let rcv = b.batch_counters();
        assert_eq!(rcv.recv_pkts, 24);
        assert!(rcv.recv_batches >= 1);
        assert!(
            rcv.recv_batches <= 24,
            "batching must not inflate wakeups: {} wakeups",
            rcv.recv_batches
        );
        // Pool accounting covered every buffer request (the demux thread
        // checks out up to a full batch per wakeup and returns the
        // unused ones, so requests can exceed delivered packets).
        assert!(rcv.pool_hits + rcv.pool_misses >= 24);
    }

    /// Matching trailer-tag contexts: a sender's, and local id 7's.
    fn auth_pair() -> (AuthCtx, Arc<AuthCtx>) {
        let psk = udt_proto::PreSharedKey::from_bytes([1u8; 16]);
        let (c2s, s2c) = (psk.session_key(1, 2, true), psk.session_key(1, 2, false));
        let client = AuthCtx::new(c2s, s2c, Tracer::disabled(), 3, None);
        let server = AuthCtx::new(s2c, c2s, Tracer::disabled(), 7, None);
        (client, Arc::new(server))
    }

    fn data_pkt(conn_id: u32, seq: u32) -> Packet {
        Packet::Data(DataPacket {
            seq: SeqNo::new(seq),
            timestamp_us: 0,
            conn_id,
            payload: Bytes::from_static(b"payload"),
        })
    }

    #[test]
    fn auth_gate_enforces_tags_and_replay() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let q = b.register(7, 64);
        let (client, server) = auth_pair();
        b.set_auth(7, Arc::clone(&server));
        let instr = Instrument::default();

        // Untagged control is dropped before decode.
        a.send(
            &Packet::Control(ControlPacket::keepalive(7)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        assert!(recv_one(&q, Duration::from_millis(300)).is_none());
        assert_eq!(server.counters().snapshot().tags_bad, 1);

        // Correctly tagged control is delivered (tag stripped).
        let tagged = |pkt: &Packet| {
            let (one, to) = (std::slice::from_ref(pkt), b.local_addr());
            a.send_batch(one, to, &instr, Some(&client)).unwrap();
        };
        tagged(&Packet::Control(ControlPacket::keepalive(7)));
        let (pkt, ..) = recv_one(&q, Duration::from_secs(2)).unwrap();
        assert_eq!(pkt.conn_id(), 7);

        // A tagged data packet delivers once; its byte-identical replay
        // is dropped and counted.
        let data = data_pkt(7, 5);
        tagged(&data);
        let (pkt, ..) = recv_one(&q, Duration::from_secs(2)).unwrap();
        assert!(matches!(pkt, Packet::Data(_)));
        tagged(&data);
        assert!(recv_one(&q, Duration::from_millis(300)).is_none());
        assert_eq!(server.counters().snapshot().replays, 1);

        // clear_auth returns the connection to plaintext.
        b.clear_auth(7);
        a.send(
            &Packet::Control(ControlPacket::keepalive(7)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        assert!(recv_one(&q, Duration::from_secs(2)).is_some());
    }

    #[test]
    fn full_queue_sheds_with_a_trace_and_without_arming_the_replay_window() {
        let tracer = Tracer::ring(1 << 10);
        let cfg = UdtConfig {
            tracer: tracer.clone(),
            ..UdtConfig::default()
        };
        let a = bind_test("127.0.0.1:0");
        let b = Mux::bind("127.0.0.1:0".parse().unwrap(), &cfg).unwrap();
        let q = b.register(7, 64); // 64 batches
        let (client, server) = auth_pair();
        b.set_auth(7, Arc::clone(&server));
        let instr = Instrument::default();
        let send = |seq| {
            let (one, to) = ([data_pkt(7, seq)], b.local_addr());
            a.send_batch(&one, to, &instr, Some(&client)).unwrap();
        };
        let wait = |what: &str, done: &dyn Fn() -> bool| {
            let t0 = std::time::Instant::now();
            while !done() {
                assert!(t0.elapsed() < Duration::from_secs(5), "timed out: {what}");
                std::thread::yield_now();
            }
        };
        // One packet per batch until the queue is full, then one too many.
        for seq in 0..64 {
            send(seq);
            wait("queued", &|| q.len() == seq as usize + 1);
        }
        send(64);
        let shed = |e: &udt_trace::TraceEvent| {
            let reason = DropReason::Shed;
            e.conn == 7 && e.kind == EventKind::DataDrop { seq: 64, reason }
        };
        wait("shed trace", &|| tracer.snapshot().iter().any(shed));
        assert_eq!(q.len(), 64);
        // The shed packet was never delivered: its retransmission is no replay.
        while q.try_recv().is_ok() {}
        send(64);
        let (pkt, ..) = recv_one(&q, Duration::from_secs(2)).expect("retransmission delivered");
        assert!(matches!(pkt, Packet::Data(d) if d.seq == SeqNo::new(64)));
        assert_eq!(server.counters().snapshot().replays, 0);
    }

    #[test]
    fn shutdown_ends_the_demux_thread_without_waiting_out_its_poll_tick() {
        // Best of three: scheduling noise only adds. The receive timeout is
        // 100 ms; the wildcard address exercises the loopback mapping.
        let took = (0..3).map(|_| {
            let m = bind_test("0.0.0.0:0");
            let demux = m.thread.lock().take().unwrap();
            let t0 = std::time::Instant::now();
            m.shutdown();
            demux.join().unwrap();
            t0.elapsed()
        });
        let took = took.min().unwrap();
        assert!(took < Duration::from_millis(20), "demux thread took {took:?}");
    }

    #[test]
    fn unregister_stops_routing() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let q = b.register(5, 64);
        b.unregister(5);
        let instr = Instrument::default();
        a.send(
            &Packet::Control(ControlPacket::keepalive(5)),
            b.local_addr(),
            &instr,
        )
        .unwrap();
        assert!(recv_one(&q, Duration::from_millis(300)).is_none());
    }

    /// Records the data sequence numbers it is handed, in order.
    impl PacketSink for Mutex<Vec<u32>> {
        fn deliver(&self, batch: &mut MuxBatch, _recv_ns: u64) {
            let data = batch.drain(..).filter_map(|(pkt, ..)| match pkt {
                Packet::Data(d) => Some(d.seq.raw()),
                Packet::Control(_) => None,
            });
            self.lock().extend(data);
        }
    }

    #[test]
    fn attach_hands_over_queued_packets_before_inline_ones() {
        let a = bind_test("127.0.0.1:0");
        let b = bind_test("127.0.0.1:0");
        let rx = b.register(5, 64);
        let fence = b.register(99, 64);
        let instr = Instrument::default();
        // Send data packets `seqs` to id 5, then a marker to id 99: the
        // demux thread routes in socket order, so the marker surfacing on
        // its queue proves the data packets were routed (queued) before.
        let send_and_settle = |seqs: std::ops::Range<u32>| {
            for seq in seqs {
                a.send(&data_pkt(5, seq), b.local_addr(), &instr).unwrap();
            }
            let mark = Packet::Control(ControlPacket::keepalive(99));
            a.send(&mark, b.local_addr(), &instr).unwrap();
            fence.recv_timeout(Duration::from_secs(5)).unwrap();
        };
        send_and_settle(0..3);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink: Arc<dyn PacketSink> = seen.clone();
        b.attach(5, &sink, &rx);
        assert_eq!(*seen.lock(), [0, 1, 2], "queued packets drain at attach");
        send_and_settle(3..6);
        // A sink may run after its wakeup's queue pushes: give it a moment.
        let t0 = std::time::Instant::now();
        while seen.lock().len() < 6 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert_eq!(*seen.lock(), [0, 1, 2, 3, 4, 5]);
        assert!(rx.is_empty(), "nothing reaches the queue after attach");
    }
}
