//! The socket host of a connection: shared state, the sender thread, the
//! run-to-completion receive path, the timer thread, and the public
//! [`UdtConnection`] API.
//!
//! What the protocol does with a packet or a timer tick is
//! [`udt_algo::conn`]'s ([`SndCore`] under the `snd` lock, [`RcvCore`] under
//! `rcv`), shared with the simulator and the model checker. This module is
//! what only a socket has: threads, locks and wake-ups, pacing and burst
//! sizing, the §4.4 send-cost floor, payload buffers, Table 3 booking, the
//! flush before a close and the `State` the application sees (the `Shutdown`
//! exchange behind it is [`CloseCore`]'s). Statistics are not booked
//! here: [`ConnStats`] is a fold over the events the cores and this module
//! emit through one [`CoreTrace`] (only the byte counts at `send`/`recv`,
//! which no event carries, are bumped in place).
//!
//! §4.8 of the paper gives every UDT entity a sender thread ("only
//! responsible for sending data packets according to the limit of flow
//! control and rate control… always sends the lost packets with higher
//! priority") and a receiver thread that processes "both data and control
//! packets" and checks the ACK, NAK, SYN and EXP timers "after each
//! time-bounded UDP receiving call". Here:
//!
//! * **`udt-snd-<id>`** is the paper's sender (`sender_loop`); idle or
//!   window-blocked it parks on `snd_cv` instead of pacing.
//! * **`udt-mux`** (one per UDP socket, `crate::mux`) does the receiver's
//!   *processing*: it runs the connection's share of every `recvmmsg` batch
//!   to completion (`PacketSink::deliver`) under the `snd`/`rcv` locks.
//! * **`udt-rcv-<id>`** keeps the receiver's *timers* only (`timer_loop`),
//!   and after a close the `Shutdown` repeats.
//!
//! The deviation from the paper's receiver thread is measured (DESIGN.md,
//! "Threads: what runs where"): behind a channel it cost 11.01 of the
//! 27.9 µs of CPU per `rr_loopback` packet at 9.6 context switches, for
//! under 0.3 µs of protocol work, and the sender yield-spun a pacing period
//! after every send (`snd_share.timing` 0.31). UDT4's `CRcvQueue::worker`
//! has the same shape.
//!
//! # Lock order
//!
//! Canonical acquisition order for the connection-level locks. A thread may
//! acquire a lock only if every lock it already holds appears *earlier* in
//! this list; re-acquiring a held lock is always a deadlock. `udt-lint`'s
//! `lock-order` rule parses this numbered list as its ground truth, so the
//! documentation and the enforced order cannot diverge — edit here and the
//! lint follows.
//!
//! 1. `conn_table` — listener/rendezvous connection registry (`socket.rs`).
//! 2. `snd` — the sending half (`SndCtl`: send buffer, [`SndCore`] and
//!    [`CloseCore`]).
//! 3. `rcv` — the receiving half (`RcvCtl`: receive buffer and [`RcvCore`]).
//! 4. `timer` — the timer thread's wake-up lock (guards nothing else).
//! 5. `conns` — the mux registry (`mux.rs`). Last, so that none of the above
//!    may be acquired under it: connection code never runs with it held (the
//!    demux thread only feeds a handshake queue under it).
//!
//! Most paths hold exactly one of these at a time (`perfmon` takes `snd`
//! then `rcv` in two separate scopes, which is legal); the order exists so
//! that the rare nested acquisition is forced to be consistent.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Receiver;
use parking_lot::{Condvar, Mutex};

use udt_algo::clock::SYN;
use udt_algo::conn::{
    opens_probe_pair, CloseCore, CoreTrace, DataVerdict, RcvCore, SndCfg, SndCore, TimerAction,
};
use udt_algo::{Nanos, RateControl, SabulCc, UdtCc};
use udt_proto::ctrl::{AckData, ControlBody, ControlPacket};
use udt_proto::{DataPacket, Packet, SeqNo, SeqRange};
use udt_trace::{BufSide, ConnState, EventKind, TimerKind};

use crate::buffer::{InsertOutcome, RcvBuffer, SndBuffer};
use crate::config::{CcChoice, UdtConfig};
use crate::error::{Result, UdtError};
use crate::instrument::{Category, Instrument};
use crate::mux::{Mux, MuxBatch, PacketSink};
use crate::timing::EpochClock;
use crate::ConnStats;

/// Connection lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum State {
    /// Established, both directions open.
    Connected = 0,
    /// Local close requested: flushing.
    Closing = 1,
    /// `close()` has returned and our `Shutdown` is unanswered: the timer
    /// thread repeats it; only `Shutdown`s are heard.
    FinWait = 2,
    /// Fully closed (our `Shutdown` exchange is over, or the peer's
    /// `Shutdown` was processed). Final.
    Closed = 3,
    /// Peer unresponsive past the EXP escalation limit. Final.
    Broken = 4,
}

impl State {
    fn from_u8(v: u8) -> State {
        match v {
            0 => State::Connected,
            1 => State::Closing,
            2 => State::FinWait,
            3 => State::Closed,
            _ => State::Broken,
        }
    }

    /// Data, ACKs and NAKs still flow (both directions until `close()` has
    /// flushed).
    fn carries_data(self) -> bool {
        matches!(self, State::Connected | State::Closing)
    }

    /// The tracer's view of this state (the tracer vocabulary adds
    /// `Connecting`, which only the handshake code in `socket.rs` uses).
    fn to_trace(self) -> ConnState {
        match self {
            State::Connected => ConnState::Connected,
            State::Closing | State::FinWait => ConnState::Closing,
            State::Closed => ConnState::Closed,
            State::Broken => ConnState::Broken,
        }
    }
}

/// The sending half (one lock).
pub(crate) struct SndCtl {
    pub buffer: SndBuffer,
    pub core: SndCore,
    /// The `Shutdown` exchange (here because `close()` and the sender's
    /// timers already take this lock).
    pub close: CloseCore,
    /// Set under this lock by a thread about to wait on `snd_cv`; a notifier
    /// takes it and notifies (a futex syscall even with nobody there) only
    /// if it was set. A timed-out waiter leaves it set: harmless.
    pub parked: bool,
}

/// The receiving half (one lock).
pub(crate) struct RcvCtl {
    pub buffer: RcvBuffer,
    pub core: RcvCore,
    /// As [`SndCtl::parked`], for `rcv_cv`.
    pub parked: bool,
}

/// Debug-build hook: panic loudly (inside whichever test is running) when a
/// protocol event leaves the sending half inconsistent — the core's own
/// invariants, and the one that spans core and buffer.
#[inline]
fn debug_check_snd(s: &SndCtl) {
    #[cfg(debug_assertions)]
    {
        if let Err(e) = s.core.check_invariants() {
            // udt-lint: allow(unwrap) — debug-assertions-only invariant hook
            panic!("sender invariant violated: {e}");
        }
        let (in_flight, buffered) = (s.core.in_flight() as usize, s.buffer.len_pkts());
        assert!(
            in_flight <= buffered,
            "sender invariant violated: {in_flight} packets in flight, {buffered} buffered"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = s;
}

/// Debug-build hook for the receiving half: the buffer's invariants and the
/// core's against the buffer's base.
#[inline]
fn debug_check_rcv(r: &RcvCtl) {
    #[cfg(debug_assertions)]
    if let Err(e) = r
        .buffer
        .check_invariants()
        .and_then(|()| r.core.check_invariants(r.buffer.base_seq()))
    {
        // udt-lint: allow(unwrap) — debug-assertions-only invariant hook
        panic!("receiver invariant violated: {e}");
    }
    #[cfg(not(debug_assertions))]
    let _ = r;
}

/// Sampled variant for the per-data-packet path: the full receiver check
/// is O(buffer capacity), which an unoptimized debug build cannot afford
/// on every packet without stalling transfers past protocol timeouts.
/// Small buffers (unit tests, the model checker) are checked every call;
/// production-sized ones 1-in-64.
#[inline]
fn debug_check_rcv_sampled(r: &RcvCtl) {
    #[cfg(debug_assertions)]
    {
        static NTH: AtomicU64 = AtomicU64::new(0);
        if r.buffer.cap_pkts() > 512 && !NTH.fetch_add(1, Ordering::Relaxed).is_multiple_of(64) {
            return;
        }
        debug_check_rcv(r);
    }
    #[cfg(not(debug_assertions))]
    let _ = r;
}

/// Resumable-session identity attached to a connection at handshake time
/// (see the handshake extension in `udt-proto` and [`crate::resilience`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionMeta {
    /// Session token from the handshake extension (0 = not resumable).
    pub token: u64,
    /// Resume offset the peer communicated in its handshake: on an
    /// accepted connection, the client's confirmed receive high-water
    /// mark; on a connecting client, the server's stored high-water mark
    /// for `token`.
    pub peer_resume: u64,
}

/// State shared by the two protocol threads and the application handle.
pub(crate) struct Shared {
    pub cfg: UdtConfig,
    pub local_id: u32,
    pub peer_id: u32,
    pub peer_addr: SocketAddr,
    pub clock: EpochClock,
    pub mux: Arc<Mux>,
    pub snd: Mutex<SndCtl>,
    pub snd_cv: Condvar,
    pub rcv: Mutex<RcvCtl>,
    pub rcv_cv: Condvar,
    /// What the timer thread sleeps on (`set_state` cuts it short).
    timer: Mutex<()>,
    timer_cv: Condvar,
    state: AtomicU8,
    /// Where this connection's events go: its [`ConnStats`], then the
    /// configured tracer. The cores hold clones.
    events: CoreTrace,
    pub meta: SessionMeta,
    pub instr: Arc<Instrument>,
    /// Per-connection histograms, present only when the config carries a
    /// [`crate::obs::MetricsHub`]; every emit site is one branch.
    pub obs: Option<crate::obs::ConnObs>,
    /// EWMA of the wall-clock cost of one UDP send, nanoseconds (§4.4).
    pub send_cost_ns: AtomicU64,
    /// When anything was last sent to the peer (connection clock,
    /// nanoseconds): a keep-alive is answered only after a silence of ours.
    last_sent_ns: AtomicU64,
    /// Authenticated-profile context, when the handshake negotiated one:
    /// every outbound packet gets a trailer tag; the mux verifies inbound
    /// tags before packets ever reach this connection.
    pub auth: Option<Arc<crate::auth::AuthCtx>>,
    /// Data packets processed on any thread but `udt-mux`.
    #[cfg(test)]
    pub off_mux_data: AtomicU64,
}

impl Shared {
    pub fn state(&self) -> State {
        State::from_u8(self.state.load(Ordering::Acquire))
    }

    pub fn set_state(&self, s: State) {
        // `Closed` and `Broken` are final: a late `FinWait` cannot reopen.
        let Ok(old) = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
                (old < State::Closed as u8).then_some(s as u8)
            })
        else {
            return;
        };
        let old = State::from_u8(old);
        if old.to_trace() != s.to_trace() {
            self.trace(EventKind::StateChange {
                from: old.to_trace(),
                to: s.to_trace(),
            });
            if s == State::Broken {
                // The peer is gone: preserve the event history that led
                // here before anyone tears the connection down.
                self.flight_dump("broken");
            }
        }
        // Wake everyone blocked on the connection; passing through each
        // lock first closes the gap between a waiter's check and its wait.
        drop(self.snd.lock());
        self.snd_cv.notify_all();
        drop(self.rcv.lock());
        self.rcv_cv.notify_all();
        drop(self.timer.lock());
        self.timer_cv.notify_all();
    }

    /// Count and trace an event of this connection.
    #[inline]
    pub(crate) fn trace(&self, kind: EventKind) {
        self.events.emit(kind);
    }

    /// The counters the events fold into.
    pub(crate) fn stats(&self) -> &Arc<ConnStats> {
        self.events.counters()
    }

    /// Dump the tracer ring as a flight recording into `cfg.flight_dir`
    /// (no-op when tracing is disabled or no directory is configured).
    pub(crate) fn flight_dump(&self, reason: &str) {
        if let Some(dir) = &self.cfg.flight_dir {
            let _ = udt_trace::flight::dump(dir, self.local_id, reason, &self.cfg.tracer);
        }
    }

    /// §4.4: the measured cost of one UDP send, which the rate controller
    /// takes as the floor of its period, microseconds.
    fn min_snd_period_us(&self) -> f64 {
        self.send_cost_ns.load(Ordering::Relaxed) as f64 / 1_000.0
    }

    fn ctrl_pkt(&self, body: ControlBody, now: Nanos) -> Packet {
        Packet::Control(ControlPacket {
            timestamp_us: now.wire_micros(),
            conn_id: self.peer_id,
            body,
        })
    }

    /// Send `pkts` (control, or one data burst) to the peer as one flush;
    /// returns the flush's wall-clock cost in nanoseconds.
    fn flush(&self, pkts: &[Packet], now: Nanos) -> std::io::Result<u64> {
        self.last_sent_ns.store(now.0, Ordering::Relaxed);
        let auth = self.auth.as_deref();
        self.mux.send_batch(pkts, self.peer_addr, &self.instr, auth)
    }

    fn send_ctrl(&self, body: ControlBody, now: Nanos) {
        let _ = self.flush(&[self.ctrl_pkt(body, now)], now);
    }

    /// One step of the close machine: send what it asks for and follow it
    /// to `Closed`. Returns when its timer is next due.
    fn close_step<F>(&self, now: Nanos, step: F) -> Nanos
    where
        F: FnOnce(&mut CloseCore) -> Option<ControlBody>,
    {
        let (send, next, done) = {
            let close = &mut self.snd.lock().close;
            (step(close), close.next_deadline(), close.is_done())
        };
        if let Some(body) = send {
            self.send_ctrl(body, now);
        }
        if done {
            self.set_state(State::Closed);
        }
        next
    }

    /// Feed the receiver's estimators the arrival stamps of a batch's data
    /// packets ([`RcvCore::on_arrivals`]). Stamps are on the mux's timeline
    /// (kernel receive time where available); everything else runs on the
    /// connection clock.
    fn note_arrivals(&self, batch: &MuxBatch) {
        let mut r = self.rcv.lock();
        let _m = self.instr.scope(Category::Measurement);
        r.core
            .on_arrivals(batch.iter().filter_map(|(pkt, _, stamp)| match pkt {
                Packet::Data(d) => Some((d.seq, d.timestamp_us, *stamp)),
                Packet::Control(_) => None,
            }));
    }
}

fn build_cc(choice: &CcChoice, init_seq: SeqNo) -> Box<dyn RateControl> {
    match choice {
        CcChoice::Udt(cfg) => Box::new(UdtCc::new(init_seq, cfg.clone())),
        CcChoice::Sabul { alpha } => Box::new(SabulCc::new(init_seq, *alpha)),
    }
}

/// An established UDT connection.
///
/// All methods are callable from any thread; `send`/`recv` are the
/// stream-oriented application interface, `sendfile`/`recvfile` live in
/// [`crate::file`].
pub struct UdtConnection {
    pub(crate) sh: Arc<Shared>,
    /// The sender and timer threads, joined when the connection is dropped.
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl UdtConnection {
    /// Create the shared state, spawn the sender and timer threads, and
    /// switch the mux from the handshake queue `rx` to inline delivery.
    /// Used by both `connect` and `accept` (see [`crate::socket`]). Fails
    /// with [`UdtError::Io`] when a thread cannot be spawned (resource
    /// exhaustion); the half-built connection is unregistered again.
    #[allow(clippy::too_many_arguments)] // the two call sites read clearly
    pub(crate) fn establish(
        mux: Arc<Mux>,
        cfg: UdtConfig,
        local_id: u32,
        peer_id: u32,
        peer_addr: SocketAddr,
        snd_init: SeqNo,
        rcv_init: SeqNo,
        rx: &Receiver<MuxBatch>,
        meta: SessionMeta,
        auth: Option<Arc<crate::auth::AuthCtx>>,
    ) -> Result<UdtConnection> {
        let payload = cfg.payload_size();
        let loss_cap = (cfg.rcv_buf_pkts.max(cfg.snd_buf_pkts) as usize * 2).max(1024);
        let obs = cfg.metrics.as_ref().map(|h| h.conn_obs(local_id));
        // The cores stamp their trace events with the connection clock's
        // `now`, moved onto the tracer's timeline by what it read at epoch.
        let clock = EpochClock::start();
        let trace = CoreTrace::new(cfg.tracer.clone(), local_id, cfg.tracer.now_ns());
        let snd_core = SndCore::new(
            SndCfg {
                max_exp_count: cfg.max_exp_count,
                broken_silence_floor: cfg.broken_silence_floor.into(),
                trace: trace.clone(),
                ..SndCfg::new(snd_init, build_cc(&cfg.cc, snd_init), cfg.mss, loss_cap)
            },
            Nanos::ZERO,
        );
        let rcv_core = RcvCore::new(
            rcv_init,
            cfg.rcv_buf_pkts,
            loss_cap,
            SYN,
            Nanos::ZERO,
            trace.clone(),
        );
        let sh = Arc::new(Shared {
            snd: Mutex::new(SndCtl {
                buffer: SndBuffer::new(cfg.snd_buf_pkts as usize, payload),
                core: snd_core,
                close: CloseCore::new(trace.clone()),
                parked: false,
            }),
            snd_cv: Condvar::new(),
            rcv: Mutex::new(RcvCtl {
                buffer: RcvBuffer::new(cfg.rcv_buf_pkts as usize, rcv_init),
                core: rcv_core,
                parked: false,
            }),
            rcv_cv: Condvar::new(),
            timer: Mutex::new(()),
            timer_cv: Condvar::new(),
            state: AtomicU8::new(State::Connected as u8),
            events: trace,
            meta,
            instr: Instrument::new(),
            obs,
            send_cost_ns: AtomicU64::new(0),
            last_sent_ns: AtomicU64::new(0),
            auth,
            #[cfg(test)]
            off_mux_data: AtomicU64::new(0),
            clock,
            cfg,
            local_id,
            peer_id,
            peer_addr,
            mux,
        });
        if let Some(hub) = sh.cfg.metrics.as_ref() {
            hub.register_conn(
                sh.local_id,
                sh.stats(),
                &sh.instr,
                &sh.cfg.tracer,
                sh.auth.as_ref().map(|a| Arc::clone(a.counters())),
            );
        }
        // udt-lint: allow(hot-alloc) — one-time connection setup
        let mut threads = Vec::new();
        for (role, body) in [("snd", sender_loop as fn(Arc<Shared>)), ("rcv", timer_loop)] {
            let sh2 = Arc::clone(&sh);
            match std::thread::Builder::new()
                .name(format!("udt-{role}-{local_id}"))
                .spawn(move || body(sh2))
            {
                Ok(t) => threads.push(t),
                Err(e) => {
                    // An already-spawned thread exits promptly on Closed;
                    // nothing else references this connection yet.
                    sh.set_state(State::Closed);
                    sh.mux.unregister(sh.local_id);
                    return Err(UdtError::Io(e));
                }
            }
        }
        let sink: Arc<dyn PacketSink> = sh.clone();
        sh.mux.attach(local_id, &sink, rx);
        Ok(UdtConnection {
            sh,
            threads,
        })
    }

    /// The peer's socket address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.sh.peer_addr
    }

    /// The local UDP address.
    pub fn local_addr(&self) -> SocketAddr {
        self.sh.mux.local_addr()
    }

    /// Connection statistics.
    pub fn stats(&self) -> &ConnStats {
        self.sh.stats()
    }

    /// CPU-time instrumentation (Table 3 categories).
    pub fn instrument(&self) -> &Instrument {
        &self.sh.instr
    }

    /// The negotiated configuration.
    pub fn config(&self) -> &UdtConfig {
        &self.sh.cfg
    }

    /// Session token negotiated at handshake time (0 = not resumable).
    pub fn session_token(&self) -> u64 {
        self.sh.meta.token
    }

    /// `true` when the handshake negotiated the authenticated profile.
    pub fn is_authenticated(&self) -> bool {
        self.sh.auth.is_some()
    }

    /// Authenticated-profile counters for this connection; `None` on a
    /// plaintext connection.
    pub fn auth_counters(&self) -> Option<udt_metrics::counters::AuthSnapshot> {
        self.sh.auth.as_ref().map(|a| a.counters().snapshot())
    }

    /// Resume offset the peer communicated in its handshake (see
    /// [`SessionMeta::peer_resume`]).
    pub fn peer_resume_offset(&self) -> u64 {
        self.sh.meta.peer_resume
    }

    /// Per-event loss sizes observed by the receiver (Figure 8).
    pub fn loss_event_sizes(&self) -> Vec<u32> {
        // udt-lint: allow(hot-alloc) — an accessor for experiments, not datapath
        self.sh.rcv.lock().core.loss_events().to_vec()
    }

    /// Current sending period in microseconds (rate-control observable).
    pub fn pkt_snd_period_us(&self) -> f64 {
        self.sh.snd.lock().core.pkt_snd_period_us()
    }

    /// Queue `data` for reliable in-order delivery. Blocks while the send
    /// buffer is full; returns once every byte is buffered.
    pub fn send(&self, data: &[u8]) -> Result<()> {
        let sh = &self.sh;
        let mut written = 0;
        while written < data.len() {
            let mut s = sh.snd.lock();
            match sh.state() {
                State::Connected => {}
                State::Broken => return Err(UdtError::Broken),
                _ => return Err(UdtError::NotConnected),
            }
            let n = {
                let _t = sh.instr.scope(Category::AppInteraction);
                s.buffer.append(&data[written..])
            };
            if n == 0 {
                sh.trace(EventKind::BufLevel {
                    side: BufSide::Snd,
                    used: s.buffer.len_pkts() as u32,
                    cap: sh.cfg.snd_buf_pkts,
                });
                s.parked = true;
                sh.snd_cv.wait_for(&mut s, Duration::from_millis(100));
                continue;
            }
            written += n;
            ConnStats::inc(&sh.stats().bytes_sent, n as u64);
            let wake = std::mem::take(&mut s.parked);
            drop(s);
            if wake {
                sh.snd_cv.notify_all();
            }
        }
        Ok(())
    }

    /// Receive in-order data. Blocks until data is available; returns
    /// `Ok(0)` at end-of-stream (the peer closed after flushing).
    pub fn recv(&self, buf: &mut [u8]) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let sh = &self.sh;
        loop {
            let mut r = sh.rcv.lock();
            let frontier = r.core.frontier();
            let n = {
                let _t = sh.instr.scope(Category::AppInteraction);
                r.buffer.read(buf, frontier)
            };
            if n > 0 {
                ConnStats::inc(&sh.stats().bytes_delivered, n as u64);
                if let Some(o) = &sh.obs {
                    // ACK-to-delivery latency: the periodic ACK stamped
                    // `last_ack_time` when it advanced the frontier the
                    // application just drained.
                    let acked_at = r.core.last_ack_time();
                    if acked_at > Nanos::ZERO {
                        o.ack_delivery_us
                            .record(sh.clock.now().since(acked_at).as_micros());
                    }
                }
                return Ok(n);
            }
            match sh.state() {
                State::Connected => {}
                State::Broken => return Err(UdtError::Broken),
                _ => return Ok(0),
            }
            r.parked = true;
            sh.rcv_cv.wait_for(&mut r, Duration::from_millis(100));
        }
    }

    /// Receive exactly `buf.len()` bytes (helper for record-oriented apps).
    /// Returns `Err(NotConnected)` if EOF interrupts the record.
    pub fn recv_exact(&self, buf: &mut [u8]) -> Result<()> {
        let mut got = 0;
        while got < buf.len() {
            let n = self.recv(&mut buf[got..])?;
            if n == 0 {
                return Err(UdtError::NotConnected);
            }
            got += n;
        }
        Ok(())
    }

    /// Bytes currently unacknowledged or unsent in the send buffer.
    pub fn unflushed_pkts(&self) -> usize {
        self.sh.snd.lock().buffer.len_pkts()
    }

    /// Flush and close: blocks until the peer has acknowledged everything
    /// sent, or the configured linger expires ([`UdtError::FlushTimeout`]),
    /// then sends the final ACK and one `Shutdown` and returns. It neither
    /// sleeps nor waits for the peer's answer: the exchange finishes on the
    /// connection's timer thread (a repeat per RTT + 4·RTTVar, one SYN at
    /// least, while unanswered; three copies at most), and the peer's
    /// `recv()` sees end-of-stream when any copy arrives. Dropping the
    /// connection waits for that; a process that exits straight after
    /// `close()` has sent one copy.
    pub fn close(&self) -> Result<()> {
        let sh = &self.sh;
        if !sh.state().carries_data() {
            return Ok(());
        }
        sh.set_state(State::Closing);
        let deadline = Instant::now() + sh.cfg.linger;
        let flushed = loop {
            let mut s = sh.snd.lock();
            if s.buffer.is_empty() {
                break true;
            }
            match sh.state() {
                State::Broken => break false,
                // Peer shut down cleanly while we were flushing: it read
                // what it wanted; nothing further can be acknowledged.
                State::Closed => break true,
                _ => {}
            }
            if Instant::now() >= deadline {
                break false;
            }
            s.parked = true;
            sh.snd_cv.wait_for(&mut s, Duration::from_millis(50));
        };
        let now = sh.clock.now();
        // Emit one final ACK so the peer's send side settles before it sees
        // our Shutdown (the ACK timer may not have fired yet).
        let (ack, rtt_bound) = {
            let mut r = sh.rcv.lock();
            let base = r.buffer.base_seq();
            (r.core.ack(now, base, sh.cfg.rcv_buf_pkts), r.core.rtt_bound())
        };
        if let Some(ack) = ack {
            send_ack(sh, ack, now);
        }
        // Whichever half exchanged data has measured the path. The machine
        // first, then the state that hands it to the timer thread: from
        // there only `Shutdown`s are heard. (`Closed` already, if the peer's
        // `Shutdown` or its answer got in between: that is final.)
        let rtt_bound = rtt_bound.min(sh.snd.lock().core.rtt_bound());
        sh.close_step(now, |c| c.close(now, rtt_bound));
        sh.set_state(State::FinWait);
        if flushed {
            Ok(())
        } else {
            Err(UdtError::FlushTimeout)
        }
    }
}

impl Drop for UdtConnection {
    /// Closes if the application has not, then waits for the `Shutdown`
    /// exchange to end — an RTT against a live peer, two repeat intervals
    /// (RTT + 4·RTTVar, one SYN at least) against a dead one — joins the
    /// connection's threads and drops its mux route: until then a peer whose
    /// answer was lost still gets another.
    fn drop(&mut self) {
        let _ = self.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.sh.mux.unregister(self.sh.local_id);
    }
}

/// Would [`pick_burst`] find something?
fn has_pickable(s: &SndCtl) -> bool {
    s.core
        .has_sendable(s.buffer.len_pkts() > s.core.in_flight() as usize)
}

/// Pick up to `n_target` packets under one `snd` lock, as
/// `(seq, payload, is_retransmission)`, and one more if the last opens a
/// probe pair: the pair must leave the host back to back inside one flush.
fn pick_burst(s: &mut SndCtl, n_target: usize, out: &mut Vec<(SeqNo, Bytes, bool)>) {
    let SndCtl { buffer, core, .. } = s;
    let una = core.snd_una();
    let slot = |of: SeqNo| usize::try_from(una.offset_to(of)).unwrap_or(usize::MAX);
    let mut pick = || {
        let (seq, retx) = core.next(|new| slot(new) < buffer.len_pkts())?;
        Some((seq, buffer.get(slot(seq))?, retx))
    };
    while out.len() < n_target {
        match pick() {
            Some(p) => out.push(p),
            None => return,
        }
    }
    if out.last().is_some_and(|p| opens_probe_pair(p.0)) {
        out.extend(pick());
    }
}

/// Transmit the picked burst as one socket flush (trains in one `sendmmsg`
/// when the mux has them; a single packet — all `snd_batch_pkts = 1` ever
/// picks — goes out as the plain `send_to` it always was); `pkts` is
/// scratch. The §4.4 send-cost EWMA absorbs the *per-packet* share of the
/// flush cost, which is precisely what batching improves.
fn transmit_burst(sh: &Shared, picked: &mut Vec<(SeqNo, Bytes, bool)>, pkts: &mut Vec<Packet>) {
    let n = picked.len() as u64;
    let now = sh.clock.now();
    let timestamp_us = now.wire_micros();
    for (seq, payload, retx) in picked.drain(..) {
        sh.trace(EventKind::DataSend {
            seq: seq.raw(),
            bytes: payload.len() as u32,
            retx,
        });
        pkts.push(Packet::Data(DataPacket {
            seq,
            timestamp_us,
            conn_id: sh.peer_id,
            payload,
        }));
    }
    if let Ok(cost) = sh.flush(pkts, now) {
        // §4.4: feed the measured per-packet send cost back as the period
        // floor. The cost is wall clock, and a flush the scheduler parked
        // mid-syscall reads tens of times the real cost; the controller
        // raises the period to the floor and only additive increase brings
        // it back, so one such reading seen by one ACK used to set the pace
        // of a short connection. No sample counts for more than twice the
        // running estimate: an outlier moves it by an eighth, a cost that
        // really rose is still followed within a few flushes.
        let old = sh.send_cost_ns.load(Ordering::Relaxed);
        sh.send_cost_ns
            .store(smoothed_send_cost(old, cost / n), Ordering::Relaxed);
    }
    pkts.clear();
}

/// The send-cost EWMA (7:1, seeded by the first sample) after one more
/// per-packet reading, which counts for at most twice the estimate so far.
fn smoothed_send_cost(old: u64, per_pkt: u64) -> u64 {
    if old == 0 {
        per_pkt
    } else {
        (old * 7 + per_pkt.min(2 * old)) / 8
    }
}

/// The sender thread: pace data packets by the rate controller's period,
/// loss list first, bounded by the flow window.
///
/// Whether anything is pickable is decided *before* pacing: if not (idle,
/// or window-blocked) the thread parks on `snd_cv`; the wait+spin timer
/// runs only while a packet is waiting for its slot.
///
/// Batched datapath: when the inter-packet period is shorter than the
/// timer's spin window, several packets are due within one wakeup's
/// precision anyway — those are picked together (bounded by
/// `snd_batch_pkts`) and flushed as one burst, then the pacing timer
/// advances by `n` periods. Aggregate rate is identical to per-packet
/// pacing; burst granularity never exceeds what the spin window already
/// allowed.
#[allow(clippy::needless_pass_by_value)] // thread entry point: owns its Arc for the thread lifetime
pub(crate) fn sender_loop(sh: Arc<Shared>) {
    let spin = sh.cfg.timer_spin;
    let burst_cap = sh.cfg.snd_batch_pkts.max(1) as usize;
    let spin_us = spin.as_secs_f64() * 1e6;
    let mut next_time = Instant::now();
    let mut picked: Vec<(SeqNo, Bytes, bool)> = Vec::with_capacity(burst_cap + 1);
    let mut pkts: Vec<Packet> = Vec::with_capacity(burst_cap + 1);
    loop {
        if !sh.state().carries_data() {
            return;
        }
        let mut s = sh.snd.lock();
        if !has_pickable(&s) {
            // Wait for data, window space or a repair (no pacing credit).
            s.parked = true;
            sh.snd_cv.wait_for(&mut s, Duration::from_millis(10));
            next_time = Instant::now();
            continue;
        }
        let wait = next_time.saturating_duration_since(Instant::now());
        if wait > spin {
            // Coarse part of the pacing wait, on the condvar so that a
            // close (`set_state`) cuts it short; `parked` stays clear.
            sh.snd_cv.wait_for(&mut s, wait - spin);
            continue;
        }
        if !wait.is_zero() {
            // Final stretch: spin with the lock released (only the spin
            // is booked: Table 3 is CPU cost), then pick from fresh state.
            drop(s);
            let (_overshoot, spun) = crate::timing::precise_sleep_until_timed(next_time, spin);
            sh.instr.add(Category::Timing, spun.as_nanos() as u64);
            s = sh.snd.lock();
        }
        if s.core.take_freeze() {
            // §3.3: skip one SYN after a decrease to drain the queue.
            sh.trace(EventKind::TimerFire {
                timer: TimerKind::Snd,
                count: 1,
            });
            next_time = Instant::now() + SYN.into();
            continue;
        }
        let period_us = s.core.pkt_snd_period_us();
        let n_target = if burst_cap == 1 {
            1
        } else {
            // Packets due within one spin window of pacing budget.
            ((spin_us / period_us.max(1.0)) as usize).clamp(1, burst_cap)
        };
        pick_burst(&mut s, n_target, &mut picked);
        drop(s);
        let n = picked.len();
        if n == 0 {
            continue; // an ACK overtook the loss list while we paced
        }
        transmit_burst(&sh, &mut picked, &mut pkts);
        // Drift-free pacing with a no-catch-up floor: a burst of n
        // packets spends n periods of budget.
        next_time += Duration::from_secs_f64(period_us * n as f64 / 1e6);
        let now_i = Instant::now();
        if next_time < now_i {
            next_time = now_i;
        }
    }
}

/// The timer thread (`udt-rcv-<id>`): the ACK / NAK / EXP timers of the
/// paper's receiver (§4.8), then the `Shutdown` repeats of a close, and
/// nothing else. It sleeps until the earliest of their deadlines (one SYN at
/// most while data flows: the ACK timer's) on a condvar that
/// [`Shared::set_state`] notifies.
#[allow(clippy::needless_pass_by_value)] // thread entry point: owns its Arc for the thread lifetime
pub(crate) fn timer_loop(sh: Arc<Shared>) {
    let done = || matches!(sh.state(), State::Closed | State::Broken);
    let mut deadline = sh.clock.now().plus(SYN);
    loop {
        {
            // Checked under the lock `set_state` passes before it notifies.
            let mut t = sh.timer.lock();
            if done() {
                return;
            }
            sh.timer_cv
                .wait_until(&mut t, sh.clock.instant_at(deadline));
        }
        if done() {
            return;
        }
        let now = sh.clock.now();
        // Neither half can act before its deadline: arrivals only push the
        // EXP timer out.
        deadline = if sh.state() == State::FinWait {
            sh.close_step(now, |c| c.on_timer(now))
        } else {
            rcv_timers(&sh, now).min(snd_timers(&sh, now))
        };
    }
}

/// Per-thread scratch for one batch: the control replies it generated (gap
/// NAKs, ACK2s), the same as wire packets for the one flush, and whether a
/// `parked` flag was taken, i.e. a notification is owed after the batch.
#[derive(Default)]
struct RxScratch {
    ctrl: Vec<ControlBody>,
    pkts: Vec<Packet>,
    wake_snd: bool,
    wake_rcv: bool,
}

thread_local! {
    static RX_SCRATCH: std::cell::RefCell<RxScratch> = std::cell::RefCell::default();
}

impl PacketSink for Shared {
    /// The receive path, run to completion on the calling (`udt-mux`)
    /// thread: every packet through [`process_packet`], then one flush of
    /// the control replies and at most one notification per condvar.
    fn deliver(&self, batch: &mut MuxBatch, recv_ns: u64) {
        if !self.state().carries_data() {
            // Only the `Shutdown` exchange is still heard: ours may be
            // unanswered, and a peer whose answer was lost repeats its own.
            for (pkt, ..) in batch.drain(..) {
                if let Packet::Control(ControlPacket {
                    body: ControlBody::Shutdown { answer },
                    ..
                }) = pkt
                {
                    let now = self.clock.now();
                    self.close_step(now, |c| c.on_shutdown(now, answer));
                }
            }
            return;
        }
        self.snd.lock().core.on_arrival(self.clock.now());
        self.instr.add(Category::UdpRecv, recv_ns);
        self.trace(EventKind::BatchRecv {
            pkts: batch.len() as u32,
        });
        if let Some(o) = &self.obs {
            o.rcv_batch_pkts.record(batch.len() as u64);
        }
        self.note_arrivals(batch);
        RX_SCRATCH.with(|cell| {
            let rx = &mut *cell.borrow_mut();
            for (pkt, ..) in batch.drain(..) {
                process_packet(self, pkt, rx);
            }
            if !rx.ctrl.is_empty() {
                let now = self.clock.now();
                let replies = rx.ctrl.drain(..).map(|body| self.ctrl_pkt(body, now));
                rx.pkts.extend(replies);
                let _ = self.flush(&rx.pkts, now);
                rx.pkts.clear();
            }
            if std::mem::take(&mut rx.wake_rcv) {
                self.rcv_cv.notify_all();
            }
            if std::mem::take(&mut rx.wake_snd) {
                self.snd_cv.notify_all();
            }
        });
    }
}

fn process_packet(sh: &Shared, pkt: Packet, rx: &mut RxScratch) {
    let now = sh.clock.now();
    match pkt {
        Packet::Data(d) => handle_data(sh, d, now, rx),
        Packet::Control(c) => {
            let _t = sh.instr.scope(Category::Control);
            match c.body {
                ControlBody::Ack { ack_seq, data } => handle_ack(sh, ack_seq, &data, now, rx),
                ControlBody::Nak(ranges) => handle_nak(sh, ranges, now, rx),
                ControlBody::Ack2 { ack_seq } => {
                    let sample = {
                        let _m = sh.instr.scope(Category::Measurement);
                        sh.rcv.lock().core.on_ack2(now, ack_seq)
                    };
                    if let (Some(o), Some(sample)) = (&sh.obs, sample) {
                        o.rtt_us.record(sample.as_micros());
                    }
                }
                ControlBody::Shutdown { answer } => {
                    sh.close_step(now, |c| c.on_shutdown(now, answer));
                }
                ControlBody::KeepAlive => {
                    // An answer is itself a send: this batch's flush
                    // records it as the latest.
                    let last_sent = Nanos(sh.last_sent_ns.load(Ordering::Relaxed));
                    if sh.snd.lock().core.on_keepalive(now, last_sent) {
                        rx.ctrl.push(ControlBody::KeepAlive);
                    }
                }
                ControlBody::Handshake(_) => {}
            }
        }
    }
}

fn handle_data(sh: &Shared, d: DataPacket, now: Nanos, rx: &mut RxScratch) {
    #[cfg(test)]
    if std::thread::current().name() != Some("udt-mux") {
        sh.off_mux_data.fetch_add(1, Ordering::Relaxed);
    }
    let mut r = sh.rcv.lock();
    let base = r.buffer.base_seq();
    let bytes = d.payload.len() as u32;
    let verdict = {
        // In order, a packet touches no loss list (and takes no timer).
        let _l = (!r.core.is_next(d.seq)).then(|| sh.instr.scope(Category::Loss));
        r.core.on_data(now, d.seq, bytes, base, sh.cfg.rcv_buf_pkts)
    };
    match verdict {
        DataVerdict::Implausible => return,
        DataVerdict::New { nak: Some(gap) } => {
            // udt-lint: allow(hot-alloc) — single-range NAK, loss path only
            rx.ctrl.push(ControlBody::Nak(vec![gap]));
        }
        _ => {}
    }
    // The buffer agrees with the core on what is a first copy: one the core
    // calls a duplicate the buffer refuses, too.
    let stored = {
        let _u = sh.instr.scope(Category::Unpacking);
        r.buffer.insert(d.seq, d.payload)
    };
    debug_assert_eq!(
        stored == InsertOutcome::Stored,
        verdict != DataVerdict::Duplicate,
        "core and buffer disagree about {}",
        d.seq
    );
    debug_check_rcv_sampled(&r);
    rx.wake_rcv |= std::mem::take(&mut r.parked);
}

fn handle_ack(sh: &Shared, ack_seq: u32, data: &AckData, now: Nanos, rx: &mut RxScratch) {
    let mut s = sh.snd.lock();
    let Some(acked) = s.core.on_ack(now, ack_seq, data, sh.min_snd_period_us()) else {
        return;
    };
    if acked.pkts > 0 {
        let _t = sh.instr.scope(Category::Packing);
        s.buffer.ack(acked.pkts as usize);
    }
    if let (Some(o), Some(rtt)) = (&sh.obs, data.rtt_us.filter(|&rtt| rtt > 0)) {
        o.rtt_us.record(u64::from(rtt));
    }
    debug_check_snd(&s);
    rx.wake_snd |= std::mem::take(&mut s.parked);
    drop(s);
    if acked.ack2 {
        rx.ctrl.push(ControlBody::Ack2 { ack_seq });
    }
}

fn handle_nak(sh: &Shared, mut ranges: Vec<SeqRange>, now: Nanos, rx: &mut RxScratch) {
    let mut s = sh.snd.lock();
    {
        let _l = sh.instr.scope(Category::Loss);
        s.core.on_nak(now, &mut ranges, sh.min_snd_period_us());
    }
    if ranges.is_empty() {
        return;
    }
    debug_check_snd(&s);
    rx.wake_snd |= std::mem::take(&mut s.parked);
}

/// Put an ACK the core produced on the wire.
fn send_ack(sh: &Shared, (ack_seq, data): (u32, AckData), now: Nanos) {
    sh.send_ctrl(ControlBody::Ack { ack_seq, data }, now);
}

/// The receiving half's timer tick: at most one ACK and one NAK go out.
/// Returns when it next has something to do.
fn rcv_timers(sh: &Shared, now: Nanos) -> Nanos {
    let mut r = sh.rcv.lock();
    let base = r.buffer.base_seq();
    let out = {
        let _t = sh.instr.scope(Category::Control);
        r.core.on_timer(now, base, sh.cfg.rcv_buf_pkts)
    };
    let next = r.core.next_deadline();
    let held = r.buffer.held_pkts(r.core.lrsn());
    debug_check_rcv(&r);
    drop(r);
    if let Some(ack) = out.ack {
        sh.trace(EventKind::BufLevel {
            side: BufSide::Rcv,
            used: held,
            cap: sh.cfg.rcv_buf_pkts,
        });
        send_ack(sh, ack, now);
    }
    if let Some(due) = out.nak {
        sh.send_ctrl(ControlBody::Nak(due), now);
    }
    next
}

/// The sending half's timer tick: EXP and tail-loss repair. Returns when it
/// next has something to do.
fn snd_timers(sh: &Shared, now: Nanos) -> Nanos {
    let mut s = sh.snd.lock();
    let action = s.core.on_timer(now, sh.min_snd_period_us());
    let next = s.core.next_deadline();
    match action {
        TimerAction::None => {}
        TimerAction::Broken => {
            drop(s);
            sh.set_state(State::Broken);
        }
        TimerAction::KeepAlive => {
            drop(s);
            sh.send_ctrl(ControlBody::KeepAlive, now);
        }
        TimerAction::Requeued => {
            debug_check_snd(&s);
            let wake = std::mem::take(&mut s.parked);
            drop(s);
            if wake {
                sh.snd_cv.notify_all();
            }
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_parked_flush_does_not_set_the_send_cost_floor() {
        assert_eq!(smoothed_send_cost(0, 1_500), 1_500);
        // A flush descheduled mid-syscall: 40 us a packet against 1.5.
        let after = smoothed_send_cost(1_500, 40_000);
        assert_eq!(after, 1_687, "an eighth of the way to twice the estimate");
        // A cost that really doubled is followed: within 10 % in 20 flushes.
        let mut cost = 1_500;
        for _ in 0..20 {
            cost = smoothed_send_cost(cost, 3_000);
        }
        assert!((2_700..=3_000).contains(&cost), "cost={cost}");
    }
}
