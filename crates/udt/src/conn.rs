//! Connection core: shared state, the sender thread, the run-to-completion
//! receive path, the timer thread, and the public [`UdtConnection`] API.
//!
//! §4.8 of the paper gives every UDT entity a sender thread ("only
//! responsible for sending data packets according to the limit of flow
//! control and rate control… always sends the lost packets with higher
//! priority") and a receiver thread that processes "both data and control
//! packets" and checks the ACK, NAK, SYN and EXP timers "after each
//! time-bounded UDP receiving call". Here:
//!
//! * **`udt-snd-<id>`** is the paper's sender ([`sender_loop`]); idle or
//!   window-blocked it parks on `snd_cv` instead of pacing.
//! * **`udt-mux`** (one per UDP socket, [`crate::mux`]) does the receiver's
//!   *processing*: it runs the connection's share of every `recvmmsg` batch
//!   to completion ([`PacketSink::deliver`]) under the `snd`/`rcv` locks.
//! * **`udt-rcv-<id>`** keeps the receiver's *timers* only ([`timer_loop`]).
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
//! 2. `snd` — sender-side protocol state ([`SndCtl`]).
//! 3. `rcv` — receiver-side protocol state ([`RcvCtl`]).
//! 4. `timer` — the timer thread's wake-up lock (guards nothing else).
//! 5. `threads` — join-handle registry.
//! 6. `conns` — the mux registry (`mux.rs`). Last, so that none of the above
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

use udt_algo::ackwindow::AckWindow;
use udt_algo::clock::SYN;
use udt_algo::timerctl::{nak_base_interval, ExpBackoff};
use udt_algo::{
    CcContext, FlowWindow, Nanos, PktTimeWindow, RateControl, RcvLossList, RttEstimator, SabulCc,
    SndLossList, UdtCc, PROBE_INTERVAL,
};
use udt_proto::ctrl::{AckData, ControlBody, ControlPacket};
use udt_proto::{DataPacket, Packet, SeqNo, SeqRange};
use udt_trace::{BufSide, ConnState, DropReason, EventKind, TimerKind};

use crate::buffer::{InsertOutcome, RcvBuffer, SndBuffer};
use crate::config::{CcChoice, UdtConfig};
use crate::error::{Result, UdtError};
use crate::instrument::{Category, Instrument};
use crate::mux::{Mux, MuxBatch, PacketSink};
use crate::stats::ConnStats;
use crate::timing::EpochClock;

/// Connection lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum State {
    /// Established, both directions open.
    Connected = 0,
    /// Local close requested: flushing.
    Closing = 1,
    /// Fully closed (locally closed or peer shutdown processed).
    Closed = 2,
    /// Peer unresponsive past the EXP escalation limit.
    Broken = 3,
}

impl State {
    fn from_u8(v: u8) -> State {
        match v {
            0 => State::Connected,
            1 => State::Closing,
            2 => State::Closed,
            _ => State::Broken,
        }
    }

    /// The tracer's view of this state (the tracer vocabulary adds
    /// `Connecting`, which only the handshake code in `socket.rs` uses).
    fn to_trace(self) -> ConnState {
        match self {
            State::Connected => ConnState::Connected,
            State::Closing => ConnState::Closing,
            State::Closed => ConnState::Closed,
            State::Broken => ConnState::Broken,
        }
    }
}

/// Sender-side protocol state (one lock).
pub(crate) struct SndCtl {
    pub buffer: SndBuffer,
    pub loss: SndLossList,
    pub cc: Box<dyn RateControl>,
    pub rtt: RttEstimator,
    /// Window advertised by the peer in ACKs (packets).
    pub peer_window: u32,
    /// Smoothed link-capacity estimate from ACKs, pkts/s.
    pub bandwidth_pps: f64,
    /// Smoothed arrival-speed report from ACKs, pkts/s.
    pub recv_rate_pps: f64,
    pub snd_una: SeqNo,
    pub next_new: SeqNo,
    pub curr_seq: SeqNo,
    pub exp: ExpBackoff,
    pub last_rsp: Nanos,
    /// Last time `snd_una` advanced (or a repair was queued). Liveness
    /// (`last_rsp`) and progress are distinct: a duplex peer resets
    /// `last_rsp` constantly while our tail may still be lost.
    pub last_progress: Nanos,
    /// Set under this lock by a thread about to wait on `snd_cv`; a notifier
    /// takes it and notifies (a futex syscall even with nobody there) only
    /// if it was set. A timed-out waiter leaves it set: harmless.
    pub parked: bool,
}

/// Receiver-side protocol state (one lock).
pub(crate) struct RcvCtl {
    pub buffer: RcvBuffer,
    pub loss: RcvLossList,
    pub history: PktTimeWindow,
    /// Sender timestamp of the flush now arriving and its data packets so
    /// far: see [`Shared::note_arrivals`].
    pub arriving: Option<(u32, u32)>,
    pub rtt: RttEstimator,
    pub ackw: AckWindow,
    pub flow: FlowWindow,
    /// Largest received sequence number.
    pub lrsn: SeqNo,
    pub ack_seq: u32,
    pub last_ack_sent: SeqNo,
    /// When `last_ack_sent` was last put on the wire (repeat pacing).
    pub last_ack_time: Nanos,
    /// Largest ACK the sender has confirmed with an ACK2. Repeating an
    /// ACK stops here: past this point the sender provably knows, and
    /// staying silent is what re-arms its EXP-timeout repair.
    pub last_ack_acked: SeqNo,
    /// Peer sent Shutdown: deliver what remains, then EOF.
    pub eof: bool,
    /// Per-event gap sizes (Figure 8 trace).
    pub loss_events: Vec<u32>,
    /// As [`SndCtl::parked`], for `rcv_cv`.
    pub parked: bool,
}

impl SndCtl {
    /// Cross-field invariants of the sender state, checked after every
    /// protocol event in debug builds and by the `udt-verify` model
    /// checker. These are the properties the ACK/NAK/EXP machinery relies
    /// on but the types cannot express.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn check_invariants(&self) -> std::result::Result<(), String> {
        self.loss.check_invariants()?;
        if !self.snd_una.le_seq(self.next_new) {
            return Err(format!(
                "snd_una {} ahead of the send frontier {}",
                self.snd_una, self.next_new
            ));
        }
        let in_flight = self.snd_una.offset_to(self.next_new);
        if in_flight as usize > self.buffer.len_pkts() {
            return Err(format!(
                "{in_flight} packets in flight but only {} buffered",
                self.buffer.len_pkts()
            ));
        }
        if !self.curr_seq.lt_seq(self.next_new) {
            return Err(format!(
                "curr_seq {} at or past the send frontier {}",
                self.curr_seq, self.next_new
            ));
        }
        for r in self.loss.ranges() {
            if r.from.lt_seq(self.snd_una) || !r.to.lt_seq(self.next_new) {
                return Err(format!(
                    "loss range [{}, {}] outside the live span [{}, {})",
                    r.from, r.to, self.snd_una, self.next_new
                ));
            }
        }
        Ok(())
    }
}

impl RcvCtl {
    /// Cross-field invariants of the receiver state (see
    /// [`SndCtl::check_invariants`]).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn check_invariants(&self) -> std::result::Result<(), String> {
        self.buffer.check_invariants()?;
        self.loss.check_invariants()?;
        let frontier = self.loss.first().unwrap_or_else(|| self.lrsn.next());
        if !self.buffer.base_seq().le_seq(frontier) {
            return Err(format!(
                "delivery base {} past the in-order frontier {frontier}",
                self.buffer.base_seq()
            ));
        }
        for r in self.loss.ranges() {
            if r.from.lt_seq(self.buffer.base_seq()) || !r.to.lt_seq(self.lrsn) {
                return Err(format!(
                    "loss range [{}, {}] outside [{}, {})",
                    r.from,
                    r.to,
                    self.buffer.base_seq(),
                    self.lrsn
                ));
            }
        }
        if !self.last_ack_acked.le_seq(self.last_ack_sent) {
            return Err(format!(
                "ACK2-confirmed {} ahead of last ACK sent {}",
                self.last_ack_acked, self.last_ack_sent
            ));
        }
        if !self.last_ack_sent.le_seq(frontier) {
            return Err(format!(
                "last ACK sent {} past the in-order frontier {frontier}",
                self.last_ack_sent
            ));
        }
        Ok(())
    }
}

/// Debug-build hook: panic loudly (inside whichever test is running) when a
/// protocol event leaves the sender state inconsistent.
#[inline]
fn debug_check_snd(s: &SndCtl) {
    #[cfg(debug_assertions)]
    if let Err(e) = s.check_invariants() {
        // udt-lint: allow(unwrap) — debug-assertions-only invariant hook
        panic!("sender invariant violated: {e}");
    }
    #[cfg(not(debug_assertions))]
    let _ = s;
}

/// Debug-build hook for the receiver state.
#[inline]
fn debug_check_rcv(r: &RcvCtl) {
    #[cfg(debug_assertions)]
    if let Err(e) = r.check_invariants() {
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
    pub stats: Arc<ConnStats>,
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

/// The wire timestamp: microseconds since the connection epoch, mod 2^32.
fn wire_ts(now: Nanos) -> u32 {
    // udt-lint: allow(as-cast) — the wire timestamp field is 32-bit
    (now.as_micros() & 0xFFFF_FFFF) as u32
}

impl Shared {
    pub fn state(&self) -> State {
        State::from_u8(self.state.load(Ordering::Acquire))
    }

    pub fn set_state(&self, s: State) {
        let old = State::from_u8(self.state.swap(s as u8, Ordering::AcqRel));
        if old != s {
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

    /// Emit a trace event for this connection (one branch when disabled).
    #[inline]
    pub(crate) fn trace(&self, kind: EventKind) {
        self.cfg.tracer.emit(self.local_id, kind);
    }

    /// Dump the tracer ring as a flight recording into `cfg.flight_dir`
    /// (no-op when tracing is disabled or no directory is configured).
    pub(crate) fn flight_dump(&self, reason: &str) {
        if let Some(dir) = &self.cfg.flight_dir {
            let _ = udt_trace::flight::dump(dir, self.local_id, reason, &self.cfg.tracer);
        }
    }

    fn cc_ctx(&self, s: &SndCtl, now: Nanos) -> CcContext {
        CcContext {
            now,
            rtt_us: s.rtt.rtt_us(),
            bandwidth_pps: s.bandwidth_pps,
            recv_rate_pps: s.recv_rate_pps,
            mss: self.cfg.mss,
            max_cwnd: f64::from(s.peer_window.max(16)),
            snd_curr_seq: s.curr_seq,
            min_snd_period_us: self.send_cost_ns.load(Ordering::Relaxed) as f64 / 1_000.0,
        }
    }

    fn ctrl_pkt(&self, body: ControlBody, now: Nanos) -> Packet {
        Packet::Control(ControlPacket {
            timestamp_us: wire_ts(now),
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

    /// Feed the receiver's estimators the arrival stamps of a batch's data
    /// packets. Stamps are on the mux's timeline (kernel receive time where
    /// available), so the estimators measure the path and not how long this
    /// process took to get to each packet; everything else runs on the
    /// connection clock.
    ///
    /// Packets sharing a stamp crossed as one train, and where trains arrive
    /// the unit of arrival is the sender's *flush* (its trains carry one
    /// sender timestamp): a flush's packets count as that many arrivals over
    /// the time from its first stamp to the next flush's first stamp. The
    /// spacing of two trains *within* a flush is not the path's: on loopback
    /// it is how long this host's receive path ran on the first train before
    /// the sender got back to its `sendmmsg` (a near-constant 15–20 us here),
    /// which divided by the second train's length is a figure set by where
    /// the probe-pair cut fell in the flush, i.e. by the connection's random
    /// initial sequence number. Flush to flush is what the paper's receiver
    /// measures packet to packet: back-to-back flushes show the rate the path
    /// and the two hosts sustain, a paced sender's show its rate, and the one
    /// wait for an ACK per window is the outlier the median drops. Single
    /// packets are flushes of one even when they share a sender timestamp
    /// (a relay or a plain socket spaced them), so a path that delivers
    /// single packets is measured packet by packet, as ever.
    fn note_arrivals(&self, batch: &MuxBatch) {
        let mut r = self.rcv.lock();
        let _m = self.instr.scope(Category::Measurement);
        let mut rest = batch.as_slice();
        while let Some(&(_, _, stamp)) = rest.first() {
            let train = rest.iter().take_while(|m| m.2 == stamp).count();
            let data = rest[..train].iter().filter_map(|(pkt, ..)| match pkt {
                Packet::Data(d) => Some(d),
                Packet::Control(_) => None,
            });
            let (mut n, mut flush, mut pair_second) = (0u32, 0, false);
            for d in data {
                if n == 0 {
                    flush = d.timestamp_us;
                }
                n += 1;
                match d.seq.raw() % PROBE_INTERVAL {
                    0 => r.history.on_probe1_arrival(stamp),
                    1 => pair_second = true,
                    _ => {}
                }
            }
            rest = &rest[train..];
            if n == 0 {
                continue;
            }
            let r = &mut *r;
            note_train(&mut r.history, &mut r.arriving, (flush, n), stamp);
            if pair_second {
                r.history.on_probe2_train_arrival(stamp, n);
            }
        }
    }
}

/// One arriving train — `(sender timestamp, packets)`, a single packet
/// being a train of one — stamped `stamp`: either more of the flush
/// `arriving` (same form, packets so far), or the start of the next, which
/// makes the finished flush one arrival-speed sample
/// ([`Shared::note_arrivals`]).
fn note_train(
    history: &mut PktTimeWindow,
    arriving: &mut Option<(u32, u32)>,
    train: (u32, u32),
    stamp: Nanos,
) {
    match *arriving {
        Some((flush, pkts)) if flush == train.0 && (pkts > 1 || train.1 > 1) => {
            *arriving = Some((flush, pkts + train.1));
        }
        prev => {
            history.on_train_arrival(stamp, prev.map_or(1, |p| p.1));
            *arriving = Some(train);
        }
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
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
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
        let sh = Arc::new(Shared {
            snd: Mutex::new(SndCtl {
                buffer: SndBuffer::new(cfg.snd_buf_pkts as usize, payload),
                loss: SndLossList::new(loss_cap),
                cc: build_cc(&cfg.cc, snd_init),
                rtt: RttEstimator::new(Nanos::from_millis(100)),
                peer_window: 16,
                bandwidth_pps: 0.0,
                recv_rate_pps: 0.0,
                snd_una: snd_init,
                next_new: snd_init,
                curr_seq: snd_init.prev(),
                exp: ExpBackoff::new(),
                last_rsp: Nanos::ZERO,
                last_progress: Nanos::ZERO,
                parked: false,
            }),
            snd_cv: Condvar::new(),
            rcv: Mutex::new(RcvCtl {
                buffer: RcvBuffer::new(cfg.rcv_buf_pkts as usize, rcv_init),
                loss: RcvLossList::new(loss_cap),
                history: PktTimeWindow::new(),
                arriving: None,
                rtt: RttEstimator::new(Nanos::from_millis(100)),
                ackw: AckWindow::default(),
                flow: FlowWindow::new(cfg.rcv_buf_pkts),
                lrsn: rcv_init.prev(),
                ack_seq: 0,
                last_ack_sent: rcv_init,
                last_ack_time: Nanos::ZERO,
                last_ack_acked: rcv_init,
                eof: false,
                // udt-lint: allow(hot-alloc) — one-time connection setup
                loss_events: Vec::new(),
                parked: false,
            }),
            rcv_cv: Condvar::new(),
            timer: Mutex::new(()),
            timer_cv: Condvar::new(),
            state: AtomicU8::new(State::Connected as u8),
            stats: Arc::new(ConnStats::default()),
            meta,
            instr: Instrument::new(),
            obs,
            send_cost_ns: AtomicU64::new(0),
            last_sent_ns: AtomicU64::new(0),
            auth,
            #[cfg(test)]
            off_mux_data: AtomicU64::new(0),
            clock: EpochClock::start(),
            cfg,
            local_id,
            peer_id,
            peer_addr,
            mux,
        });
        if let Some(hub) = sh.cfg.metrics.as_ref() {
            hub.register_conn(
                sh.local_id,
                &sh.stats,
                &sh.instr,
                &sh.cfg.tracer,
                sh.auth.as_ref().map(|a| Arc::clone(&a.counters)),
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
            threads: Mutex::new(threads),
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
        &self.sh.stats
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
        self.sh.auth.as_ref().map(|a| a.counters.snapshot())
    }

    /// Resume offset the peer communicated in its handshake (see
    /// [`SessionMeta::peer_resume`]).
    pub fn peer_resume_offset(&self) -> u64 {
        self.sh.meta.peer_resume
    }

    /// Per-event loss sizes observed by the receiver (Figure 8).
    pub fn loss_event_sizes(&self) -> Vec<u32> {
        self.sh.rcv.lock().loss_events.clone()
    }

    /// Current sending period in microseconds (rate-control observable).
    pub fn pkt_snd_period_us(&self) -> f64 {
        self.sh.snd.lock().cc.pkt_snd_period_us()
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
                // udt-lint: allow(as-cast) — buffer capacity fits u32
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
            ConnStats::inc(&sh.stats.bytes_sent, n as u64);
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
            let frontier = r.loss.first().unwrap_or_else(|| r.lrsn.next());
            let n = {
                let _t = sh.instr.scope(Category::AppInteraction);
                r.buffer.read(buf, frontier)
            };
            if n > 0 {
                ConnStats::inc(&sh.stats.bytes_delivered, n as u64);
                if let Some(o) = &sh.obs {
                    // ACK-to-delivery latency: the periodic ACK stamped
                    // `last_ack_time` when it advanced the frontier the
                    // application just drained.
                    if r.last_ack_time > Nanos::ZERO {
                        let now = sh.clock.now();
                        o.ack_delivery_us
                            .record(now.since(r.last_ack_time).as_micros());
                    }
                }
                return Ok(n);
            }
            if r.eof {
                return Ok(0);
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

    /// Flush and close. Blocks (up to the configured linger) until the
    /// peer has acknowledged everything, then sends Shutdown.
    pub fn close(&self) -> Result<()> {
        let sh = &self.sh;
        if matches!(sh.state(), State::Closed | State::Broken) {
            self.teardown();
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
        send_periodic_ack(sh, now);
        // Shutdown is fire-and-forget; send a few copies for loss
        // tolerance — spaced out, because back-to-back copies share one
        // queue state on a congested path and are dropped together. A
        // peer that misses every copy only learns of our death through
        // its EXP ladder, turning a clean EOF into `Broken`.
        for i in 0..3 {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(15));
            }
            sh.send_ctrl(ControlBody::Shutdown, sh.clock.now());
        }
        sh.set_state(State::Closed);
        self.teardown();
        if flushed {
            Ok(())
        } else {
            Err(UdtError::FlushTimeout)
        }
    }

    /// Join the connection's threads (the state is final by now) and drop
    /// its mux route: every exit path ends here.
    fn teardown(&self) {
        let mut ts = self.threads.lock();
        for t in ts.drain(..) {
            let _ = t.join();
        }
        self.sh.mux.unregister(self.sh.local_id);
    }
}

impl Drop for UdtConnection {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Packets the flow and congestion windows allow in flight.
fn send_window(s: &SndCtl) -> i32 {
    // udt-lint: allow(as-cast) — the window is capped far below i32::MAX
    (s.cc.cwnd() as u32).min(s.peer_window).max(2) as i32
}

/// Would [`pick_packet`] find something? (Stale loss-list entries say yes
/// once; the pick drops them.)
fn has_pickable(s: &SndCtl) -> bool {
    let in_flight = s.snd_una.offset_to(s.next_new);
    // Compares in-flight *counts*, not raw sequence numbers.
    // udt-lint: allow(as-cast, seq-cmp)
    !s.loss.is_empty() || (in_flight < send_window(s) && (in_flight as usize) < s.buffer.len_pkts())
}

/// Pick the next packet: loss list first, then new data within the window
/// (§4.8). Returns `(seq, payload, is_retransmission)`.
fn pick_packet(s: &mut SndCtl) -> Option<(SeqNo, Bytes, bool)> {
    while let Some(seq) = s.loss.pop_first() {
        let off = s.snd_una.offset_to(seq);
        if off < 0 {
            continue; // stale entry below the ACK point
        }
        if let Some(payload) = s.buffer.get(off as usize) {
            return Some((seq, payload, true));
        }
    }
    let in_flight = s.snd_una.offset_to(s.next_new);
    // Compares in-flight *counts*, not raw sequence numbers.
    // udt-lint: allow(seq-cmp)
    if in_flight >= send_window(s) {
        return None;
    }
    let payload = s.buffer.get(in_flight as usize)?;
    let seq = s.next_new;
    s.next_new = s.next_new.next();
    s.curr_seq = seq; // new data is by construction the largest sent
    Some((seq, payload, false))
}

/// Pick up to `n_target` packets under one `snd` lock, preserving the
/// §3.4 probe-pair invariant: if the last picked packet starts a probe
/// pair (`seq % PROBE_INTERVAL == 0`), its partner is appended so the
/// pair still leaves the host back-to-back inside one flush.
fn pick_burst(s: &mut SndCtl, n_target: usize, out: &mut Vec<(SeqNo, Bytes, bool)>) {
    while out.len() < n_target {
        match pick_packet(s) {
            Some(p) => out.push(p),
            None => return,
        }
    }
    if let Some(&(seq, _, _)) = out.last() {
        if seq.raw() % PROBE_INTERVAL == 0 {
            if let Some(p) = pick_packet(s) {
                out.push(p);
            }
        }
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
    let timestamp_us = wire_ts(now);
    for (seq, payload, retx) in picked.drain(..) {
        let sent = if retx {
            &sh.stats.pkts_retransmitted
        } else {
            &sh.stats.pkts_sent
        };
        ConnStats::inc(sent, 1);
        // udt-lint: allow(as-cast) — payload bounded by the MSS
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
        if matches!(sh.state(), State::Closed | State::Broken) {
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
        if s.cc.take_freeze() {
            // §3.3: skip one SYN after a decrease to drain the queue.
            sh.trace(EventKind::TimerFire {
                timer: TimerKind::Snd,
                count: 1,
            });
            next_time = Instant::now() + SYN.into();
            continue;
        }
        let period_us = s.cc.pkt_snd_period_us();
        let n_target = if burst_cap == 1 {
            1
        } else {
            // Packets due within one spin window of pacing budget.
            // udt-lint: allow(as-cast) — clamped to burst_cap below
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
        // udt-lint: allow(as-cast) — n ≤ burst_cap + 1, far below 2^52
        next_time += Duration::from_secs_f64(period_us * n as f64 / 1e6);
        let now_i = Instant::now();
        if next_time < now_i {
            next_time = now_i;
        }
    }
}

/// The timer thread (`udt-rcv-<id>`): the ACK / NAK / EXP timers of the
/// paper's receiver (§4.8) and nothing else. It sleeps until the earliest
/// of their deadlines (one SYN at most: the ACK timer's) on a condvar that
/// [`Shared::set_state`] notifies.
#[allow(clippy::needless_pass_by_value)] // thread entry point: owns its Arc for the thread lifetime
pub(crate) fn timer_loop(sh: Arc<Shared>) {
    let done = || matches!(sh.state(), State::Closed | State::Broken);
    let mut next_ack = sh.clock.now().plus(SYN);
    let (mut next_nak, mut next_exp) = (next_ack, next_ack);
    loop {
        {
            // Checked under the lock `set_state` passes before it notifies.
            let mut t = sh.timer.lock();
            if done() {
                return;
            }
            let deadline = sh.clock.instant_at(next_ack.min(next_nak).min(next_exp));
            sh.timer_cv.wait_until(&mut t, deadline);
        }
        if done() {
            return;
        }
        let now = sh.clock.now();
        if now >= next_ack {
            send_periodic_ack(&sh, now);
            next_ack = now.plus(SYN);
        }
        if now >= next_nak {
            let base = resend_naks(&sh, now);
            next_nak = now.plus(base.max(SYN));
        }
        check_exp(&sh, now);
        // EXP cannot fire before this: arrivals only push `last_rsp` out.
        let s = sh.snd.lock();
        let interval = s.exp.interval(s.rtt.rtt_us(), s.rtt.rtt_var_us());
        next_exp = s.last_rsp.plus(interval);
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
        if matches!(self.state(), State::Closed | State::Broken) {
            batch.clear();
            return;
        }
        {
            // Any sign of life from the peer resets the EXP escalation.
            let mut s = self.snd.lock();
            s.exp.reset();
            s.last_rsp = self.clock.now();
        }
        self.instr.add(Category::UdpRecv, recv_ns);
        // udt-lint: allow(as-cast) — batch length bounded by rcv_batch_pkts
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
                ControlBody::Ack { ack_seq, data } => handle_ack(sh, ack_seq, data, now, rx),
                ControlBody::Nak(ranges) => handle_nak(sh, &ranges, now, rx),
                ControlBody::Ack2 { ack_seq } => {
                    sh.trace(EventKind::Ack2Recv { ack_no: ack_seq });
                    let mut r = sh.rcv.lock();
                    if let Some((sample, acked)) = r.ackw.acknowledge(ack_seq, now) {
                        let _m = sh.instr.scope(Category::Measurement);
                        r.rtt.update(sample);
                        if let Some(o) = &sh.obs {
                            o.rtt_us.record(sample.as_micros());
                        }
                        sh.trace(EventKind::RttUpdate {
                            rtt_us: r.rtt.rtt_us() as u32, // udt-lint: allow(as-cast) — fits 32-bit µs
                            var_us: r.rtt.rtt_var_us() as u32,
                        });
                        if r.last_ack_acked.lt_seq(acked) {
                            r.last_ack_acked = acked;
                        }
                    }
                }
                ControlBody::Shutdown => {
                    {
                        let mut r = sh.rcv.lock();
                        r.eof = true;
                    }
                    sh.set_state(State::Closed);
                }
                ControlBody::KeepAlive => {
                    // The peer's EXP fired on an idle connection. Whatever
                    // arrives refreshes *our* EXP, so we may never probe in
                    // turn: unless we sent something lately, answer, or the
                    // peer hears nothing until it declares us dead. The
                    // answer is itself a send (this batch's flush records
                    // it), so two idle ends exchange one keep-alive each
                    // per EXP interval, not a rally.
                    let quiet = {
                        let s = sh.snd.lock();
                        ExpBackoff::new().interval(s.rtt.rtt_us(), s.rtt.rtt_var_us())
                    };
                    let last_sent = Nanos(sh.last_sent_ns.load(Ordering::Relaxed));
                    if now.since(last_sent) >= quiet {
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
    // Plausibility gate before any state is mutated: a sequence number the
    // peer could legitimately send lies within the flow window ahead of the
    // delivery base. A corrupted header can carry any value; letting it
    // advance `lrsn` would poison the ACK/NAK machinery (phantom gigantic
    // loss ranges, a wedged advertised window). Far-future packets are
    // dropped here; far-past ones fall through to the duplicate path below,
    // which is already idempotent.
    // udt-lint: allow(seq-cmp) — compares a wrap-safe offset against capacity
    if r.buffer.base_seq().offset_to(d.seq) >= r.buffer.cap_pkts() as i32 {
        drop(r);
        ConnStats::inc(&sh.stats.pkts_rejected, 1);
        sh.trace(EventKind::DataDrop {
            seq: d.seq.raw(),
            reason: DropReason::Implausible,
        });
        return;
    }
    let off = r.lrsn.offset_to(d.seq);
    if off > 0 {
        if off > 1 {
            // Gap detected: record the loss event and NAK immediately.
            let _l = sh.instr.scope(Category::Loss);
            let from = r.lrsn.next();
            let to = d.seq.prev();
            let added = r.loss.insert_at(from, to, now);
            if added > 0 {
                r.loss_events.push(added);
                ConnStats::inc(&sh.stats.loss_events, 1);
                ConnStats::inc(&sh.stats.pkts_lost, u64::from(added));
                ConnStats::inc(&sh.stats.naks_sent, 1);
                sh.trace(EventKind::LossDetected {
                    first_lo: from.raw(),
                    first_hi: to.raw(),
                });
                sh.trace(EventKind::NakSend {
                    first_lo: from.raw(),
                    first_hi: to.raw(),
                    ranges: 1,
                });
                // udt-lint: allow(hot-alloc) — single-range NAK, loss path only
                let nak = ControlBody::Nak(vec![SeqRange::new(from, to)]);
                rx.ctrl.push(nak);
            }
        }
        r.lrsn = d.seq;
    } else {
        // Retransmission (or duplicate): clear it from the loss list.
        let _l = sh.instr.scope(Category::Loss);
        r.loss.remove(d.seq);
    }
    let payload_len = d.payload.len();
    let stored = {
        let _u = sh.instr.scope(Category::Unpacking);
        r.buffer.insert(d.seq, d.payload)
    };
    match stored {
        InsertOutcome::Stored => {
            ConnStats::inc(&sh.stats.pkts_received, 1);
            // udt-lint: allow(as-cast) — payload bounded by the MSS
            sh.trace(EventKind::DataRecv {
                seq: d.seq.raw(),
                bytes: payload_len as u32,
            });
        }
        InsertOutcome::Duplicate | InsertOutcome::OutOfWindow => {
            ConnStats::inc(&sh.stats.pkts_duplicate, 1);
            sh.trace(EventKind::DataDrop {
                seq: d.seq.raw(),
                reason: DropReason::Duplicate,
            });
        }
    }
    debug_check_rcv_sampled(&r);
    rx.wake_rcv |= std::mem::take(&mut r.parked);
}

fn handle_ack(sh: &Shared, ack_seq: u32, data: AckData, now: Nanos, rx: &mut RxScratch) {
    ConnStats::inc(&sh.stats.acks_received, 1);
    sh.trace(EventKind::AckRecv {
        ack_no: ack_seq,
        ack_seq: data.rcv_next.raw(),
    });
    {
        let mut s = sh.snd.lock();
        let ack = data.rcv_next;
        // An ACK may only cover data actually sent: `rcv_next` past
        // `next_new` is a corrupted (or hostile) packet, and absorbing it
        // would strand `snd_una` beyond the send frontier. Ignore it.
        if s.next_new.lt_seq(ack) {
            ConnStats::inc(&sh.stats.pkts_rejected, 1);
            return;
        }
        if s.snd_una.lt_seq(ack) {
            let n = s.snd_una.offset_to(ack);
            {
                let _t = sh.instr.scope(Category::Packing);
                s.buffer.ack(n as usize);
            }
            s.snd_una = ack;
            s.last_progress = now;
            let _l = sh.instr.scope(Category::Loss);
            s.loss.remove_upto(ack.prev());
        }
        if let (Some(rtt), Some(var)) = (data.rtt_us, data.rtt_var_us) {
            s.rtt.absorb_peer(rtt, var);
            if let Some(o) = &sh.obs {
                if rtt > 0 {
                    o.rtt_us.record(u64::from(rtt));
                }
            }
            sh.trace(EventKind::RttUpdate {
                rtt_us: s.rtt.rtt_us() as u32, // udt-lint: allow(as-cast) — fits 32-bit µs
                var_us: s.rtt.rtt_var_us() as u32,
            });
        }
        if let Some(w) = data.avail_buf_pkts {
            s.peer_window = w.max(2);
        }
        // Both rate reports are smoothed 7:1, seeded by the first sample.
        let smooth = |old: f64, new: u32| {
            let new = f64::from(new);
            if old > 0.0 {
                (old * 7.0 + new) / 8.0
            } else {
                new
            }
        };
        if let Some(rr) = data.recv_rate_pps.filter(|&rr| rr > 0) {
            s.recv_rate_pps = smooth(s.recv_rate_pps, rr);
        }
        if let Some(bw) = data.link_cap_pps.filter(|&bw| bw > 0) {
            s.bandwidth_pps = smooth(s.bandwidth_pps, bw);
            sh.trace(EventKind::BwEstimate {
                pps: s.bandwidth_pps,
            });
        }
        let ctx = sh.cc_ctx(&s, now);
        s.cc.on_ack(data.rcv_next, &ctx);
        sh.trace(EventKind::RateUpdate {
            period_us: s.cc.pkt_snd_period_us(),
            cwnd: s.cc.cwnd(),
        });
        debug_check_snd(&s);
        rx.wake_snd |= std::mem::take(&mut s.parked);
    }
    if !data.is_light() {
        sh.trace(EventKind::Ack2Send { ack_no: ack_seq });
        rx.ctrl.push(ControlBody::Ack2 { ack_seq });
    }
}

/// Clamp one NAK range to the sender's live span `[snd_una, next_new)`.
///
/// A NAK can legitimately lag an ACK that crossed it on the wire (the low
/// end falls below `snd_una`), but its high end naming data *never sent* is
/// corrupted or hostile: absorbing it would strand phantom entries in the
/// loss list (the retransmission path would pop sequence numbers with no
/// backing payload forever) and feed a spurious loss event to the rate
/// controller. Returns `None` when nothing of the range is live.
fn clamp_nak_range(
    from: SeqNo,
    to: SeqNo,
    snd_una: SeqNo,
    next_new: SeqNo,
) -> Option<(SeqNo, SeqNo)> {
    let span = snd_una.offset_to(next_new); // sent-but-unacknowledged count
    if span <= 0 {
        return None; // nothing in flight: any NAK is stale or fabricated
    }
    let lo = snd_una.offset_to(from).max(0);
    let hi = snd_una.offset_to(to).min(span - 1);
    if lo > hi {
        return None; // entirely below the ACK point or past the frontier
    }
    // udt-lint: allow(as-cast) — lo/hi proven in [0, span) above, span ≤ 2^30
    Some((snd_una.add(lo as u32), snd_una.add(hi as u32)))
}

fn handle_nak(sh: &Shared, ranges: &[SeqRange], now: Nanos, rx: &mut RxScratch) {
    ConnStats::inc(&sh.stats.naks_received, 1);
    let mut s = sh.snd.lock();
    // Validate against the live span before anything absorbs the ranges.
    let clamped: Vec<SeqRange> = ranges
        .iter()
        .filter_map(|r| clamp_nak_range(r.from, r.to, s.snd_una, s.next_new))
        .map(|(from, to)| SeqRange::new(from, to))
        .collect();
    if clamped.len() < ranges.len() {
        ConnStats::inc(&sh.stats.pkts_rejected, 1);
    }
    if clamped.is_empty() {
        return;
    }
    // udt-lint: allow(as-cast) — a NAK packet carries far fewer than 2^32 ranges
    sh.trace(EventKind::NakRecv {
        first_lo: clamped[0].from.raw(),
        first_hi: clamped[0].to.raw(),
        ranges: clamped.len() as u32,
    });
    let ctx = sh.cc_ctx(&s, now);
    s.cc.on_loss(&clamped, &ctx);
    {
        let _l = sh.instr.scope(Category::Loss);
        for r in &clamped {
            s.loss.insert(r.from, r.to);
        }
    }
    debug_check_snd(&s);
    rx.wake_snd |= std::mem::take(&mut s.parked);
}

fn send_periodic_ack(sh: &Shared, now: Nanos) {
    let mut guard = sh.rcv.lock();
    let r = &mut *guard; // split-borrow the fields through the guard
    let ack_no = r.loss.first().unwrap_or_else(|| r.lrsn.next());
    if ack_no == r.last_ack_acked {
        // The sender confirmed this ACK with an ACK2: it provably knows.
        // Going silent here matters as much as the repeat below — the
        // sender's EXP repair (re-queue everything unacknowledged) is
        // gated on peer silence, and it is the only thing that can
        // recover a *tail* loss the receiver cannot see as a gap.
        return;
    }
    if ack_no == r.last_ack_sent {
        // Nothing new to acknowledge, and no ACK2 yet — the previous ACK
        // may have been lost, and a sender whose last in-flight packet's
        // ACK vanished retransmits it forever while we stay mute (every
        // copy is a duplicate, so `ack_no` never moves). Reference UDT
        // repeats an unconfirmed identical ACK after RTT + 4·RTTVar; do
        // the same, with a floor so near-zero RTT estimates don't turn
        // the repeat into a flood.
        let repeat_after =
            Nanos::from_micros((r.rtt.rtt_us() + 4.0 * r.rtt.rtt_var_us()) as u64)
                .max(Nanos::from_millis(10));
        if now.since(r.last_ack_time) < repeat_after {
            return; // nothing new; the SYN timer keeps ticking
        }
    }
    {
        let _m = sh.instr.scope(Category::Measurement);
        r.flow.update(&r.history, &r.rtt);
    }
    let held = r.buffer.held_pkts(r.lrsn);
    let cap_pkts = r.buffer.cap_pkts();
    let avail = (cap_pkts as u32).saturating_sub(held);
    // Until the arrival-speed filter has spoken, W is its cold-start floor
    // of 16 — "enough to keep the estimator fed" when 16 packets are 15
    // intervals, not when they are one flush and none. A sender told 16
    // leaves slow start on this very ACK, at whatever period an unmeasured
    // path suggests; told the free buffer, it sends a second, larger window
    // and the next ACK carries a measurement.
    let window = if r.flow.is_measured() {
        r.flow.advertised(avail)
    } else {
        avail.max(2)
    };
    // udt-lint: allow(seq-cmp) — ack_seq is the ACK *message* counter, not a packet seqno
    r.ack_seq = r.ack_seq.wrapping_add(1);
    // RTT estimates fit the protocol's 32-bit microsecond fields.
    // udt-lint: allow(as-cast)
    let (rtt_us, rtt_var_us) = (r.rtt.rtt_us() as u32, r.rtt.rtt_var_us() as u32);
    let data = AckData::full(
        ack_no,
        rtt_us,
        rtt_var_us,
        window,
        r.history.pkt_recv_speed() as u32,
        r.history.bandwidth() as u32,
    );
    let ack_seq = r.ack_seq;
    r.ackw.store(ack_seq, ack_no, now);
    r.last_ack_sent = ack_no;
    r.last_ack_time = now;
    debug_check_rcv(r);
    drop(guard);
    ConnStats::inc(&sh.stats.acks_sent, 1);
    sh.trace(EventKind::TimerFire {
        timer: TimerKind::Ack,
        count: 1,
    });
    sh.trace(EventKind::AckSend {
        ack_no: ack_seq,
        ack_seq: ack_no.raw(),
    });
    // udt-lint: allow(as-cast) — buffer capacity fits u32
    sh.trace(EventKind::BufLevel {
        side: BufSide::Rcv,
        used: held,
        cap: cap_pkts as u32,
    });
    sh.send_ctrl(ControlBody::Ack { ack_seq, data }, now);
}

/// Returns the NAK base interval so the caller can pace the next check.
fn resend_naks(sh: &Shared, now: Nanos) -> Nanos {
    let mut r = sh.rcv.lock();
    let base = nak_base_interval(r.rtt.rtt_us(), r.rtt.rtt_var_us());
    if r.loss.is_empty() {
        return base;
    }
    let due = {
        let _l = sh.instr.scope(Category::Loss);
        r.loss.due_reports(now, base, 64)
    };
    drop(r);
    if !due.is_empty() {
        ConnStats::inc(&sh.stats.naks_sent, 1);
        sh.trace(EventKind::TimerFire {
            timer: TimerKind::Nak,
            count: 1,
        });
        // udt-lint: allow(as-cast) — due is capped at 64 ranges above
        sh.trace(EventKind::NakSend {
            first_lo: due[0].from.raw(),
            first_hi: due[0].to.raw(),
            ranges: due.len() as u32,
        });
        sh.send_ctrl(ControlBody::Nak(due), now);
    }
    base
}

fn check_exp(sh: &Shared, now: Nanos) {
    let mut s = sh.snd.lock();
    let has_outstanding = s.snd_una.lt_seq(s.next_new);
    let interval = s.exp.interval(s.rtt.rtt_us(), s.rtt.rtt_var_us());
    if now.since(s.last_rsp) > interval {
        s.exp.on_expired();
        ConnStats::inc(&sh.stats.exp_timeouts, 1);
        sh.trace(EventKind::TimerFire {
            timer: TimerKind::Exp,
            count: s.exp.count(),
        });
        // Expiration count alone is not evidence of death (see
        // `broken_silence_floor`): both ceilings must be crossed. A *live*
        // idle peer keep-alives back and the count hovers near 1; if the
        // peer stays silent through the entire backoff ladder, it is gone
        // — without this, one side dying leaves the other's recv()
        // hanging forever.
        let silent_long_enough = now.since(s.last_rsp)
            >= Nanos::from_secs_f64(sh.cfg.broken_silence_floor.as_secs_f64());
        if s.exp.count() >= sh.cfg.max_exp_count && silent_long_enough {
            drop(s);
            sh.set_state(State::Broken);
            return;
        }
        if has_outstanding {
            // Data in flight and the peer is silent: cut the rate. The
            // progress check below re-queues the data itself.
            let ctx = sh.cc_ctx(&s, now);
            s.cc.on_timeout(&ctx);
        } else {
            // Idle: probe the peer (keep-alives refresh the peer's EXP
            // state just as ours is refreshed by any arrival).
            drop(s);
            sh.send_ctrl(ControlBody::KeepAlive, now);
            return;
        }
    }
    // Repair is deliberately NOT gated on the silence check above. A peer
    // can be provably alive — duplex data, keep-alives and ACK2s all
    // refresh `last_rsp` — while still missing our newest packets: a lost
    // *tail* shows the receiver no gap, so it never NAKs, and once the
    // ACK2 handshake completes it stops repeating its last ACK. If nothing
    // new has been acknowledged for an (un-escalated) EXP interval and no
    // NAK-driven repair is pending, re-queue everything outstanding.
    if has_outstanding
        && s.loss.is_empty()
        && now.since(s.last_progress) > ExpBackoff::new().interval(s.rtt.rtt_us(), s.rtt.rtt_var_us())
    {
        let (from, to) = (s.snd_una, s.next_new.prev());
        s.loss.insert(from, to);
        s.last_progress = now; // pace the next re-queue
        debug_check_snd(&s);
        let wake = std::mem::take(&mut s.parked);
        drop(s);
        if wake {
            sh.snd_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_proto::{SEQ_MAX, SEQ_TH};

    fn sq(v: u32) -> SeqNo {
        SeqNo::new(v)
    }

    /// Arrival speed after 40 flushes of 16 packets, 100 us apart, each cut
    /// into trains of `first` and `16 - first` packets stamped 18 us apart
    /// (the receive path runs on the first train before the sender's
    /// `sendmmsg` gets to the second), or sent as 16 single packets.
    fn speed_of_flushes(first: u32, singles: bool) -> f64 {
        let (mut h, mut arriving) = (PktTimeWindow::new(), None);
        for k in 0..40u32 {
            let t = Nanos::from_micros(u64::from(100 * k));
            if singles {
                for i in 0..16 {
                    let at = t.plus(Nanos::from_micros(2 * i));
                    note_train(&mut h, &mut arriving, (100 * k, 1), at);
                }
            } else {
                note_train(&mut h, &mut arriving, (100 * k, first), t);
                if first < 16 {
                    let at = t.plus(Nanos::from_micros(18));
                    note_train(&mut h, &mut arriving, (100 * k, 16 - first), at);
                }
            }
        }
        h.pkt_recv_speed()
    }

    #[test]
    fn arrival_speed_does_not_depend_on_where_a_flush_was_cut() {
        // 16 packets every 100 us are 160 k pkt/s wherever the probe-pair
        // cut fell (a connection's initial sequence number decides that).
        for first in [1, 4, 8, 13, 15, 16] {
            let speed = speed_of_flushes(first, false);
            assert!((speed - 160_000.0).abs() < 1.0, "cut at {first}: {speed}");
        }
        // Single packets are measured packet to packet even when they share
        // a sender timestamp: 15 spacings of 2 us a flush, and one pause.
        let speed = speed_of_flushes(0, true);
        assert!((speed - 500_000.0).abs() < 1.0, "singles: {speed}");
    }

    #[test]
    fn the_wait_for_an_ack_is_one_outlier_among_flushes() {
        // Slow start: windows of 4, then 8 flushes back to back (40 us),
        // one ACK clock (10 ms) apart. Nine samples are a majority.
        let (mut h, mut arriving) = (PktTimeWindow::new(), None);
        let mut us = 0u32;
        for window in [4u32, 8] {
            for k in 0..window {
                let t = Nanos::from_micros(u64::from(us));
                note_train(&mut h, &mut arriving, (us, 11), t);
                note_train(&mut h, &mut arriving, (us, 5), t.plus(Nanos::from_micros(18)));
                us += if k + 1 == window { 10_000 } else { 40 };
            }
        }
        assert!((h.pkt_recv_speed() - 400_000.0).abs() < 1.0);
    }

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

    #[test]
    fn nak_clamp_passes_live_ranges_through() {
        assert_eq!(
            clamp_nak_range(sq(10), sq(14), sq(5), sq(20)),
            Some((sq(10), sq(14)))
        );
        // Single-packet range at each edge of the live span.
        assert_eq!(
            clamp_nak_range(sq(5), sq(5), sq(5), sq(20)),
            Some((sq(5), sq(5)))
        );
        assert_eq!(
            clamp_nak_range(sq(19), sq(19), sq(5), sq(20)),
            Some((sq(19), sq(19)))
        );
    }

    #[test]
    fn nak_clamp_trims_stale_low_end() {
        // The NAK raced an ACK: its low end is already acknowledged.
        assert_eq!(
            clamp_nak_range(sq(2), sq(8), sq(5), sq(20)),
            Some((sq(5), sq(8)))
        );
    }

    #[test]
    fn nak_clamp_rejects_data_never_sent() {
        // High end past the send frontier: trimmed to the frontier.
        assert_eq!(
            clamp_nak_range(sq(18), sq(30), sq(5), sq(20)),
            Some((sq(18), sq(19)))
        );
        // Entirely past the frontier: fabricated, dropped outright.
        assert_eq!(clamp_nak_range(sq(25), sq(30), sq(5), sq(20)), None);
        // Entirely below the ACK point: stale, dropped outright.
        assert_eq!(clamp_nak_range(sq(1), sq(4), sq(5), sq(20)), None);
        // Nothing in flight at all.
        assert_eq!(clamp_nak_range(sq(5), sq(6), sq(5), sq(5)), None);
    }

    #[test]
    fn nak_clamp_is_wrap_safe() {
        // Live span straddles the 2^31 wrap: [SEQ_MAX - 1, 3).
        let una = sq(SEQ_MAX - 1);
        let frontier = sq(3);
        assert_eq!(
            clamp_nak_range(sq(SEQ_MAX), sq(1), una, frontier),
            Some((sq(SEQ_MAX), sq(1)))
        );
        // Low end pre-wrap and already acknowledged, high end post-wrap.
        assert_eq!(
            clamp_nak_range(sq(SEQ_MAX - 5), sq(0), una, frontier),
            Some((una, sq(0)))
        );
        // High end past the post-wrap frontier gets trimmed back to it.
        assert_eq!(
            clamp_nak_range(sq(0), sq(100), una, frontier),
            Some((sq(0), sq(2)))
        );
        // Fabricated range on the far side of the space.
        assert_eq!(
            clamp_nak_range(sq(SEQ_TH), sq(SEQ_TH + 10), una, frontier),
            None
        );
    }
}
