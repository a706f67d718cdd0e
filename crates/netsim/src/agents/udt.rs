//! UDT endpoints for the simulator.
//!
//! These agents are hosts of the same protocol event core the sockets run
//! ([`udt_algo::conn`]): every ACK, NAK, ACK2, keep-alive and timer rule is
//! that module's, and the packets on the wire are real `udt-proto` types.
//! What an agent adds is what a simulated host has: pacing on the event
//! queue, packet sizes, and the application.
//!
//! Differences from the socket implementation, all of them the host's:
//!
//! * no handshake: both agents are configured with the initial sequence
//!   number (a bounded transfer ends as a socket's does, with the core's
//!   answered `Shutdown`);
//! * the application is a bulk source (optionally bounded, or fed by a
//!   payload hook) and a sink that reads everything the moment it is in
//!   order, so the receive buffer holds only what waits behind a loss;
//! * packets leave one at a time (a probe pair together), never in trains,
//!   and sending costs nothing: there is no send-cost floor on the period;
//! * the two ends of a flow are two agents. The receiving end's sending
//!   half never carries data; it is there for what every connection's has
//!   to do anyway, probing a silent peer and answering its keep-alives.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use bytes::Bytes;
use udt_algo::clock::SYN;
use udt_algo::conn::{
    opens_probe_pair, CloseCore, CoreTrace, DataVerdict, RcvCore, SndCfg, SndCore, TimerAction,
};
use udt_algo::{Nanos, RateControl, SabulCc, UdtCc, UdtCcConfig};
use udt_metrics::counters::ConnStats;
use udt_proto::ctrl::{ControlBody, ControlPacket};
use udt_proto::{DataPacket, Packet, SeqNo};
use udt_trace::{EventKind, Tracer};

use crate::packet::{FlowId, NodeId, Payload, SimPacket};
use crate::sim::{Agent, Ctx};

const TOK_SND: u64 = 1;
const TOK_TIMER: u64 = 2;

/// Wire size of a control packet with `words` 32-bit words of body.
fn ctrl_size(words: usize) -> u32 {
    16 + 4 * words as u32
}

/// Which rate controller a sender runs.
#[derive(Debug, Clone)]
pub enum CcKind {
    /// UDT's bandwidth-estimating AIMD (§3.3–§3.4).
    Udt(UdtCcConfig),
    /// SABUL's MIMD (§2.3 baseline).
    Sabul {
        /// Multiplicative gain per SYN.
        alpha: f64,
    },
}

impl Default for CcKind {
    fn default() -> CcKind {
        CcKind::Udt(UdtCcConfig::default())
    }
}

impl CcKind {
    /// The control interval this configuration runs at (the receiver's ACK
    /// clock must match the sender's rate-control clock).
    pub fn syn(&self) -> Nanos {
        match self {
            CcKind::Udt(c) => Nanos::from_micros(c.syn_us as u64),
            CcKind::Sabul { .. } => SYN,
        }
    }
}

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct UdtSenderCfg {
    /// Peer (receiver) node.
    pub dst: NodeId,
    /// Flow id (shared with the receiver agent).
    pub flow: FlowId,
    /// Packet size (wire bytes per data packet).
    pub mss: u32,
    /// Initial sequence number.
    pub init_seq: SeqNo,
    /// Rate controller.
    pub cc: CcKind,
    /// Maximum flow window (receiver buffer), packets.
    pub max_flow_win: u32,
    /// Disable the dynamic flow window (Figure 7 ablation): the sender is
    /// then limited only by rate control (plus a huge static cap).
    pub use_flow_control: bool,
    /// Total data packets to send (`None` = unlimited bulk).
    pub total_pkts: Option<u64>,
    /// When to start sending.
    pub start_at: Nanos,
}

impl UdtSenderCfg {
    /// Bulk-transfer defaults toward `dst`.
    pub fn bulk(dst: NodeId, flow: FlowId) -> UdtSenderCfg {
        UdtSenderCfg {
            dst,
            flow,
            mss: 1500,
            init_seq: SeqNo::ZERO,
            cc: CcKind::default(),
            max_flow_win: 25_600,
            use_flow_control: true,
            total_pkts: None,
            start_at: Nanos::ZERO,
        }
    }
}

/// How many packets of a transfer that started at `init_seq` precede `seq`.
fn pkts_before(init_seq: SeqNo, seq: SeqNo) -> u64 {
    init_seq.offset_to(seq).max(0) as u64
}

/// What both agents do to put a control packet on the simulated wire.
fn send_ctrl(ctx: &mut Ctx, to: NodeId, flow: FlowId, body: ControlBody, size: u32) {
    let ctrl = ControlPacket {
        timestamp_us: ctx.now.wire_micros(),
        conn_id: flow.0 as u32,
        body,
    };
    ctx.send(SimPacket::new(
        ctx.node,
        to,
        flow,
        size,
        Payload::Udt(Packet::Control(ctrl)),
    ));
}

/// The sending endpoint.
pub struct UdtSender {
    cfg: UdtSenderCfg,
    core: SndCore,
    close: CloseCore,
    /// When the pending `TOK_SND` is meant to fire (earlier ones are stale).
    snd_deadline: Nanos,
    /// No `TOK_SND` is pending: nothing was sendable. An ACK, a NAK or a
    /// re-queue restarts the sender (the socket's sender parks on a condvar
    /// the same three events notify).
    parked: bool,
    /// When anything was last sent (a keep-alive is answered only after a
    /// silence of ours).
    last_sent: Nanos,
    /// The `Shutdown` exchange is over, or the peer was declared gone.
    finished: bool,
    /// Where `DataSend` goes (the core emits the rest through a clone) and
    /// the counters both fold into; the tracer is disabled by default.
    trace: CoreTrace,
    /// Optional payload source for byte-carrying flows (multipath bonding).
    /// Called with `(sim now ns, seq, retx)`; for new data a `None` means
    /// "nothing to send yet" and the sequence number is *not* consumed.
    payload_fn: Option<PayloadFn>,
}

/// Payload source hook for byte-carrying simulated flows: called with
/// `(sim now ns, seq, retx)`; returning `None` for new data defers the
/// packet without consuming the sequence number.
pub type PayloadFn = Box<dyn FnMut(u64, SeqNo, bool) -> Option<Bytes>>;

/// Payload sink hook: observes `(sim now ns, seq, payload)` once per
/// accepted data packet, in arrival order.
pub type PayloadSink = Box<dyn FnMut(u64, SeqNo, &Bytes)>;

impl UdtSender {
    /// New sender.
    pub fn new(cfg: UdtSenderCfg) -> UdtSender {
        let trace = CoreTrace::default();
        UdtSender {
            core: Self::core_for(&cfg, trace.clone()),
            close: CloseCore::new(trace.clone()),
            snd_deadline: Nanos::ZERO,
            parked: false,
            last_sent: Nanos::ZERO,
            finished: false,
            trace,
            payload_fn: None,
            cfg,
        }
    }

    /// The sending half the experiment configured; the liveness thresholds
    /// are the reference ones.
    fn core_for(cfg: &UdtSenderCfg, trace: CoreTrace) -> SndCore {
        let cc: Box<dyn RateControl> = match &cfg.cc {
            CcKind::Udt(c) => Box::new(UdtCc::new(cfg.init_seq, c.clone())),
            CcKind::Sabul { alpha } => Box::new(SabulCc::new(cfg.init_seq, *alpha)),
        };
        let core = SndCfg {
            flow_control: cfg.use_flow_control,
            trace,
            ..SndCfg::new(
                cfg.init_seq,
                cc,
                cfg.mss,
                (cfg.max_flow_win as usize * 2).max(1024),
            )
        };
        SndCore::new(core, cfg.start_at)
    }

    /// Attach a tracer (builder style, so config structs stay plain
    /// literals). Events are stamped with simulated time and tagged with
    /// the flow id, matching the real-socket trace schema.
    #[must_use]
    pub fn with_tracer(mut self, t: Tracer) -> UdtSender {
        self.trace = CoreTrace::new(t, self.cfg.flow.0 as u32, 0);
        self.core = Self::core_for(&self.cfg, self.trace.clone());
        self.close = CloseCore::new(self.trace.clone());
        self
    }

    /// Attach a payload source, turning the size-only simulated flow into a
    /// byte-carrying one. On first transmission the hook is asked *before*
    /// the sequence number is consumed (`retx = false`); returning `None`
    /// defers the packet (the sender polls again next SYN). On
    /// retransmission (`retx = true`) the hook must return the bytes it
    /// handed out for that sequence number originally.
    #[must_use]
    pub fn with_payload_fn(mut self, f: PayloadFn) -> UdtSender {
        self.payload_fn = Some(f);
        self
    }

    /// This end's counters: the fold of the events it emitted, as a socket
    /// connection's are.
    pub fn stats(&self) -> &ConnStats {
        self.trace.counters()
    }

    /// Data packets sent (first transmissions).
    pub fn sent_new(&self) -> u64 {
        ConnStats::get(&self.stats().pkts_sent)
    }

    /// Retransmissions sent.
    pub fn sent_retx(&self) -> u64 {
        ConnStats::get(&self.stats().pkts_retransmitted)
    }

    /// Current sending period (µs) — exposed for traces/ablations.
    pub fn pkt_snd_period_us(&self) -> f64 {
        self.core.pkt_snd_period_us()
    }

    /// `true` once every packet of a bounded transfer has been acknowledged.
    pub fn transfer_complete(&self) -> bool {
        let acked = pkts_before(self.cfg.init_seq, self.core.snd_una());
        self.cfg.total_pkts.is_some_and(|total| acked >= total)
    }

    fn ctrl(&mut self, ctx: &mut Ctx, body: ControlBody, size: u32) {
        self.last_sent = ctx.now;
        send_ctrl(ctx, self.cfg.dst, self.cfg.flow, body, size);
    }

    /// Send what the close machine asked for; once it is done, so are we.
    fn close_step(&mut self, ctx: &mut Ctx, send: Option<ControlBody>) {
        if let Some(body) = send {
            self.ctrl(ctx, body, ctrl_size(0));
        }
        self.finished |= self.close.is_done();
    }

    /// Data still flows: neither end has closed and the peer is there.
    fn open(&self) -> bool {
        !self.finished && self.close.is_open()
    }

    /// Send the packet the core picks next. `Err` when there is none, and
    /// whether that is because a payload source had nothing to give.
    fn send_one(&mut self, ctx: &mut Ctx) -> Result<SeqNo, bool> {
        let now = ctx.now;
        let (cfg, source) = (&self.cfg, &mut self.payload_fn);
        let (mut fresh, mut source_empty) = (None, false);
        let picked = self.core.next(|seq| match source {
            // Ask the payload source *before* the sequence number is
            // consumed: with nothing to send the flow just idles.
            Some(f) => {
                fresh = f(now.0, seq, false);
                source_empty = fresh.is_none();
                !source_empty
            }
            None => {
                let numbered = pkts_before(cfg.init_seq, seq);
                cfg.total_pkts.is_none_or(|total| numbered < total)
            }
        });
        let (seq, retx) = picked.ok_or(source_empty)?;
        let payload = if retx {
            source.as_mut().and_then(|f| f(now.0, seq, true))
        } else {
            fresh
        };
        let pkt = Packet::Data(DataPacket {
            seq,
            timestamp_us: now.wire_micros(),
            conn_id: cfg.flow.0 as u32,
            payload: payload.unwrap_or_default(), // empty without a source
        });
        ctx.send(SimPacket::new(
            ctx.node,
            cfg.dst,
            cfg.flow,
            cfg.mss,
            Payload::Udt(pkt),
        ));
        let sent = EventKind::DataSend {
            seq: seq.raw(),
            bytes: cfg.mss,
            retx,
        };
        self.trace.emit_at(now.0, sent);
        self.last_sent = now;
        Ok(seq)
    }

    fn schedule_snd(&mut self, ctx: &mut Ctx, delay: Nanos) {
        self.parked = false;
        self.snd_deadline = ctx.now.plus(delay);
        ctx.timer_at(self.snd_deadline, TOK_SND);
    }

    /// Window space, a repair or new feedback: restart a parked sender.
    fn wake(&mut self, ctx: &mut Ctx) {
        if self.parked && self.open() {
            self.schedule_snd(ctx, Nanos::ZERO);
        }
    }

    fn on_snd_timer(&mut self, ctx: &mut Ctx) {
        if ctx.now < self.snd_deadline || !self.open() {
            return; // stale timer
        }
        let syn = self.cfg.cc.syn();
        if self.core.take_freeze() {
            // §3.3: freeze for one SYN after a decrease.
            self.schedule_snd(ctx, syn);
            return;
        }
        match self.send_one(ctx) {
            Ok(seq) => {
                if opens_probe_pair(seq) {
                    let _ = self.send_one(ctx);
                }
                let period = Nanos::from_secs_f64(self.core.pkt_snd_period_us() / 1e6);
                self.schedule_snd(ctx, period.max(Nanos(1)));
            }
            Err(_) if self.transfer_complete() => {
                // As a socket's `close()`: everything is acknowledged.
                let first = self.close.close(ctx.now, self.core.rtt_bound());
                self.close_step(ctx, first);
                ctx.timer_at(self.close.next_deadline(), TOK_TIMER);
            }
            // The payload source has nothing yet: poll it again shortly.
            Err(true) => self.schedule_snd(ctx, syn),
            // Window-limited or out of data.
            Err(false) => self.parked = true,
        }
    }
}

impl Agent for UdtSender {
    fn start(&mut self, ctx: &mut Ctx) {
        self.snd_deadline = self.cfg.start_at;
        ctx.timer_at(self.snd_deadline, TOK_SND);
        ctx.timer_at(self.core.next_deadline(), TOK_TIMER);
    }

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut Ctx) {
        let Payload::Udt(Packet::Control(ctrl)) = pkt.payload else {
            return;
        };
        if let ControlBody::Shutdown { answer } = ctrl.body {
            // Heard in every state: a peer whose answer was lost asks again.
            let reply = self.close.on_shutdown(ctx.now, answer);
            return self.close_step(ctx, reply);
        }
        if !self.open() {
            return;
        }
        self.core.on_arrival(ctx.now);
        match ctrl.body {
            ControlBody::Ack { ack_seq, data } => {
                if let Some(acked) = self.core.on_ack(ctx.now, ack_seq, &data, 0.0) {
                    if acked.ack2 {
                        self.ctrl(ctx, ControlBody::Ack2 { ack_seq }, ctrl_size(4));
                    }
                    self.wake(ctx);
                }
            }
            ControlBody::Nak(mut ranges) => {
                self.core.on_nak(ctx.now, &mut ranges, 0.0);
                self.wake(ctx);
            }
            ControlBody::KeepAlive => {
                if self.core.on_keepalive(ctx.now, self.last_sent) {
                    self.ctrl(ctx, ControlBody::KeepAlive, ctrl_size(0));
                }
            }
            ControlBody::Ack2 { .. } | ControlBody::Handshake(_) | ControlBody::Shutdown { .. } => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        match token {
            TOK_SND => self.on_snd_timer(ctx),
            TOK_TIMER if !self.finished && !self.close.is_open() => {
                // Our `Shutdown` is unanswered: the repeats are all there is.
                let repeat = self.close.on_timer(ctx.now);
                self.close_step(ctx, repeat);
                if !self.finished {
                    ctx.timer_at(self.close.next_deadline(), TOK_TIMER);
                }
            }
            TOK_TIMER if !self.finished => {
                match self.core.on_timer(ctx.now, 0.0) {
                    TimerAction::None => {}
                    TimerAction::KeepAlive => self.ctrl(ctx, ControlBody::KeepAlive, ctrl_size(0)),
                    TimerAction::Requeued => self.wake(ctx),
                    TimerAction::Broken => self.finished = true,
                }
                ctx.timer_at(self.core.next_deadline(), TOK_TIMER);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct UdtReceiverCfg {
    /// Peer (sender) node.
    pub src: NodeId,
    /// Flow id (shared with the sender agent).
    pub flow: FlowId,
    /// Packet size (must match the sender).
    pub mss: u32,
    /// Initial sequence number (must match the sender).
    pub init_seq: SeqNo,
    /// Receiver buffer capacity in packets (flow-control input).
    pub buffer_pkts: u32,
    /// ACK / rate-control interval (must match the sender's SYN).
    pub syn: Nanos,
}

impl UdtReceiverCfg {
    /// Defaults mirroring [`UdtSenderCfg::bulk`].
    pub fn bulk(src: NodeId, flow: FlowId) -> UdtReceiverCfg {
        UdtReceiverCfg {
            src,
            flow,
            mss: 1500,
            init_seq: SeqNo::ZERO,
            buffer_pkts: 25_600,
            syn: SYN,
        }
    }
}

/// The receiving endpoint.
pub struct UdtReceiver {
    cfg: UdtReceiverCfg,
    core: RcvCore,
    /// This end's sending half: it carries no data, only the EXP timer and
    /// the keep-alive answer.
    live: SndCore,
    /// Answers the sender's `Shutdown`s; this end never closes first.
    close: CloseCore,
    /// First never-delivered sequence number (delivery frontier).
    rcv_next: SeqNo,
    /// What both cores emit into: this end's counters and its tracer.
    trace: CoreTrace,
    last_sent: Nanos,
    /// The sender shut down, or went silent for good: timers stop.
    closed: bool,
    /// Optional payload sink for byte-carrying flows (multipath bonding).
    /// Called once per *accepted* packet (first copies only, in arrival
    /// order) with `(sim now ns, seq, payload)`.
    sink_fn: Option<PayloadSink>,
}

impl UdtReceiver {
    /// New receiver.
    pub fn new(cfg: UdtReceiverCfg) -> UdtReceiver {
        let trace = CoreTrace::default();
        let (core, live) = Self::cores_for(&cfg, &trace);
        UdtReceiver {
            core,
            live,
            close: CloseCore::new(trace.clone()),
            rcv_next: cfg.init_seq,
            trace,
            last_sent: Nanos::ZERO,
            closed: false,
            sink_fn: None,
            cfg,
        }
    }

    fn cores_for(cfg: &UdtReceiverCfg, trace: &CoreTrace) -> (RcvCore, SndCore) {
        let loss_cap = (cfg.buffer_pkts as usize * 2).max(1024);
        let cc: Box<dyn RateControl> = Box::new(UdtCc::with_defaults(cfg.init_seq));
        (
            RcvCore::new(
                cfg.init_seq,
                cfg.buffer_pkts,
                loss_cap,
                cfg.syn,
                Nanos::ZERO,
                trace.clone(),
            ),
            // Nothing is ever queued on this half's loss list.
            SndCore::new(
                SndCfg {
                    trace: trace.clone(),
                    ..SndCfg::new(cfg.init_seq, cc, cfg.mss, 2)
                },
                Nanos::ZERO,
            ),
        )
    }

    /// Attach a tracer (builder style; see [`UdtSender::with_tracer`]).
    #[must_use]
    pub fn with_tracer(mut self, t: Tracer) -> UdtReceiver {
        self.trace = CoreTrace::new(t, self.cfg.flow.0 as u32, 0);
        (self.core, self.live) = Self::cores_for(&self.cfg, &self.trace);
        self.close = CloseCore::new(self.trace.clone());
        self
    }

    /// Attach a payload sink; see [`UdtSender::with_payload_fn`] for the
    /// sending side. The sink observes each accepted packet exactly once,
    /// in arrival (not sequence) order — reordering is the sink's problem.
    #[must_use]
    pub fn with_payload_sink(mut self, f: PayloadSink) -> UdtReceiver {
        self.sink_fn = Some(f);
        self
    }

    /// Per-event loss sizes observed (Figure 8).
    pub fn loss_events(&self) -> &[u32] {
        self.core.loss_events()
    }

    /// This end's counters; see [`UdtSender::stats`].
    pub fn stats(&self) -> &ConnStats {
        self.trace.counters()
    }

    /// Data packets accepted (first copies).
    pub fn received_pkts(&self) -> u64 {
        ConnStats::get(&self.stats().pkts_received)
    }

    /// Duplicate data packets discarded.
    pub fn duplicate_pkts(&self) -> u64 {
        ConnStats::get(&self.stats().pkts_duplicate)
    }

    /// Current smoothed RTT estimate (µs).
    pub fn rtt_us(&self) -> f64 {
        self.core.rtt_us()
    }

    fn ctrl(&mut self, ctx: &mut Ctx, body: ControlBody, size: u32) {
        self.last_sent = ctx.now;
        send_ctrl(ctx, self.cfg.src, self.cfg.flow, body, size);
    }

    fn on_data(&mut self, d: &DataPacket, ctx: &mut Ctx) {
        // Every packet has its own arrival time: a train of one.
        self.core.on_arrivals([(d.seq, d.timestamp_us, ctx.now)]);
        // The application reads as soon as data is in order, so the buffer
        // starts at the delivery frontier.
        let verdict = self.core.on_data(
            ctx.now,
            d.seq,
            self.cfg.mss,
            self.rcv_next,
            self.cfg.buffer_pkts,
        );
        match verdict {
            DataVerdict::Implausible | DataVerdict::Duplicate => return,
            DataVerdict::New { nak: Some(gap) } => {
                self.ctrl(ctx, ControlBody::Nak(vec![gap]), ctrl_size(2));
            }
            DataVerdict::New { nak: None } | DataVerdict::Recovered => {}
        }
        if let Some(sink) = self.sink_fn.as_mut() {
            sink(ctx.now.0, d.seq, &d.payload);
        }
        // Advance the delivery frontier and account application goodput.
        let frontier = self.core.frontier();
        if self.rcv_next.lt_seq(frontier) {
            let pkts = self.rcv_next.offset_to(frontier) as u64;
            ctx.deliver(self.cfg.flow, pkts * u64::from(self.cfg.mss));
            self.rcv_next = frontier;
        }
    }
}

impl Agent for UdtReceiver {
    fn start(&mut self, ctx: &mut Ctx) {
        ctx.timer_at(self.core.next_deadline(), TOK_TIMER);
    }

    fn on_packet(&mut self, pkt: SimPacket, ctx: &mut Ctx) {
        let Payload::Udt(pkt) = pkt.payload else {
            return;
        };
        if let Packet::Control(ControlPacket {
            body: ControlBody::Shutdown { answer },
            ..
        }) = pkt
        {
            // Answered every time, closed or not: the first answer may be lost.
            if let Some(reply) = self.close.on_shutdown(ctx.now, answer) {
                self.ctrl(ctx, reply, ctrl_size(0));
            }
            self.closed |= self.close.is_done();
            return;
        }
        if self.closed {
            return;
        }
        self.live.on_arrival(ctx.now);
        match pkt {
            Packet::Data(d) => self.on_data(&d, ctx),
            Packet::Control(ctrl) => match ctrl.body {
                ControlBody::Ack2 { ack_seq } => {
                    self.core.on_ack2(ctx.now, ack_seq);
                }
                ControlBody::KeepAlive => {
                    if self.live.on_keepalive(ctx.now, self.last_sent) {
                        self.ctrl(ctx, ControlBody::KeepAlive, ctrl_size(0));
                    }
                }
                ControlBody::Ack { .. }
                | ControlBody::Nak(_)
                | ControlBody::Handshake(_)
                | ControlBody::Shutdown { .. } => {}
            },
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token != TOK_TIMER || self.closed {
            return;
        }
        let out = self
            .core
            .on_timer(ctx.now, self.rcv_next, self.cfg.buffer_pkts);
        if let Some((ack_seq, data)) = out.ack {
            self.ctrl(ctx, ControlBody::Ack { ack_seq, data }, ctrl_size(6));
        }
        if let Some(due) = out.nak {
            let size = ctrl_size(2 * due.len());
            self.ctrl(ctx, ControlBody::Nak(due), size);
        }
        match self.live.on_timer(ctx.now, 0.0) {
            TimerAction::KeepAlive => self.ctrl(ctx, ControlBody::KeepAlive, ctrl_size(0)),
            TimerAction::Broken => {
                self.closed = true;
                return;
            }
            TimerAction::None | TimerAction::Requeued => {}
        }
        let next = self.core.next_deadline().min(self.live.next_deadline());
        ctx.timer_at(next, TOK_TIMER);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Convenience: attach a UDT sender/receiver pair for one flow.
pub fn attach_udt_flow(
    sim: &mut crate::sim::Simulator,
    src: NodeId,
    dst: NodeId,
    snd_cfg: UdtSenderCfg,
) -> (crate::packet::AgentId, crate::packet::AgentId) {
    attach_udt_flow_traced(sim, src, dst, snd_cfg, &Tracer::disabled())
}

/// Like [`attach_udt_flow`], with both endpoints emitting into `tracer`.
/// Use a tracer built over [`crate::sim::Simulator::trace_clock`] so any
/// out-of-band emits share the simulated timeline; the agents themselves
/// always stamp events with the event-loop clock.
pub fn attach_udt_flow_traced(
    sim: &mut crate::sim::Simulator,
    src: NodeId,
    dst: NodeId,
    snd_cfg: UdtSenderCfg,
    tracer: &Tracer,
) -> (crate::packet::AgentId, crate::packet::AgentId) {
    let rcv_cfg = UdtReceiverCfg {
        src,
        flow: snd_cfg.flow,
        mss: snd_cfg.mss,
        init_seq: snd_cfg.init_seq,
        buffer_pkts: snd_cfg.max_flow_win,
        syn: snd_cfg.cc.syn(),
    };
    let s = sim.add_agent(
        src,
        Box::new(UdtSender::new(snd_cfg).with_tracer(tracer.clone())),
    );
    let r = sim.add_agent(
        dst,
        Box::new(UdtReceiver::new(rcv_cfg).with_tracer(tracer.clone())),
    );
    (s, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{dumbbell, paper_queue_cap, DumbbellCfg};

    fn run_single_flow(rate_bps: f64, one_way_ms: u64, secs: u64) -> (f64, u64, u64) {
        let rtt = Nanos::from_millis(2 * one_way_ms);
        let mut d = dumbbell(DumbbellCfg {
            flows: 1,
            rate_bps,
            one_way_delay: Nanos::from_millis(one_way_ms),
            queue_cap: paper_queue_cap(rate_bps, rtt, 1500),
        });
        let f = d.sim.add_flow();
        let mut cfg = UdtSenderCfg::bulk(d.sinks[0], f);
        cfg.max_flow_win = 100_000;
        let (s, r) = attach_udt_flow(&mut d.sim, d.sources[0], d.sinks[0], cfg);
        d.sim.run_until(Nanos::from_secs(secs));
        let thr = d.sim.delivered(f) as f64 * 8.0 / secs as f64;
        let snd = d.sim.agent_as::<UdtSender>(s);
        let rcv = d.sim.agent_as::<UdtReceiver>(r);
        (thr, snd.sent_new() + snd.sent_retx(), rcv.received_pkts())
    }

    #[test]
    fn single_flow_short_rtt_regime() {
        // At 2 ms RTT the constant 10 ms SYN reacts once per ~5 RTTs and
        // each post-decrease freeze outlasts the shallow max(100,BDP)
        // queue — the short-RTT band the paper concedes to TCP (§3.7,
        // Figure 4's 1–10 ms exception). Expect solid but not full
        // utilization.
        let (thr, _, _) = run_single_flow(1e8, 1, 10);
        assert!(
            thr > 0.55e8,
            "UDT collapsed on a 100 Mb/s, 2 ms RTT link; got {:.1} Mb/s",
            thr / 1e6
        );
    }

    #[test]
    fn single_flow_fills_100mbps_long_rtt() {
        let (thr, _, _) = run_single_flow(1e8, 50, 20);
        assert!(
            thr > 0.80e8,
            "UDT should fill a 100 Mb/s, 100 ms RTT link; got {:.1} Mb/s",
            thr / 1e6
        );
    }

    #[test]
    fn bounded_transfer_is_reliable_under_loss() {
        // Small queue → forced drops; every packet must still arrive
        // exactly once at the application frontier.
        let mut d = dumbbell(DumbbellCfg {
            flows: 1,
            rate_bps: 1e7,
            one_way_delay: Nanos::from_millis(5),
            queue_cap: 10,
        });
        let f = d.sim.add_flow();
        let total = 5_000u64;
        let mut cfg = UdtSenderCfg::bulk(d.sinks[0], f);
        cfg.total_pkts = Some(total);
        let (s, r) = attach_udt_flow(&mut d.sim, d.sources[0], d.sinks[0], cfg);
        d.sim.run_until(Nanos::from_secs(60));
        let snd = d.sim.agent_as::<UdtSender>(s);
        assert!(
            snd.transfer_complete(),
            "transfer did not complete: sent_new={} retx={}",
            snd.sent_new(),
            snd.sent_retx()
        );
        assert_eq!(d.sim.delivered(f), total * 1500);
        let rcv = d.sim.agent_as::<UdtReceiver>(r);
        assert_eq!(rcv.received_pkts(), total);
        // The transfer ended as a socket's does: one answered `Shutdown`.
        assert!(snd.finished && snd.close.is_done() && rcv.closed);
        assert_eq!(ConnStats::get(&snd.stats().shutdown_repeats), 0);
        assert!(
            !rcv.loss_events().is_empty(),
            "queue of 10 should have produced loss events"
        );
    }

    #[test]
    fn two_flows_share_fairly() {
        let rate = 1e8;
        let rtt = Nanos::from_millis(20);
        let mut d = dumbbell(DumbbellCfg {
            flows: 2,
            rate_bps: rate,
            one_way_delay: Nanos::from_millis(10),
            queue_cap: paper_queue_cap(rate, rtt, 1500),
        });
        let mut flows = Vec::new();
        for i in 0..2 {
            let f = d.sim.add_flow();
            flows.push(f);
            let mut cfg = UdtSenderCfg::bulk(d.sinks[i], f);
            // Stagger start to break symmetry.
            cfg.start_at = Nanos::from_secs(i as u64 * 2);
            attach_udt_flow(&mut d.sim, d.sources[i], d.sinks[i], cfg);
        }
        d.sim.run_until(Nanos::from_secs(40));
        // Compare over the shared interval (both active from t=4s).
        let t1 = d.sim.delivered(flows[0]) as f64;
        let t2 = d.sim.delivered(flows[1]) as f64;
        let ratio = t1.max(t2) / t1.min(t2).max(1.0);
        assert!(
            ratio < 1.6,
            "flows should converge to a fair share; ratio={ratio:.2} ({t1} vs {t2})"
        );
        let total = (t1 + t2) * 8.0 / 40.0;
        assert!(total > 0.8 * rate, "aggregate {total:.2e} too low");
    }

    #[test]
    fn traced_flow_emits_schema_events_on_sim_timeline() {
        let mut d = dumbbell(DumbbellCfg {
            flows: 1,
            rate_bps: 1e7,
            one_way_delay: Nanos::from_millis(5),
            queue_cap: 10, // force drops so loss/NAK events appear
        });
        let f = d.sim.add_flow();
        let tracer = Tracer::with_clock(1 << 14, d.sim.trace_clock());
        let mut cfg = UdtSenderCfg::bulk(d.sinks[0], f);
        cfg.total_pkts = Some(2_000);
        attach_udt_flow_traced(&mut d.sim, d.sources[0], d.sinks[0], cfg, &tracer);
        d.sim.run_until(Nanos::from_secs(30));

        let events = tracer.snapshot();
        assert!(!events.is_empty(), "traced run produced no events");
        // Timestamps are simulated time: monotone non-decreasing (the ring
        // preserves emit order) and bounded by the run horizon.
        let mut prev = 0;
        for ev in &events {
            assert!(ev.t_ns >= prev, "timeline goes backwards");
            assert!(ev.t_ns <= Nanos::from_secs(30).0);
            assert_eq!(ev.conn, f.0 as u32);
            prev = ev.t_ns;
        }
        // Both endpoints and the loss machinery left their marks.
        let has = |name: &str| events.iter().any(|e| e.kind.name() == name);
        for name in [
            "data_send",
            "data_recv",
            "ack_send",
            "ack_recv",
            "loss",
            "nak_send",
            "nak_recv",
            "rate",
        ] {
            assert!(has(name), "missing {name} events");
        }
        // Every event round-trips through the shared JSONL codec.
        for ev in &events {
            let line = udt_trace::json::encode(ev);
            let back = udt_trace::json::parse_line(&line).expect("codec round-trip");
            assert_eq!(back, *ev);
        }
    }
}
