//! The sending half of a connection ([`SndCore`]).

// Numeric casts in this module are deliberate: bounded protocol arithmetic
// whose ranges are argued at the cast sites. Sequence/timestamp casts are
// separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use udt_proto::ctrl::AckData;
use udt_proto::{SeqNo, SeqRange};
use udt_trace::{DropReason, EventKind, TimerKind};

use super::CoreTrace;
use crate::clock::Nanos;
use crate::losslist::SndLossList;
use crate::rate::{CcContext, RateControl};
use crate::rtt::RttEstimator;
use crate::timerctl::{ExpBackoff, BROKEN_SILENCE_FLOOR, MAX_EXP_COUNT};
use crate::PROBE_INTERVAL;

/// Window assumed until the first ACK advertises one (UDT's initial 16).
const INITIAL_PEER_WINDOW: u32 = 16;

/// What a host decides once per connection about its sending half.
pub struct SndCfg<C: ?Sized = dyn RateControl> {
    /// First data sequence number.
    pub init_seq: SeqNo,
    /// The rate controller.
    pub cc: Box<C>,
    /// Wire bytes per full data packet (rate-control input).
    pub mss: u32,
    /// Loss-list capacity, nodes.
    pub loss_cap: usize,
    /// Bound packets in flight by `min(cwnd, peer window)` (§3.2). `false`
    /// is the Figure 7 ablation: rate control alone.
    pub flow_control: bool,
    /// EXP expirations before the peer may be declared gone, and
    pub max_exp_count: u32,
    /// how long it must also have been silent.
    pub broken_silence_floor: Nanos,
    /// Trace sink.
    pub trace: CoreTrace,
}

impl<C: ?Sized> SndCfg<C> {
    /// Flow control on, the reference liveness thresholds, no tracing.
    pub fn new(init_seq: SeqNo, cc: Box<C>, mss: u32, loss_cap: usize) -> SndCfg<C> {
        SndCfg {
            init_seq,
            cc,
            mss,
            loss_cap,
            flow_control: true,
            max_exp_count: MAX_EXP_COUNT,
            broken_silence_floor: BROKEN_SILENCE_FLOOR,
            trace: CoreTrace::default(),
        }
    }
}

/// What [`SndCore::on_ack`] did with an acceptable ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acked {
    /// Packets newly acknowledged: release them from the send buffer.
    pub pkts: u32,
    /// A full ACK: answer it with an ACK2 carrying its number.
    pub ack2: bool,
}

/// What [`SndCore::on_timer`] leaves the host to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerAction {
    /// Nothing.
    None,
    /// Idle and the peer is silent: send a keep-alive.
    KeepAlive,
    /// Everything unacknowledged was put back on the loss list: wake the
    /// sender.
    Requeued,
    /// The peer stayed silent through the whole ladder: it is gone.
    Broken,
}

/// Sender-side protocol state. Hosts run it over any boxed rate controller
/// (the default); the model checker names a concrete, clonable one.
#[derive(Clone)]
pub struct SndCore<C: ?Sized = dyn RateControl> {
    loss: SndLossList,
    cc: Box<C>,
    rtt: RttEstimator,
    /// Window advertised by the peer in ACKs (packets).
    peer_window: u32,
    /// Smoothed link-capacity estimate from ACKs, pkts/s.
    bandwidth_pps: f64,
    /// Smoothed arrival-speed report from ACKs, pkts/s.
    recv_rate_pps: f64,
    snd_una: SeqNo,
    next_new: SeqNo,
    curr_seq: SeqNo,
    exp: ExpBackoff,
    last_rsp: Nanos,
    /// Last time `snd_una` advanced, a repair was queued, or data went out
    /// on an idle connection. Liveness (`last_rsp`) and progress are
    /// distinct: a duplex peer resets `last_rsp` constantly while our tail
    /// may still be lost.
    last_progress: Nanos,
    /// Nothing was outstanding at the last timer tick.
    idle: bool,
    mss: u32,
    flow_control: bool,
    max_exp_count: u32,
    broken_silence_floor: Nanos,
    trace: CoreTrace,
}

/// §3.4: every `PROBE_INTERVAL`-th packet opens a probe pair. Whatever a host
/// sends next goes out with it, back to back, not a sending period later.
pub fn opens_probe_pair(seq: SeqNo) -> bool {
    seq.raw().is_multiple_of(PROBE_INTERVAL)
}

/// Both rate reports in an ACK are smoothed 7:1, seeded by the first sample.
fn smooth(old: f64, new: u32) -> f64 {
    let new = f64::from(new);
    if old > 0.0 {
        (old * 7.0 + new) / 8.0
    } else {
        new
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
pub(super) fn clamp_nak_range(r: SeqRange, snd_una: SeqNo, next_new: SeqNo) -> Option<SeqRange> {
    let span = snd_una.offset_to(next_new); // sent-but-unacknowledged count
    if span <= 0 {
        return None; // nothing in flight: any NAK is stale or fabricated
    }
    let lo = snd_una.offset_to(r.from).max(0);
    let hi = snd_una.offset_to(r.to).min(span - 1);
    if lo > hi {
        return None; // entirely below the ACK point or past the frontier
    }
    // lo/hi proven in [0, span) above.
    Some(SeqRange::new(
        snd_una.add(lo.unsigned_abs()),
        snd_una.add(hi.unsigned_abs()),
    ))
}

impl<C: RateControl + ?Sized> SndCore<C> {
    /// A sending half that has sent nothing, on a connection established at
    /// `now`.
    pub fn new(cfg: SndCfg<C>, now: Nanos) -> SndCore<C> {
        SndCore {
            loss: SndLossList::new(cfg.loss_cap),
            cc: cfg.cc,
            rtt: RttEstimator::new(Nanos::from_millis(100)),
            peer_window: INITIAL_PEER_WINDOW,
            bandwidth_pps: 0.0,
            recv_rate_pps: 0.0,
            snd_una: cfg.init_seq,
            next_new: cfg.init_seq,
            curr_seq: cfg.init_seq.prev(),
            exp: ExpBackoff::new(),
            last_rsp: now,
            last_progress: now,
            idle: true,
            mss: cfg.mss,
            flow_control: cfg.flow_control,
            max_exp_count: cfg.max_exp_count,
            broken_silence_floor: cfg.broken_silence_floor,
            trace: cfg.trace,
        }
    }

    /// First unacknowledged sequence number.
    pub fn snd_una(&self) -> SeqNo {
        self.snd_una
    }

    /// Packets sent and not yet acknowledged.
    pub fn in_flight(&self) -> u32 {
        // `snd_una` never passes `next_new` (`check_invariants`).
        u32::try_from(self.snd_una.offset_to(self.next_new)).unwrap_or(0)
    }

    /// Smoothed RTT, microseconds.
    pub fn rtt_us(&self) -> f64 {
        self.rtt.rtt_us()
    }

    /// RTT + 4·RTTVar by this half's estimator (fed by the peer's ACKs).
    pub fn rtt_bound(&self) -> Nanos {
        self.rtt.bound()
    }

    /// Current sending period, microseconds.
    pub fn pkt_snd_period_us(&self) -> f64 {
        self.cc.pkt_snd_period_us()
    }

    /// Current congestion window, packets.
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// §3.3: `true` once after a rate decrease; the host then skips one SYN.
    pub fn take_freeze(&mut self) -> bool {
        self.cc.take_freeze()
    }

    /// Window last advertised by the peer, packets.
    pub fn peer_window(&self) -> u32 {
        self.peer_window
    }

    /// Smoothed link-capacity estimate from ACKs, pkts/s.
    pub fn bandwidth_pps(&self) -> f64 {
        self.bandwidth_pps
    }

    /// Smoothed arrival-speed report from ACKs, pkts/s.
    pub fn recv_rate_pps(&self) -> f64 {
        self.recv_rate_pps
    }

    fn cc_ctx(&self, now: Nanos, min_snd_period_us: f64) -> CcContext {
        CcContext {
            now,
            rtt_us: self.rtt.rtt_us(),
            bandwidth_pps: self.bandwidth_pps,
            recv_rate_pps: self.recv_rate_pps,
            mss: self.mss,
            // Slow start ends where the window the peer *advertises* ends.
            max_cwnd: f64::from(self.peer_window.max(INITIAL_PEER_WINDOW)),
            snd_curr_seq: self.curr_seq,
            min_snd_period_us,
        }
    }

    /// Packets the flow and congestion windows allow in flight.
    fn send_window(&self) -> u32 {
        if self.flow_control {
            (self.cc.cwnd() as u32).min(self.peer_window).max(2)
        } else {
            u32::MAX / 4
        }
    }

    /// Would [`SndCore::next`] pick something, given whether the host has
    /// data never sent?
    pub fn has_sendable(&self, new_data: bool) -> bool {
        !self.loss.is_empty() || (new_data && self.in_flight() < self.send_window())
    }

    /// The next packet to send, as `(seq, is_retransmission)`: the loss list
    /// first, then new data within the window (§4.8). `new_data` is asked
    /// only when the window admits a never-sent packet, with the number it
    /// would get, and says whether the host has one; the number is consumed
    /// only if it does.
    pub fn next(&mut self, new_data: impl FnOnce(SeqNo) -> bool) -> Option<(SeqNo, bool)> {
        if let Some(seq) = self.loss.pop_first() {
            return Some((seq, true));
        }
        let seq = self.next_new;
        if self.in_flight() >= self.send_window() || !new_data(seq) {
            return None;
        }
        self.next_new = seq.next();
        self.curr_seq = seq; // new data is by construction the largest sent
        Some((seq, false))
    }

    /// Something arrived from the peer: any sign of life resets the EXP
    /// escalation.
    pub fn on_arrival(&mut self, now: Nanos) {
        self.exp.reset();
        self.last_rsp = now;
    }

    /// An ACK arrived. `None` means it was rejected (a drop event says so)
    /// and nothing changed: an ACK may only cover data actually sent, and
    /// `rcv_next` past `next_new` is a corrupted (or hostile) packet;
    /// absorbing it would strand `snd_una` beyond the send frontier.
    pub fn on_ack(
        &mut self,
        now: Nanos,
        ack_seq: u32,
        data: &AckData,
        min_snd_period_us: f64,
    ) -> Option<Acked> {
        let ack = data.rcv_next;
        self.trace.emit_at(
            now.0,
            EventKind::AckRecv {
                ack_no: ack_seq,
                ack_seq: ack.raw(),
            },
        );
        if self.next_new.lt_seq(ack) {
            self.reject(now, ack);
            return None;
        }
        let in_flight = self.in_flight();
        if self.snd_una.lt_seq(ack) {
            self.snd_una = ack;
            self.last_progress = now;
            self.loss.remove_upto(ack.prev());
        }
        if let (Some(rtt), Some(var)) = (data.rtt_us, data.rtt_var_us) {
            self.rtt.absorb_peer(rtt, var);
            let (rtt_us, var_us) = self.rtt.wire();
            self.trace
                .emit_at(now.0, EventKind::RttUpdate { rtt_us, var_us });
        }
        if let Some(w) = data.avail_buf_pkts {
            self.peer_window = w.max(2);
        }
        if let Some(rr) = data.recv_rate_pps.filter(|&rr| rr > 0) {
            self.recv_rate_pps = smooth(self.recv_rate_pps, rr);
        }
        if let Some(bw) = data.link_cap_pps.filter(|&bw| bw > 0) {
            self.bandwidth_pps = smooth(self.bandwidth_pps, bw);
            self.trace.emit_at(
                now.0,
                EventKind::BwEstimate {
                    pps: self.bandwidth_pps,
                },
            );
        }
        let ctx = self.cc_ctx(now, min_snd_period_us);
        self.cc.on_ack(ack, &ctx);
        self.trace.emit_at(
            now.0,
            EventKind::RateUpdate {
                period_us: self.cc.pkt_snd_period_us(),
                cwnd: self.cc.cwnd(),
            },
        );
        let ack2 = !data.is_light();
        if ack2 {
            self.trace
                .emit_at(now.0, EventKind::Ack2Send { ack_no: ack_seq });
        }
        Some(Acked {
            pkts: in_flight - self.in_flight(),
            ack2,
        })
    }

    /// The peer named `seq` in a way no honest peer could: on the timeline
    /// and counted, like an implausible data packet.
    fn reject(&self, now: Nanos, seq: SeqNo) {
        let (seq, reason) = (seq.raw(), DropReason::Implausible);
        self.trace
            .emit_at(now.0, EventKind::DataDrop { seq, reason });
    }

    /// A NAK arrived: `ranges` is cut down to what of it is live
    /// (`clamp_nak_range`), and that is reported to the rate controller
    /// and queued for retransmission. The trace shows the NAK as it arrived
    /// (`nak_recv`, before the cut), and one drop event if any range was cut
    /// away whole, which no honest NAK on an in-order path is.
    pub fn on_nak(&mut self, now: Nanos, ranges: &mut Vec<SeqRange>, min_snd_period_us: f64) {
        let (first_lo, first_hi) = ranges
            .first()
            .map_or((0, 0), |r| (r.from.raw(), r.to.raw()));
        self.trace.emit_at(
            now.0,
            EventKind::NakRecv {
                first_lo,
                first_hi,
                // A NAK packet carries far fewer than 2^32 ranges.
                ranges: ranges.len() as u32,
            },
        );
        let (una, frontier) = (self.snd_una, self.next_new);
        let mut dead = None;
        ranges.retain_mut(|r| match clamp_nak_range(*r, una, frontier) {
            Some(live) => {
                *r = live;
                true
            }
            None => {
                dead.get_or_insert(r.from);
                false
            }
        });
        if let Some(seq) = dead {
            self.reject(now, seq);
        }
        if ranges.is_empty() {
            return;
        }
        let ctx = self.cc_ctx(now, min_snd_period_us);
        self.cc.on_loss(ranges, &ctx);
        for r in ranges.iter() {
            self.loss.insert(r.from, r.to);
        }
    }

    /// The EXP interval before any escalation.
    fn base_exp_interval(&self) -> Nanos {
        ExpBackoff::new().interval(self.rtt.rtt_us(), self.rtt.rtt_var_us())
    }

    /// The peer's EXP fired on an idle connection and it sent a keep-alive.
    /// Whatever arrives refreshes *our* EXP, so we may never probe in turn:
    /// unless we sent something lately (`last_sent`), answer, or the peer
    /// hears nothing until it declares us dead. The answer is itself a
    /// send, so two idle ends exchange one keep-alive each per EXP
    /// interval, not a rally.
    pub fn on_keepalive(&self, now: Nanos, last_sent: Nanos) -> bool {
        now.since(last_sent) >= self.base_exp_interval()
    }

    /// The timer tick: EXP expiry (rate cut, keep-alive, the broken
    /// verdict) and tail-loss repair. Acts from [`SndCore::next_deadline`]
    /// on; harmless earlier.
    pub fn on_timer(&mut self, now: Nanos, min_snd_period_us: f64) -> TimerAction {
        let outstanding = self.snd_una.lt_seq(self.next_new);
        // Progress is counted from when data went out, not from the last
        // ACK of an earlier exchange: the first tick that sees data on a
        // connection that was idle starts the clock.
        if !outstanding {
            self.idle = true;
        } else if self.idle {
            self.idle = false;
            self.last_progress = now;
        }
        let silence = now.since(self.last_rsp);
        if silence >= self.exp.interval(self.rtt.rtt_us(), self.rtt.rtt_var_us()) {
            self.exp.on_expired();
            self.trace.emit_at(
                now.0,
                EventKind::TimerFire {
                    timer: TimerKind::Exp,
                    count: self.exp.count(),
                },
            );
            // Expiration count alone is not evidence of death: both
            // ceilings must be crossed. A *live* idle peer keep-alives back
            // and the count hovers near 1; if the peer stays silent through
            // the entire backoff ladder, it is gone — without this, one
            // side dying leaves the other's recv() hanging forever.
            if self.exp.count() >= self.max_exp_count && silence >= self.broken_silence_floor {
                return TimerAction::Broken;
            }
            if !outstanding {
                // Idle: probe the peer (keep-alives refresh the peer's EXP
                // state just as ours is refreshed by any arrival).
                return TimerAction::KeepAlive;
            }
            // Data in flight and the peer is silent: cut the rate. The
            // progress check below re-queues the data itself.
            let ctx = self.cc_ctx(now, min_snd_period_us);
            self.cc.on_timeout(&ctx);
        }
        // Repair is deliberately NOT gated on the silence check above. A
        // peer can be provably alive — duplex data, keep-alives and ACK2s
        // all refresh `last_rsp` — while still missing our newest packets:
        // a lost *tail* shows the receiver no gap, so it never NAKs, and
        // once the ACK2 handshake completes it stops repeating its last
        // ACK. If nothing new has been acknowledged for an (un-escalated)
        // EXP interval and no NAK-driven repair is pending, re-queue
        // everything outstanding.
        if outstanding
            && self.loss.is_empty()
            && now.since(self.last_progress) >= self.base_exp_interval()
        {
            self.loss.insert(self.snd_una, self.next_new.prev());
            self.last_progress = now; // pace the next re-queue
            return TimerAction::Requeued;
        }
        TimerAction::None
    }

    /// The earliest time [`SndCore::on_timer`] can have anything to do.
    /// Arrivals and sends only move it later.
    pub fn next_deadline(&self) -> Nanos {
        let exp = self
            .last_rsp
            .plus(self.exp.interval(self.rtt.rtt_us(), self.rtt.rtt_var_us()));
        if self.snd_una.lt_seq(self.next_new) && self.loss.is_empty() {
            exp.min(self.last_progress.plus(self.base_exp_interval()))
        } else {
            exp
        }
    }

    /// Cross-field invariants of the sender state: the properties the
    /// ACK/NAK/EXP machinery relies on but the types cannot express.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.loss.check_invariants()?;
        if !self.snd_una.le_seq(self.next_new) {
            return Err(format!(
                "snd_una {} ahead of the send frontier {}",
                self.snd_una, self.next_new
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

    /// Ranges queued for retransmission (tests and the model checker).
    pub fn loss_ranges(&self) -> Vec<SeqRange> {
        self.loss.ranges()
    }
}
