//! The receiving half of a connection ([`RcvCore`]).

// Numeric casts in this module are deliberate: bounded protocol arithmetic
// and rate conversions whose ranges are argued at the cast sites.
// Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use udt_proto::ctrl::AckData;
use udt_proto::{SeqNo, SeqRange};
use udt_trace::{DropReason, EventKind, TimerKind};

use super::CoreTrace;
use crate::ackwindow::AckWindow;
use crate::clock::Nanos;
use crate::flow::FlowWindow;
use crate::history::PktTimeWindow;
use crate::losslist::RcvLossList;
use crate::rtt::RttEstimator;
use crate::PROBE_INTERVAL;

/// What [`RcvCore::on_data`] made of a data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataVerdict {
    /// Beyond everything received so far. If it left a gap behind it, the
    /// gap is on the loss list and `nak` reports it: send that now (§3.1,
    /// "NAK is generated once a loss is detected").
    New {
        /// The gap to report, if this packet opened one.
        nak: Option<SeqRange>,
    },
    /// A retransmission that filled a hole.
    Recovered,
    /// Received before.
    Duplicate,
    /// A sequence number the peer could not legitimately send: dropped
    /// before it touched any state.
    Implausible,
}

/// What the receiver's timers produced: at most one ACK and one NAK.
#[derive(Debug, Default)]
pub struct RcvTimer {
    /// `(ack number, body)` of the periodic ACK, if one is due.
    pub ack: Option<(u32, AckData)>,
    /// Loss ranges whose report is due again.
    pub nak: Option<Vec<SeqRange>>,
}

/// Data packets that arrived under one stamp.
#[derive(Clone, Copy)]
struct Train {
    stamp: Nanos,
    /// Sender timestamp of the first.
    sent: u32,
    pkts: u32,
    /// Carries the second packet of a probe pair.
    pair_second: bool,
}

/// Receiver-side protocol state.
#[derive(Clone)]
pub struct RcvCore {
    loss: RcvLossList,
    pub(super) history: PktTimeWindow,
    /// Sender timestamp of the flush now arriving and its data packets so
    /// far: see [`RcvCore::on_arrivals`].
    arriving: Option<(u32, u32)>,
    rtt: RttEstimator,
    ackw: AckWindow,
    flow: FlowWindow,
    /// Largest received sequence number.
    lrsn: SeqNo,
    /// ACKs sent so far: the next one's number (mod 2^32) is this plus one.
    acks_sent: u32,
    last_ack_sent: SeqNo,
    /// When `last_ack_sent` was last put on the wire (repeat pacing).
    last_ack_time: Nanos,
    /// Largest ACK the sender has confirmed with an ACK2. Repeating an
    /// ACK stops here: past this point the sender provably knows, and
    /// staying silent is what re-arms its EXP-timeout repair.
    last_ack_acked: SeqNo,
    /// Per-event gap sizes (Figure 8 trace).
    loss_events: Vec<u32>,
    /// The ACK and rate-control interval.
    syn: Nanos,
    next_ack: Nanos,
    next_nak: Nanos,
    trace: CoreTrace,
}

impl RcvCore {
    /// A receiving half expecting `init_seq` first, advertising at most
    /// `max_window` packets, on a connection established at `now`.
    pub fn new(
        init_seq: SeqNo,
        max_window: u32,
        loss_cap: usize,
        syn: Nanos,
        now: Nanos,
        trace: CoreTrace,
    ) -> RcvCore {
        RcvCore {
            loss: RcvLossList::new(loss_cap),
            history: PktTimeWindow::new(),
            arriving: None,
            rtt: RttEstimator::new(Nanos::from_millis(100)),
            ackw: AckWindow::default(),
            flow: FlowWindow::new(max_window),
            lrsn: init_seq.prev(),
            acks_sent: 0,
            last_ack_sent: init_seq,
            last_ack_time: Nanos::ZERO,
            last_ack_acked: init_seq,
            // udt-lint: allow(hot-alloc) — one-time connection setup
            loss_events: Vec::new(),
            syn,
            next_ack: now.plus(syn),
            next_nak: now.plus(syn),
            trace,
        }
    }

    /// Largest received sequence number.
    pub fn lrsn(&self) -> SeqNo {
        self.lrsn
    }

    /// The in-order frontier: everything before it has been received.
    pub fn frontier(&self) -> SeqNo {
        self.loss.first().unwrap_or_else(|| self.lrsn.next())
    }

    /// `true` when `seq` is the packet right after everything received:
    /// the common case, which touches no loss list.
    pub fn is_next(&self, seq: SeqNo) -> bool {
        seq == self.lrsn.next()
    }

    /// Per-event loss sizes observed so far (Figure 8).
    pub fn loss_events(&self) -> &[u32] {
        &self.loss_events
    }

    /// Smoothed RTT, microseconds.
    pub fn rtt_us(&self) -> f64 {
        self.rtt.rtt_us()
    }

    /// RTT + 4·RTTVar by this half's estimator (fed by ACK2s).
    pub fn rtt_bound(&self) -> Nanos {
        self.rtt.bound()
    }

    /// `(last ACK sent, last ACK the sender confirmed with an ACK2)`: the
    /// receiver repeats the first until it is the second, then goes quiet.
    pub fn ack_state(&self) -> (SeqNo, SeqNo) {
        (self.last_ack_sent, self.last_ack_acked)
    }

    /// When the last ACK went out (`Nanos::ZERO` before the first).
    pub fn last_ack_time(&self) -> Nanos {
        self.last_ack_time
    }

    /// Feed the estimators the arrival stamps of a batch's data packets, as
    /// `(seq, sender timestamp, arrival stamp)` in arrival order. Stamps
    /// should say when the packet reached the host (kernel receive time
    /// where there is one), so the estimators measure the path and not how
    /// long the host took to get to each packet.
    ///
    /// Packets sharing a stamp crossed as one train, and where trains arrive
    /// the unit of arrival is the sender's *flush* (its trains carry one
    /// sender timestamp): a flush's packets count as that many arrivals over
    /// the time from its first stamp to the next flush's first stamp. The
    /// spacing of two trains *within* a flush is not the path's: on loopback
    /// it is how long the receive path ran on the first train before the
    /// sender got back to its `sendmmsg` (a near-constant 15–20 us), which
    /// divided by the second train's length is a figure set by where the
    /// probe-pair cut fell in the flush, i.e. by the connection's random
    /// initial sequence number. Flush to flush is what the paper's receiver
    /// measures packet to packet: back-to-back flushes show the rate the path
    /// and the two hosts sustain, a paced sender's show its rate, and the one
    /// wait for an ACK per window is the outlier the median drops. Single
    /// packets are flushes of one even when they share a sender timestamp
    /// (a relay or a plain socket spaced them), so a path that delivers
    /// single packets is measured packet by packet, as ever.
    pub fn on_arrivals(&mut self, data: impl IntoIterator<Item = (SeqNo, u32, Nanos)>) {
        let mut train: Option<Train> = None;
        for (seq, sent, stamp) in data {
            if train.is_some_and(|t| t.stamp != stamp) {
                self.note_train(train.take());
            }
            let t = train.get_or_insert(Train {
                stamp,
                sent,
                pkts: 0,
                pair_second: false,
            });
            t.pkts += 1;
            match seq.raw() % PROBE_INTERVAL {
                0 => self.history.on_probe1_arrival(stamp),
                1 => t.pair_second = true,
                _ => {}
            }
        }
        self.note_train(train);
    }

    /// One arriving train is either more of the flush `arriving`, or the
    /// start of the next, which makes the finished flush one arrival-speed
    /// sample.
    fn note_train(&mut self, train: Option<Train>) {
        let Some(t) = train else {
            return;
        };
        match self.arriving {
            Some((flush, pkts)) if flush == t.sent && (pkts > 1 || t.pkts > 1) => {
                self.arriving = Some((flush, pkts + t.pkts));
            }
            prev => {
                self.history
                    .on_train_arrival(t.stamp, prev.map_or(1, |p| p.1));
                self.arriving = Some((t.sent, t.pkts));
            }
        }
        if t.pair_second {
            self.history.on_probe2_train_arrival(t.stamp, t.pkts);
        }
    }

    /// A data packet of `bytes` payload arrived. `base` is the first
    /// sequence number the host's buffer still holds or waits for and `cap`
    /// its capacity in packets.
    pub fn on_data(
        &mut self,
        now: Nanos,
        seq: SeqNo,
        bytes: u32,
        base: SeqNo,
        cap: u32,
    ) -> DataVerdict {
        // Plausibility gate before any state is mutated: a sequence number
        // the peer could legitimately send lies within the flow window ahead
        // of the delivery base. A corrupted header can carry any value;
        // letting it advance `lrsn` would poison the ACK/NAK machinery
        // (phantom gigantic loss ranges, a wedged advertised window).
        // Far-future packets are dropped here; far-past ones fall through to
        // the duplicate path below, which is already idempotent.
        let ahead = base.offset_to(seq);
        if i64::from(ahead) >= i64::from(cap) {
            self.drop_event(now, seq, DropReason::Implausible);
            return DataVerdict::Implausible;
        }
        let off = self.lrsn.offset_to(seq);
        let verdict = if off > 0 {
            let nak = (off > 1).then(|| self.gap(now, seq)).flatten();
            self.lrsn = seq;
            DataVerdict::New { nak }
        } else if self.loss.remove(seq) {
            DataVerdict::Recovered
        } else {
            self.drop_event(now, seq, DropReason::Duplicate);
            return DataVerdict::Duplicate;
        };
        self.trace.emit_at(
            now.0,
            EventKind::DataRecv {
                seq: seq.raw(),
                bytes,
            },
        );
        verdict
    }

    fn drop_event(&self, now: Nanos, seq: SeqNo, reason: DropReason) {
        self.trace.emit_at(
            now.0,
            EventKind::DataDrop {
                seq: seq.raw(),
                reason,
            },
        );
    }

    /// `seq` arrived beyond `lrsn + 1`: record the loss event and report
    /// the gap, unless the loss list already had all of it.
    fn gap(&mut self, now: Nanos, seq: SeqNo) -> Option<SeqRange> {
        let (from, to) = (self.lrsn.next(), seq.prev());
        let added = self.loss.insert_at(from, to, now);
        if added == 0 {
            return None;
        }
        self.loss_events.push(added);
        let (first_lo, first_hi) = (from.raw(), to.raw());
        self.trace
            .emit_at(now.0, EventKind::LossDetected { first_lo, first_hi });
        self.trace.emit_at(
            now.0,
            EventKind::NakSend {
                first_lo,
                first_hi,
                ranges: 1,
            },
        );
        Some(SeqRange::new(from, to))
    }

    /// An ACK2 arrived: the RTT sample it closed, if its ACK was still
    /// remembered.
    pub fn on_ack2(&mut self, now: Nanos, ack_seq: u32) -> Option<Nanos> {
        self.trace
            .emit_at(now.0, EventKind::Ack2Recv { ack_no: ack_seq });
        let (sample, acked) = self.ackw.acknowledge(ack_seq, now)?;
        self.rtt.update(sample);
        let (rtt_us, var_us) = self.rtt.wire();
        self.trace
            .emit_at(now.0, EventKind::RttUpdate { rtt_us, var_us });
        if self.last_ack_acked.lt_seq(acked) {
            self.last_ack_acked = acked;
        }
        Some(sample)
    }

    /// The ACK to send at `now`, if the ACK rule calls for one (`base` and
    /// `cap` as in [`RcvCore::on_data`]). The timer calls this once per
    /// SYN; a host may also call it to force the decision early (before it
    /// closes).
    pub fn ack(&mut self, now: Nanos, base: SeqNo, cap: u32) -> Option<(u32, AckData)> {
        let ack_no = self.frontier();
        if ack_no == self.last_ack_acked {
            // The sender confirmed this ACK with an ACK2: it provably knows.
            // Going silent here matters as much as the repeat below — the
            // sender's EXP repair (re-queue everything unacknowledged) is
            // gated on peer silence, and it is the only thing that can
            // recover a *tail* loss the receiver cannot see as a gap.
            return None;
        }
        if ack_no == self.last_ack_sent {
            // Nothing new to acknowledge, and no ACK2 yet — the previous ACK
            // may have been lost, and a sender whose last in-flight packet's
            // ACK vanished retransmits it forever while we stay mute (every
            // copy is a duplicate, so `ack_no` never moves). Reference UDT
            // repeats an unconfirmed identical ACK after RTT + 4·RTTVar; do
            // the same, with a floor so near-zero RTT estimates don't turn
            // the repeat into a flood.
            let repeat_after = self.rtt.bound().max(Nanos::from_millis(10));
            if now.since(self.last_ack_time) < repeat_after {
                return None; // nothing new; the SYN timer keeps ticking
            }
        }
        self.flow
            .update_with_syn(&self.history, &self.rtt, self.syn);
        let held = u32::try_from(base.offset_to(self.lrsn.next())).unwrap_or(0);
        let avail = cap.saturating_sub(held);
        // Until the arrival-speed filter has spoken, W is its cold-start
        // floor of 16 — "enough to keep the estimator fed" when 16 packets
        // are 15 intervals, not when they are one flush and none. A sender
        // told 16 leaves slow start on this very ACK, at whatever period an
        // unmeasured path suggests; told the free buffer, it sends a second,
        // larger window and the next ACK carries a measurement.
        let window = if self.flow.is_measured() {
            self.flow.advertised(avail)
        } else {
            avail.max(2)
        };
        self.acks_sent = self.acks_sent.wrapping_add(1);
        let (rtt_us, rtt_var_us) = self.rtt.wire();
        let data = AckData::full(
            ack_no,
            rtt_us,
            rtt_var_us,
            window,
            self.history.pkt_recv_speed() as u32,
            self.history.bandwidth() as u32,
        );
        self.ackw.store(self.acks_sent, ack_no, now);
        self.last_ack_sent = ack_no;
        self.last_ack_time = now;
        let (timer, count) = (TimerKind::Ack, 1);
        self.trace
            .emit_at(now.0, EventKind::TimerFire { timer, count });
        self.trace.emit_at(
            now.0,
            EventKind::AckSend {
                ack_no: self.acks_sent,
                ack_seq: ack_no.raw(),
            },
        );
        Some((self.acks_sent, data))
    }

    /// Loss ranges whose report is due again at `now` (§3.5: each range's
    /// interval grows with the reports already sent), and the base interval.
    fn due_naks(&mut self, now: Nanos) -> (Option<Vec<SeqRange>>, Nanos) {
        let base = self.rtt.bound();
        if self.loss.is_empty() {
            return (None, base);
        }
        let due = self.loss.due_reports(now, base, 64);
        let Some(first) = due.first() else {
            return (None, base);
        };
        let (timer, count) = (TimerKind::Nak, 1);
        self.trace
            .emit_at(now.0, EventKind::TimerFire { timer, count });
        self.trace.emit_at(
            now.0,
            EventKind::NakSend {
                first_lo: first.from.raw(),
                first_hi: first.to.raw(),
                // `due` is capped at 64 ranges above.
                ranges: due.len() as u32,
            },
        );
        (Some(due), base)
    }

    /// The timer tick: the ACK timer (one SYN) and the NAK timer
    /// (`max(RTT + 4·RTTVar, SYN)`), each if due. `base` and `cap` as in
    /// [`RcvCore::on_data`].
    pub fn on_timer(&mut self, now: Nanos, base: SeqNo, cap: u32) -> RcvTimer {
        let mut out = RcvTimer::default();
        if now >= self.next_ack {
            out.ack = self.ack(now, base, cap);
            self.next_ack = now.plus(self.syn);
        }
        if now >= self.next_nak {
            let (nak, interval) = self.due_naks(now);
            out.nak = nak;
            self.next_nak = now.plus(interval.max(self.syn));
        }
        out
    }

    /// The earliest time [`RcvCore::on_timer`] has anything to do.
    pub fn next_deadline(&self) -> Nanos {
        self.next_ack.min(self.next_nak)
    }

    /// Cross-field invariants of the receiver state (see
    /// [`super::SndCore::check_invariants`]); `base` as in
    /// [`RcvCore::on_data`].
    pub fn check_invariants(&self, base: SeqNo) -> Result<(), String> {
        self.loss.check_invariants()?;
        let frontier = self.frontier();
        if !base.le_seq(frontier) {
            return Err(format!(
                "delivery base {base} past the in-order frontier {frontier}"
            ));
        }
        for r in self.loss.ranges() {
            if r.from.lt_seq(base) || !r.to.lt_seq(self.lrsn) {
                return Err(format!(
                    "loss range [{}, {}] outside [{base}, {})",
                    r.from, r.to, self.lrsn
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

    /// Ranges known missing (tests and the model checker).
    pub fn loss_ranges(&self) -> Vec<SeqRange> {
        self.loss.ranges()
    }
}
