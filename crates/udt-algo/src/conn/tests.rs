//! Virtual-time tests of the event core: explicit `Nanos`, no sockets. Each
//! pins one sequencing rule and fails if the rule is removed.

use udt_metrics::counters::ConnStats;
use udt_proto::ctrl::{AckData, ControlBody};
use udt_proto::{SeqNo, SeqRange, SEQ_MAX, SEQ_TH};
use udt_trace::{DropReason, EventKind, Tracer};

use super::snd::clamp_nak_range;
use super::{
    opens_probe_pair, CloseCore, CoreTrace, DataVerdict, RcvCore, SndCfg, SndCore, TimerAction,
    SHUTDOWN_COPIES,
};
use crate::clock::{Nanos, SYN};
use crate::history::PktTimeWindow;
use crate::rate::UdtCc;
use crate::timerctl::{BROKEN_SILENCE_FLOOR, MAX_EXP_COUNT, MIN_EXP_INTERVAL};

const CAP: u32 = 8192;

fn sq(v: u32) -> SeqNo {
    SeqNo::new(v)
}

fn ms(v: u64) -> Nanos {
    Nanos::from_millis(v)
}

fn snd(init: u32) -> SndCore {
    snd_traced(init, CoreTrace::default())
}

/// A sender whose events (and so counters) the test can read from `trace`.
fn snd_traced(init: u32, trace: CoreTrace) -> SndCore {
    let cc = Box::new(UdtCc::with_defaults(sq(init)));
    let cfg: SndCfg = SndCfg {
        trace,
        ..SndCfg::new(sq(init), cc, 1500, 1024)
    };
    SndCore::new(cfg, Nanos::ZERO)
}

fn rcv(init: u32) -> RcvCore {
    RcvCore::new(sq(init), CAP, 1024, SYN, Nanos::ZERO, CoreTrace::default())
}

/// Send `n` new packets (the host always has data).
fn send_new(s: &mut SndCore, n: usize) -> Vec<SeqNo> {
    (0..n)
        .map(|_| s.next(|_| true).expect("window admits new data").0)
        .collect()
}

/// Deliver `seq` at `now`; the host's buffer starts at `base`.
fn deliver(r: &mut RcvCore, now: Nanos, seq: SeqNo, base: u32) -> DataVerdict {
    r.on_arrivals([(seq, now.wire_micros(), now)]);
    r.on_data(now, seq, 1456, sq(base), CAP)
}

// --- the ACK rule -------------------------------------------------------

#[test]
fn a_lost_final_ack_is_repeated_until_ack2_then_silence() {
    let mut r = rcv(0);
    for i in 0..4 {
        deliver(&mut r, ms(1), sq(i), 0);
    }
    // First ACK on the SYN tick; it is lost.
    let (first, data) = r.on_timer(ms(10), sq(0), CAP).ack.expect("ack due");
    assert_eq!(data.rcv_next, sq(4));
    // Nothing new arrives. The seed RTT is 100 ms +/- 50: a repeat is due
    // RTT + 4·RTTVar = 300 ms after the last copy, not before.
    let mut acks = Vec::new();
    for t in (20..=1000).step_by(10) {
        if let Some((no, d)) = r.on_timer(ms(t), sq(0), CAP).ack {
            assert_eq!(d.rcv_next, sq(4));
            acks.push((t, no));
        }
    }
    assert_eq!(
        acks.iter().map(|a| a.0).collect::<Vec<_>>(),
        vec![310, 610, 910]
    );
    // The third copy gets through; its ACK2 comes back 1 ms later.
    let (_, last) = acks[2];
    assert_ne!(last, first);
    assert_eq!(r.on_ack2(ms(911), last), Some(ms(1)));
    // Confirmed: silent from here on, however long nothing changes.
    for t in (920..5000).step_by(10) {
        assert!(r.on_timer(ms(t), sq(0), CAP).ack.is_none(), "ACK at {t} ms");
    }
    // New data breaks the silence.
    deliver(&mut r, ms(5000), sq(4), 0);
    assert!(r.on_timer(ms(5010), sq(0), CAP).ack.is_some());
}

#[test]
fn an_ack_repeat_is_never_sooner_than_ten_milliseconds() {
    let mut r = rcv(0);
    deliver(&mut r, ms(1), sq(0), 0);
    let (no, _) = r.ack(ms(2), sq(0), CAP).expect("first ack");
    // A loopback-sized RTT sample: 40 us, so RTT + 4·RTTVar = 120 us.
    assert!(r.on_ack2(ms(2).plus(Nanos::from_micros(40)), no).is_some());
    deliver(&mut r, ms(3), sq(1), 0);
    assert!(r.ack(ms(3), sq(0), CAP).is_some());
    assert!(
        r.ack(ms(12), sq(0), CAP).is_none(),
        "9 ms after the last copy"
    );
    assert!(r.ack(ms(13), sq(0), CAP).is_some(), "10 ms after");
}

#[test]
fn an_unmeasured_receiver_advertises_its_free_buffer() {
    let window = |r: &mut RcvCore, now| r.ack(now, sq(0), CAP).expect("ack").1.avail_buf_pkts;
    let mut r = rcv(0);
    // One flush of 8 packets sharing a stamp: no arrival interval yet.
    r.on_arrivals((0..8).map(|i| (sq(i), 7, ms(1))));
    for i in 0..8 {
        r.on_data(ms(1), sq(i), 1456, sq(0), CAP);
    }
    // Nothing read by the application: 8 of CAP slots are held.
    assert_eq!(window(&mut r, ms(10)), Some(CAP - 8));
    // 40 more packets, 100 us apart: 10 k pkt/s measured, so
    // W = AS·(SYN + RTT) = 10_000 · 0.11 s, well under the free buffer.
    for i in 8..48 {
        let at = ms(11).plus(Nanos::from_micros(100 * u64::from(i)));
        deliver(&mut r, at, sq(i), 0);
    }
    let w = window(&mut r, ms(20)).expect("full ack");
    assert!((1090..=1110).contains(&w), "W = {w}");
    // And min(W, free) once the buffer is the tighter bound: the host's
    // base has not moved and its capacity is 100.
    deliver(&mut r, ms(21), sq(48), 0);
    let tight = r.ack(ms(30), sq(0), 100).expect("ack").1.avail_buf_pkts;
    assert_eq!(tight, Some(100 - 49));
}

// --- arrival samples ----------------------------------------------------

/// Arrival speed after 40 flushes of 16 packets, 100 us apart, each cut
/// into trains of `first` and `16 - first` packets stamped 18 us apart
/// (the receive path runs on the first train before the sender's
/// `sendmmsg` gets to the second), or sent as 16 single packets.
fn speed_of_flushes(first: u32, singles: bool) -> f64 {
    let mut r = rcv(3);
    // No sequence number here is a probe packet (3..=14 mod 16).
    let seq = |i: u32| sq(3 + i % 12);
    for k in 0..40u32 {
        let t = Nanos::from_micros(u64::from(100 * k));
        if singles {
            for i in 0..16u32 {
                let at = t.plus(Nanos::from_micros(2 * u64::from(i)));
                r.on_arrivals([(seq(i), 100 * k, at)]);
            }
        } else {
            let late = t.plus(Nanos::from_micros(18));
            r.on_arrivals((0..16).map(|i| (seq(i), 100 * k, if i < first { t } else { late })));
        }
    }
    r.history.pkt_recv_speed()
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
    let mut r = rcv(3);
    let mut us = 0u32;
    for window in [4u32, 8] {
        for k in 0..window {
            let t = Nanos::from_micros(u64::from(us));
            let late = t.plus(Nanos::from_micros(18));
            r.on_arrivals((0..16).map(|i| (sq(3 + i % 12), us, if i < 11 { t } else { late })));
            us += if k + 1 == window { 10_000 } else { 40 };
        }
    }
    assert!((r.history.pkt_recv_speed() - 400_000.0).abs() < 1.0);
}

#[test]
fn singles_through_on_arrivals_are_on_pkt_arrival_bit_for_bit() {
    // What the simulator's receiver did packet by packet, probe pairs
    // included, against the same arrivals handed over as batches of
    // uneven size (and uneven spacing, so the filters have work to do).
    let mut reference = PktTimeWindow::new();
    let mut r = rcv(0);
    let mut batch = Vec::new();
    let mut at = Nanos::ZERO;
    for i in 0..200u32 {
        at = at.plus(Nanos::from_micros(u64::from(50 + (i * 37) % 23)));
        reference.on_pkt_arrival(at);
        match i % 16 {
            0 => reference.on_probe1_arrival(at),
            1 => reference.on_probe2_arrival(at),
            _ => {}
        }
        // Singles may share a sender timestamp (a relay spaced them).
        batch.push((sq(i), i / 5, at));
        if i % 7 == 0 {
            r.on_arrivals(batch.drain(..));
        }
        if i % 7 <= 1 {
            let (ours, theirs) = (&r.history, &reference);
            if batch.is_empty() {
                assert_eq!(
                    ours.pkt_recv_speed().to_bits(),
                    theirs.pkt_recv_speed().to_bits()
                );
                assert_eq!(ours.bandwidth().to_bits(), theirs.bandwidth().to_bits());
            }
        }
    }
    assert!(reference.pkt_recv_speed() > 0.0 && reference.bandwidth() > 0.0);
}

// --- plausibility gates -------------------------------------------------

fn full_ack(rcv_next: u32) -> AckData {
    AckData::full(sq(rcv_next), 1000, 500, 64, 9_000, 10_000)
}

#[test]
fn an_ack_past_the_send_frontier_is_rejected_without_touching_state() {
    let mut s = snd(100);
    send_new(&mut s, 8); // live span [100, 108)
    let before = (
        s.snd_una(),
        s.in_flight(),
        s.peer_window(),
        s.rtt_us(),
        s.cwnd(),
    );
    assert_eq!(s.on_ack(ms(5), 1, &full_ack(109), 0.0), None);
    assert_eq!(
        (
            s.snd_una(),
            s.in_flight(),
            s.peer_window(),
            s.rtt_us(),
            s.cwnd()
        ),
        before
    );
    assert_eq!(s.recv_rate_pps(), 0.0);
    // The frontier itself is acceptable: everything sent is acknowledged.
    let acked = s.on_ack(ms(6), 2, &full_ack(108), 0.0).expect("accepted");
    assert_eq!((acked.pkts, acked.ack2), (8, true));
    assert_eq!(
        (s.snd_una(), s.in_flight(), s.peer_window()),
        (sq(108), 0, 64)
    );
    s.check_invariants().expect("invariants");
}

#[test]
fn a_nak_outside_the_live_span_is_rejected_without_touching_state() {
    let mut s = snd(100);
    send_new(&mut s, 8);
    s.on_ack(ms(5), 1, &full_ack(103), 0.0).expect("accepted"); // [103, 108)
    let period = s.pkt_snd_period_us();
    // Below the ACK point, past the frontier, on the far side of the space.
    let mut ranges = vec![
        SeqRange::new(sq(100), sq(102)),
        SeqRange::new(sq(108), sq(120)),
        SeqRange::new(sq(SEQ_TH + 100), sq(SEQ_TH + 110)),
    ];
    s.on_nak(ms(6), &mut ranges, 0.0);
    assert!(ranges.is_empty());
    assert!(s.loss_ranges().is_empty());
    assert_eq!(
        s.pkt_snd_period_us(),
        period,
        "no loss event reached the controller"
    );
    assert!(!s.has_sendable(false));
    // A live range mixed with a fabricated one: the live part is absorbed.
    let mut ranges = vec![
        SeqRange::new(sq(101), sq(104)),
        SeqRange::new(sq(200), sq(210)),
    ];
    s.on_nak(ms(7), &mut ranges, 0.0);
    assert_eq!(s.loss_ranges(), vec![SeqRange::new(sq(103), sq(104))]);
    assert_eq!(s.next(|_| false), Some((sq(103), true)));
    s.check_invariants().expect("invariants");
}

/// What a rejection must leave behind: the packet as it arrived, one drop,
/// and each counted once.
fn assert_rejection(trace: &CoreTrace, arrived: &str, dropped_seq: u32) {
    let events = trace.tracer().snapshot();
    let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(names, [arrived, "data_drop"]);
    let (seq, reason) = (dropped_seq, DropReason::Implausible);
    assert_eq!(events[1].kind, EventKind::DataDrop { seq, reason });
    let stats = trace.counters();
    let arrivals = ConnStats::get(&stats.acks_received) + ConnStats::get(&stats.naks_received);
    assert_eq!((arrivals, ConnStats::get(&stats.pkts_rejected)), (1, 1));
}

#[test]
fn an_ack_past_the_send_frontier_is_a_drop_on_the_timeline() {
    let trace = CoreTrace::new(Tracer::ring(16), 1, 0);
    let mut s = snd_traced(100, trace.clone());
    send_new(&mut s, 8); // live span [100, 108)
    assert_eq!(s.on_ack(ms(5), 1, &full_ack(109), 0.0), None);
    assert_rejection(&trace, "ack_recv", 109);
}

#[test]
fn an_all_stale_nak_is_on_the_timeline_and_counted_once() {
    let trace = CoreTrace::new(Tracer::ring(16), 1, 0);
    let mut s = snd_traced(100, trace.clone());
    send_new(&mut s, 8);
    s.on_ack(ms(5), 1, &full_ack(108), 0.0).expect("accepted"); // nothing in flight
    let before = trace.tracer().pushed();
    // A NAK that crossed that ACK on the wire: everything it names is stale.
    let mut ranges = vec![SeqRange::new(sq(101), sq(102)), SeqRange::single(sq(105))];
    s.on_nak(ms(6), &mut ranges, 0.0);
    assert!(ranges.is_empty() && s.loss_ranges().is_empty());
    let events = trace.tracer().snapshot();
    let new = &events[usize::try_from(before).expect("small")..];
    let (first_lo, first_hi) = (101, 102);
    assert_eq!(
        new.iter().map(|e| e.kind).collect::<Vec<_>>(),
        [
            EventKind::NakRecv {
                first_lo,
                first_hi,
                ranges: 2
            },
            EventKind::DataDrop {
                seq: 101,
                reason: DropReason::Implausible
            },
        ]
    );
    let stats = trace.counters();
    assert_eq!(ConnStats::get(&stats.naks_received), 1);
    assert_eq!(ConnStats::get(&stats.pkts_rejected), 1);
}

#[test]
fn an_implausible_sequence_number_touches_no_receiver_state() {
    let mut r = rcv(0);
    deliver(&mut r, ms(1), sq(0), 0);
    let far = r.on_data(ms(2), sq(CAP), 1456, sq(0), CAP);
    assert_eq!(far, DataVerdict::Implausible);
    assert_eq!((r.lrsn(), r.frontier()), (sq(0), sq(1)));
    assert!(r.loss_ranges().is_empty() && r.loss_events().is_empty());
    // The last plausible one opens a gap and is NAKed at once.
    let edge = r.on_data(ms(2), sq(CAP - 1), 1456, sq(0), CAP);
    let gap = SeqRange::new(sq(1), sq(CAP - 2));
    assert_eq!(edge, DataVerdict::New { nak: Some(gap) });
    assert_eq!(r.loss_events(), [CAP - 2]);
    assert_eq!(
        r.on_data(ms(3), sq(5), 1456, sq(0), CAP),
        DataVerdict::Recovered
    );
    assert_eq!(
        r.on_data(ms(3), sq(5), 1456, sq(0), CAP),
        DataVerdict::Duplicate
    );
    r.check_invariants(sq(0)).expect("invariants");
}

fn clamp(from: u32, to: u32, una: u32, next: u32) -> Option<(SeqNo, SeqNo)> {
    let range = SeqRange {
        from: sq(from),
        to: sq(to),
    };
    clamp_nak_range(range, sq(una), sq(next)).map(|r| (r.from, r.to))
}

#[test]
fn nak_clamp_passes_live_ranges_through() {
    assert_eq!(clamp(10, 14, 5, 20), Some((sq(10), sq(14))));
    // Single-packet range at each edge of the live span.
    assert_eq!(clamp(5, 5, 5, 20), Some((sq(5), sq(5))));
    assert_eq!(clamp(19, 19, 5, 20), Some((sq(19), sq(19))));
}

#[test]
fn nak_clamp_trims_stale_low_end() {
    // The NAK raced an ACK: its low end is already acknowledged.
    assert_eq!(clamp(2, 8, 5, 20), Some((sq(5), sq(8))));
}

#[test]
fn nak_clamp_rejects_data_never_sent() {
    // High end past the send frontier: trimmed to the frontier.
    assert_eq!(clamp(18, 30, 5, 20), Some((sq(18), sq(19))));
    // Entirely past the frontier: fabricated, dropped outright.
    assert_eq!(clamp(25, 30, 5, 20), None);
    // Entirely below the ACK point: stale, dropped outright.
    assert_eq!(clamp(1, 4, 5, 20), None);
    // Nothing in flight at all.
    assert_eq!(clamp(5, 6, 5, 5), None);
}

#[test]
fn nak_clamp_is_wrap_safe() {
    // Live span straddles the 2^31 wrap: [SEQ_MAX - 1, 3).
    let una = SEQ_MAX - 1;
    assert_eq!(clamp(SEQ_MAX, 1, una, 3), Some((sq(SEQ_MAX), sq(1))));
    // Low end pre-wrap and already acknowledged, high end post-wrap.
    assert_eq!(clamp(SEQ_MAX - 5, 0, una, 3), Some((sq(una), sq(0))));
    // High end past the post-wrap frontier gets trimmed back to it.
    assert_eq!(clamp(0, 100, una, 3), Some((sq(0), sq(2))));
    // Fabricated range on the far side of the space.
    assert_eq!(clamp(SEQ_TH, SEQ_TH + 10, una, 3), None);
}

// --- the EXP timer ------------------------------------------------------

#[test]
fn a_lost_tail_is_requeued_while_the_peer_is_provably_alive() {
    let trace = CoreTrace::default();
    let mut s = snd_traced(0, trace.clone());
    send_new(&mut s, 4);
    s.on_timer(ms(5), 0.0);
    // The receiver got 0..=2 and says so; packet 3 was lost. It shows the
    // receiver no gap, so no NAK will ever name it.
    s.on_arrival(ms(10));
    s.on_ack(ms(10), 1, &full_ack(3), 0.0).expect("accepted");
    // From here the peer stays chatty — ACK2s for our ACKs, keep-alives,
    // its own data — so `last_rsp` is always fresh and EXP never expires.
    let mut requeued_at = None;
    for t in (20..=400).step_by(10) {
        s.on_arrival(ms(t));
        let action = s.on_timer(ms(t), 0.0);
        if action == TimerAction::Requeued {
            requeued_at = Some(t);
            break;
        }
        assert_eq!(action, TimerAction::None);
    }
    let expired = ConnStats::get(&trace.counters().exp_timeouts);
    assert_eq!(expired, 0, "the peer was alive throughout");
    // One un-escalated EXP interval (the 300 ms floor: RTT is 1 ms here)
    // after `snd_una` last moved.
    assert_eq!(requeued_at, Some(310));
    assert_eq!(s.loss_ranges(), vec![SeqRange::single(sq(3))]);
    assert_eq!(s.next(|_| false), Some((sq(3), true)));
    // The re-queue paces itself: not again before another interval.
    assert_eq!(s.on_timer(ms(320), 0.0), TimerAction::None);
    assert_eq!(s.next_deadline(), ms(310).plus(MIN_EXP_INTERVAL));
    s.check_invariants().expect("invariants");
}

#[test]
fn progress_is_counted_from_when_data_went_out_on_an_idle_connection() {
    let mut s = snd(0);
    // Idle for two seconds, the peer answering keep-alives.
    for t in (10..2000).step_by(10) {
        if t % 100 == 0 {
            s.on_arrival(ms(t));
        }
        s.on_timer(ms(t), 0.0);
    }
    // The application writes; the packet's ACK is one SYN away. The stale
    // progress clock must not re-queue it at the very next tick.
    send_new(&mut s, 1);
    s.on_arrival(ms(2000));
    assert_eq!(s.on_timer(ms(2000), 0.0), TimerAction::None);
    assert_eq!(s.on_timer(ms(2010), 0.0), TimerAction::None);
    assert!(s.loss_ranges().is_empty());
    // Left unacknowledged, it is repaired one interval after it went out
    // (the seed RTT of 100 ms +/- 50 makes that 300 ms + SYN).
    assert_eq!(s.next_deadline(), ms(2310));
}

/// One end of an idle connection: its sending half keeps the EXP timer, and
/// `last_sent` is the host's note of when it last put anything on the wire.
struct IdleEnd {
    snd: SndCore,
    last_sent: Nanos,
    keepalives: Vec<u64>,
}

impl IdleEnd {
    fn new() -> IdleEnd {
        IdleEnd {
            snd: snd(0),
            last_sent: Nanos::ZERO,
            keepalives: Vec::new(),
        }
    }

    /// Tick the timer; returns a keep-alive to send.
    fn tick(&mut self, now: Nanos) -> Option<ControlBody> {
        match self.snd.on_timer(now, 0.0) {
            TimerAction::KeepAlive => Some(self.sent(now)),
            TimerAction::None => None,
            other => panic!("{other:?} on an idle, answered connection at {now}"),
        }
    }

    /// A keep-alive arrived; returns the answer, if one is owed.
    fn on_keepalive(&mut self, now: Nanos) -> Option<ControlBody> {
        self.snd.on_arrival(now);
        self.snd
            .on_keepalive(now, self.last_sent)
            .then(|| self.sent(now))
    }

    fn sent(&mut self, now: Nanos) -> ControlBody {
        self.last_sent = now;
        self.keepalives.push(now.0 / 1_000_000);
        ControlBody::KeepAlive
    }
}

#[test]
fn an_idle_pair_exchanges_one_keepalive_each_per_exp_interval() {
    // Two ends, ticking every SYN half a SYN apart, 1 ms apart on the wire.
    let (mut a, mut b) = (IdleEnd::new(), IdleEnd::new());
    let wire = ms(1);
    for step in 0..6000u64 {
        let now = Nanos::from_micros(step * 5_000);
        let (tx, rx) = if step % 2 == 0 {
            (&mut a, &mut b)
        } else {
            (&mut b, &mut a)
        };
        if tx.tick(now).is_some() {
            // The answer (if any) crosses back; an answer is never answered:
            // the asker has just sent.
            if rx.on_keepalive(now.plus(wire)).is_some() {
                assert!(
                    tx.on_keepalive(now.plus(wire).plus(wire)).is_none(),
                    "rally"
                );
            }
        }
    }
    // 30 s: each end probes or answers once per 300 ms interval, no more.
    for end in [&a, &b] {
        let n = end.keepalives.len();
        assert!(
            (95..=105).contains(&n),
            "{n} keep-alives in 30 s: {:?}",
            end.keepalives
        );
        let closest = end.keepalives.windows(2).map(|w| w[1] - w[0]).min();
        assert!(closest >= Some(290), "two keep-alives {closest:?} ms apart");
    }
}

/// When a sender whose peer never says anything declares it gone, ms.
fn broken_at(max_exp_count: u32, broken_silence_floor: Nanos) -> Option<u64> {
    let cfg: SndCfg = SndCfg {
        max_exp_count,
        broken_silence_floor,
        ..SndCfg::new(sq(0), Box::new(UdtCc::with_defaults(sq(0))), 1500, 1024)
    };
    let mut s = SndCore::new(cfg, Nanos::ZERO);
    (0..60_000).step_by(10).find(|&t| {
        let action = s.on_timer(ms(t), 0.0);
        assert_ne!(action, TimerAction::Requeued, "nothing is outstanding");
        action == TimerAction::Broken
    })
}

#[test]
fn broken_needs_both_the_expiration_count_and_the_silence_floor() {
    // EXP expires when the silence reaches count · 300 ms + SYN (seed RTT),
    // so the count passes 16 after 4.5 s: with the reference floor of 10 s
    // the floor decides, at the first expiry past it.
    assert_eq!(broken_at(MAX_EXP_COUNT, BROKEN_SILENCE_FLOOR), Some(10_210));
    assert_eq!(broken_at(3, BROKEN_SILENCE_FLOOR), Some(10_210));
    // With no floor to speak of, the count decides.
    assert_eq!(broken_at(MAX_EXP_COUNT, ms(100)), Some(15 * 300 + 10));
    assert_eq!(broken_at(3, ms(100)), Some(2 * 300 + 10));
}

// --- sending ------------------------------------------------------------

#[test]
fn the_loss_list_goes_first_and_new_data_is_numbered_only_if_the_host_has_it() {
    let mut s = snd(14);
    assert_eq!(send_new(&mut s, 3), [sq(14), sq(15), sq(16)]);
    assert!(!opens_probe_pair(sq(15)) && opens_probe_pair(sq(16)));
    // The host out of data: nothing is numbered.
    assert_eq!(s.next(|_| false), None);
    assert_eq!(s.in_flight(), 3);
    // A repair outranks new data, and needs none.
    s.on_nak(ms(1), &mut vec![SeqRange::single(sq(15))], 0.0);
    assert!(s.has_sendable(false));
    assert_eq!(s.next(|_| panic!("not asked")), Some((sq(15), true)));
    assert_eq!(s.next(|seq| seq == sq(17)), Some((sq(17), false)));
}

#[test]
fn trace_events_land_on_the_tracer_timeline() {
    // The host's clock read zero when the tracer's read 5 s.
    let tracer = Tracer::ring(64);
    let trace = CoreTrace::new(tracer.clone(), 9, 5_000_000_000);
    let mut r = RcvCore::new(sq(0), CAP, 1024, SYN, Nanos::ZERO, trace);
    r.on_data(ms(1), sq(2), 1456, sq(0), CAP);
    let events = tracer.snapshot();
    let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(names, ["loss", "nak_send", "data_recv"]);
    assert!(events
        .iter()
        .all(|e| e.conn == 9 && e.t_ns == 5_001_000_000));
}

// --- the close machine --------------------------------------------------

const PLAIN: Option<ControlBody> = Some(ControlBody::Shutdown { answer: false });
const ANSWER: Option<ControlBody> = Some(ControlBody::Shutdown { answer: true });

fn closer() -> CloseCore {
    CloseCore::new(CoreTrace::default())
}

/// Tick `c` every millisecond over `(from, to]`; when it sent a `Shutdown`.
fn copies_sent_at(c: &mut CloseCore, from: u64, to: u64) -> Vec<u64> {
    let mut at = Vec::new();
    for t in from + 1..=to {
        let due = c.next_deadline();
        match c.on_timer(ms(t)) {
            Some(body) => {
                assert_eq!(Some(body), PLAIN);
                at.push(t);
            }
            // A tick that did nothing was not yet due, then or now.
            None => assert!(c.is_done() || (due > ms(t) && c.next_deadline() > ms(t))),
        }
    }
    at
}

#[test]
fn an_answered_first_shutdown_is_the_only_one() {
    let trace = CoreTrace::default();
    let mut c = CloseCore::new(trace.clone());
    assert_eq!(c.next_deadline(), Nanos(u64::MAX), "open: no timer");
    assert_eq!(c.close(ms(5), ms(30)), PLAIN);
    assert_eq!((c.copies_sent(), c.next_deadline()), (1, ms(35)));
    assert_eq!(c.on_shutdown(ms(6), true), None, "an answer is not answered");
    assert!(c.is_done());
    assert_eq!(copies_sent_at(&mut c, 6, 500), Vec::<u64>::new());
    assert_eq!(c.close(ms(600), ms(30)), None, "closing twice sends nothing");
    assert_eq!(ConnStats::get(&trace.counters().shutdown_repeats), 0);
}

#[test]
fn a_lost_answer_is_asked_for_again_after_the_rtt_bound_and_a_late_one_ends_it() {
    let trace = CoreTrace::default();
    let mut c = CloseCore::new(trace.clone());
    assert_eq!(c.close(ms(0), ms(40)), PLAIN);
    assert_eq!(copies_sent_at(&mut c, 0, 70), vec![40]);
    assert_eq!(c.on_shutdown(ms(71), true), None);
    assert!(c.is_done());
    assert_eq!(copies_sent_at(&mut c, 71, 500), Vec::<u64>::new());
    assert_eq!(ConnStats::get(&trace.counters().shutdown_repeats), 1);
}

#[test]
fn an_unanswered_shutdown_is_sent_three_times_a_syn_apart_at_least_then_given_up() {
    let mut c = closer();
    // A loopback RTT: the floor is what spaces the copies.
    assert_eq!(c.close(ms(0), Nanos::from_micros(300)), PLAIN);
    assert_eq!(copies_sent_at(&mut c, 0, 500), vec![10, 20]);
    assert_eq!(SHUTDOWN_COPIES, 3);
    assert!(c.is_done(), "the last copy is not waited for");
    assert_eq!(c.next_deadline(), Nanos(u64::MAX));
    // The answer to the last copy arrives after all: nothing moves.
    assert_eq!(c.on_shutdown(ms(501), true), None);
}

#[test]
fn every_shutdown_is_answered_in_every_state_and_an_answer_never_is() {
    let mut open = closer();
    assert_eq!(open.on_shutdown(ms(1), true), None, "a stray answer");
    assert!(open.is_open(), "a stray answer closes nothing");
    assert_eq!(open.on_shutdown(ms(2), false), ANSWER);
    assert!(open.is_done(), "the peer closed");
    // Duplicates and repeats of the peer's Shutdown: each answered.
    for t in 3..6 {
        assert_eq!(open.on_shutdown(ms(t), false), ANSWER);
        assert_eq!(open.on_shutdown(ms(t), true), None);
    }
    assert_eq!(open.close(ms(7), ms(30)), None, "the peer closed first");
    let mut waiting = closer();
    waiting.close(ms(0), ms(30));
    assert_eq!(waiting.on_shutdown(ms(1), false), ANSWER);
}

#[test]
fn simultaneous_close_ends_with_one_answer_each_way() {
    let (mut a, mut b) = (closer(), closer());
    assert_eq!(a.close(ms(0), ms(30)), PLAIN);
    assert_eq!(b.close(ms(0), ms(30)), PLAIN);
    // The Shutdowns cross; each counts as the other's answer.
    assert_eq!(a.on_shutdown(ms(15), false), ANSWER);
    assert_eq!(b.on_shutdown(ms(15), false), ANSWER);
    assert!(a.is_done() && b.is_done());
    // The answers arrive at machines that are done, and end there.
    assert_eq!(a.on_shutdown(ms(30), true), None);
    assert_eq!(b.on_shutdown(ms(30), true), None);
    assert_eq!(copies_sent_at(&mut a, 30, 500), Vec::<u64>::new());
    assert_eq!(copies_sent_at(&mut b, 30, 500), Vec::<u64>::new());
}
