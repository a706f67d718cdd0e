//! Packet arrival history: arrival-speed and link-capacity estimation.
//!
//! The receiver keeps two small ring windows:
//!
//! * **arrival intervals** between consecutive data packets, from which the
//!   *packet arrival speed* `AS` is computed with a median filter (§3.2).
//!   The paper is explicit that a plain mean does not work, because sending
//!   may pause (application stalls, congestion freezes): an idle gap would
//!   crater the mean, while the median filter simply discards it.
//! * **packet-pair intervals**: every [`crate::PROBE_INTERVAL`]-th packet is
//!   sent back-to-back with its successor; the spacing the pair arrives
//!   with, after the same median filtering, measures the *link capacity*
//!   (receiver-based packet pair, §3.4).
//!
//! The filter, following the UDT reference implementation: take the median
//! of the window, keep only samples within `[median/8, median·8]`, and
//! require at least half the window to survive; the estimate is
//! `survivors / sum(survivor intervals)`.
//!
//! A receiver that takes packets from the kernel in *trains* (one message,
//! one arrival stamp, `n` packets) has one interval per stamp, not per
//! packet. A stamp is one sample standing for `n` arrivals
//! ([`PktTimeWindow::on_train_arrival`]): the filter sees its per-packet
//! spacing and gives it one vote, the estimate counts its packets.
//! Spreading a train over `n` window slots instead would let the one idle
//! gap before a 16-packet train fill the whole window — the very gap the
//! median exists to drop. Which stamps bound a sample, and how many packets
//! it stands for, is the caller's to say (the event core takes the first
//! stamp of each sender flush: [`crate::conn::RcvCore::on_arrivals`]).

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use crate::clock::Nanos;

/// Size of the arrival-interval window (UDT uses 16).
pub const ARRIVAL_WINDOW: usize = 16;
/// Size of the packet-pair window (UDT uses 16 probes ≈ 256 packets).
pub const PROBE_WINDOW: usize = 16;

/// Receiver-side packet timing history.
#[derive(Debug, Clone)]
pub struct PktTimeWindow {
    /// Arrival samples: per-packet interval in nanoseconds, and how many
    /// arrivals were spaced by it (0 = empty slot).
    intervals: [(u64, u32); ARRIVAL_WINDOW],
    interval_pos: usize,
    last_arrival: Option<Nanos>,
    /// Packet-pair spacings, nanoseconds (one pair each).
    probes: [(u64, u32); PROBE_WINDOW],
    probe_pos: usize,
    first_probe_arrival: Option<Nanos>,
}

impl PktTimeWindow {
    /// Fresh, empty history.
    pub fn new() -> PktTimeWindow {
        PktTimeWindow {
            intervals: [(0, 0); ARRIVAL_WINDOW],
            interval_pos: 0,
            last_arrival: None,
            probes: [(0, 0); PROBE_WINDOW],
            probe_pos: 0,
            first_probe_arrival: None,
        }
    }

    /// Record a data packet arrival at `now`.
    pub fn on_pkt_arrival(&mut self, now: Nanos) {
        self.on_train_arrival(now, 1);
    }

    /// Record that `n` data packets arrived in the time from the previous
    /// stamp to `now`: a train the kernel handed over as one message with
    /// one stamp, or a sender's whole flush of such trains. They count as
    /// `n` arrivals evenly spaced over that time — one sample of weight `n`.
    /// `n = 1` is [`PktTimeWindow::on_pkt_arrival`].
    pub fn on_train_arrival(&mut self, now: Nanos, n: u32) {
        if n == 0 {
            return;
        }
        if let Some(last) = self.last_arrival {
            let gap = now.since(last).0 / u64::from(n);
            self.intervals[self.interval_pos] = (gap, n);
            self.interval_pos = (self.interval_pos + 1) % ARRIVAL_WINDOW;
        }
        self.last_arrival = Some(now);
    }

    /// Record the arrival of the *first* packet of a probe pair.
    pub fn on_probe1_arrival(&mut self, now: Nanos) {
        self.first_probe_arrival = Some(now);
    }

    /// Record the arrival of the *second* packet of a probe pair. A pair that
    /// shares one stamp (both packets inside one train) has no measurable
    /// dispersion and records nothing.
    pub fn on_probe2_arrival(&mut self, now: Nanos) {
        self.on_probe2_train_arrival(now, 1);
    }

    /// [`PktTimeWindow::on_probe2_arrival`] for a second packet that heads a
    /// train of `n` stamped `now`: the stamp is the train's, so the spacing
    /// from the pair's first packet is the time `n` packets took to cross,
    /// not one.
    pub fn on_probe2_train_arrival(&mut self, now: Nanos, n: u32) {
        if let Some(first) = self.first_probe_arrival.take() {
            let gap = now.since(first).0 / u64::from(n.max(1));
            if gap > 0 {
                self.probes[self.probe_pos] = (gap, 1);
                self.probe_pos = (self.probe_pos + 1) % PROBE_WINDOW;
            }
        }
    }

    /// Median-filtered packet arrival speed, packets/second. Returns 0.0
    /// while the window lacks a usable consensus (fewer than half the
    /// samples agree within the 8× band).
    pub fn pkt_recv_speed(&self) -> f64 {
        median_filtered_rate(&self.intervals, true)
    }

    /// Median-filtered link capacity estimate, packets/second. Returns 0.0
    /// until enough probe pairs have been observed.
    pub fn bandwidth(&self) -> f64 {
        median_filtered_rate(&self.probes, false)
    }
}

impl Default for PktTimeWindow {
    fn default() -> PktTimeWindow {
        PktTimeWindow::new()
    }
}

/// Shared filter over `(interval, arrivals)` samples: median interval, keep
/// samples in `[m/8, 8m]`, rate = arrivals / time they took. One sample,
/// one vote, whatever its weight: an idle gap is one outlier whether a
/// packet or a train follows it. With one arrival per sample this is the
/// reference filter, bit for bit.
///
/// `require_majority` demands that more than half the window survive (used
/// for arrival speed, where bursts of tiny probe-gaps and idle gaps must not
/// produce an estimate from a sliver of samples). Capacity probes accept any
/// non-empty survivor set, as the reference implementation does.
fn median_filtered_rate(window: &[(u64, u32)], require_majority: bool) -> f64 {
    let mut sorted: Vec<(u64, u32)> = window.iter().copied().filter(|&(v, _)| v > 0).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    if require_majority && sorted.len() <= window.len() / 2 {
        return 0.0;
    }
    sorted.sort_unstable_by_key(|&(v, _)| v);
    let median = sorted[sorted.len() / 2].0;
    let lower = median / 8;
    let upper = median.saturating_mul(8);
    let mut samples = 0;
    let mut count: u64 = 0;
    let mut sum: u64 = 0;
    for &(v, n) in &sorted {
        if v > lower && v < upper {
            samples += 1;
            count += u64::from(n);
            sum += v * u64::from(n);
        }
    }
    if require_majority && samples <= window.len() / 2 {
        return 0.0;
    }
    if count == 0 || sum == 0 {
        return 0.0;
    }
    count as f64 * 1e9 / sum as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_uniform(w: &mut PktTimeWindow, gap_us: u64, n: usize) {
        let mut t = Nanos::ZERO;
        for _ in 0..n {
            w.on_pkt_arrival(t);
            t = t.plus(Nanos::from_micros(gap_us));
        }
    }

    #[test]
    fn empty_window_reports_zero() {
        let w = PktTimeWindow::new();
        assert_eq!(w.pkt_recv_speed(), 0.0);
        assert_eq!(w.bandwidth(), 0.0);
    }

    #[test]
    fn uniform_arrivals_give_exact_rate() {
        let mut w = PktTimeWindow::new();
        feed_uniform(&mut w, 100, 32); // 100 µs gaps → 10_000 pps
        let speed = w.pkt_recv_speed();
        assert!((speed - 10_000.0).abs() < 1.0, "speed={speed}");
    }

    #[test]
    fn idle_gap_is_filtered_out() {
        let mut w = PktTimeWindow::new();
        let mut t = Nanos::ZERO;
        for i in 0..32 {
            w.on_pkt_arrival(t);
            // One 5-second stall in the middle; median filter must ignore it.
            let gap = if i == 16 { 5_000_000 } else { 100 };
            t = t.plus(Nanos::from_micros(gap));
        }
        let speed = w.pkt_recv_speed();
        assert!((speed - 10_000.0).abs() < 50.0, "speed={speed}");
    }

    #[test]
    fn majority_required_for_speed() {
        let mut w = PktTimeWindow::new();
        // Only 4 samples: not a majority of the 16-slot window.
        feed_uniform(&mut w, 100, 5);
        assert_eq!(w.pkt_recv_speed(), 0.0);
    }

    #[test]
    fn probe_pairs_measure_capacity() {
        let mut w = PktTimeWindow::new();
        let mut t = Nanos::ZERO;
        // Pairs spaced 12 µs apart → 83_333 pps ≈ 1 Gb/s at 1500 B.
        for _ in 0..PROBE_WINDOW {
            w.on_probe1_arrival(t);
            t = t.plus(Nanos::from_micros(12));
            w.on_probe2_arrival(t);
            t = t.plus(Nanos::from_micros(500));
        }
        let bw = w.bandwidth();
        assert!((bw - 83_333.3).abs() < 100.0, "bw={bw}");
    }

    #[test]
    fn trains_count_every_packet_they_carry() {
        let mut w = PktTimeWindow::new();
        // 16 trains of 8 packets, one stamp each, 100 µs apart: 80 k pkt/s.
        for k in 0..=16u64 {
            w.on_train_arrival(Nanos::from_micros(100 * k), 8);
        }
        let speed = w.pkt_recv_speed();
        assert!((speed - 80_000.0).abs() < 1.0, "speed={speed}");
    }

    #[test]
    fn idle_gap_before_a_train_is_one_outlier() {
        // A window-limited sender: every 10 ms (one ACK) a burst of four
        // 16-packet trains 20 µs apart. Whenever the window is read, the
        // answer is the burst's rate, not the ACK clock's.
        let mut w = PktTimeWindow::new();
        let mut t = Nanos::ZERO;
        for burst in 0..8 {
            for k in 0..4 {
                let gap = if k == 0 { 10_000 } else { 20 };
                t = t.plus(Nanos::from_micros(gap));
                w.on_train_arrival(t, 16);
                if burst >= 5 {
                    let speed = w.pkt_recv_speed();
                    assert!((speed - 800_000.0).abs() < 1.0, "speed={speed}");
                }
            }
        }
    }

    #[test]
    fn trains_of_one_are_single_arrivals() {
        let (mut singles, mut trains) = (PktTimeWindow::new(), PktTimeWindow::new());
        let mut t = Nanos::ZERO;
        for i in 0..40u64 {
            singles.on_pkt_arrival(t);
            trains.on_train_arrival(t, 1);
            t = t.plus(Nanos(60_000 + (i % 7) * 900));
        }
        assert_eq!(singles.intervals, trains.intervals);
        assert_eq!(singles.pkt_recv_speed(), trains.pkt_recv_speed());
        assert!(singles.pkt_recv_speed() > 0.0);
    }

    #[test]
    fn probe_pair_inside_one_train_records_nothing() {
        let mut w = PktTimeWindow::new();
        let t = Nanos::from_micros(500);
        w.on_train_arrival(t, 8);
        w.on_probe1_arrival(t);
        w.on_probe2_arrival(t);
        assert_eq!(w.bandwidth(), 0.0);
        // The next pair, split over two stamps, is a sample again.
        w.on_probe1_arrival(t.plus(Nanos::from_micros(100)));
        w.on_probe2_arrival(t.plus(Nanos::from_micros(112)));
        assert!((w.bandwidth() - 83_333.3).abs() < 100.0);
    }

    #[test]
    fn probe2_without_probe1_ignored() {
        let mut w = PktTimeWindow::new();
        w.on_probe2_arrival(Nanos::from_micros(10));
        assert_eq!(w.bandwidth(), 0.0);
    }

    #[test]
    fn capacity_estimate_resists_one_queued_pair() {
        let mut w = PktTimeWindow::new();
        let mut t = Nanos::ZERO;
        for i in 0..PROBE_WINDOW {
            w.on_probe1_arrival(t);
            // one pair got spread out by cross traffic (100x gap)
            let gap = if i == 7 { 1_200 } else { 12 };
            t = t.plus(Nanos::from_micros(gap));
            w.on_probe2_arrival(t);
            t = t.plus(Nanos::from_micros(500));
        }
        let bw = w.bandwidth();
        assert!((bw - 83_333.3).abs() < 200.0, "bw={bw}");
    }
}
