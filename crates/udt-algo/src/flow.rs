//! Dynamic flow (window) control, §3.2.
//!
//! Rate control is UDT's primary mechanism; the flow window is the
//! *supportive* mechanism that bounds the number of unacknowledged packets
//! so that a sole rate controller cannot keep pouring packets into a
//! congested path until a timeout (one of the two congestion-collapse forms
//! discussed in §3.5; Figure 7 shows the oscillation damping it buys).
//!
//! The congestion window is computed **at the receiver** from the measured
//! packet arrival speed `AS`:
//!
//! ```text
//! W = AS · (SYN + RTT)
//! ```
//!
//! using arrival (not sending) speed because it reflects what the path
//! actually delivered, and `SYN + RTT` (not just RTT) because ACKs are
//! timer-based: a packet may wait up to one SYN for the ACK that releases
//! window space. The value fed back in each ACK is
//! `min(W, available receiver buffer)`, which folds flow control proper into
//! the same field.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use crate::clock::SYN;
use crate::history::PktTimeWindow;
use crate::rtt::RttEstimator;

/// Receiver-side flow window computation.
#[derive(Debug, Clone)]
pub struct FlowWindow {
    /// Upper bound negotiated at handshake (receiver buffer capacity, pkts).
    max_window: u32,
    /// Floor applied before the arrival-speed filter warms up.
    min_window: u32,
    current: u32,
    /// `current` has been computed from an arrival-speed estimate at least
    /// once (until then it is the cold-start floor).
    measured: bool,
}

/// Default minimum window: enough to keep the estimator fed from a cold
/// start (matches UDT's initial window of 16).
pub const MIN_FLOW_WINDOW: u32 = 16;

impl FlowWindow {
    /// New window bounded by the handshake-negotiated maximum.
    pub fn new(max_window: u32) -> FlowWindow {
        FlowWindow {
            max_window,
            min_window: MIN_FLOW_WINDOW.min(max_window),
            current: MIN_FLOW_WINDOW.min(max_window),
            measured: false,
        }
    }

    /// Recompute `W = AS·(SYN+RTT)` from current receiver statistics.
    /// Called when emitting a full ACK. Returns the new window.
    pub fn update(&mut self, history: &PktTimeWindow, rtt: &RttEstimator) -> u32 {
        self.update_with_syn(history, rtt, SYN)
    }

    /// [`FlowWindow::update`] with a non-default control interval (the
    /// SYN-sweep ablation).
    pub fn update_with_syn(
        &mut self,
        history: &PktTimeWindow,
        rtt: &RttEstimator,
        syn: crate::clock::Nanos,
    ) -> u32 {
        let speed = history.pkt_recv_speed();
        if speed > 0.0 {
            let w = speed * (syn.as_secs_f64() + rtt.rtt().as_secs_f64());
            self.current = (w as u32).clamp(self.min_window, self.max_window);
            self.measured = true;
        }
        self.current
    }

    /// The value to advertise in an ACK: `min(W, free receiver buffer)`.
    pub fn advertised(&self, avail_buf_pkts: u32) -> u32 {
        self.current.min(avail_buf_pkts).max(2)
    }

    /// Current computed window.
    #[inline]
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Whether the window has ever been computed from a measured arrival
    /// speed; `false` while it is still the cold-start floor.
    #[inline]
    pub fn is_measured(&self) -> bool {
        self.measured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Nanos;

    fn warm_history(gap_us: u64) -> PktTimeWindow {
        let mut h = PktTimeWindow::new();
        let mut t = Nanos::ZERO;
        for _ in 0..32 {
            h.on_pkt_arrival(t);
            t = t.plus(Nanos::from_micros(gap_us));
        }
        h
    }

    #[test]
    fn cold_start_uses_min_window() {
        let mut w = FlowWindow::new(25_600);
        let h = PktTimeWindow::new();
        let rtt = RttEstimator::new(Nanos::from_millis(100));
        assert_eq!(w.update(&h, &rtt), MIN_FLOW_WINDOW);
        assert!(!w.is_measured());
        w.update(&warm_history(100), &rtt);
        assert!(w.is_measured());
    }

    #[test]
    fn tracks_as_times_syn_plus_rtt() {
        let mut w = FlowWindow::new(1_000_000);
        let h = warm_history(100); // 10_000 pps
        let mut rtt = RttEstimator::new(Nanos::from_millis(100));
        rtt.update(Nanos::from_millis(90)); // RTT 90 ms
        let got = w.update(&h, &rtt);
        // 10_000 pps * (0.01 + 0.09) s = 1000 packets.
        assert!((i64::from(got) - 1000).abs() <= 2, "got={got}");
    }

    #[test]
    fn clamped_to_max() {
        let mut w = FlowWindow::new(100);
        let h = warm_history(10); // 100_000 pps
        let mut rtt = RttEstimator::new(Nanos::from_millis(100));
        rtt.update(Nanos::from_millis(100));
        assert_eq!(w.update(&h, &rtt), 100);
    }

    #[test]
    fn advertised_respects_buffer() {
        let mut w = FlowWindow::new(10_000);
        let h = warm_history(100);
        let mut rtt = RttEstimator::new(Nanos::from_millis(100));
        rtt.update(Nanos::from_millis(90));
        w.update(&h, &rtt);
        assert_eq!(w.advertised(50), 50);
        assert_eq!(w.advertised(1_000_000), w.current());
        // Never advertises below 2 even with a full buffer.
        assert_eq!(w.advertised(0), 2);
    }
}
