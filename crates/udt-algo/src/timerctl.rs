//! Timeout policies: EXP backoff and the growing NAK-resend interval.
//!
//! §3.5 identifies a congestion-collapse mode specific to high-speed
//! transport: *control traffic* itself can swamp the CPU and the reverse
//! path — a lost-packet report that is retransmitted on a fixed short timer
//! generates more work exactly when the system is least able to absorb it.
//! The defence is to grow the expiration interval each time the same packet
//! times out again.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use crate::clock::{Nanos, SYN};

/// Floor for the EXP interval (the reference implementation uses 300 ms so
/// that low-RTT connections don't spin the EXP machinery).
pub const MIN_EXP_INTERVAL: Nanos = Nanos::from_millis(300);

/// The reference thresholds for declaring a silent peer gone: this many
/// consecutive expirations,
pub const MAX_EXP_COUNT: u32 = 16;
/// spanning at least this much silence.
pub const BROKEN_SILENCE_FLOOR: Nanos = Nanos::from_secs(10);

/// EXP (peer-silence) timer backoff.
///
/// The interval is `count · (RTT + 4·RTTVar) + SYN`, floored at
/// `count · MIN_EXP_INTERVAL`; `count` grows by one per consecutive
/// expiration and resets whenever anything arrives from the peer.
#[derive(Debug, Clone)]
pub struct ExpBackoff {
    count: u32,
}

impl ExpBackoff {
    /// Fresh timer (count = 1).
    pub fn new() -> ExpBackoff {
        ExpBackoff { count: 1 }
    }

    /// Current interval to wait before declaring the next expiration.
    pub fn interval(&self, rtt_us: f64, rtt_var_us: f64) -> Nanos {
        let base = Nanos::from_micros((rtt_us + 4.0 * rtt_var_us) as u64);
        let scaled = base.scaled(f64::from(self.count)).plus(SYN);
        let floor = MIN_EXP_INTERVAL.scaled(f64::from(self.count));
        scaled.max(floor)
    }

    /// The timer fired with no peer activity.
    pub fn on_expired(&mut self) {
        self.count = self.count.saturating_add(1);
    }

    /// A packet arrived from the peer: reset the backoff.
    pub fn reset(&mut self) {
        self.count = 1;
    }

    /// Consecutive expirations so far (1 = none yet).
    pub fn count(&self) -> u32 {
        self.count
    }

    /// `true` once the peer has been silent long enough to consider the
    /// connection broken (the reference implementation gives up after 16
    /// expirations spanning at least 10 s of real time; callers combine
    /// this with their own elapsed-time check).
    pub fn is_broken(&self) -> bool {
        self.count >= MAX_EXP_COUNT
    }
}

impl Default for ExpBackoff {
    fn default() -> ExpBackoff {
        ExpBackoff::new()
    }
}

/// NAK-resend pacing for one loss-list entry (§3.1, §3.5).
///
/// A loss is reported immediately when detected; if the retransmission does
/// not arrive, the report is resent — but on an interval that *grows
/// linearly with the number of reports already sent*:
/// `due ⇔ now − last_report > report_count · (RTT + 4·RTTVar)`.
#[inline]
pub fn nak_resend_due(now: Nanos, last_report: Nanos, report_count: u32, base: Nanos) -> bool {
    now.since(last_report) > base.scaled(f64::from(report_count.max(1)))
}

/// The base interval for NAK resends: `RTT + 4·RTTVar`.
#[inline]
pub fn nak_base_interval(rtt_us: f64, rtt_var_us: f64) -> Nanos {
    Nanos::from_micros((rtt_us + 4.0 * rtt_var_us) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_interval_grows_with_count() {
        let mut e = ExpBackoff::new();
        let i1 = e.interval(400_000.0, 50_000.0);
        e.on_expired();
        let i2 = e.interval(400_000.0, 50_000.0);
        assert!(i2 > i1);
    }

    #[test]
    fn exp_floor_applies_at_low_rtt() {
        let e = ExpBackoff::new();
        // 1 ms RTT: raw interval would be ~15 ms; floor at 300 ms.
        assert_eq!(e.interval(1_000.0, 100.0), MIN_EXP_INTERVAL);
    }

    #[test]
    fn exp_reset_restores_count() {
        let mut e = ExpBackoff::new();
        for _ in 0..5 {
            e.on_expired();
        }
        assert_eq!(e.count(), 6);
        e.reset();
        assert_eq!(e.count(), 1);
        assert!(!e.is_broken());
    }

    #[test]
    fn broken_after_sixteen() {
        let mut e = ExpBackoff::new();
        for _ in 0..15 {
            e.on_expired();
        }
        assert!(e.is_broken());
    }

    #[test]
    fn nak_resend_interval_grows() {
        let base = nak_base_interval(100_000.0, 10_000.0);
        assert_eq!(base, Nanos::from_micros(140_000));
        let last = Nanos::from_secs(1);
        // After 1 report: due once > 1 base past the report.
        assert!(!nak_resend_due(last.plus(base), last, 1, base));
        assert!(nak_resend_due(last.plus(base).plus(Nanos(1)), last, 1, base));
        // After 3 reports: need 3 bases.
        assert!(!nak_resend_due(last.plus(base.scaled(3.0)), last, 3, base));
        assert!(nak_resend_due(
            last.plus(base.scaled(3.0)).plus(Nanos(1)),
            last,
            3,
            base
        ));
    }
}
