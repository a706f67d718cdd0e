//! RTT and RTT-variance estimation.
//!
//! UDT smooths RTT samples (obtained from ACK/ACK2 pairing, see
//! [`crate::ackwindow`]) with the classic exponential weights also used by
//! TCP: 7/8 on the mean, 3/4 on the variance.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use crate::clock::Nanos;

/// Exponentially-weighted RTT estimator.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    rtt_us: f64,
    rtt_var_us: f64,
    initialized: bool,
}

impl RttEstimator {
    /// New estimator seeded with an initial guess (UDT seeds 100 ms until
    /// the first sample arrives; the handshake usually provides one much
    /// sooner).
    pub fn new(initial: Nanos) -> RttEstimator {
        let us = initial.as_micros_f64();
        RttEstimator {
            rtt_us: us,
            rtt_var_us: us / 2.0,
            initialized: false,
        }
    }

    /// Incorporate one RTT sample.
    pub fn update(&mut self, sample: Nanos) {
        let s = sample.as_micros_f64();
        if !self.initialized {
            self.rtt_us = s;
            self.rtt_var_us = s / 2.0;
            self.initialized = true;
            return;
        }
        self.rtt_var_us = self.rtt_var_us * 0.75 + (self.rtt_us - s).abs() * 0.25;
        self.rtt_us = self.rtt_us * 0.875 + s * 0.125;
    }

    /// Smoothed RTT in microseconds.
    #[inline]
    pub fn rtt_us(&self) -> f64 {
        self.rtt_us
    }

    /// RTT variance in microseconds.
    #[inline]
    pub fn rtt_var_us(&self) -> f64 {
        self.rtt_var_us
    }

    /// Smoothed RTT as a duration.
    #[inline]
    pub fn rtt(&self) -> Nanos {
        Nanos((self.rtt_us * 1_000.0) as u64)
    }

    /// RTT + 4·RTTVar: how long an exchange with the peer may take before
    /// it counts as lost (NAK resends, ACK and `Shutdown` repeats).
    #[inline]
    pub fn bound(&self) -> Nanos {
        crate::timerctl::nak_base_interval(self.rtt_us, self.rtt_var_us)
    }

    /// `(RTT, RTTVar)` as the protocol's 32-bit microsecond fields (ACKs,
    /// trace events).
    #[inline]
    pub fn wire(&self) -> (u32, u32) {
        // udt-lint: allow(as-cast) — estimates fit the 32-bit µs fields
        (self.rtt_us as u32, self.rtt_var_us as u32)
    }

    /// `true` once at least one real sample has been absorbed.
    #[inline]
    pub fn has_sample(&self) -> bool {
        self.initialized
    }

    /// Accept peer-reported smoothed values (carried in full ACKs; UDT keeps
    /// both directions loosely in sync this way).
    pub fn absorb_peer(&mut self, rtt_us: u32, rtt_var_us: u32) {
        if rtt_us == 0 {
            return;
        }
        if !self.initialized {
            self.rtt_us = f64::from(rtt_us);
            self.rtt_var_us = f64::from(rtt_var_us);
            self.initialized = true;
        } else {
            self.rtt_var_us = self.rtt_var_us * 0.75 + (self.rtt_us - f64::from(rtt_us)).abs() * 0.25;
            self.rtt_us = self.rtt_us * 0.875 + f64::from(rtt_us) * 0.125;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_replaces_seed() {
        let mut e = RttEstimator::new(Nanos::from_millis(100));
        e.update(Nanos::from_millis(10));
        assert!((e.rtt_us() - 10_000.0).abs() < 1e-9);
        assert!(e.has_sample());
    }

    #[test]
    fn converges_to_constant_samples() {
        let mut e = RttEstimator::new(Nanos::from_millis(100));
        for _ in 0..100 {
            e.update(Nanos::from_millis(20));
        }
        assert!((e.rtt_us() - 20_000.0).abs() < 1.0);
        assert!(e.rtt_var_us() < 1.0);
    }

    #[test]
    fn smoothing_dampens_outlier() {
        let mut e = RttEstimator::new(Nanos::from_millis(100));
        for _ in 0..50 {
            e.update(Nanos::from_millis(10));
        }
        e.update(Nanos::from_millis(100));
        // One 10x outlier moves the mean by only 1/8 of the difference.
        assert!(e.rtt_us() < 10_000.0 + 0.126 * 90_000.0);
    }

    #[test]
    fn absorb_peer_ignores_zero() {
        let mut e = RttEstimator::new(Nanos::from_millis(100));
        e.absorb_peer(0, 0);
        assert!(!e.has_sample());
        e.absorb_peer(5_000, 2_500);
        assert!(e.has_sample());
        assert!((e.rtt_us() - 5_000.0).abs() < 1e-9);
    }
}
