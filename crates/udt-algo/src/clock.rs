//! Time types shared by the real and simulated hosts.
//!
//! All algorithm code in this crate measures time as [`Nanos`] — nanoseconds
//! since an arbitrary per-connection epoch. The host decides what the epoch
//! is (connection start in the real library, simulation start in `netsim`).

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;
/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// The SYN interval: UDT's constant rate-control / ACK clock, 0.01 s (§3.3).
///
/// The paper motivates the constant (rather than RTT-proportional) interval
/// as the source of UDT's RTT fairness, and discusses the trade-off it sets
/// between efficiency, TCP friendliness and stability (§3.7).
pub const SYN: Nanos = Nanos::from_micros(10_000);
/// SYN in microseconds, for rate arithmetic done in µs.
pub const SYN_US: f64 = 10_000.0;

/// A point in time (or a span), in nanoseconds since the host's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero (the epoch).
    pub const ZERO: Nanos = Nanos(0);

    /// From whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * NANOS_PER_SEC)
    }

    /// From fractional seconds (rounds to nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Nanos {
        debug_assert!(s >= 0.0);
        Nanos((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// From whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// From whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * NANOS_PER_MICRO)
    }

    /// As fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// As whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// The protocol's wire timestamp: whole microseconds, mod 2^32.
    #[inline]
    pub const fn wire_micros(self) -> u32 {
        // udt-lint: allow(as-cast) — the wire timestamp field is 32-bit
        (self.as_micros() & 0xFFFF_FFFF) as u32
    }

    /// As fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// Saturating difference `self − earlier`.
    #[inline]
    #[must_use]
    pub const fn since(self, earlier: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked/saturating addition.
    #[inline]
    #[must_use]
    pub const fn plus(self, dur: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(dur.0))
    }

    /// Scale a duration by a factor (used for backoff multipliers).
    #[inline]
    #[must_use]
    pub fn scaled(self, factor: f64) -> Nanos {
        debug_assert!(factor >= 0.0);
        Nanos((self.0 as f64 * factor) as u64)
    }
}

impl std::ops::Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        self.plus(rhs)
    }
}

impl std::ops::Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        self.since(rhs)
    }
}

impl From<std::time::Duration> for Nanos {
    fn from(d: std::time::Duration) -> Nanos {
        Nanos(d.as_nanos().min(u128::from(u64::MAX)) as u64)
    }
}

impl From<Nanos> for std::time::Duration {
    fn from(n: Nanos) -> std::time::Duration {
        std::time::Duration::from_nanos(n.0)
    }
}

impl std::fmt::Display for Nanos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_secs(2).0, 2 * NANOS_PER_SEC);
        assert_eq!(Nanos::from_millis(3).0, 3_000_000);
        assert_eq!(Nanos::from_micros(5).as_micros(), 5);
        assert!((Nanos::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn syn_is_ten_ms() {
        assert_eq!(SYN.as_micros(), 10_000);
        assert_eq!(SYN_US, 10_000.0);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Nanos(5).since(Nanos(9)), Nanos::ZERO);
        assert_eq!(Nanos(9).since(Nanos(5)), Nanos(4));
    }

    #[test]
    fn add_sub_ops() {
        assert_eq!(Nanos(4) + Nanos(6), Nanos(10));
        assert_eq!(Nanos(10) - Nanos(6), Nanos(4));
    }

    #[test]
    fn duration_roundtrip() {
        let d = std::time::Duration::from_micros(1234);
        let n: Nanos = d.into();
        let back: std::time::Duration = n.into();
        assert_eq!(d, back);
    }

    #[test]
    fn scaled_backoff() {
        assert_eq!(Nanos(1000).scaled(1.5), Nanos(1500));
    }
}
