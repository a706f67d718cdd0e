//! Per-category CPU-time accounting (§6, Table 3; Figure 14).
//!
//! The paper stresses that "knowing how much CPU time each part of the
//! protocol costs helps to make an efficient implementation", and reports
//! (via VTune) that UDP syscalls dominate, followed by timing and data
//! packing. We reproduce that breakdown with lightweight scope timers
//! around the same code regions; `bench exp tbl3` prints the resulting ratio
//! table.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where time is being spent (the paper's Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Category {
    /// `sendto` on the UDP socket.
    UdpSend = 0,
    /// `recvfrom` on the UDP socket (including bounded waits).
    UdpRecv = 1,
    /// High-precision send pacing (sleep + spin).
    Timing = 2,
    /// Packing data into packets / buffer bookkeeping on the send path.
    Packing = 3,
    /// Unpacking arriving data into the receive buffer.
    Unpacking = 4,
    /// Control-packet generation and processing (ACK/ACK2/handshake).
    Control = 5,
    /// Loss-list operations and NAK processing.
    Loss = 6,
    /// Copying between protocol buffers and the application.
    AppInteraction = 7,
    /// Bandwidth/RTT/arrival-speed measurement.
    Measurement = 8,
}

/// Number of categories.
pub const N_CATEGORIES: usize = 9;

/// Human-readable labels, index-aligned with [`Category`].
pub const CATEGORY_NAMES: [&str; N_CATEGORIES] = [
    "UDP writing",
    "UDP reading",
    "Timing",
    "Packing data",
    "Unpacking data",
    "Processing control packets",
    "Loss processing",
    "Application interaction",
    "Bandwidth/RTT/arrival measurement",
];

/// Accumulated nanoseconds per category. Cheap enough to leave always-on.
#[derive(Debug, Default)]
pub struct Instrument {
    nanos: [AtomicU64; N_CATEGORIES],
}

impl Instrument {
    /// Fresh shared instrument.
    pub fn new() -> Arc<Instrument> {
        Arc::new(Instrument::default())
    }

    /// Time a scope: the guard adds elapsed time to `cat` when dropped.
    #[inline]
    pub fn scope(&self, cat: Category) -> ScopeTimer<'_> {
        ScopeTimer {
            instr: self,
            cat,
            start: Instant::now(),
        }
    }

    /// Add a pre-measured duration.
    #[inline]
    pub fn add(&self, cat: Category, nanos: u64) {
        self.nanos[cat as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total nanoseconds recorded for a category.
    pub fn get(&self, cat: Category) -> u64 {
        self.nanos[cat as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of all categories, in nanoseconds.
    pub fn snapshot(&self) -> [u64; N_CATEGORIES] {
        std::array::from_fn(|i| self.nanos[i].load(Ordering::Relaxed))
    }

    /// Per-category share of the total recorded time (sums to ~1).
    pub fn ratios(&self) -> [f64; N_CATEGORIES] {
        let snap = self.snapshot();
        let total: u64 = snap.iter().sum();
        if total == 0 {
            return [0.0; N_CATEGORIES];
        }
        std::array::from_fn(|i| snap[i] as f64 / total as f64)
    }
}

/// RAII scope timer from [`Instrument::scope`].
pub struct ScopeTimer<'a> {
    instr: &'a Instrument,
    cat: Category,
    start: Instant,
}

impl Drop for ScopeTimer<'_> {
    fn drop(&mut self) {
        self.instr
            .add(self.cat, self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_accumulates() {
        let i = Instrument::default();
        {
            let _t = i.scope(Category::UdpSend);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(i.get(Category::UdpSend) >= 1_500_000);
        assert_eq!(i.get(Category::Timing), 0);
    }

    #[test]
    fn ratios_sum_to_one() {
        let i = Instrument::default();
        i.add(Category::UdpSend, 600);
        i.add(Category::Timing, 300);
        i.add(Category::Loss, 100);
        let r = i.ratios();
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((r[Category::UdpSend as usize] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let i = Instrument::default();
        assert_eq!(i.ratios().iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn names_align() {
        assert_eq!(CATEGORY_NAMES.len(), N_CATEGORIES);
        assert_eq!(CATEGORY_NAMES[Category::Loss as usize], "Loss processing");
    }

    #[test]
    fn category_names_match_trace_schema() {
        // The udt-trace crate re-declares the Table 3 category list so its
        // `CpuBreakdown` events are self-describing without a dependency
        // on this crate. The two must never drift.
        assert_eq!(udt_trace::CPU_CATEGORY_COUNT, N_CATEGORIES);
        assert_eq!(udt_trace::CPU_CATEGORIES, CATEGORY_NAMES);
    }

    #[test]
    fn add_and_snapshot_are_index_aligned() {
        let i = Instrument::default();
        for c in [
            Category::UdpSend,
            Category::UdpRecv,
            Category::Timing,
            Category::Packing,
            Category::Unpacking,
            Category::Control,
            Category::Loss,
            Category::AppInteraction,
            Category::Measurement,
        ] {
            i.add(c, c as u64 + 1);
        }
        let snap = i.snapshot();
        for (idx, v) in snap.iter().enumerate() {
            assert_eq!(*v, idx as u64 + 1, "category {idx} misrouted");
        }
    }

    #[test]
    fn loopback_transfer_books_plausible_category_times() {
        use crate::config::UdtConfig;
        use crate::conn::UdtConnection;
        use crate::socket::UdtListener;

        let listener =
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut buf = vec![0u8; 1 << 16];
            while conn.recv(&mut buf).unwrap() > 0 {}
        });
        let t0 = Instant::now();
        let conn = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
        conn.send(&vec![7u8; 4_000_000]).unwrap();
        conn.close().unwrap();
        let wall = t0.elapsed().as_nanos() as u64;
        server.join().unwrap();

        let snap = conn.instrument().snapshot();
        let total: u64 = snap.iter().sum();
        assert!(total > 0, "a real transfer must book CPU time");
        // The send path must have booked something in its core categories.
        assert!(snap[Category::UdpSend as usize] > 0, "no UDP send time");
        assert!(
            snap[Category::AppInteraction as usize] > 0,
            "no app-copy time"
        );
        // Categories are CPU scopes inside two protocol threads plus the
        // app thread: their sum cannot plausibly exceed thread-count ×
        // wall time (with slack for timer quantisation). Catches a scope
        // accidentally nested inside another or a unit mix-up.
        assert!(
            total < wall.saturating_mul(4),
            "categories sum to {total} ns over {wall} ns of wall time"
        );
    }
}
