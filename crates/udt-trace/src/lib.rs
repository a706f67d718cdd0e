//! Unified structured event tracing for the UDT reproduction.
//!
//! The paper treats observability as a first-class concern (§6–§7: the
//! `perfmon` API, the Table 3 CPU breakdown); this crate extends that to
//! *event histories*. One event model — [`TraceEvent`] — is shared by the
//! real-socket stack (`udt`), the discrete-event simulator (`netsim`),
//! the link emulator (`linkemu`) and the fault injector (`udt-chaos`), so
//! injected impairments and protocol reactions interleave on a single
//! timeline regardless of which stack produced them.
//!
//! Pieces:
//! - [`TraceBuf`] — a lock-free bounded overwrite-oldest ring; writers
//!   never block or allocate (seqlock slots).
//! - [`Tracer`] — a cheap cloneable handle. [`Tracer::disabled`] is a
//!   single-branch no-op, so library code can emit unconditionally.
//! - [`Emitter`] — the event spine: a tracer plus a counter family that is
//!   a [`Fold`] over events. One `emit` both counts and records, so a
//!   counter and a trace line cannot disagree, and replaying an export
//!   through the same fold reproduces the live counters.
//! - [`TraceClock`] — the timestamp source. [`MonotonicClock`] wraps
//!   `Instant` for real sockets; [`VirtualClock`] is driven by the
//!   simulator's event loop so sim traces carry virtual time.
//! - [`json`] — JSONL/CSV codec, including the shared parser every
//!   exporter is validated against.
//! - [`flight`] — the flight recorder: on `Broken`, handshake rejection
//!   or invariant failure, dump the ring as JSONL next to run artifacts.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub mod event;
pub mod flight;
pub mod json;
mod ring;

pub use event::{
    BufSide, ConnState, DropReason, EventKind, HsPhase, Label, TimerKind, TraceEvent,
    CPU_CATEGORIES, CPU_CATEGORY_COUNT,
};
pub use ring::TraceBuf;

/// A monotonic nanosecond timestamp source for trace events.
///
/// Real-socket stacks use [`MonotonicClock`]; the simulator drives a
/// [`VirtualClock`] so traces carry virtual time and are directly
/// comparable across the two worlds.
pub trait TraceClock: Send + Sync {
    /// Nanoseconds since this clock's epoch.
    fn now_ns(&self) -> u64;
}

/// Wall-clock-independent monotonic time anchored at construction.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// Anchor the clock now.
    pub fn start() -> MonotonicClock {
        MonotonicClock {
            epoch: Instant::now(),
        }
    }
}

impl TraceClock for MonotonicClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Simulator-driven virtual time: the owner (e.g. `netsim::Simulator`)
/// advances it with [`VirtualClock::set_ns`] as the event loop runs.
#[derive(Debug, Default)]
pub struct VirtualClock {
    t: AtomicU64,
}

impl VirtualClock {
    /// A clock at t = 0.
    pub fn new() -> VirtualClock {
        VirtualClock {
            t: AtomicU64::new(0),
        }
    }

    /// Advance (or rewind, for a fresh run) the virtual time.
    #[inline]
    pub fn set_ns(&self, t_ns: u64) {
        self.t.store(t_ns, Ordering::Release);
    }
}

impl TraceClock for VirtualClock {
    #[inline]
    fn now_ns(&self) -> u64 {
        self.t.load(Ordering::Acquire)
    }
}

struct TracerInner {
    buf: TraceBuf,
    clock: Arc<dyn TraceClock>,
}

/// Cheap cloneable tracing handle.
///
/// A disabled tracer ([`Tracer::disabled`], also the `Default`) makes
/// [`Tracer::emit`] a single branch — callers never need to guard
/// emission sites. All clones of an enabled tracer share one ring and one
/// clock, so events from the sender thread, receiver thread and an
/// impairment chain land on the same timeline.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

/// Default ring capacity (events) used by [`Tracer::ring`] callers that
/// don't have a better number.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

impl Tracer {
    /// A no-op tracer: `emit` is one branch, zero allocation.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer with its own [`MonotonicClock`].
    pub fn ring(capacity: usize) -> Tracer {
        Tracer::with_clock(capacity, Arc::new(MonotonicClock::start()))
    }

    /// An enabled tracer stamping events from `clock` (share one
    /// [`VirtualClock`] across a simulation, or one [`MonotonicClock`]
    /// across a process, to get a single comparable timeline).
    pub fn with_clock(capacity: usize, clock: Arc<dyn TraceClock>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                buf: TraceBuf::new(capacity),
                clock,
            })),
        }
    }

    /// Is this tracer recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record an event stamped with the tracer clock's current time.
    #[inline]
    pub fn emit(&self, conn: u32, kind: EventKind) {
        if let Some(inner) = &self.inner {
            inner.buf.push(TraceEvent {
                t_ns: inner.clock.now_ns(),
                conn,
                kind,
            });
        }
    }

    /// Record an event with an explicit timestamp (used where the caller
    /// already knows the exact time, e.g. simulator agents and the
    /// impairment chain).
    #[inline]
    pub fn emit_at(&self, t_ns: u64, conn: u32, kind: EventKind) {
        if let Some(inner) = &self.inner {
            inner.buf.push(TraceEvent { t_ns, conn, kind });
        }
    }

    /// The tracer clock's current time (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Copy out the retained events, sorted by timestamp. Empty when
    /// disabled.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => {
                let mut v = inner.buf.snapshot();
                v.sort_by_key(|e| e.t_ns);
                v
            }
        }
    }

    /// Total events pushed since creation (0 when disabled).
    pub fn pushed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.buf.pushed())
    }
}

/// A counter family that is a pure function of the events it is shown:
/// `apply` adds to whichever counters `kind` moves and ignores the rest.
/// Always on: an [`Emitter`] applies it whether or not the tracer records.
pub trait Fold {
    /// Count `kind`.
    fn apply(&self, kind: &EventKind);
}

/// Where a component's events go: folded into its counters `F`, then into
/// `tracer` tagged with a connection id. The counters live behind an `Arc`
/// so accessors, the metrics registry and every clone of the handle read
/// the same numbers.
#[derive(Debug, Default)]
pub struct Emitter<F> {
    tracer: Tracer,
    conn: u32,
    offset_ns: u64,
    counters: Arc<F>,
}

impl<F> Clone for Emitter<F> {
    fn clone(&self) -> Emitter<F> {
        Emitter {
            tracer: self.tracer.clone(),
            conn: self.conn,
            offset_ns: self.offset_ns,
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<F> Emitter<F> {
    /// Events for connection `conn` over fresh counters. `offset_ns` is what
    /// the tracer's clock read when the timeline [`Emitter::emit_at`] is
    /// given read zero (0 where the two are one timeline, as in a
    /// simulator, or where `emit_at` is not used).
    pub fn new(tracer: Tracer, conn: u32, offset_ns: u64) -> Emitter<F>
    where
        F: Default,
    {
        Emitter {
            tracer,
            conn,
            offset_ns,
            counters: Arc::default(),
        }
    }

    /// The counters every event is folded into.
    pub fn counters(&self) -> &Arc<F> {
        &self.counters
    }

    /// The tracer events are recorded in.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

impl<F: Fold> Emitter<F> {
    /// Count and record `kind`, stamped with the tracer clock's time.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        self.emit_as(self.conn, kind);
    }

    /// As [`Emitter::emit`], tagged `conn` (a listener speaks for many
    /// peers).
    #[inline]
    pub fn emit_as(&self, conn: u32, kind: EventKind) {
        self.counters.apply(&kind);
        self.tracer.emit(conn, kind);
    }

    /// Count and record `kind` as having happened at `now_ns` on the
    /// caller's own timeline.
    #[inline]
    pub fn emit_at(&self, now_ns: u64, kind: EventKind) {
        self.counters.apply(&kind);
        self.tracer
            .emit_at(now_ns.saturating_add(self.offset_ns), self.conn, kind);
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(i) => write!(
                f,
                "Tracer(enabled, cap={}, pushed={})",
                i.buf.capacity(),
                i.buf.pushed()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(1, EventKind::BwEstimate { pps: 1.0 });
        assert!(t.snapshot().is_empty());
        assert_eq!(t.pushed(), 0);
        assert_eq!(t.now_ns(), 0);
        assert_eq!(format!("{t:?}"), "Tracer(disabled)");
    }

    #[test]
    fn clones_share_one_ring() {
        let t = Tracer::ring(64);
        let t2 = t.clone();
        t.emit(1, EventKind::BwEstimate { pps: 1.0 });
        t2.emit(2, EventKind::BwEstimate { pps: 2.0 });
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(t2.pushed(), 2);
    }

    #[test]
    fn monotonic_clock_advances() {
        let t = Tracer::ring(8);
        t.emit(1, EventKind::BwEstimate { pps: 1.0 });
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.emit(1, EventKind::BwEstimate { pps: 2.0 });
        let snap = t.snapshot();
        assert!(snap[1].t_ns > snap[0].t_ns);
    }

    #[test]
    fn virtual_clock_stamps_sim_time() {
        let clock = Arc::new(VirtualClock::new());
        let t = Tracer::with_clock(8, clock.clone());
        clock.set_ns(1_000);
        t.emit(1, EventKind::BwEstimate { pps: 1.0 });
        clock.set_ns(5_000);
        t.emit(1, EventKind::BwEstimate { pps: 2.0 });
        t.emit_at(3_000, 1, EventKind::BwEstimate { pps: 3.0 });
        let snap = t.snapshot();
        let times: Vec<u64> = snap.iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![1_000, 3_000, 5_000]);
    }

    #[test]
    fn snapshot_sorts_across_producers() {
        let t = Tracer::ring(64);
        t.emit_at(50, 1, EventKind::BwEstimate { pps: 1.0 });
        t.emit_at(10, 2, EventKind::BwEstimate { pps: 2.0 });
        t.emit_at(30, 1, EventKind::BwEstimate { pps: 3.0 });
        let times: Vec<u64> = t.snapshot().iter().map(|e| e.t_ns).collect();
        assert_eq!(times, vec![10, 30, 50]);
    }
}
