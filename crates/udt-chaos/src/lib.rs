//! Deterministic fault injection for UDT experiments and tests.
//!
//! The paper's hardest results are about behaviour under adversity:
//! loss-driven AIMD response (Figs 2–7), fragmentation "segmentation
//! collapse" (Fig 15), and concurrent-flow fairness. This crate provides a
//! reusable, seeded impairment pipeline that both packet paths in the
//! workspace share:
//!
//! * `netsim` links (virtual time, packet metadata only),
//! * the `linkemu` UDP relay (real sockets, raw datagrams) — shaped, or
//!   as a pure fault injector (`LinkEmu::from_scenario`).
//!
//! The crate itself is pure computation: it opens no socket and spawns no
//! thread.
//!
//! # Model
//!
//! An [`Impairment`] inspects one packet and returns a [`Fate`]: pass,
//! delay, drop, duplicate, or corrupt. An [`ImpairmentChain`] threads a
//! packet through a sequence of impairments, accumulating delay and
//! fanning out duplicates; a drop short-circuits. Each stage is driven by
//! its own `SmallRng` derived deterministically from the scenario seed, so
//! **the same seed and the same packet sequence produce the identical
//! fault schedule, byte for byte** — any failing schedule is replayable.
//!
//! Per-stage counters ([`udt_metrics::counters::FaultCounters`]) record
//! what was actually injected, so tests can assert on injected faults
//! rather than hoping the schedule hit.
//!
//! A [`scenario::Scenario`] is a declarative description — name, seed,
//! per-direction impairment chains (the schedule lives in time-windowed
//! impairments such as [`scenario::ImpairmentSpec::Blackout`]) — that each
//! layer turns into concrete chains via [`scenario::Scenario::build`].

use std::sync::Arc;

use udt_metrics::counters::FaultCounters;
use udt_trace::{EventKind, Label, Tracer};

pub mod impairments;
pub mod scenario;

pub use scenario::{Direction, ImpairmentSpec, Scenario};

/// One packet traversing an impairment chain.
pub struct ChaosPacket<'a> {
    /// Running per-direction packet index (0-based).
    pub index: u64,
    /// Wire size in bytes.
    pub size: usize,
    /// Raw datagram bytes when the layer has them (linkemu);
    /// `None` inside the discrete-event simulator.
    pub data: Option<&'a mut Vec<u8>>,
}

/// What a single impairment decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Untouched.
    Pass,
    /// Deliver after this many extra microseconds (jitter, reorder, rate
    /// clamp backlog).
    Delay(u64),
    /// Lost.
    Drop,
    /// Deliver the original plus this many extra copies.
    Duplicate(u32),
    /// Payload bytes were modified in place.
    Corrupt,
}

/// Kind tag of an injected fault, for the replayable schedule log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FateKind {
    /// Extra delay was injected.
    Delay,
    /// The packet was dropped.
    Drop,
    /// Extra copies were injected.
    Duplicate,
    /// The payload was corrupted.
    Corrupt,
    /// A forged or replayed datagram was inserted into the stream.
    Inject,
}

/// A whole datagram an adversarial impairment wants *inserted* into the
/// stream — a forgery or a capture-and-replay — scheduled `delay_us`
/// after the packet that provoked it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Release delay relative to the provoking packet, µs.
    pub delay_us: u64,
    /// Raw datagram bytes to insert.
    pub data: Vec<u8>,
}

/// One entry of the injected-fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Packet index the fault hit.
    pub pkt: u64,
    /// Name of the impairment stage that acted.
    pub stage: &'static str,
    /// What was injected.
    pub kind: FateKind,
    /// Microseconds of injected delay (0 unless `kind == Delay`) or extra
    /// copies (for `Duplicate`).
    pub magnitude: u64,
}

/// Chain verdict for one offered packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Extra delay (µs) for each copy to deliver. Empty = dropped.
    /// `copies[0]` is the original; further entries are duplicates.
    pub copies: Vec<u64>,
    /// Whether any stage corrupted the payload bytes.
    pub corrupted: bool,
    /// Datagrams adversarial stages want inserted alongside (forged or
    /// replayed); delivered even when the provoking packet was dropped.
    pub injections: Vec<Injection>,
}

impl Verdict {
    /// Whether the packet (all copies) was dropped.
    pub fn dropped(&self) -> bool {
        self.copies.is_empty()
    }
}

/// A single fault model. Implementations must be deterministic functions
/// of (construction seed, call sequence): no wall-clock or global state.
pub trait Impairment: Send {
    /// Stable stage name (used for counters and the fault log).
    fn name(&self) -> &'static str;

    /// Decide this packet's fate. `now_us` is the layer's clock:
    /// virtual time in netsim, relay-relative wall time in linkemu.
    fn apply(&mut self, now_us: u64, pkt: &mut ChaosPacket<'_>) -> Fate;

    /// Datagrams this impairment wants *inserted* into the stream on top
    /// of the offered packet (forgery, capture-and-replay). The chain
    /// drains this after every `apply`; passive impairments — all the
    /// classic loss/delay models — inject nothing.
    fn drain_injections(&mut self) -> Vec<Injection> {
        Vec::new()
    }
}

/// Gap between duplicate copies, µs. Small and fixed so duplicate bursts
/// stress receiver dedup without reordering across later traffic.
pub const DUP_GAP_US: u64 = 20;

/// An ordered sequence of impairments applied per packet.
///
/// Drop short-circuits; delays accumulate; duplicates fan out after the
/// full chain has run (copies inherit the accumulated delay, spaced
/// [`DUP_GAP_US`] apart).
pub struct ImpairmentChain {
    stages: Vec<Box<dyn Impairment>>,
    counters: Vec<Arc<FaultCounters>>,
    log: Option<Vec<FaultEvent>>,
    next_index: u64,
    /// Structured event sink: every injected fault also lands on the
    /// trace timeline as a `chaos` event. Disabled by default.
    tracer: Tracer,
    /// Connection/flow tag for emitted chaos events.
    trace_conn: u32,
}

impl ImpairmentChain {
    /// Chain over the given stages.
    pub fn new(stages: Vec<Box<dyn Impairment>>) -> ImpairmentChain {
        let counters = stages
            .iter()
            .map(|_| Arc::new(FaultCounters::default()))
            .collect();
        ImpairmentChain {
            stages,
            counters,
            log: None,
            next_index: 0,
            tracer: Tracer::disabled(),
            trace_conn: 0,
        }
    }

    /// Record every injected fault for later replay comparison.
    pub fn with_log(mut self) -> ImpairmentChain {
        self.log = Some(Vec::new());
        self
    }

    /// Also emit every injected fault as a [`EventKind::ChaosFault`] trace
    /// event tagged with `conn`, so impairments and the protocol's
    /// reactions (NAK, EXP, Broken) interleave on one timeline. The
    /// event timestamp is the chain's own clock (`now_us` of `apply`),
    /// which each layer already aligns with its trace clock.
    pub fn with_tracer(mut self, tracer: Tracer, conn: u32) -> ImpairmentChain {
        self.tracer = tracer;
        self.trace_conn = conn;
        self
    }

    /// Static so it can run while `apply` holds a mutable borrow of the
    /// stage list (a cloned [`Tracer`] shares the same ring).
    fn trace_fault(
        tracer: &Tracer,
        conn: u32,
        now_us: u64,
        stage: &'static str,
        kind: FateKind,
        magnitude: u64,
    ) {
        if !tracer.is_enabled() {
            return;
        }
        let kind = match kind {
            FateKind::Delay => "delay",
            FateKind::Drop => "drop",
            FateKind::Duplicate => "dup",
            FateKind::Corrupt => "corrupt",
            FateKind::Inject => "inject",
        };
        tracer.emit_at(
            now_us.saturating_mul(1000),
            conn,
            EventKind::ChaosFault {
                stage: Label::new(stage),
                kind: Label::new(kind),
                magnitude,
            },
        );
    }

    /// Whether the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Per-stage counter handles `(stage name, counters)`. The handles
    /// stay valid after the chain moves into a relay thread.
    pub fn counter_handles(&self) -> Vec<(&'static str, Arc<FaultCounters>)> {
        self.stages
            .iter()
            .zip(&self.counters)
            .map(|(s, c)| (s.name(), Arc::clone(c)))
            .collect()
    }

    /// The injected-fault schedule recorded so far (if logging).
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.log.as_deref().unwrap_or(&[])
    }

    /// Run one packet through every stage.
    pub fn apply(&mut self, now_us: u64, size: usize, data: Option<&mut Vec<u8>>) -> Verdict {
        let index = self.next_index;
        self.next_index += 1;
        let (tracer, trace_conn) = (self.tracer.clone(), self.trace_conn);
        let mut pkt = ChaosPacket { index, size, data };
        let mut delay_us = 0u64;
        let mut extra_copies = 0u32;
        let mut corrupted = false;
        let mut injections: Vec<Injection> = Vec::new();
        for (stage, counters) in self.stages.iter_mut().zip(&self.counters) {
            counters.record_seen();
            let fate = stage.apply(now_us, &mut pkt);
            // Drain forged/replayed datagrams even when this stage (or a
            // later one) drops the provoking packet: the adversary's
            // injections ride the wire regardless of the original's fate.
            for inj in stage.drain_injections() {
                counters.record_injected();
                if let Some(log) = &mut self.log {
                    log.push(FaultEvent {
                        pkt: index,
                        stage: stage.name(),
                        kind: FateKind::Inject,
                        magnitude: inj.delay_us,
                    });
                }
                Self::trace_fault(
                    &tracer,
                    trace_conn,
                    now_us,
                    stage.name(),
                    FateKind::Inject,
                    inj.delay_us,
                );
                injections.push(inj);
            }
            let (kind, magnitude) = match fate {
                Fate::Pass => continue,
                Fate::Delay(d) => {
                    counters.record_delayed(d);
                    delay_us += d;
                    (FateKind::Delay, d)
                }
                Fate::Drop => {
                    counters.record_dropped();
                    if let Some(log) = &mut self.log {
                        log.push(FaultEvent {
                            pkt: index,
                            stage: stage.name(),
                            kind: FateKind::Drop,
                            magnitude: 0,
                        });
                    }
                    Self::trace_fault(&tracer, trace_conn, now_us, stage.name(), FateKind::Drop, 0);
                    return Verdict {
                        copies: Vec::new(),
                        corrupted,
                        injections,
                    };
                }
                Fate::Duplicate(n) => {
                    counters.record_duplicated(u64::from(n));
                    extra_copies += n;
                    (FateKind::Duplicate, u64::from(n))
                }
                Fate::Corrupt => {
                    counters.record_corrupted();
                    corrupted = true;
                    (FateKind::Corrupt, 0)
                }
            };
            if let Some(log) = &mut self.log {
                log.push(FaultEvent {
                    pkt: index,
                    stage: stage.name(),
                    kind,
                    magnitude,
                });
            }
            Self::trace_fault(&tracer, trace_conn, now_us, stage.name(), kind, magnitude);
        }
        let copies = (0..=u64::from(extra_copies))
            .map(|i| delay_us + i * DUP_GAP_US)
            .collect();
        Verdict {
            copies,
            corrupted,
            injections,
        }
    }

    /// Feed a synthetic train of `n_pkts` equally-spaced packets through
    /// the chain and return the injected-fault schedule. This is the
    /// replay primitive: same chain construction + same arguments ⇒
    /// identical result, always.
    pub fn dry_run(mut self, n_pkts: u64, size: usize, pace_us: u64) -> Vec<FaultEvent> {
        if self.log.is_none() {
            self.log = Some(Vec::new());
        }
        for i in 0..n_pkts {
            let _ = self.apply(i * pace_us, size, None);
        }
        self.log.unwrap_or_default()
    }
}

impl std::fmt::Debug for ImpairmentChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ImpairmentChain")
            .field(
                "stages",
                &self.stages.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .field("pkts", &self.next_index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ImpairmentSpec, Scenario};

    fn bursty_scenario() -> Scenario {
        Scenario::new("test", 0xC0FFEE)
            .forward(ImpairmentSpec::GilbertElliott {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.3,
                loss_good: 0.0,
                loss_bad: 0.5,
            })
            .forward(ImpairmentSpec::Reorder {
                prob: 0.1,
                max_extra_us: 5_000,
            })
            .forward(ImpairmentSpec::Duplicate {
                prob: 0.05,
                copies: 1,
            })
    }

    #[test]
    fn same_seed_identical_schedule() {
        let a = bursty_scenario().build(Direction::Forward).dry_run(5_000, 1472, 100);
        let b = bursty_scenario().build(Direction::Forward).dry_run(5_000, 1472, 100);
        assert!(!a.is_empty(), "scenario injected nothing");
        assert_eq!(a, b, "same seed must replay the identical schedule");
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = bursty_scenario().build(Direction::Forward).dry_run(2_000, 1472, 100);
        let b = Scenario { seed: 0xBEEF, ..bursty_scenario() }
            .build(Direction::Forward)
            .dry_run(2_000, 1472, 100);
        assert_ne!(a, b);
    }

    #[test]
    fn directions_draw_independent_randomness() {
        let fwd = bursty_scenario().build(Direction::Forward).dry_run(2_000, 1472, 100);
        let rev = Scenario {
            reverse: bursty_scenario().forward,
            forward: Vec::new(),
            ..bursty_scenario()
        }
        .build(Direction::Reverse)
        .dry_run(2_000, 1472, 100);
        assert_ne!(fwd, rev, "directions must not share RNG streams");
    }

    #[test]
    fn drop_short_circuits_chain() {
        let mut chain = Scenario::new("all-loss", 1)
            .forward(ImpairmentSpec::Bernoulli {
                loss: 1.0,
                mtu: None,
            })
            .forward(ImpairmentSpec::Duplicate {
                prob: 1.0,
                copies: 3,
            })
            .build(Direction::Forward);
        let v = chain.apply(0, 100, None);
        assert!(v.dropped());
        let handles = chain.counter_handles();
        assert_eq!(handles[0].1.snapshot().dropped, 1);
        // The duplicator never saw the packet.
        assert_eq!(handles[1].1.snapshot().seen, 0);
    }

    #[test]
    fn duplicates_fan_out_with_gap() {
        let mut chain = Scenario::new("dup", 2)
            .forward(ImpairmentSpec::Duplicate {
                prob: 1.0,
                copies: 2,
            })
            .build(Direction::Forward);
        let v = chain.apply(0, 100, None);
        assert_eq!(v.copies, vec![0, DUP_GAP_US, 2 * DUP_GAP_US]);
    }

    #[test]
    fn counters_account_every_packet() {
        let mut chain = bursty_scenario().build(Direction::Forward);
        let n = 10_000u64;
        let mut delivered = 0u64;
        for i in 0..n {
            if !chain.apply(i * 100, 1472, None).dropped() {
                delivered += 1;
            }
        }
        let handles = chain.counter_handles();
        let ge = handles[0].1.snapshot();
        assert_eq!(ge.seen, n);
        assert_eq!(delivered + ge.dropped, n);
        // Gilbert–Elliott with these parameters loses packets in bursts;
        // expect a loss rate between the good and bad states' rates.
        let rate = ge.dropped as f64 / n as f64;
        assert!(
            (0.02..0.35).contains(&rate),
            "implausible GE loss rate {rate}"
        );
    }

    #[test]
    fn traced_chain_mirrors_fault_log() {
        let tracer = Tracer::ring(1 << 12);
        let mut chain = bursty_scenario()
            .build(Direction::Forward)
            .with_log()
            .with_tracer(tracer.clone(), 42);
        for i in 0..2_000u64 {
            let _ = chain.apply(i * 100, 1472, None);
        }
        let log = chain.fault_log();
        assert!(!log.is_empty(), "scenario injected nothing");
        let events = tracer.snapshot();
        // Every logged fault has a matching chaos trace event (same order,
        // same stage/kind/magnitude, µs → ns timestamps, conn tag 42).
        assert_eq!(events.len(), log.len());
        for (ev, fault) in events.iter().zip(log) {
            assert_eq!(ev.conn, 42);
            let EventKind::ChaosFault {
                stage,
                kind,
                magnitude,
            } = &ev.kind
            else {
                panic!("non-chaos event {ev:?} in chaos-only tracer");
            };
            assert_eq!(stage.as_str(), fault.stage);
            assert_eq!(*magnitude, fault.magnitude);
            let want = match fault.kind {
                FateKind::Delay => "delay",
                FateKind::Drop => "drop",
                FateKind::Duplicate => "dup",
                FateKind::Corrupt => "corrupt",
                FateKind::Inject => "inject",
            };
            assert_eq!(kind.as_str(), want);
            assert_eq!(ev.t_ns, fault.pkt * 100 * 1000);
        }
    }
}
