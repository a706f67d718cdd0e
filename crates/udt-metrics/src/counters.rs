//! Lock-free counter families.
//!
//! Every impairment stage in `udt-chaos` owns one [`FaultCounters`] and
//! bumps it on the hot path with relaxed atomics; experiment and test
//! code reads a consistent-enough [`FaultSnapshot`] at the end of a run.
//!
//! The protocol's own families — [`ConnStats`] per connection,
//! [`AuthCounters`], [`ListenerCounters`], [`SessionCounters`] and
//! [`PathCounters`] — are [`Fold`]s over trace events: each says once,
//! beside its fields, which [`EventKind`] moves which counter, and a
//! [`udt_trace::Emitter`] applies that on every emit. Nothing else bumps an
//! event-derived counter, so the live numbers, a replay of an exported
//! timeline through the same `apply`, and the simulator's numbers are one
//! function (DESIGN.md, "Observability", has the table). A counter whose
//! fact has no event (`tags_ok`, `gc_evictions`, `reconnect_successes`, the
//! byte counts at the `send`/`recv` boundary, all of [`BatchCounters`]) is
//! bumped where the fact happens.

use std::sync::atomic::{AtomicU64, Ordering};

use udt_trace::{DropReason, EventKind, Fold, HsPhase, TimerKind};

/// A counter family that can be folded into the registry namespace as
/// `udt_<subsystem>_<field>` series (see [`crate::registry::Registry::
/// register_family`]). Implemented by every `counter_set!` family and by
/// [`FaultCounters`]; `samples` reads relaxed, matching `snapshot`.
pub trait CounterFamily: Send + Sync + 'static {
    /// Subsystem segment of the `udt_<subsystem>_<field>` metric names.
    fn subsystem(&self) -> &'static str;
    /// `(field name, current value)` pairs, in declaration order.
    fn samples(&self) -> Vec<(&'static str, u64)>;
}

/// Per-stage impairment counters, cheap enough for the packet hot path.
#[derive(Debug, Default)]
pub struct FaultCounters {
    seen: AtomicU64,
    dropped: AtomicU64,
    delayed_pkts: AtomicU64,
    delayed_us: AtomicU64,
    duplicated: AtomicU64,
    corrupted: AtomicU64,
    injected: AtomicU64,
}

impl FaultCounters {
    /// Fresh zeroed counters.
    pub fn new() -> FaultCounters {
        FaultCounters::default()
    }

    /// A packet was offered to the stage.
    pub fn record_seen(&self) {
        self.seen.fetch_add(1, Ordering::Relaxed);
    }

    /// The stage dropped a packet.
    pub fn record_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// The stage delayed a packet by `us` microseconds.
    pub fn record_delayed(&self, us: u64) {
        self.delayed_pkts.fetch_add(1, Ordering::Relaxed);
        self.delayed_us.fetch_add(us, Ordering::Relaxed);
    }

    /// The stage emitted `extra` duplicate copies of a packet.
    pub fn record_duplicated(&self, extra: u64) {
        self.duplicated.fetch_add(extra, Ordering::Relaxed);
    }

    /// The stage corrupted a packet's bytes.
    pub fn record_corrupted(&self) {
        self.corrupted.fetch_add(1, Ordering::Relaxed);
    }

    /// The stage injected a forged/replayed datagram of its own.
    pub fn record_injected(&self) {
        self.injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Read all counters. Individual loads are relaxed; the snapshot is
    /// exact once the traffic feeding the stage has quiesced.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            seen: self.seen.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed_pkts: self.delayed_pkts.load(Ordering::Relaxed),
            delayed_us: self.delayed_us.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            injected: self.injected.load(Ordering::Relaxed),
        }
    }
}

impl CounterFamily for FaultCounters {
    fn subsystem(&self) -> &'static str {
        "fault"
    }

    fn samples(&self) -> Vec<(&'static str, u64)> {
        let s = self.snapshot();
        vec![
            ("seen", s.seen),
            ("dropped", s.dropped),
            ("delayed_pkts", s.delayed_pkts),
            ("delayed_us", s.delayed_us),
            ("duplicated", s.duplicated),
            ("corrupted", s.corrupted),
            ("injected", s.injected),
        ]
    }
}

/// Point-in-time copy of a [`FaultCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSnapshot {
    /// Packets offered to the stage.
    pub seen: u64,
    /// Packets the stage dropped.
    pub dropped: u64,
    /// Packets the stage delayed.
    pub delayed_pkts: u64,
    /// Total extra delay injected, microseconds.
    pub delayed_us: u64,
    /// Extra duplicate copies emitted.
    pub duplicated: u64,
    /// Packets whose bytes were corrupted.
    pub corrupted: u64,
    /// Forged/replayed datagrams injected by the stage (adversarial
    /// impairments).
    pub injected: u64,
}

impl FaultSnapshot {
    /// Fraction of offered packets dropped by this stage.
    pub fn drop_rate(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.dropped as f64 / self.seen as f64
        }
    }

    /// Mean injected delay per delayed packet, microseconds.
    pub fn mean_delay_us(&self) -> f64 {
        if self.delayed_pkts == 0 {
            0.0
        } else {
            self.delayed_us as f64 / self.delayed_pkts as f64
        }
    }
}

/// Cumulative per-connection statistics (all counters are monotone). Both
/// hosts of the protocol core keep one: a socket connection
/// (`udt::UdtConnection::stats`) and each simulator agent.
#[derive(Debug, Default)]
pub struct ConnStats {
    /// Data packets sent (first transmissions).
    pub pkts_sent: AtomicU64,
    /// Data packets retransmitted.
    pub pkts_retransmitted: AtomicU64,
    /// Data packets received (first copies).
    pub pkts_received: AtomicU64,
    /// Duplicate data packets discarded.
    pub pkts_duplicate: AtomicU64,
    /// Application payload bytes accepted by `send()` (buffered for
    /// transmission, whether or not they have left yet).
    pub bytes_sent: AtomicU64,
    /// Application payload bytes delivered in order to the application.
    pub bytes_delivered: AtomicU64,
    /// ACK control packets sent.
    pub acks_sent: AtomicU64,
    /// ACK control packets received.
    pub acks_received: AtomicU64,
    /// NAK control packets sent.
    pub naks_sent: AtomicU64,
    /// NAK control packets received.
    pub naks_received: AtomicU64,
    /// Loss events detected at the receiver (gap detections).
    pub loss_events: AtomicU64,
    /// Lost packets detected at the receiver (sum of gap sizes).
    pub pkts_lost: AtomicU64,
    /// EXP timeouts taken.
    pub exp_timeouts: AtomicU64,
    /// Packets rejected as implausible (sequence/ack numbers outside any
    /// window the peer could legitimately use — corrupted or hostile).
    pub pkts_rejected: AtomicU64,
    /// `Shutdown`s repeated because the copy before went unanswered.
    pub shutdown_repeats: AtomicU64,
}

impl ConnStats {
    /// Bump a counter that no event carries (`bytes_sent`,
    /// `bytes_delivered`); the rest move only through [`Fold::apply`].
    #[inline]
    pub fn inc(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Read a counter.
    #[inline]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

impl Fold for ConnStats {
    #[inline]
    fn apply(&self, kind: &EventKind) {
        let (counter, by) = match *kind {
            EventKind::DataSend { retx: false, .. } => (&self.pkts_sent, 1),
            EventKind::DataSend { retx: true, .. } => (&self.pkts_retransmitted, 1),
            EventKind::DataRecv { .. } => (&self.pkts_received, 1),
            EventKind::DataDrop { reason, .. } => match reason {
                DropReason::Duplicate => (&self.pkts_duplicate, 1),
                DropReason::Implausible => (&self.pkts_rejected, 1),
                // Not this connection's doing: a link or the demultiplexer.
                DropReason::BufferFull
                | DropReason::Queue
                | DropReason::RandomLoss
                | DropReason::Shed => return,
            },
            EventKind::AckSend { .. } => (&self.acks_sent, 1),
            EventKind::AckRecv { .. } => (&self.acks_received, 1),
            EventKind::NakSend { .. } => (&self.naks_sent, 1),
            EventKind::NakRecv { .. } => (&self.naks_received, 1),
            EventKind::LossDetected { first_lo, first_hi } => {
                ConnStats::inc(&self.loss_events, 1);
                // Sequence numbers are 31 bits: the gap's length across a wrap.
                let gap = (first_hi.wrapping_sub(first_lo) & 0x7FFF_FFFF) + 1;
                (&self.pkts_lost, u64::from(gap))
            }
            EventKind::TimerFire {
                timer: TimerKind::Exp,
                ..
            } => (&self.exp_timeouts, 1),
            EventKind::ShutdownSend { copy } if copy > 1 => (&self.shutdown_repeats, 1),
            _ => return,
        };
        ConnStats::inc(counter, by);
    }
}

/// Joins the registry namespace as `udt_conn_<field>{conn="…"}`.
impl CounterFamily for ConnStats {
    fn subsystem(&self) -> &'static str {
        "conn"
    }

    fn samples(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pkts_sent", ConnStats::get(&self.pkts_sent)),
            ("pkts_retransmitted", ConnStats::get(&self.pkts_retransmitted)),
            ("pkts_received", ConnStats::get(&self.pkts_received)),
            ("pkts_duplicate", ConnStats::get(&self.pkts_duplicate)),
            ("bytes_sent", ConnStats::get(&self.bytes_sent)),
            ("bytes_delivered", ConnStats::get(&self.bytes_delivered)),
            ("acks_sent", ConnStats::get(&self.acks_sent)),
            ("acks_received", ConnStats::get(&self.acks_received)),
            ("naks_sent", ConnStats::get(&self.naks_sent)),
            ("naks_received", ConnStats::get(&self.naks_received)),
            ("loss_events", ConnStats::get(&self.loss_events)),
            ("pkts_lost", ConnStats::get(&self.pkts_lost)),
            ("exp_timeouts", ConnStats::get(&self.exp_timeouts)),
            ("pkts_rejected", ConnStats::get(&self.pkts_rejected)),
            ("shutdown_repeats", ConnStats::get(&self.shutdown_repeats)),
        ]
    }
}

macro_rules! counter_set {
    (
        family $subsys:literal;
        $(#[$cmeta:meta])* counters $counters:ident;
        $(#[$smeta:meta])* snapshot $snapshot:ident;
        $( $(#[$fmeta:meta])* $field:ident ),+ $(,)?
        $( ; fold($c:ident) { $( $pat:pat => $count:expr ),+ $(,)? } )?
    ) => {
        $(#[$cmeta])*
        #[derive(Debug, Default)]
        pub struct $counters {
            $( $field: AtomicU64, )+
        }

        impl $counters {
            /// Fresh zeroed counters.
            pub fn new() -> $counters {
                $counters::default()
            }

            $(
                $(#[$fmeta])*
                pub fn $field(&self, n: u64) {
                    self.$field.fetch_add(n, Ordering::Relaxed);
                }
            )+

            /// Read all counters (relaxed loads; exact once traffic has
            /// quiesced).
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                }
            }
        }

        impl CounterFamily for $counters {
            fn subsystem(&self) -> &'static str {
                $subsys
            }

            fn samples(&self) -> Vec<(&'static str, u64)> {
                vec![
                    $( (stringify!($field), self.$field.load(Ordering::Relaxed)), )+
                ]
            }
        }

        $(
            impl Fold for $counters {
                fn apply(&self, kind: &EventKind) {
                    let $c = self;
                    match *kind {
                        $( $pat => $count, )+
                        _ => {}
                    }
                }
            }
        )?

        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snapshot {
            $(
                $(#[$fmeta])*
                pub $field: u64,
            )+
        }
    };
}

counter_set! {
    family "listener";
    /// Listener-hardening counters: one per `UdtListener`, bumped from
    /// the handshake service thread.
    counters ListenerCounters;
    /// Point-in-time copy of a [`ListenerCounters`].
    snapshot ListenerSnapshot;
    /// Cookie challenges sent: to uncookied connection requests, and again
    /// to a request whose cookie was wrong or had aged out.
    challenges_sent,
    /// Requests dropped for echoing a wrong/expired cookie.
    cookies_rejected,
    /// Handshake packets dropped by per-peer rate limiting.
    rate_limited,
    /// Fully-negotiated connections dropped because the accept queue
    /// was full.
    backlog_drops,
    /// Idle handshake-cache / session-table entries garbage-collected.
    gc_evictions,
    /// Connections successfully established and queued for accept.
    handshakes_accepted;
    fold(c) {
        EventKind::Handshake { phase: HsPhase::Challenge, .. } => c.challenges_sent(1),
        EventKind::Handshake { phase: HsPhase::Rejected, .. } => c.cookies_rejected(1),
        EventKind::Handshake { phase: HsPhase::RateLimited, .. } => c.rate_limited(1),
        EventKind::Handshake { phase: HsPhase::BacklogDrop, .. } => c.backlog_drops(1),
        EventKind::Handshake { phase: HsPhase::Accepted, .. } => c.handshakes_accepted(1),
    }
}

counter_set! {
    family "session";
    /// Resilient-session counters: one per `ResilientSession`-equivalent.
    counters SessionCounters;
    /// Point-in-time copy of a [`SessionCounters`].
    snapshot SessionSnapshot;
    /// Reconnect attempts started after a `Broken` connection.
    reconnect_attempts,
    /// Reconnect attempts that produced a fresh connection.
    reconnect_successes,
    /// Bytes *skipped* thanks to resume (confirmed before the outage and
    /// not re-sent). `file size − resumed_bytes` is what the retry had to
    /// move again.
    resumed_bytes;
    fold(c) {
        EventKind::Reconnect { .. } => c.reconnect_attempts(1),
        EventKind::Resume { offset } => c.resumed_bytes(offset),
    }
}

counter_set! {
    family "auth";
    /// Authenticated-profile counters: one per connection (and one per
    /// listener for handshake-level rejects), bumped from the mux receive
    /// path.
    counters AuthCounters;
    /// Point-in-time copy of an [`AuthCounters`].
    snapshot AuthSnapshot;
    /// Packets whose trailer tag verified.
    tags_ok,
    /// Packets dropped for a missing or invalid trailer tag, and
    /// handshakes whose UDT-AUTH field did not verify.
    tags_bad,
    /// Correctly-tagged packets dropped as replays.
    replays,
    /// Handshakes rejected for missing authentication under
    /// `AuthPolicy::Require`.
    unauth_rejected;
    fold(c) {
        EventKind::AuthFail { .. } => c.tags_bad(1),
        EventKind::AuthReplay { .. } => c.replays(1),
        EventKind::AuthReject { .. } => c.unauth_rejected(1),
    }
}

counter_set! {
    family "path";
    /// Per-path counters for bonded (multipath) sessions: one per path
    /// in a `BondedSession`, bumped from the path reader/writer threads.
    counters PathCounters;
    /// Point-in-time copy of a [`PathCounters`].
    snapshot PathSnapshot;
    /// Session chunks sent on this path (including re-sends).
    chunks_sent,
    /// Session chunks received on this path (including duplicates).
    chunks_recv,
    /// Chunks re-queued after a failure: pulled back from this path when it
    /// went down, or adopted by it when it came up and they had no owner.
    chunks_requeued,
    /// Times the path was declared down.
    path_downs,
    /// Times the path came up (initial join and every re-join).
    path_ups,
    /// Payload bytes sent on this path.
    bytes_sent,
    /// Payload bytes received on this path.
    bytes_recv;
    fold(c) {
        EventKind::PathSend { bytes, .. } => {
            c.chunks_sent(1);
            c.bytes_sent(u64::from(bytes));
        },
        EventKind::PathRecv { bytes, .. } => {
            c.chunks_recv(1);
            c.bytes_recv(u64::from(bytes));
        },
        EventKind::PathLoss { lost, .. } => c.chunks_requeued(u64::from(lost)),
        EventKind::PathDown { .. } => c.path_downs(1),
        EventKind::PathUp { .. } => c.path_ups(1),
    }
}

counter_set! {
    family "batch";
    /// Batched-datapath counters: one per UDP demultiplexer, bumped from
    /// the demux thread (receive side, pool) and the sending threads.
    counters BatchCounters;
    /// Point-in-time copy of a [`BatchCounters`].
    snapshot BatchSnapshot;
    /// Demux wakeups that drained at least one datagram.
    recv_batches,
    /// Datagrams drained across all receive batches.
    recv_pkts,
    /// Socket flushes on the send side (one `sendmmsg`/`send_to` group).
    send_batches,
    /// Packets pushed across all send flushes.
    send_pkts,
    /// Receive buffers served from the recycling pool.
    pool_hits,
    /// Receive buffers that had to be freshly allocated (pool empty or
    /// every retired buffer still referenced).
    pool_misses,
}

impl BatchSnapshot {
    /// Mean datagrams per receive batch (0 when nothing was received).
    pub fn avg_recv_batch(&self) -> f64 {
        if self.recv_batches == 0 {
            0.0
        } else {
            self.recv_pkts as f64 / self.recv_batches as f64
        }
    }

    /// Mean packets per send flush (0 when nothing was sent).
    pub fn avg_send_batch(&self) -> f64 {
        if self.send_batches == 0 {
            0.0
        } else {
            self.send_pkts as f64 / self.send_batches as f64
        }
    }

    /// Fraction of buffer requests served without allocating.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = FaultCounters::new();
        for _ in 0..10 {
            c.record_seen();
        }
        c.record_dropped();
        c.record_dropped();
        c.record_delayed(100);
        c.record_delayed(300);
        c.record_duplicated(3);
        c.record_corrupted();
        let s = c.snapshot();
        assert_eq!(s.seen, 10);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.delayed_pkts, 2);
        assert_eq!(s.delayed_us, 400);
        assert_eq!(s.duplicated, 3);
        assert_eq!(s.corrupted, 1);
        assert!((s.drop_rate() - 0.2).abs() < 1e-12);
        assert!((s.mean_delay_us() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_rates_are_zero() {
        let s = FaultCounters::new().snapshot();
        assert_eq!(s.drop_rate(), 0.0);
        assert_eq!(s.mean_delay_us(), 0.0);
    }

    #[test]
    fn listener_and_session_counters_accumulate() {
        let l = ListenerCounters::new();
        l.challenges_sent(3);
        l.cookies_rejected(2);
        l.rate_limited(5);
        l.backlog_drops(1);
        l.gc_evictions(4);
        l.handshakes_accepted(1);
        let s = l.snapshot();
        assert_eq!(
            (s.challenges_sent, s.cookies_rejected, s.rate_limited),
            (3, 2, 5)
        );
        assert_eq!((s.backlog_drops, s.gc_evictions, s.handshakes_accepted), (1, 4, 1));

        let c = SessionCounters::new();
        c.reconnect_attempts(2);
        c.reconnect_successes(1);
        c.resumed_bytes(1 << 20);
        let s = c.snapshot();
        assert_eq!(s.reconnect_attempts, 2);
        assert_eq!(s.reconnect_successes, 1);
        assert_eq!(s.resumed_bytes, 1 << 20);
    }

    #[test]
    fn auth_counters_accumulate() {
        let a = AuthCounters::new();
        a.tags_ok(100);
        a.tags_bad(7);
        a.replays(3);
        a.unauth_rejected(1);
        let s = a.snapshot();
        assert_eq!(
            (s.tags_ok, s.tags_bad, s.replays, s.unauth_rejected),
            (100, 7, 3, 1)
        );
    }

    #[test]
    fn batch_counters_accumulate_and_derive_rates() {
        let b = BatchCounters::new();
        b.recv_batches(4);
        b.recv_pkts(100);
        b.send_batches(2);
        b.send_pkts(32);
        b.pool_hits(75);
        b.pool_misses(25);
        let s = b.snapshot();
        assert_eq!((s.recv_batches, s.recv_pkts), (4, 100));
        assert_eq!((s.send_batches, s.send_pkts), (2, 32));
        assert!((s.avg_recv_batch() - 25.0).abs() < 1e-12);
        assert!((s.avg_send_batch() - 16.0).abs() < 1e-12);
        assert!((s.pool_hit_rate() - 0.75).abs() < 1e-12);
        let zero = BatchCounters::new().snapshot();
        assert_eq!(zero.avg_recv_batch(), 0.0);
        assert_eq!(zero.avg_send_batch(), 0.0);
        assert_eq!(zero.pool_hit_rate(), 0.0);
    }

    #[test]
    fn conn_stats_accumulate() {
        let s = ConnStats::default();
        ConnStats::inc(&s.bytes_sent, 3);
        ConnStats::inc(&s.bytes_sent, 2);
        assert_eq!(ConnStats::get(&s.bytes_sent), 5);
        assert_eq!(ConnStats::get(&s.bytes_delivered), 0);
    }

    /// `kind`, and where one of its fields decides what is counted, one
    /// copy per value of that field.
    fn variations(kind: EventKind) -> Vec<EventKind> {
        match kind {
            EventKind::DataSend { seq, bytes, .. } => [false, true]
                .map(|retx| EventKind::DataSend { seq, bytes, retx })
                .to_vec(),
            EventKind::DataDrop { seq, .. } => DropReason::ALL
                .iter()
                .map(|&reason| EventKind::DataDrop { seq, reason })
                .collect(),
            EventKind::TimerFire { count, .. } => TimerKind::ALL
                .iter()
                .map(|&timer| EventKind::TimerFire { timer, count })
                .collect(),
            EventKind::Handshake { peer, .. } => HsPhase::ALL
                .iter()
                .map(|&phase| EventKind::Handshake { phase, peer })
                .collect(),
            other => vec![other],
        }
    }

    /// The counters of a fresh `F` that `kinds` move, as `family.field`.
    fn moved<F: Fold + CounterFamily + Default>(kinds: &[EventKind]) -> Vec<String> {
        let f = F::default();
        kinds.iter().for_each(|k| f.apply(k));
        let moved = f.samples().into_iter().filter(|(_, v)| *v > 0);
        moved
            .map(|(field, _)| format!("{}.{field}", f.subsystem()))
            .collect()
    }

    /// Every event kind goes through every fold, and what each moves is
    /// what DESIGN.md's event → counter table says: a new variant fails
    /// here until someone has written down whether it counts.
    #[test]
    fn the_folds_are_the_event_to_counter_table_in_design_md() {
        let design = include_str!("../../../DESIGN.md");
        let table = design
            .split("<!-- event-counter-table -->")
            .nth(1)
            .expect("DESIGN.md has the table between two markers");
        let mut rows = std::collections::BTreeMap::new();
        for line in table.lines().filter(|l| l.starts_with("| `")) {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let ticked = |cell: &str| -> Vec<String> {
                cell.split('`').skip(1).step_by(2).map(String::from).collect()
            };
            rows.insert(ticked(cells[1]).remove(0), ticked(cells[2]));
        }
        for kind in EventKind::all_kinds() {
            let all = variations(kind);
            let mut folded = moved::<ConnStats>(&all);
            folded.extend(moved::<AuthCounters>(&all));
            folded.extend(moved::<ListenerCounters>(&all));
            folded.extend(moved::<SessionCounters>(&all));
            folded.extend(moved::<PathCounters>(&all));
            let documented = rows.remove(kind.name());
            assert_eq!(documented, Some(folded), "DESIGN.md row for `{}`", kind.name());
        }
        assert!(rows.is_empty(), "rows for no event: {rows:?}");
    }

    #[test]
    fn counters_are_thread_safe() {
        use std::sync::Arc;
        let c = Arc::new(FaultCounters::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.record_seen();
                        c.record_delayed(5);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = c.snapshot();
        assert_eq!(s.seen, 4000);
        assert_eq!(s.delayed_us, 20_000);
    }
}
