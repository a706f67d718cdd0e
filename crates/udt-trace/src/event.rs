//! Typed trace events, declared once.
//!
//! Every event is `Copy` with a fixed in-memory size so the ring buffer
//! ([`crate::TraceBuf`]) never allocates on the hot path. Variable-length
//! information (loss lists, fault-stage names) is condensed to fixed-size
//! summaries: a NAK carries its first compressed range plus the range
//! count, chaos faults carry a bounded [`Label`].
//!
//! The schema is the `events!` table at the bottom of this file: a variant,
//! its wire name, and its fields in wire order, each with a sample value.
//! The enum, [`EventKind::name`], the JSONL and CSV encoders, the parser
//! behind [`crate::json::parse_line`] and [`EventKind::all_kinds`] are all
//! generated from it, so a new event is one edit here. The string-valued
//! field types are `wire_enum!` tables in the same manner.

use std::fmt;

use crate::json::{push_str_escaped, Value};

/// Number of CPU cost categories in the Table 3 breakdown.
///
/// Must match `udt::instrument::N_CATEGORIES`; a cross-crate test in the
/// `udt` crate pins the two together.
pub const CPU_CATEGORY_COUNT: usize = 9;

/// Names of the Table 3 CPU categories, in `udt::instrument` order.
pub const CPU_CATEGORIES: [&str; CPU_CATEGORY_COUNT] = [
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

/// A field type of the schema: how a value is written (as JSON, or as a
/// value of the CSV `detail` column) and read back from a parsed line.
pub(crate) trait Field: Sized {
    fn write(&self, s: &mut String, csv: bool);
    /// `v` is `None` when the line has no such field.
    fn read(v: Option<&Value>) -> Option<Self>;
}

/// Strings are quoted and escaped in JSON, bare in CSV.
fn write_str(s: &mut String, v: &str, csv: bool) {
    if csv {
        s.push_str(v);
    } else {
        push_str_escaped(s, v);
    }
}

impl Field for u32 {
    fn write(&self, s: &mut String, _csv: bool) {
        s.push_str(&self.to_string());
    }
    fn read(v: Option<&Value>) -> Option<u32> {
        v?.as_u64().and_then(|u| u32::try_from(u).ok())
    }
}

impl Field for u64 {
    fn write(&self, s: &mut String, _csv: bool) {
        s.push_str(&self.to_string());
    }
    fn read(v: Option<&Value>) -> Option<u64> {
        v?.as_u64()
    }
}

impl Field for f64 {
    fn write(&self, s: &mut String, _csv: bool) {
        // Rust's float Display is the shortest round-trippable form; NaN/inf
        // render as 0.
        Value::Float(*self).render_into(s);
    }
    fn read(v: Option<&Value>) -> Option<f64> {
        v?.as_f64()
    }
}

impl Field for bool {
    fn write(&self, s: &mut String, _csv: bool) {
        s.push_str(if *self { "true" } else { "false" });
    }
    /// Absent reads as `false`.
    fn read(v: Option<&Value>) -> Option<bool> {
        Some(matches!(v, Some(Value::Bool(true))))
    }
}

impl Field for [u64; CPU_CATEGORY_COUNT] {
    fn write(&self, s: &mut String, csv: bool) {
        let (open, sep, close) = if csv { ("", ";", "") } else { ("[", ",", "]") };
        s.push_str(open);
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                s.push_str(sep);
            }
            n.write(s, csv);
        }
        s.push_str(close);
    }
    fn read(v: Option<&Value>) -> Option<Self> {
        let items: Vec<u64> = v?
            .items()?
            .iter()
            .map(Value::as_u64)
            .collect::<Option<_>>()?;
        items.try_into().ok()
    }
}

/// A bounded, `Copy`, allocation-free ASCII label (up to 15 bytes; longer
/// inputs are truncated). Used where an event must carry a short name that
/// is only known at runtime (chaos impairment stages, fault kinds).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Label {
    len: u8,
    buf: [u8; 15],
}

impl Label {
    /// Build from a string, truncating to 15 bytes on a char boundary.
    pub fn new(s: &str) -> Label {
        let mut end = s.len().min(15);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; 15];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        Label {
            len: u8::try_from(end).unwrap_or(15),
            buf,
        }
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..usize::from(self.len)]).unwrap_or("")
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Field for Label {
    fn write(&self, s: &mut String, csv: bool) {
        write_str(s, self.as_str(), csv);
    }
    fn read(v: Option<&Value>) -> Option<Label> {
        v?.as_str().map(Label::new)
    }
}

/// An enum that travels as a string: the type, its wire names both ways,
/// the list of its variants and its [`Field`] codec, from one table.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])* $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $wire:literal ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$name] = &[$($name::$variant),+];

            /// Stable wire name.
            pub fn as_str(self) -> &'static str {
                match self {
                    $( $name::$variant => $wire, )+
                }
            }

            /// Parse a wire name.
            pub fn from_name(s: &str) -> Option<$name> {
                match s {
                    $( $wire => Some($name::$variant), )+
                    _ => None,
                }
            }
        }

        impl Field for $name {
            fn write(&self, s: &mut String, csv: bool) {
                write_str(s, self.as_str(), csv);
            }
            fn read(v: Option<&Value>) -> Option<$name> {
                $name::from_name(v?.as_str()?)
            }
        }
    };
}

wire_enum! {
    /// Why a packet was dropped (receive-side or in an emulated link).
    DropReason {
        /// Outside any window the peer could legitimately use: a data
        /// sequence number far beyond the receive window, an ACK for data
        /// never sent, a NAK range with nothing live in it.
        Implausible = "implausible",
        /// Already delivered or buffered.
        Duplicate = "duplicate",
        /// No space in the receive buffer.
        BufferFull = "buffer_full",
        /// Tail-dropped by an emulated link queue.
        Queue = "queue",
        /// Random loss injected by an emulated link.
        RandomLoss = "random_loss",
        /// Shed by the UDP demultiplexer (per-connection queue full).
        Shed = "shed",
    }
}

wire_enum! {
    /// Which protocol timer fired.
    TimerKind {
        /// Periodic ACK timer (SYN-paced).
        Ack = "ack",
        /// NAK retransmission timer.
        Nak = "nak",
        /// Expiration / keep-alive timer.
        Exp = "exp",
        /// Send pacing timer (reported only on freeze/resume, not per packet).
        Snd = "snd",
    }
}

wire_enum! {
    /// Connection lifecycle states, as seen by the tracer.
    ConnState {
        /// Handshake in progress.
        Connecting = "connecting",
        /// Established.
        Connected = "connected",
        /// Local close initiated.
        Closing = "closing",
        /// Fully closed.
        Closed = "closed",
        /// Peer unresponsive past the expiration ladder.
        Broken = "broken",
    }
}

wire_enum! {
    /// Handshake phases (client and listener sides share the vocabulary).
    HsPhase {
        /// Client sent a connection request.
        Request = "request",
        /// Listener answered with a SYN-cookie challenge.
        Challenge = "challenge",
        /// Listener sent (or client received) the final response.
        Response = "response",
        /// Connection accepted/established.
        Accepted = "accepted",
        /// Handshake rejected (bad version, MSS, cookie …).
        Rejected = "rejected",
        /// Listener shed the request due to rate limiting.
        RateLimited = "rate_limited",
        /// Listener shed the request because the accept backlog was full.
        BacklogDrop = "backlog_drop",
    }
}

wire_enum! {
    /// Which buffer a watermark event describes.
    BufSide {
        /// Send buffer.
        Snd = "snd",
        /// Receive buffer.
        Rcv = "rcv",
    }
}

/// The schema table: `Variant = "wire name" { field: type = sample, … }`,
/// fields in wire order. Generates [`EventKind`] and everything that has to
/// know its shape.
macro_rules! events {
    (
        $(
            $(#[$vmeta:meta])* $variant:ident = $wire:literal {
                $( $(#[$fmeta:meta])* $field:ident : $ty:ty = $sample:expr ),* $(,)?
            }
        ),+ $(,)?
    ) => {
        /// The event payload. All variants are fixed-size and `Copy`.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum EventKind {
            $(
                $(#[$vmeta])*
                $variant {
                    $( $(#[$fmeta])* $field: $ty, )*
                },
            )+
        }

        impl EventKind {
            /// Stable wire name of the variant (the `"ev"` JSON field).
            pub fn name(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $wire, )+
                }
            }

            /// One sample of every variant, in declaration order: what the
            /// codec tests round-trip and the counter folds are enumerated
            /// against.
            pub fn all_kinds() -> Vec<EventKind> {
                vec![
                    $( EventKind::$variant { $( $field: $sample, )* }, )+
                ]
            }

            /// Append the fields in wire order: `,"name":value` for JSON;
            /// space-separated `name=value` for CSV, where `s` is the
            /// `detail` column alone.
            pub(crate) fn write_fields(&self, s: &mut String, csv: bool) {
                match self {
                    $(
                        EventKind::$variant { $( $field, )* } => {
                            $(
                                if !csv {
                                    s.push_str(concat!(",\"", stringify!($field), "\":"));
                                } else {
                                    if !s.is_empty() {
                                        s.push(' ');
                                    }
                                    s.push_str(concat!(stringify!($field), "="));
                                }
                                $field.write(s, csv);
                            )*
                        }
                    )+
                }
            }

            /// The event named `name` from the fields of a parsed line.
            pub(crate) fn read(name: &str, obj: &Value) -> Result<EventKind, String> {
                match name {
                    $(
                        $wire => Ok(EventKind::$variant {
                            $(
                                $field: <$ty as Field>::read(obj.get(stringify!($field)))
                                    .ok_or_else(|| {
                                        format!(
                                            concat!("{}: missing or malformed ", stringify!($field)),
                                            name
                                        )
                                    })?,
                            )*
                        }),
                    )+
                    other => Err(format!("unknown event kind {other:?}")),
                }
            }
        }
    };
}

events! {
    /// A data packet left the sender (`retx` = retransmission).
    DataSend = "data_send" {
        /// Packet sequence number.
        seq: u32 = 7,
        /// Payload bytes.
        bytes: u32 = 1472,
        /// True when popped from the loss list.
        retx: bool = true,
    },
    /// A data packet arrived at the receiver.
    DataRecv = "data_recv" {
        /// Packet sequence number.
        seq: u32 = 8,
        /// Payload bytes.
        bytes: u32 = 100,
    },
    /// A packet was discarded.
    DataDrop = "data_drop" {
        /// Packet sequence number (0 when unknown, e.g. link-level drops).
        seq: u32 = 9,
        /// Why.
        reason: DropReason = DropReason::Queue,
    },
    /// ACK transmitted.
    AckSend = "ack_send" {
        /// ACK sub-sequence number.
        ack_no: u32 = 3,
        /// Acknowledged data sequence number.
        ack_seq: u32 = 100,
    },
    /// ACK received.
    AckRecv = "ack_recv" {
        /// ACK sub-sequence number.
        ack_no: u32 = 3,
        /// Acknowledged data sequence number.
        ack_seq: u32 = 100,
    },
    /// ACK2 transmitted.
    Ack2Send = "ack2_send" {
        /// Echoed ACK sub-sequence number.
        ack_no: u32 = 3,
    },
    /// ACK2 received.
    Ack2Recv = "ack2_recv" {
        /// Echoed ACK sub-sequence number.
        ack_no: u32 = 3,
    },
    /// NAK transmitted; `first_lo..=first_hi` is the first compressed
    /// range, `ranges` the total number of ranges in the packet.
    NakSend = "nak_send" {
        /// First range start.
        first_lo: u32 = 10,
        /// First range end (inclusive).
        first_hi: u32 = 12,
        /// Number of compressed ranges.
        ranges: u32 = 2,
    },
    /// NAK received (same encoding as [`EventKind::NakSend`]).
    NakRecv = "nak_recv" {
        /// First range start.
        first_lo: u32 = 10,
        /// First range end (inclusive).
        first_hi: u32 = 12,
        /// Number of compressed ranges.
        ranges: u32 = 2,
    },
    /// Receiver detected a sequence gap.
    LossDetected = "loss" {
        /// First missing sequence number.
        first_lo: u32 = 10,
        /// Last missing sequence number (inclusive).
        first_hi: u32 = 12,
    },
    /// Rate-control update (inter-packet period and window).
    RateUpdate = "rate" {
        /// Inter-packet send period, microseconds.
        period_us: f64 = 11.25,
        /// Congestion window, packets.
        cwnd: f64 = 4096.0,
    },
    /// RTT estimator update.
    RttUpdate = "rtt" {
        /// Smoothed RTT, microseconds.
        rtt_us: u32 = 100_000,
        /// RTT variance, microseconds.
        var_us: u32 = 25_000,
    },
    /// Packet-pair bandwidth estimate update.
    BwEstimate = "bw" {
        /// Estimated capacity, packets per second.
        pps: f64 = 83333.33,
    },
    /// A protocol timer fired.
    TimerFire = "timer" {
        /// Which timer.
        timer: TimerKind = TimerKind::Exp,
        /// Consecutive fire count (EXP ladder position, etc.).
        count: u32 = 5,
    },
    /// Connection state transition.
    StateChange = "state" {
        /// Previous state.
        from: ConnState = ConnState::Connected,
        /// New state.
        to: ConnState = ConnState::Broken,
    },
    /// Handshake progress.
    Handshake = "handshake" {
        /// Phase.
        phase: HsPhase = HsPhase::Accepted,
        /// Peer socket id (0 when unknown).
        peer: u32 = 0xDEAD,
    },
    /// Resilient-session reconnect attempt.
    Reconnect = "reconnect" {
        /// Attempt number (1-based).
        attempt: u32 = 2,
        /// Backoff applied before the attempt, milliseconds.
        backoff_ms: u32 = 250,
    },
    /// Resumable transfer resumed at an offset.
    Resume = "resume" {
        /// Byte offset the transfer resumed from.
        offset: u64 = 1 << 40,
    },
    /// Buffer occupancy watermark.
    BufLevel = "buf" {
        /// Which buffer.
        side: BufSide = BufSide::Rcv,
        /// Packets in use.
        used: u32 = 100,
        /// Capacity, packets.
        cap: u32 = 8192,
    },
    /// A chaos impairment decision (injected fault).
    ChaosFault = "chaos" {
        /// Impairment stage name (e.g. "loss", "reorder").
        stage: Label = Label::new("loss"),
        /// Fault kind (e.g. "drop", "delay", "dup", "corrupt").
        kind: Label = Label::new("drop"),
        /// Stage-specific magnitude (delay µs, dup copies …).
        magnitude: u64 = 1,
    },
    /// Periodic performance sample (udtperf `--trace`).
    PerfSample = "perf" {
        /// Smoothed RTT, microseconds.
        rtt_us: f64 = 199.5,
        /// Inter-packet send period, microseconds.
        period_us: f64 = 12.0,
        /// Congestion window, packets.
        cwnd: f64 = 16.0,
        /// Send rate over the interval, packets per second.
        rate_pps: f64 = 80000.0,
        /// Estimated link capacity, packets per second.
        bw_pps: f64 = 83000.0,
        /// Cumulative packets sent.
        sent: u64 = 123456,
        /// Cumulative packets retransmitted.
        retx_pkts: u64 = 12,
        /// Cumulative payload bytes handed to the socket.
        bytes: u64 = 1_000_000,
        /// Cumulative payload bytes delivered to the peer application.
        delivered: u64 = 990_000,
    },
    /// Table 3 CPU breakdown snapshot (cumulative nanoseconds per
    /// category, `udt::instrument` order).
    CpuBreakdown = "cpu" {
        /// Cumulative nanoseconds per category.
        nanos: [u64; CPU_CATEGORY_COUNT] = [1, 2, 3, 4, 5, 6, 7, 8, 9],
    },
    /// A bonded-session path became usable (joined or rejoined).
    PathUp = "path_up" {
        /// Path id within the bonded session.
        path: u32 = 2,
    },
    /// A bonded-session path was declared dead (EXP escalation, socket
    /// error); traffic migrates to the surviving paths.
    PathDown = "path_down" {
        /// Path id within the bonded session.
        path: u32 = 2,
    },
    /// A session chunk was dispatched on a path.
    PathSend = "path_send" {
        /// Path id within the bonded session.
        path: u32 = 1,
        /// Session-level sequence number of the chunk.
        seq: u32 = 0x7FFF_FFFF,
        /// Chunk payload bytes.
        bytes: u32 = 1452,
    },
    /// A session chunk arrived from a path.
    PathRecv = "path_recv" {
        /// Path id within the bonded session.
        path: u32 = 1,
        /// Session-level sequence number of the chunk.
        seq: u32 = 0,
        /// Chunk payload bytes.
        bytes: u32 = 1452,
    },
    /// Chunks were requeued away from a path (loss or failover).
    PathLoss = "path_loss" {
        /// Path id within the bonded session.
        path: u32 = 0,
        /// Chunks requeued to other paths.
        lost: u32 = 17,
    },
    /// Periodic per-path estimator sample feeding the scheduler.
    PathRate = "path_rate" {
        /// Path id within the bonded session.
        path: u32 = 3,
        /// Estimated path capacity, packets per second.
        bw_pps: f64 = 8333.5,
        /// Smoothed path RTT, microseconds.
        rtt_us: f64 = 20125.0,
        /// Path loss rate over the sample window, percent.
        loss_pct: f64 = 0.75,
    },
    /// A packet failed trailer-tag verification and was dropped before
    /// decode (authenticated profile).
    AuthFail = "auth_fail" {
        /// Data sequence number when the packet was data; 0 for control.
        seq: u32 = 101,
    },
    /// A correctly-tagged packet was dropped as a replay.
    AuthReplay = "auth_replay" {
        /// Replayed data sequence number.
        seq: u32 = 102,
    },
    /// A handshake was rejected for failing the authentication policy
    /// (missing/invalid UDT-AUTH field under `Require`).
    AuthReject = "auth_reject" {
        /// Peer socket id (0 when unknown).
        peer: u32 = 0xBEEF,
    },
    /// A batched delivery arrived from the demultiplexer (batched
    /// datapath): one receiver wakeup processed this many packets.
    BatchRecv = "batch" {
        /// Packets in the batch.
        pkts: u32 = 27,
    },
    /// A `Shutdown` went out: we closed, and no answer has come yet.
    ShutdownSend = "shutdown_send" {
        /// Which copy (1 = the first; repeats follow on the timer).
        copy: u32 = 2,
    },
    /// Our `Shutdown` exchange ended.
    ShutdownDone = "shutdown_done" {
        /// The peer answered (or closed too); `false`: every copy went
        /// unanswered and we gave up.
        answered: bool = true,
    },
}

/// One trace record: a timestamp, a connection (or flow) id, and the
/// typed payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Monotonic timestamp, nanoseconds since the tracer clock's epoch
    /// (virtual sim-time in netsim).
    pub t_ns: u64,
    /// Connection / flow id the event belongs to.
    pub conn: u32,
    /// Payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// A zeroed placeholder used to initialise ring slots.
    pub(crate) fn empty() -> TraceEvent {
        TraceEvent {
            t_ns: 0,
            conn: 0,
            kind: EventKind::TimerFire {
                timer: TimerKind::Snd,
                count: 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_truncates_and_roundtrips() {
        assert_eq!(Label::new("loss").as_str(), "loss");
        assert_eq!(Label::new("").as_str(), "");
        let long = Label::new("a-very-long-stage-name");
        assert_eq!(long.as_str(), "a-very-long-sta");
        assert_eq!(long.as_str().len(), 15);
    }

    #[test]
    fn label_respects_char_boundaries() {
        // 15 bytes falls inside the 4th 'é' (2 bytes each starting at 14).
        let s = "aaaaaaaaaaaaaaéé";
        let l = Label::new(s);
        assert!(l.as_str().len() <= 15);
        assert!(s.starts_with(l.as_str()));
    }

    #[test]
    fn enum_wire_names_roundtrip() {
        fn all<T: Copy + PartialEq + fmt::Debug>(
            all: &[T],
            name: fn(T) -> &'static str,
            parse: fn(&str) -> Option<T>,
        ) {
            for &v in all {
                assert_eq!(parse(name(v)), Some(v));
            }
            assert_eq!(parse("nope"), None);
        }
        all(DropReason::ALL, DropReason::as_str, DropReason::from_name);
        all(TimerKind::ALL, TimerKind::as_str, TimerKind::from_name);
        all(ConnState::ALL, ConnState::as_str, ConnState::from_name);
        all(HsPhase::ALL, HsPhase::as_str, HsPhase::from_name);
        all(BufSide::ALL, BufSide::as_str, BufSide::from_name);
    }

    #[test]
    fn wire_names_are_unique_and_the_readme_lists_every_one() {
        let readme = include_str!("../../../README.md");
        let mut seen = std::collections::BTreeSet::new();
        for kind in EventKind::all_kinds() {
            assert!(seen.insert(kind.name()), "{} declared twice", kind.name());
            assert!(
                readme.contains(&format!("`{}`", kind.name())),
                "README.md's schema section does not list `{}`",
                kind.name()
            );
        }
    }
}
