//! The protocol event core: what a UDT connection does when a packet
//! arrives or a timer fires, with the host left out.
//!
//! The paper evaluates one protocol twice, in NS-2 and as a library. Here
//! the real-socket stack (`udt::conn`), the simulator agents
//! (`netsim::agents::udt`) and the model checker (`udt-verify`) all drive
//! these two objects, so a rule about ACKs, NAKs, ACK2s, the EXP timer or
//! keep-alives exists once:
//!
//! * [`SndCore`] — the sending half: what to send next (loss list first,
//!   §4.8), ACK and NAK processing with their plausibility clamps, the rate
//!   controller's context, and the EXP timer (tail-loss repair, keep-alive,
//!   the broken verdict).
//! * [`RcvCore`] — the receiving half: arrival-speed and capacity samples,
//!   gap detection and the immediate NAK, the periodic ACK with its
//!   repeat-until-ACK2 rule, NAK resends, RTT from ACK2.
//!
//! Every handler takes the host's `now` and returns what the host must put
//! on the wire or book; nothing in here reads a clock, holds a lock, owns a
//! byte of payload or knows a socket. A host keeps its own buffers, pacing,
//! threads, statistics and lifecycle (handshake, close, `Shutdown`), and
//! calls [`SndCore::check_invariants`] / [`RcvCore::check_invariants`]
//! where it wants the cross-field conditions checked.
//!
//! Protocol trace events are emitted here ([`CoreTrace`]), so the hosts'
//! timelines use one vocabulary. A host emits only what it alone knows:
//! `DataSend` (it holds the payload), buffer levels, batches and state
//! changes.

mod rcv;
mod snd;

pub use rcv::{DataVerdict, RcvCore, RcvTimer};
pub use snd::{opens_probe_pair, Acked, SndCfg, SndCore, SndTimer, TimerAction};

use udt_trace::{EventKind, Tracer};

use crate::clock::Nanos;

/// Where a core's trace events go: into `tracer`, tagged with a connection
/// id, stamped with the handler's `now` moved onto the tracer's timeline.
#[derive(Debug, Clone, Default)]
pub struct CoreTrace {
    tracer: Tracer,
    conn: u32,
    offset_ns: u64,
}

impl CoreTrace {
    /// Events for connection `conn`. `offset_ns` is what the tracer's clock
    /// read when the host's `Nanos` timeline read zero (0 where the two are
    /// one timeline, as in the simulator).
    pub fn new(tracer: Tracer, conn: u32, offset_ns: u64) -> CoreTrace {
        CoreTrace {
            tracer,
            conn,
            offset_ns,
        }
    }

    /// Record `kind` as having happened at the host's `now`.
    #[inline]
    pub fn emit(&self, now: Nanos, kind: EventKind) {
        self.tracer
            .emit_at(now.0.saturating_add(self.offset_ns), self.conn, kind);
    }
}

#[cfg(test)]
mod tests;
