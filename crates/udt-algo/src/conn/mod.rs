//! The protocol event core: what a UDT connection does when a packet
//! arrives or a timer fires, with the host left out.
//!
//! The paper evaluates one protocol twice, in NS-2 and as a library. Here
//! the real-socket stack (`udt::conn`), the simulator agents
//! (`netsim::agents::udt`) and the model checker (`udt-verify`) all drive
//! these objects, so a rule about ACKs, NAKs, ACK2s, the EXP timer,
//! keep-alives or `Shutdown` exists once:
//!
//! * [`SndCore`] — the sending half: what to send next (loss list first,
//!   §4.8), ACK and NAK processing with their plausibility clamps, the rate
//!   controller's context, and the EXP timer (tail-loss repair, keep-alive,
//!   the broken verdict).
//! * [`RcvCore`] — the receiving half: arrival-speed and capacity samples,
//!   gap detection and the immediate NAK, the periodic ACK with its
//!   repeat-until-ACK2 rule, NAK resends, RTT from ACK2.
//! * [`CloseCore`] — the teardown: `Shutdown` as an answered exchange,
//!   repeated on the timer while unanswered, at most three copies.
//!
//! Every handler takes the host's `now` and returns what the host must put
//! on the wire or book; nothing in here reads a clock, holds a lock, owns a
//! byte of payload or knows a socket. A host keeps its own buffers, pacing,
//! threads, the handshake and the flush before a close, and calls [`SndCore::check_invariants`] / [`RcvCore::check_invariants`]
//! where it wants the cross-field conditions checked.
//!
//! Protocol events are emitted here ([`CoreTrace`]), so the hosts'
//! timelines use one vocabulary and their [`ConnStats`] count one way: the
//! counters are a fold over these events, applied by the emit itself. A host
//! emits, through the same handle, only what it alone knows: `DataSend` (it
//! holds the payload), buffer levels, batches and state changes.

mod close;
mod rcv;
mod snd;

pub use close::{CloseCore, SHUTDOWN_COPIES};
pub use rcv::{DataVerdict, RcvCore, RcvTimer};
pub use snd::{opens_probe_pair, Acked, SndCfg, SndCore, TimerAction};

use udt_metrics::counters::ConnStats;

/// Where a connection's events go: counted into its [`ConnStats`], then into
/// a tracer tagged with the connection id. The cores stamp events with the
/// handler's `now` ([`udt_trace::Emitter::emit_at`]), moved onto the tracer's
/// timeline by the offset given at construction.
pub type CoreTrace = udt_trace::Emitter<ConnStats>;

#[cfg(test)]
mod tests;
