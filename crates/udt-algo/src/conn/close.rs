//! The end of a connection's life ([`CloseCore`]): `Shutdown` as an answered
//! exchange, repeated on the timer only while no answer has come.
//!
//! Three rules make it end whatever the network does. Every `Shutdown` heard
//! is answered, in every state, so a repeat whose first answer was lost is
//! answered again; an answer is never answered, so there is no rally; and an
//! initiator gives up after [`SHUTDOWN_COPIES`]. The peer's own `Shutdown`
//! counts as the answer to ours (both ends closed at once).

use udt_proto::ctrl::ControlBody;
use udt_trace::EventKind;

use super::CoreTrace;
use crate::clock::{Nanos, SYN};

/// `Shutdown`s an initiator sends in all: the first and two repeats.
pub const SHUTDOWN_COPIES: u32 = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    /// We closed; `copies_sent` `Shutdown`s are unanswered and the next goes
    /// out at `next_at`.
    FinWait { copies_sent: u32, next_at: Nanos },
    Done,
}

/// One end's close state machine. It only moves forward (`Open` → `FinWait`
/// → `Done`, or `Open` → `Done` when the peer closes first); a handler
/// returns what the host must send.
#[derive(Clone)]
pub struct CloseCore {
    phase: Phase,
    /// How long a `Shutdown` waits for its answer; fixed when we close.
    repeat: Nanos,
    trace: CoreTrace,
}

impl CloseCore {
    /// An open connection.
    pub fn new(trace: CoreTrace) -> CloseCore {
        CloseCore {
            phase: Phase::Open,
            repeat: SYN,
            trace,
        }
    }

    /// Neither end has closed.
    pub fn is_open(&self) -> bool {
        self.phase == Phase::Open
    }

    /// The exchange is over: answered, given up, or the peer closed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// `Shutdown`s sent and still unanswered.
    pub fn copies_sent(&self) -> u32 {
        match self.phase {
            Phase::FinWait { copies_sent, .. } => copies_sent,
            _ => 0,
        }
    }

    /// The application closed: the first `Shutdown`, unless either end closed
    /// before. Repeats follow every `rtt_bound` (the estimators' RTT +
    /// 4·RTTVar), one SYN at least.
    pub fn close(&mut self, now: Nanos, rtt_bound: Nanos) -> Option<ControlBody> {
        if !self.is_open() {
            return None;
        }
        self.repeat = rtt_bound.max(SYN);
        Some(self.send_copy(now, 1))
    }

    /// A `Shutdown` arrived (`answer`: to one of ours). Returns the answer it
    /// is owed, if it is not one itself.
    pub fn on_shutdown(&mut self, now: Nanos, answer: bool) -> Option<ControlBody> {
        match self.phase {
            Phase::FinWait { .. } => self.finish(now, true),
            Phase::Open if !answer => self.phase = Phase::Done,
            Phase::Open | Phase::Done => {}
        }
        (!answer).then_some(ControlBody::Shutdown { answer: true })
    }

    /// The timer tick: the next copy of an unanswered `Shutdown`, from
    /// [`CloseCore::next_deadline`] on; nothing earlier.
    pub fn on_timer(&mut self, now: Nanos) -> Option<ControlBody> {
        match self.phase {
            Phase::FinWait { copies_sent, next_at } if now >= next_at => {
                Some(self.send_copy(now, copies_sent + 1))
            }
            _ => None,
        }
    }

    /// When [`CloseCore::on_timer`] next has something to do: never, unless a
    /// `Shutdown` is unanswered.
    pub fn next_deadline(&self) -> Nanos {
        match self.phase {
            Phase::FinWait { next_at, .. } => next_at,
            _ => Nanos(u64::MAX),
        }
    }

    /// Copy number `copy` goes out; the last one is not waited for.
    fn send_copy(&mut self, now: Nanos, copy: u32) -> ControlBody {
        self.trace.emit_at(now.0, EventKind::ShutdownSend { copy });
        let next_at = now.plus(self.repeat);
        self.phase = Phase::FinWait { copies_sent: copy, next_at };
        if copy >= SHUTDOWN_COPIES {
            self.finish(now, false);
        }
        ControlBody::Shutdown { answer: false }
    }

    fn finish(&mut self, now: Nanos, answered: bool) {
        self.phase = Phase::Done;
        self.trace.emit_at(now.0, EventKind::ShutdownDone { answered });
    }
}
