//! Transport-agnostic UDT algorithms.
//!
//! Everything in this crate is *pure logic over an explicit clock*: no
//! sockets, no threads, no `std::time::Instant`. Time is a [`Nanos`] value
//! supplied by the host — wall-clock nanoseconds in the real socket
//! implementation (`udt` crate), virtual nanoseconds in the discrete-event
//! simulator (`netsim` crate). This is what lets the NS-2-style experiments
//! and the testbed-style experiments of the paper exercise the *same*
//! congestion-control code.
//!
//! Module map (paper section in parentheses):
//!
//! * [`clock`] — time types and the SYN constant (0.01 s).
//! * [`rate`] — the UDT congestion controller: AIMD rate control whose
//!   increase parameter is derived from estimated available bandwidth
//!   (formulas 1–3, Table 1; §3.3–§3.5).
//! * [`sabul`] — SABUL's MIMD rate control, UDT's predecessor (§2.3),
//!   kept as a baseline.
//! * [`history`] — packet arrival history: median-filtered arrival speed
//!   (§3.2) and receiver-based packet-pair link capacity (§3.4).
//! * [`flow`] — the dynamic flow window `W = AS·(SYN + RTT)` (§3.2).
//! * [`losslist`] — sender and receiver loss lists over static circular
//!   arrays of `[start, end]` nodes (appendix; Figures 9, 16, 17), plus a
//!   naive baseline used by the Figure 9 benchmark.
//! * [`ackwindow`] — ACK ↔ ACK2 pairing for RTT sampling.
//! * [`rtt`] — RTT/RTT-variance EWMA estimator.
//! * [`timerctl`] — EXP-timeout backoff and the growing NAK-resend
//!   interval that prevents control-traffic congestion collapse (§3.5).
//! * [`conn`] — the protocol event core that sequences all of the above:
//!   a sending and a receiving half with one handler per packet type and
//!   timer, which every host (sockets, simulator, model checker) calls.

pub mod ackwindow;
pub mod clock;
pub mod conn;
pub mod flow;
pub mod history;
pub mod losslist;
pub mod rate;
pub mod rtt;
pub mod sabul;
pub mod timerctl;

pub use clock::{Nanos, MICROS_PER_SEC, NANOS_PER_MICRO, NANOS_PER_SEC, SYN, SYN_US};
pub use flow::FlowWindow;
pub use history::PktTimeWindow;
pub use losslist::{NaiveLossList, RcvLossList, SndLossList};
pub use rate::{CcContext, RateControl, UdtCc, UdtCcConfig};
pub use rtt::RttEstimator;
pub use sabul::SabulCc;

/// Default maximum segment size (total UDP payload bytes per packet),
/// matching the paper's 1500-byte Ethernet MTU experiments.
pub const DEFAULT_MSS: u32 = 1500;

/// Packet-pair probe interval: every `PROBE_INTERVAL`-th data packet is sent
/// back-to-back with its successor (§3.4, "We use N = 16").
pub const PROBE_INTERVAL: u32 = 16;
