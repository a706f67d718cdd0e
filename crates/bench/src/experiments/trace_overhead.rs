//! Tracing-overhead audit.
//!
//! §7 argues monitoring must be part of the protocol, not an afterthought —
//! which only holds if the hooks are close to free. Loopback blasts run in
//! interleaved pairs, identical but for the tracer: disabled (the default —
//! every emission site is one branch, no allocation) and enabled with the
//! default ring (~58 ns per emitted event, measured).
//!
//! The cost is measured by [`crate::ab::goodput_loss`] (interleaved pairs,
//! alternating order, median of pairs); the 5% design bound is recorded
//! against that median and the number's CI gate is its `bench regress` row.

use udt::{Tracer, UdtConfig, DEFAULT_RING_CAPACITY};

use crate::ab;
use crate::perfjson;
use crate::realnet::run_loopback_blast;
use crate::report::Report;

/// Design bound on the goodput loss with tracing enabled.
const MAX_ENABLED_LOSS: f64 = 0.05;

/// Run; `quick` is the CI-sized variant (60 MB blasts instead of 150 MB).
pub fn run(quick: bool) -> Report {
    let total_bytes: u64 = if quick { 60_000_000 } else { 150_000_000 };
    let mut rep = Report::new(
        "trace_overhead",
        "Goodput cost of structured event tracing",
        format!(
            "{} interleaved pairs of {} MB loopback blasts; tracer off vs ring({DEFAULT_RING_CAPACITY})",
            ab::PAIRS,
            total_bytes / 1_000_000
        ),
    );
    let mut events: u64 = 0;
    let json = ab::goodput_loss(
        &mut rep,
        "enabled tracing costs under 5% goodput (median of pairs)",
        MAX_ENABLED_LOSS,
        total_bytes,
        || {
            let tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
            let cfg = UdtConfig {
                tracer: tracer.clone(),
                ..UdtConfig::default()
            };
            let on = run_loopback_blast(cfg, total_bytes);
            events = events.max(tracer.pushed());
            on.throughput_bps()
        },
    );
    rep.shape(
        "an enabled tracer actually captured the transfer",
        events > 1_000,
        format!("{events} events pushed in one traced blast"),
    );
    perfjson::emit(
        &mut rep,
        "trace_overhead",
        quick,
        json.int("events", events),
    );
    rep
}
