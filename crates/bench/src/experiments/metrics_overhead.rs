//! Metrics-overhead audit.
//!
//! The udt-obs layer (histograms at the datapath emit sites, per-conn
//! counter families, the profiler tick, and the scrape endpoint's server
//! thread) must be cheap enough to leave on in production — the same
//! §7 argument the trace-overhead gate makes for event tracing. Loopback
//! blasts run in interleaved pairs, identical but for the metrics hub:
//! absent (the default — every emit site is one `Option` branch) and
//! present with a live scrape endpoint and a fast profiler interval.
//!
//! The cost is measured by [`crate::ab::goodput_loss`] (interleaved pairs,
//! alternating order, median of pairs); the 5% design bound is recorded
//! against that median and the number's CI gate is its `bench regress` row.

use std::sync::Arc;
use std::time::Duration;

use udt::{MetricsHub, UdtConfig};
use udt_metrics::registry::{RegistrySnapshot, SampleValue};

use crate::ab;
use crate::perfjson;
use crate::realnet::run_loopback_blast;
use crate::report::Report;

/// Design bound on the goodput loss with metrics enabled.
const MAX_ENABLED_LOSS: f64 = 0.05;

/// Sum of `pick` over every series of `family`.
fn family_sum(snap: &RegistrySnapshot, family: &str, pick: impl Fn(&SampleValue) -> u64) -> u64 {
    snap.family(family)
        .map_or(0, |f| f.series.iter().map(|s| pick(&s.value)).sum())
}

/// Run; `quick` is the CI-sized variant (60 MB blasts instead of 150 MB).
pub fn run(quick: bool) -> Report {
    let total_bytes: u64 = if quick { 60_000_000 } else { 150_000_000 };
    let mut rep = Report::new(
        "metrics_overhead",
        "Goodput cost of the always-on metrics registry",
        format!(
            "{} interleaved pairs of {} MB loopback blasts; metrics off vs hub + scrape endpoint",
            ab::PAIRS,
            total_bytes / 1_000_000
        ),
    );
    let mut hist_samples: u64 = 0;
    let mut pkt_counts: u64 = 0;
    let json = ab::goodput_loss(
        &mut rep,
        "enabled metrics cost under 5% goodput (median of pairs)",
        MAX_ENABLED_LOSS,
        total_bytes,
        || {
            let hub = MetricsHub::new();
            let cfg = UdtConfig {
                metrics: Some(Arc::clone(&hub)),
                metrics_listen: Some("127.0.0.1:0".parse().unwrap()),
                // Much faster than the default 1 s so the profiler cost is
                // over-represented rather than missed.
                metrics_interval: Duration::from_millis(100),
                ..UdtConfig::default()
            };
            let on = run_loopback_blast(cfg, total_bytes);
            let snap = hub.registry().snapshot();
            hist_samples = hist_samples.max(family_sum(&snap, "udt_conn_rtt_us", |v| match v {
                SampleValue::Hist(h) => h.count(),
                _ => 0,
            }));
            pkt_counts = pkt_counts.max(family_sum(&snap, "udt_conn_pkts_sent", |v| match v {
                SampleValue::Counter(c) => *c,
                _ => 0,
            }));
            hub.shutdown();
            on.throughput_bps()
        },
    );
    rep.shape(
        "the hub actually metered the transfer",
        pkt_counts > 1_000 && hist_samples > 0,
        format!("{pkt_counts} pkts, {hist_samples} RTT samples in one metered blast"),
    );
    let json = json
        .int("pkts_counted", pkt_counts)
        .int("rtt_samples", hist_samples);
    perfjson::emit(&mut rep, "metrics_overhead", quick, json);
    rep
}
