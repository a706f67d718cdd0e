//! Figure 7 — UDT with vs without flow control.
//!
//! Paper setup: NS-2, 1 Gb/s, 100 ms RTT, DropTail queue = BDP. Without
//! the supportive window (§3.2), the rate controller keeps pouring packets
//! while congestion signals are in flight, producing deep throughput
//! oscillations; with it, the curve is steady near capacity.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use udt_algo::{Nanos, UdtCcConfig};
use udt_metrics::{mean, stddev};

use crate::report::Report;
use crate::scenarios::{run as run_scenario, FlowSpec, Proto, Scenario};
use netsim::agents::udt::CcKind;

/// Run with configurable parameters.
pub fn run_with(rate_bps: f64, secs: f64) -> Report {
    let rtt = Nanos::from_millis(100);
    let bdp_pkts = (rate_bps * rtt.as_secs_f64() / (1500.0 * 8.0)) as usize;
    let mut rep = Report::new(
        "fig7",
        "UDT throughput over time, with vs without flow control",
        format!(
            "{} Mb/s, 100 ms RTT, DropTail q = BDP ({bdp_pkts} pkts), {secs} s, 0.5 s samples",
            rate_bps / 1e6
        ),
    );
    let mut outs = Vec::new();
    for fc in [true, false] {
        let sc = Scenario {
            topo: crate::scenarios::Topology::Dumbbell {
                rate_bps,
                one_way: Nanos::from_millis(50),
            },
            flows: vec![FlowSpec::bulk(Proto::Udt {
                cc: CcKind::Udt(UdtCcConfig::default()),
                flow_control: fc,
            })],
            secs,
            warmup_s: 5.0,
            sample_s: 0.5,
            queue_cap: Some(bdp_pkts),
            mss: 1500,
            run_to_completion: false,
            bottleneck_loss: 0.0,
        };
        outs.push(run_scenario(&sc));
    }
    let (with_fc, without_fc) = (&outs[0], &outs[1]);
    rep.row("t(s)   with-FC(Mb/s)   without-FC(Mb/s)");
    let n = with_fc.series[0].len().min(without_fc.series[0].len());
    for i in (0..n).step_by(2) {
        rep.row(format!(
            "{:>4.1}   {:>13.1}   {:>16.1}",
            5.0 + i as f64 * 0.5,
            with_fc.series[0][i] / 1e6,
            without_fc.series[0][i] / 1e6
        ));
    }
    let (m_fc, s_fc) = (mean(&with_fc.series[0]), stddev(&with_fc.series[0]));
    let (m_no, s_no) = (mean(&without_fc.series[0]), stddev(&without_fc.series[0]));
    rep.row(format!(
        "summary: with FC mean={:.1} stddev={:.1} drops={}; without FC mean={:.1} stddev={:.1} drops={}",
        m_fc / 1e6,
        s_fc / 1e6,
        with_fc.bottleneck_drops,
        m_no / 1e6,
        s_no / 1e6,
        without_fc.bottleneck_drops
    ));
    rep.shape(
        "flow control damps oscillation (lower throughput stddev)",
        s_fc < s_no,
        format!("stddev {:.1} vs {:.1} Mb/s", s_fc / 1e6, s_no / 1e6),
    );
    rep.shape(
        "flow control reduces loss",
        with_fc.bottleneck_drops <= without_fc.bottleneck_drops,
        format!(
            "drops {} vs {}",
            with_fc.bottleneck_drops, without_fc.bottleneck_drops
        ),
    );
    rep.shape(
        "with flow control the link is well utilized",
        m_fc > 0.75 * rate_bps,
        format!("mean {:.1} Mb/s of {:.0}", m_fc / 1e6, rate_bps / 1e6),
    );
    rep
}

/// Paper-parameter entry point.
pub fn run() -> Report {
    run_with(1e9, 30.0)
}

/// `bench exp fig7 --trace <path>`: a scaled (100 Mb/s, 10 s) traced run of
/// the flow-control scenario whose full event timeline goes to `path` as
/// JSONL, for `udtmon --once` or offline analysis.
pub fn run_traced(path: &std::path::Path) -> Report {
    let mut rep = Report::new(
        "fig7",
        "Flow-control scenario, traced",
        "100 Mb/s, 10 s, full event timeline exported as JSONL",
    );
    match export_trace(path, 1e8, 10.0) {
        Ok(n) => rep.shape(
            "trace exported",
            true,
            format!("wrote {n} events to {}", path.display()),
        ),
        Err(e) => rep.shape("trace exported", false, format!("trace export failed: {e}")),
    }
    rep
}

/// Run the flow-control scenario traced and export its event timeline as
/// JSONL at `path`. Returns the event count written.
/// The file round-trips through `udt_trace::json::parse_line` — the same
/// schema real-socket runs export — so sim and socket timelines can be
/// compared with one toolchain (`udtmon --once`, plotting scripts).
pub fn export_trace(path: &std::path::Path, rate_bps: f64, secs: f64) -> std::io::Result<usize> {
    let rtt = Nanos::from_millis(100);
    let bdp_pkts = (rate_bps * rtt.as_secs_f64() / (1500.0 * 8.0)) as usize;
    let sc = Scenario {
        topo: crate::scenarios::Topology::Dumbbell {
            rate_bps,
            one_way: Nanos::from_millis(50),
        },
        flows: vec![FlowSpec::bulk(Proto::Udt {
            cc: CcKind::Udt(UdtCcConfig::default()),
            flow_control: true,
        })],
        secs,
        warmup_s: 5.0,
        sample_s: 0.5,
        queue_cap: Some(bdp_pkts),
        mss: 1500,
        run_to_completion: false,
        bottleneck_loss: 0.0,
    };
    let tracer = udt_trace::Tracer::ring(1 << 16);
    let _ = crate::scenarios::run_traced(&sc, &tracer);
    udt_trace::flight::write_jsonl(path, &tracer.snapshot())
}
