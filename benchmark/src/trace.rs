//! Traced-run bookkeeping kept by the harness around its calls into the
//! library: spans, call-time histograms and `perfmon()` samples. One
//! `SideTrace` per application thread, merged when the workload ends.
//! The untraced run never constructs one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use udt::UdtConnection;
use udt_metrics::hist::Histogram;

use crate::json::Json;

/// Per-call spans kept per thread; later ones only feed the histograms.
/// Phase and op spans are always kept (a few per op).
const MAX_CALL_SPANS: usize = 20_000;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub op_id: u32,
    /// Id of the span this one ran inside; 0 for an op's root span.
    pub parent: u64,
}

/// One 100 ms reading of the sending connection's control state.
#[derive(Debug, Clone, Copy)]
pub struct PerfSample {
    pub snd_period_us: f64,
    pub cwnd_pkts: f64,
    pub rtt_us: f64,
    pub bw_est_pps: f64,
}

pub struct SideTrace {
    epoch: Instant,
    pub op_id: u32,
    pub spans: Vec<Span>,
    call_spans: usize,
    pub spans_dropped: u64,
    pub send_ns: Histogram,
    pub recv_ns: Histogram,
    pub recv_calls: u64,
    pub recv_bytes: u64,
    pub perf: Vec<PerfSample>,
    last_perf: Instant,
}

impl SideTrace {
    pub fn new(epoch: Instant) -> SideTrace {
        SideTrace {
            epoch,
            op_id: 0,
            spans: Vec::with_capacity(MAX_CALL_SPANS + 4096),
            call_spans: 0,
            spans_dropped: 0,
            send_ns: Histogram::new(),
            recv_ns: Histogram::new(),
            recv_calls: 0,
            recv_bytes: 0,
            perf: Vec::new(),
            last_perf: epoch,
        }
    }

    fn push(&mut self, id: u64, name: &'static str, parent: u64, t0: Instant, t1: Instant) {
        self.spans.push(Span {
            id,
            name,
            start_ns: t0.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: t1.saturating_duration_since(self.epoch).as_nanos() as u64,
            op_id: self.op_id,
            parent,
        });
    }

    /// Reserve the id of an op or phase span before its end is known, so
    /// that calls made inside it can name it as their parent.
    pub fn open(&self) -> u64 {
        NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Record the span whose id `open` reserved.
    pub fn close(&mut self, id: u64, name: &'static str, parent: u64, t0: Instant, t1: Instant) {
        self.push(id, name, parent, t0, t1);
    }

    /// Record a phase span that has no children.
    pub fn phase(&mut self, name: &'static str, parent: u64, t0: Instant, t1: Instant) {
        let id = self.open();
        self.push(id, name, parent, t0, t1);
    }

    fn call(&mut self, name: &'static str, parent: u64, t0: Instant, t1: Instant) {
        if self.call_spans < MAX_CALL_SPANS {
            self.call_spans += 1;
            self.phase(name, parent, t0, t1);
        } else {
            self.spans_dropped += 1;
        }
    }

    pub fn send_call(&mut self, parent: u64, t0: Instant, t1: Instant) {
        self.send_ns.record_duration_ns(t1 - t0);
        self.call("udt.conn.send", parent, t0, t1);
    }

    pub fn recv_call(&mut self, parent: u64, t0: Instant, t1: Instant, bytes: usize) {
        self.recv_ns.record_duration_ns(t1 - t0);
        self.recv_calls += 1;
        self.recv_bytes += bytes as u64;
        self.call("udt.conn.recv", parent, t0, t1);
    }

    /// Sample `perfmon()` when 100 ms have passed since the last sample.
    pub fn maybe_perfmon(&mut self, conn: &UdtConnection, now: Instant) {
        if now.saturating_duration_since(self.last_perf).as_millis() >= 100 {
            self.last_perf = now;
            let p = conn.perfmon();
            self.perf.push(PerfSample {
                snd_period_us: p.pkt_snd_period_us,
                cwnd_pkts: p.cwnd_pkts,
                rtt_us: p.rtt_us,
                bw_est_pps: p.bandwidth_est_pps,
            });
        }
    }
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("op_id", Json::Num(f64::from(s.op_id))),
                    ("parent", Json::Num(s.parent as f64)),
                ])
            })
            .collect(),
    )
}
