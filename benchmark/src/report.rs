//! From a run to named numbers: the end-to-end metrics of the untraced run
//! and the per-layer metrics of the traced one.

use udt_metrics::hist::HistSnapshot;

use crate::ledger::Ledger;
use crate::metrics::{self, CATEGORIES};
use crate::procfs::{self, Role, Usage};
use crate::session::{Counters, LinkCounts, OpOut};
use crate::stats::{percentile, Stat};
use crate::sustained::Sustained;
use crate::workloads::RunResult;

pub type Metrics = Vec<(&'static str, Stat)>;

/// Median over ops of one figure of the stream ops: goodput and message
/// rate come from them; a workload without any takes both over its round
/// trips.
fn rate(ops: &[&OpOut], f: fn(&OpOut) -> f64, unit: &'static str) -> Stat {
    let streams: Vec<f64> = ops
        .iter()
        .filter(|o| o.stream_secs > 0.0)
        .map(|o| f(o))
        .collect();
    if streams.is_empty() {
        Stat::median_of(&ops.iter().map(|o| f(o)).collect::<Vec<f64>>(), unit)
    } else {
        Stat::median_of(&streams, unit)
    }
}

/// A latency percentile, per connection first: the percentile of each op's
/// timed round trips, then the median over ops. Pooling all round trips
/// instead lets the connections a noisy host slowed down own the whole
/// upper end (over ten noisy runs the pooled p95 spread 35 %, this one 7 %).
fn rr(ops: &[&OpOut], q: f64) -> Stat {
    let per_conn: Vec<f64> = ops
        .iter()
        .filter(|o| !o.rr_us.is_empty())
        .map(|o| {
            let mut v = o.rr_us.clone();
            v.sort_by(f64::total_cmp);
            percentile(&v, q)
        })
        .collect();
    Stat::median_of(&per_conn, "us")
}

fn close_ms(ops: &[&OpOut]) -> Stat {
    Stat::median_of(&ops.iter().map(|o| o.close_ms).collect::<Vec<f64>>(), "ms")
}

/// Every end-to-end metric, in `metrics::END_TO_END` order, each the median
/// over the run's clean ops (`RunResult::clean_ops`). A failed op
/// contributes nothing here and is counted against the attempts instead.
pub fn end_to_end(run: &RunResult) -> Metrics {
    let ops = run.clean_ops();
    vec![
        ("goodput_mbps", rate(&ops, OpOut::goodput_mbps, "Mb/s")),
        ("rr_p50_us", rr(&ops, 0.5)),
        ("rr_p95_us", rr(&ops, 0.95)),
        ("close_p50_ms", close_ms(&ops)),
        ("setup_s", Stat::median_of(&run.setup_s, "s")),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn hist_us(h: &HistSnapshot, q: f64) -> f64 {
    h.value_at_quantile(q) as f64 / 1e3
}

/// Share of 100 ms delivery windows that carried under a tenth of the
/// run's 90th-percentile window.
pub fn starved_share(windows: &[u64]) -> f64 {
    let mut w: Vec<f64> = windows.iter().map(|b| *b as f64).collect();
    w.sort_by(f64::total_cmp);
    let floor = percentile(&w, 0.9) * 0.1;
    ratio(
        w.iter().filter(|b| **b < floor).count() as f64,
        w.len() as f64,
    )
}

/// Every per-layer metric, in `metrics::PER_LAYER` order. `run` must be a
/// traced run.
pub fn per_layer(
    run: &RunResult,
    ledger: &Ledger,
    sustained: &Sustained,
    overhead_pct: f64,
) -> Metrics {
    let t = run
        .traced
        .as_ref()
        .expect("per-layer metrics come from a traced run");
    let ops = run.clean_ops();
    let mut out: Metrics = ledger.rows.clone();

    let per_op = |f: fn(&OpOut) -> f64| ops.iter().map(|o| f(o)).collect::<Vec<f64>>();
    let mut send = t.client.send_ns.snapshot();
    send.merge(&t.server.send_ns.snapshot());
    let mut recv = t.client.recv_ns.snapshot();
    recv.merge(&t.server.recv_ns.snapshot());
    let hist = |name, h: &HistSnapshot, q| {
        (
            name,
            Stat {
                n: h.count() as usize,
                ..Stat::scalar(hist_us(h, q), "us")
            },
        )
    };
    out.extend([
        (
            "udt.socket.bind_us_p50",
            Stat::median_of(&per_op(|o| o.bind_us), "us"),
        ),
        (
            "udt.socket.connect_us_p50",
            Stat::median_of(&per_op(|o| o.connect_us), "us"),
        ),
        (
            "udt.socket.accept_us_p50",
            Stat::median_of(&per_op(|o| o.accept_us), "us"),
        ),
        hist("udt.conn.send_call_us_p50", &send, 0.5),
        hist("udt.conn.send_call_us_p99", &send, 0.99),
        hist("udt.conn.recv_call_us_p50", &recv, 0.5),
        hist("udt.conn.recv_call_us_p99", &recv, 0.99),
        (
            "udt.conn.recv_bytes_per_call",
            Stat::scalar(
                ratio(
                    (t.client.recv_bytes + t.server.recv_bytes) as f64,
                    (t.client.recv_calls + t.server.recv_calls) as f64,
                ),
                "B",
            ),
        ),
        ("udt.conn.close_ms_p50", close_ms(&ops)),
        ("udt.conn.msgs_per_s", rate(&ops, OpOut::msgs_per_s, "1/s")),
        ("udt.conn.rr_p99_us", rr(&ops, 0.99)),
        ("udt.conn.rr_p999_us", rr(&ops, 0.999)),
    ]);

    let mut c = Counters::default();
    let mut link = LinkCounts::default();
    let mut usage = Usage::default();
    let mut windows = Vec::new();
    let (mut snd, mut rcv) = ([0u64; 9], [0u64; 9]);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    for o in &ops {
        c.add(&o.counters);
        link.forwarded += o.link.forwarded;
        link.queue_drops += o.link.queue_drops;
        windows.extend_from_slice(&o.windows);
        for i in 0..9 {
            snd[i] += o.instr_snd[i];
            rcv[i] += o.instr_rcv[i];
        }
        for (role, ns) in &o.usage.cpu_ns {
            *usage.cpu_ns.entry(*role).or_default() += ns;
        }
        usage.ctx_switches += o.usage.ctx_switches;
        allocs += o.allocs;
        alloc_bytes += o.alloc_bytes;
    }
    let pkts = c.pkts_sent as f64;
    let kpkt = pkts / 1e3;
    let perf = |f: fn(&crate::trace::PerfSample) -> f64, q: f64, unit| {
        let v: Vec<f64> = t.client.perf.iter().map(f).collect();
        Stat::of(&v, q, unit)
    };
    out.extend([
        (
            "udt.conn.retx_ratio",
            Stat::scalar(ratio(c.pkts_retx as f64, pkts), "ratio"),
        ),
        (
            "udt.conn.dup_ratio",
            Stat::scalar(ratio(c.pkts_dup as f64, c.pkts_received as f64), "ratio"),
        ),
        (
            "udt.conn.acks_per_kpkt",
            Stat::scalar(ratio(c.acks as f64, kpkt), "1/kpkt"),
        ),
        (
            "udt.conn.naks_per_kpkt",
            Stat::scalar(ratio(c.naks as f64, kpkt), "1/kpkt"),
        ),
        (
            "udt.conn.loss_events",
            Stat::scalar(c.loss_events as f64, "count"),
        ),
        (
            "udt.conn.exp_timeouts",
            Stat::scalar(c.exp_timeouts as f64, "count"),
        ),
        (
            "udt.conn.pkts_rejected",
            Stat::scalar(c.pkts_rejected as f64, "count"),
        ),
        (
            "udt.conn.snd_period_us_p50",
            perf(|p| p.snd_period_us, 0.5, "us"),
        ),
        (
            "udt.conn.snd_period_us_p99",
            perf(|p| p.snd_period_us, 0.99, "us"),
        ),
        ("udt.conn.cwnd_pkts_p50", perf(|p| p.cwnd_pkts, 0.5, "pkts")),
        ("udt.conn.rtt_us_p50", perf(|p| p.rtt_us, 0.5, "us")),
        (
            "udt.conn.bw_est_pps_p50",
            perf(|p| p.bw_est_pps, 0.5, "1/s"),
        ),
        (
            "udt.conn.starved_share",
            Stat {
                n: windows.len(),
                ..Stat::scalar(starved_share(&windows), "ratio")
            },
        ),
        (
            "udt.conn.truncated_ops",
            Stat::scalar(ops.iter().filter(|o| o.truncated).count() as f64, "count"),
        ),
        (
            "linkemu.forwarded",
            Stat::scalar(link.forwarded as f64, "pkts"),
        ),
        (
            "linkemu.queue_drops",
            Stat::scalar(link.queue_drops as f64, "pkts"),
        ),
        (
            "linkemu.drop_share",
            Stat::scalar(
                ratio(
                    link.queue_drops as f64,
                    (link.forwarded + link.queue_drops) as f64,
                ),
                "ratio",
            ),
        ),
    ]);

    // Table 3: the client is the data-sending end, the server the
    // data-receiving end; each Instrument covers both threads of its end.
    let (snd_total, rcv_total) = (
        snd.iter().sum::<u64>() as f64,
        rcv.iter().sum::<u64>() as f64,
    );
    out.push((
        "udt.instrument.snd_ns_per_pkt",
        Stat::scalar(ratio(snd_total, pkts), "ns"),
    ));
    out.push((
        "udt.instrument.rcv_ns_per_pkt",
        Stat::scalar(ratio(rcv_total, pkts), "ns"),
    ));
    for (side, cats, total) in [("snd", &snd, snd_total), ("rcv", &rcv, rcv_total)] {
        for (i, cat) in CATEGORIES.iter().enumerate() {
            let name = format!("udt.instrument.{side}_share.{cat}");
            let def = metrics::per_layer(&name).expect("share names are in the table");
            out.push((
                def.name,
                Stat::scalar(ratio(cats[i] as f64, total), "ratio"),
            ));
        }
    }

    let reg = &t.registry;
    let depth = reg.hists.get("udt_conn_queue_depth_pkts");
    let ackd = reg.hists.get("udt_conn_ack_delivery_us");
    let q = |h: Option<&HistSnapshot>, q| h.map_or(0.0, |h| h.value_at_quantile(q) as f64);
    out.extend([
        (
            "udt.mux.pkts_per_recv_batch",
            Stat::scalar(
                ratio(
                    reg.counter("udt_batch_recv_pkts"),
                    reg.counter("udt_batch_recv_batches"),
                ),
                "pkts",
            ),
        ),
        (
            "udt.mux.pkts_per_send_batch",
            Stat::scalar(
                ratio(
                    reg.counter("udt_batch_send_pkts"),
                    reg.counter("udt_batch_send_batches"),
                ),
                "pkts",
            ),
        ),
        (
            "udt.mux.pool_hit_rate",
            Stat::scalar(
                ratio(
                    reg.counter("udt_batch_pool_hits"),
                    reg.counter("udt_batch_pool_hits") + reg.counter("udt_batch_pool_misses"),
                ),
                "ratio",
            ),
        ),
        (
            "udt.mux.queue_depth_pkts_p99",
            Stat::scalar(q(depth, 0.99), "pkts"),
        ),
        (
            "udt.conn.ack_delivery_us_p50",
            Stat::scalar(q(ackd, 0.5), "us"),
        ),
        (
            "udt.conn.ack_delivery_us_p99",
            Stat::scalar(q(ackd, 0.99), "us"),
        ),
    ]);

    let gb = c.bytes_delivered as f64 / 1e9;
    let threads_peak = ops.iter().map(|o| o.threads).max().unwrap_or(0);
    out.extend([
        (
            "proc.cpu_s_per_gb",
            Stat::scalar(ratio(usage.cpu_s_total(), gb), "s/GB"),
        ),
        (
            "proc.cpu_ms_per_kpkt.snd",
            Stat::scalar(ratio(usage.cpu_ms(Role::Snd), kpkt), "ms/kpkt"),
        ),
        (
            "proc.cpu_ms_per_kpkt.rcv",
            Stat::scalar(ratio(usage.cpu_ms(Role::Rcv), kpkt), "ms/kpkt"),
        ),
        (
            "proc.cpu_ms_per_kpkt.mux",
            Stat::scalar(ratio(usage.cpu_ms(Role::Mux), kpkt), "ms/kpkt"),
        ),
        (
            "proc.cpu_ms_per_kpkt.app",
            Stat::scalar(ratio(usage.cpu_ms(Role::App), kpkt), "ms/kpkt"),
        ),
        (
            "proc.ctx_switches_per_pkt",
            Stat::scalar(ratio(usage.ctx_switches as f64, pkts), "1/pkt"),
        ),
        (
            "proc.allocs_per_pkt",
            Stat::scalar(ratio(allocs as f64, pkts), "1/pkt"),
        ),
        (
            "proc.alloc_bytes_per_payload_byte",
            Stat::scalar(ratio(alloc_bytes as f64, c.bytes_delivered as f64), "ratio"),
        ),
        (
            "proc.rss_peak_mb",
            Stat::scalar(procfs::rss_peak_mb(), "MB"),
        ),
        (
            "proc.threads_peak",
            Stat::scalar(threads_peak as f64, "count"),
        ),
        ("host.steal_share", Stat::scalar(run.steal_share, "ratio")),
        (
            "host.disturbed_op_share",
            Stat::scalar(run.disturbed_share(), "ratio"),
        ),
        ("trace.overhead_pct", Stat::scalar(overhead_pct, "%")),
    ]);
    out.extend(sustained.rows.clone());
    out
}

/// Human-readable table: one metric per line.
pub fn print_table(title: &str, rows: &Metrics) {
    println!("# {title}");
    println!(
        "{:<44} {:>16} {:<8} {:>8} {:>14} {:>14}",
        "metric", "value", "unit", "n", "p25", "p75"
    );
    for (name, s) in rows {
        println!(
            "{:<44} {:>16.4} {:<8} {:>8} {:>14.4} {:>14.4}",
            name, s.value, s.unit, s.n, s.p25, s.p75
        );
    }
}
