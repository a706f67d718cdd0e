//! The names every performance claim in this repository is made with:
//! four workloads, five end-to-end metrics, and the per-layer ledger.
//! `BENCHMARK.json` is this table printed by `benchmark manifest`; a test
//! holds the two together.

use crate::json::Json;
use crate::workloads::WORKLOADS;

pub const RUN_SECONDS: u64 = 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload prints every one of these (the driver's contract), so a
/// metric is here only if it says something on all four and repeats on all
/// four. The issue that defined the benchmark asked for a bound of 0.10;
/// only `close_p50_ms` repeats that well on the shared 2-vCPU VM this was
/// sized on. The others spread 3-14 % between runs of one commit
/// (BASELINE.md), so they carry the widest bound the driver allows and the
/// issue's criterion is not met for them: a claim smaller than a bound
/// needs paired runs, not this gate. `benchmark compare` calls a pair
/// unresolved, not unchanged, when a side's own runs spread wider than the
/// bound. Demoted to per-layer metrics because they repeat worse still or
/// repeat another metric: `msgs_per_s` (a fixed multiple of `goodput_mbps`
/// on every workload), `rr_p99_us` (ten runs in a noisy five minutes spread
/// 29 %, past any bound the driver allows; `rr_p95_us` spread 7 % in the
/// same runs and stands in for it), `rr_p999_us`, `connect_p50_us`.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("goodput_mbps", "Mb/s", Higher, 0.25),
    e2e("rr_p50_us", "us", Lower, 0.25),
    e2e("rr_p95_us", "us", Lower, 0.25),
    e2e("close_p50_ms", "ms", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Table 3 categories, in `udt::instrument::Category` order.
pub const CATEGORIES: [&str; 9] = [
    "udp_write",
    "udp_read",
    "timing",
    "packing",
    "unpacking",
    "control",
    "loss",
    "app",
    "measure",
];

pub const PER_LAYER: &[PerLayer] = &[
    // Ledger: isolated calls into public functions.
    pl("proto.wire.encode_ns_64", "ns", Lower),
    pl("proto.wire.encode_ns_1488", "ns", Lower),
    pl("proto.wire.decode_ns_64", "ns", Lower),
    pl("proto.wire.decode_ns_1488", "ns", Lower),
    pl("proto.nak.encode_ns", "ns", Lower),
    pl("proto.nak.decode_ns", "ns", Lower),
    pl("algo.losslist.insert_ns", "ns", Lower),
    pl("algo.losslist.remove_ns", "ns", Lower),
    pl("algo.losslist.pop_first_ns", "ns", Lower),
    pl("algo.rate.on_ack_ns", "ns", Lower),
    pl("algo.rate.on_loss_ns", "ns", Lower),
    pl("algo.history.on_pkt_arrival_ns", "ns", Lower),
    pl("algo.history.recv_speed_ns", "ns", Lower),
    pl("udt.buffer.snd_append_ns_64", "ns", Lower),
    pl("udt.buffer.snd_append_ns_1488", "ns", Lower),
    pl("udt.buffer.snd_ack_ns", "ns", Lower),
    pl("udt.buffer.rcv_insert_ns", "ns", Lower),
    pl("udt.buffer.rcv_read_ns_1488", "ns", Lower),
    pl("udt.datapath.pump_msgs_per_s_64", "1/s", Higher),
    pl("udt.datapath.pump_msgs_per_s_1488", "1/s", Higher),
    pl("udt.datapath.pump_pool_hit_rate", "ratio", Higher),
    pl("udt.datapath.pump_pkts_per_recv_batch", "pkts", Higher),
    pl("udt.datapath.pump_pkts_per_send_batch", "pkts", Higher),
    pl("udt.datapath.pump_delivered_share", "ratio", Higher),
    pl("udt.timing.sleep_overshoot_us_p50", "us", Lower),
    pl("udt.timing.sleep_overshoot_us_p99", "us", Lower),
    // Boundary spans: timed by the harness around each call.
    pl("udt.socket.bind_us_p50", "us", Lower),
    pl("udt.socket.connect_us_p50", "us", Lower),
    pl("udt.socket.accept_us_p50", "us", Lower),
    pl("udt.conn.send_call_us_p50", "us", Lower),
    pl("udt.conn.send_call_us_p99", "us", Lower),
    pl("udt.conn.recv_call_us_p50", "us", Lower),
    pl("udt.conn.recv_call_us_p99", "us", Lower),
    pl("udt.conn.recv_bytes_per_call", "B", Higher),
    pl("udt.conn.close_ms_p50", "ms", Lower),
    // Measured like the end-to-end metrics, not gated (see END_TO_END).
    pl("udt.conn.msgs_per_s", "1/s", Higher),
    pl("udt.conn.rr_p99_us", "us", Lower),
    pl("udt.conn.rr_p999_us", "us", Lower),
    // Counters read at the same boundaries.
    pl("udt.conn.retx_ratio", "ratio", Lower),
    pl("udt.conn.dup_ratio", "ratio", Lower),
    pl("udt.conn.acks_per_kpkt", "1/kpkt", Lower),
    pl("udt.conn.naks_per_kpkt", "1/kpkt", Lower),
    pl("udt.conn.loss_events", "count", Lower),
    pl("udt.conn.exp_timeouts", "count", Lower),
    pl("udt.conn.pkts_rejected", "count", Lower),
    pl("udt.conn.snd_period_us_p50", "us", Lower),
    pl("udt.conn.snd_period_us_p99", "us", Lower),
    pl("udt.conn.cwnd_pkts_p50", "pkts", Higher),
    pl("udt.conn.rtt_us_p50", "us", Lower),
    pl("udt.conn.bw_est_pps_p50", "1/s", Higher),
    pl("udt.conn.starved_share", "ratio", Lower),
    pl("udt.conn.truncated_ops", "count", Lower),
    pl("linkemu.forwarded", "pkts", Higher),
    pl("linkemu.queue_drops", "pkts", Lower),
    pl("linkemu.drop_share", "ratio", Lower),
    // Table 3 from conn.instrument().snapshot() on both ends.
    pl("udt.instrument.snd_ns_per_pkt", "ns", Lower),
    pl("udt.instrument.rcv_ns_per_pkt", "ns", Lower),
    pl("udt.instrument.snd_share.udp_write", "ratio", Lower),
    pl("udt.instrument.snd_share.udp_read", "ratio", Lower),
    pl("udt.instrument.snd_share.timing", "ratio", Lower),
    pl("udt.instrument.snd_share.packing", "ratio", Lower),
    pl("udt.instrument.snd_share.unpacking", "ratio", Lower),
    pl("udt.instrument.snd_share.control", "ratio", Lower),
    pl("udt.instrument.snd_share.loss", "ratio", Lower),
    pl("udt.instrument.snd_share.app", "ratio", Lower),
    pl("udt.instrument.snd_share.measure", "ratio", Lower),
    pl("udt.instrument.rcv_share.udp_write", "ratio", Lower),
    pl("udt.instrument.rcv_share.udp_read", "ratio", Lower),
    pl("udt.instrument.rcv_share.timing", "ratio", Lower),
    pl("udt.instrument.rcv_share.packing", "ratio", Lower),
    pl("udt.instrument.rcv_share.unpacking", "ratio", Lower),
    pl("udt.instrument.rcv_share.control", "ratio", Lower),
    pl("udt.instrument.rcv_share.loss", "ratio", Lower),
    pl("udt.instrument.rcv_share.app", "ratio", Lower),
    pl("udt.instrument.rcv_share.measure", "ratio", Lower),
    // Registry, through MetricsHub::registry().
    pl("udt.mux.pkts_per_recv_batch", "pkts", Higher),
    pl("udt.mux.pkts_per_send_batch", "pkts", Higher),
    pl("udt.mux.pool_hit_rate", "ratio", Higher),
    pl("udt.mux.queue_depth_pkts_p99", "pkts", Lower),
    pl("udt.conn.ack_delivery_us_p50", "us", Lower),
    pl("udt.conn.ack_delivery_us_p99", "us", Lower),
    // Process and host.
    pl("proc.cpu_s_per_gb", "s/GB", Lower),
    pl("proc.cpu_ms_per_kpkt.snd", "ms/kpkt", Lower),
    pl("proc.cpu_ms_per_kpkt.rcv", "ms/kpkt", Lower),
    pl("proc.cpu_ms_per_kpkt.mux", "ms/kpkt", Lower),
    pl("proc.cpu_ms_per_kpkt.app", "ms/kpkt", Lower),
    pl("proc.ctx_switches_per_pkt", "1/pkt", Lower),
    pl("proc.allocs_per_pkt", "1/pkt", Lower),
    pl("proc.alloc_bytes_per_payload_byte", "ratio", Lower),
    pl("proc.rss_peak_mb", "MB", Lower),
    pl("proc.threads_peak", "count", Lower),
    pl("host.steal_share", "ratio", Lower),
    pl("host.disturbed_op_share", "ratio", Lower),
    pl("trace.overhead_pct", "%", Lower),
    // The sustained probe: one long-lived loopback stream and one
    // long-lived request-response connection.
    pl("udt.conn.sustained_goodput_mbps", "Mb/s", Higher),
    pl("udt.conn.sustained_starved_share", "ratio", Lower),
    pl("udt.conn.sustained_snd_period_us_p99", "us", Lower),
    pl("udt.conn.sustained_rr_late_p50_us", "us", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, exactly the keys the driver reads, one entry a line.
pub fn manifest() -> String {
    fn section(key: &str, entries: Vec<Json>) -> String {
        let lines: Vec<String> = entries
            .iter()
            .map(|e| format!("    {}", e.render()))
            .collect();
        format!("  \"{key}\": [\n{}\n  ]", lines.join(",\n"))
    }
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let named = |name: &str, unit: &str, better: Better| {
        vec![
            ("name", Json::str(name)),
            ("unit", Json::str(unit)),
            ("better", Json::str(better.as_str())),
        ]
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let mut pairs = named(m.name, m.unit, m.better);
            pairs.push(("bound", Json::Num(m.bound)));
            Json::obj(pairs)
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| Json::obj(named(m.name, m.unit, m.better)))
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n{},\n{},\n{}\n}}",
        section("workloads", workloads),
        section("end_to_end", end_to_end),
        section("per_layer", per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut c = s.chars();
        c.next().is_some_and(|f| f.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The limits the driver refuses a BENCHMARK.json for.
    #[test]
    fn tables_stay_inside_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why has {} chars",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END {
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest().len() < 64 * 1024);
        Json::parse(&manifest()).expect("the manifest is JSON");
    }

    #[test]
    fn committed_manifest_is_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text.trim_end(),
            manifest(),
            "BENCHMARK.json is out of date: regenerate it with `benchmark manifest`"
        );
    }
}
