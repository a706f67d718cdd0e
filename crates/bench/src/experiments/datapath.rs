//! Batched-datapath audit: msgs/s speedup and UDP-syscall CPU share.
//!
//! The batching refactor claims two things (§4's implementation-cost
//! argument, Table 3's CPU breakdown): moving the datapath's unit of work
//! from a packet to a batch of packets multiplies raw message throughput,
//! and it shrinks the share of CPU burned in the UDP send/receive
//! syscalls. Both are measured here.
//!
//! Part 1 drives the raw datapath pump ([`udt::datapath::run_pump`]) in
//! interleaved pairs — the legacy datapath (batch 1 *and* OS-default UDP
//! socket buffers, exactly what the pre-batching code ran) against the
//! batched defaults — and gates the median speedup at 2×.
//! Part 2 runs full-protocol loopback blasts (`tbl3` methodology)
//! with batching off and on, comparing the instrumented "UDP writing" +
//! "UDP reading" CPU shares.
//!
//! Both comparisons go through [`crate::ab::compare`]: alternating order,
//! every pair printed, the median of pairs judged. When the multi-message
//! syscalls are unavailable (non-Linux, or an `ENOSYS` downgrade), the
//! speedup gate is recorded but skipped — the fallback intentionally
//! reproduces per-packet behavior.

use std::io;

use udt::datapath::{run_pump, PumpOut, PumpSpec};
use udt::UdtConfig;
use udt_trace::json::Value;

use crate::ab::{self, PAIRS};
use crate::perfjson::{self, Obj};
use crate::realnet::run_loopback_blast;
use crate::report::{mbps, Report};

/// Required median msgs/s multiple of batched over per-packet.
const MIN_SPEEDUP: f64 = 2.0;

/// A per-packet config: batch sizes of 1 plus OS-default UDP socket
/// buffers reproduce the legacy datapath (`send_to` per packet, one
/// delivered packet per demux wakeup, no socket-buffer sizing).
fn per_packet_cfg() -> UdtConfig {
    UdtConfig {
        rcv_batch_pkts: 1,
        snd_batch_pkts: 1,
        udp_sndbuf_bytes: 0,
        udp_rcvbuf_bytes: 0,
        ..UdtConfig::default()
    }
}

/// Combined UDP send+receive CPU share of one blast (sender's writing
/// share plus receiver's reading share — the two Table 3 categories the
/// batched syscalls amortize).
fn udp_share(out: &crate::realnet::TransferOut) -> f64 {
    out.snd_instr.ratio_of("UDP writing") + out.rcv_instr.ratio_of("UDP reading")
}

/// Run; `quick` is the CI-sized variant (fewer pump packets, smaller
/// blasts).
pub fn run(quick: bool) -> Report {
    let (pump_pkts, blast_bytes): (u32, u64) = if quick {
        (60_000, 60_000_000)
    } else {
        (200_000, 150_000_000)
    };
    let mut rep = Report::new(
        "datapath",
        "Batched datapath: msgs/s and UDP-syscall CPU share",
        format!(
            "{PAIRS} interleaved pairs: raw pump ({pump_pkts} pkts, batch 1 vs {}) and \
             loopback blasts ({} MB, per-packet vs batched cfg)",
            UdtConfig::default().rcv_batch_pkts,
            blast_bytes / 1_000_000
        ),
    );

    // --- Part 1: raw datapath pump, msgs per second ---
    // Warm-up run off the books (thread spawn, allocator, page cache).
    let _ = run_pump(&PumpSpec {
        pkts: pump_pkts / 4,
        ..PumpSpec::default()
    });

    let pump = |spec: PumpSpec| move || run_pump(&spec);
    let pumps = ab::compare(
        PAIRS,
        pump(PumpSpec {
            pkts: pump_pkts,
            batch: 1,
            os_udp_bufs: true,
            ..PumpSpec::default()
        }),
        pump(PumpSpec {
            pkts: pump_pkts,
            ..PumpSpec::default()
        }),
    );
    if let Some(e) = pumps
        .iter()
        .find_map(|p| p.a.as_ref().err().or(p.b.as_ref().err()))
    {
        rep.shape("datapath pump runs", false, format!("pump failed: {e}"));
        return rep;
    }
    let rate = |r: &io::Result<PumpOut>| r.as_ref().map_or(0.0, |o| o.msgs_per_s);
    let delivered = |r: &io::Result<PumpOut>| r.as_ref().map_or(0, |o| o.delivered);
    for (i, p) in pumps.iter().enumerate() {
        rep.row(format!(
            "pump pair {i}: per-packet {:.0} msgs/s ({} delivered), batched {:.0} msgs/s ({} delivered), speedup {:.2}x",
            rate(&p.a),
            delivered(&p.a),
            rate(&p.b),
            delivered(&p.b),
            rate(&p.b) / rate(&p.a).max(1.0)
        ));
    }
    let speedup = ab::quartiles_of(&pumps, |p| rate(&p.b) / rate(&p.a).max(1.0));
    let legacy_rate = ab::quartiles_of(&pumps, |p| rate(&p.a)).median;
    let batched_rate = ab::quartiles_of(&pumps, |p| rate(&p.b)).median;
    let batched: Vec<&PumpOut> = pumps.iter().filter_map(|p| p.b.as_ref().ok()).collect();
    let batched_io = batched.iter().all(|o| o.batched_io);
    let pool_hits: u64 = batched.iter().map(|o| o.rcv.pool_hits).sum();
    let pool_misses: u64 = batched.iter().map(|o| o.rcv.pool_misses).sum();
    rep.row(format!(
        "median of pairs: {legacy_rate:.0} -> {batched_rate:.0} msgs/s, speedup {:.2}x \
         (quartiles {:.2}x .. {:.2}x), mmsg syscalls {}",
        speedup.median,
        speedup.q1,
        speedup.q3,
        if batched_io {
            "active"
        } else {
            "unavailable (fallback)"
        }
    ));
    if batched_io {
        rep.shape(
            "batched datapath moves >= 2x the msgs/s of the per-packet path",
            speedup.median >= MIN_SPEEDUP,
            format!(
                "median speedup {:.2}x (bound {MIN_SPEEDUP:.1}x)",
                speedup.median
            ),
        );
    } else {
        // The fallback *is* the per-packet path; identical throughput is
        // the expected (and correct) outcome. Record, don't gate.
        rep.row("mmsg unavailable: speedup gate skipped (fallback == per-packet semantics)");
    }
    rep.shape(
        "receive pool recycles in steady state (hits outnumber misses)",
        pool_hits > pool_misses,
        format!("{pool_hits} hits vs {pool_misses} misses over the batched runs"),
    );

    // --- Part 2: full-protocol blasts, UDP-syscall CPU share ---
    let _ = run_loopback_blast(per_packet_cfg(), blast_bytes / 4);
    let blasts = ab::compare(
        PAIRS,
        || run_loopback_blast(per_packet_cfg(), blast_bytes),
        || run_loopback_blast(UdtConfig::default(), blast_bytes),
    );
    for (i, p) in blasts.iter().enumerate() {
        rep.row(format!(
            "blast pair {i}: UDP share {:.1}% -> {:.1}% | goodput {} -> {} Mb/s",
            udp_share(&p.a) * 100.0,
            udp_share(&p.b) * 100.0,
            mbps(p.a.throughput_bps()),
            mbps(p.b.throughput_bps()),
        ));
    }
    let legacy_share = ab::quartiles_of(&blasts, |p| udp_share(&p.a)).median;
    let batched_share = ab::quartiles_of(&blasts, |p| udp_share(&p.b));
    let reduction = ab::quartiles_of(&blasts, |p| udp_share(&p.a) - udp_share(&p.b));
    rep.shape(
        "batching reduces the UDP-syscall CPU share (median of pairs)",
        reduction.median > 0.0,
        format!(
            "UDP writing+reading share {:.1}% per-packet vs {:.1}% batched; per-pair reduction \
             {:.1} points (quartiles {:.1} .. {:.1})",
            legacy_share * 100.0,
            batched_share.median * 100.0,
            reduction.median * 100.0,
            reduction.q1 * 100.0,
            reduction.q3 * 100.0
        ),
    );

    let json = Obj::new()
        .int("pump_pkts", u64::from(pump_pkts))
        .int("blast_bytes", blast_bytes)
        .flag("batched_io", batched_io)
        .num("median_speedup", speedup.median)
        .num("q1_speedup", speedup.q1)
        .num("q3_speedup", speedup.q3)
        .num("pump_msgs_per_s_per_packet", legacy_rate)
        .num("pump_msgs_per_s_batched", batched_rate)
        .int("pool_hits", pool_hits)
        .int("pool_misses", pool_misses)
        .num("udp_cpu_share_per_packet", legacy_share)
        .num("udp_cpu_share_batched", batched_share.median)
        .num("udp_cpu_share_batched_q1", batched_share.q1)
        .num("udp_cpu_share_batched_q3", batched_share.q3)
        .arr(
            "goodput_bps",
            vec![
                Value::Float(ab::quartiles_of(&blasts, |p| p.a.throughput_bps()).median),
                Value::Float(ab::quartiles_of(&blasts, |p| p.b.throughput_bps()).median),
            ],
        );
    perfjson::emit(&mut rep, "datapath", quick, json);
    rep
}
