//! The ledger: each layer's hot call in isolation, through its public
//! function, with fixed iteration counts and deterministic inputs. A row
//! is the median of seven batches, in ns per call. The rows do not depend
//! on the workload; they are the per-packet budget an optimisation of one
//! layer has to beat before it can show end to end.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use udt::buffer::{RcvBuffer, SndBuffer};
use udt::datapath::{run_pump, PumpSpec};
use udt::timing::precise_sleep_until;
use udt_algo::history::PktTimeWindow;
use udt_algo::losslist::LossList;
use udt_algo::rate::{CcContext, RateControl, UdtCc};
use udt_algo::Nanos;
use udt_proto::nak::{decode_loss_list, encode_loss_list};
use udt_proto::wire::{decode, encode};
use udt_proto::{DataPacket, Packet, SeqNo, SeqRange};

use crate::report::Metrics;
use crate::stats::Stat;

const BATCHES: usize = 7;
const PUMP_RUNS: usize = 3;
const PUMP_PKTS: u32 = 50_000;
const BUF_PKTS: usize = 8192;
const LOSS_RUNS: u32 = 4000;

pub struct Ledger {
    pub rows: Metrics,
}

/// Median over `BATCHES` of `batch()`'s ns per call. `batch` prepares its
/// own state untimed and returns (time of the timed part, calls made).
fn row(name: &'static str, mut batch: impl FnMut() -> (Duration, u64)) -> (&'static str, Stat) {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (t, calls) = batch();
            t.as_nanos() as f64 / calls as f64
        })
        .collect();
    (name, Stat::median_of(&per_call, "ns"))
}

fn time<T>(f: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

fn data_packet(payload: usize) -> Packet {
    Packet::Data(DataPacket {
        seq: SeqNo::new(123_456),
        timestamp_us: 777,
        conn_id: 42,
        payload: Bytes::from(vec![7u8; payload]),
    })
}

const WIRE_CALLS: u64 = 20_000;

fn encode_row(name: &'static str, payload: usize) -> (&'static str, Stat) {
    let pkt = data_packet(payload);
    let mut buf = BytesMut::with_capacity(2048);
    row(name, || {
        let t = time(|| {
            for _ in 0..WIRE_CALLS {
                buf.clear();
                encode(black_box(&pkt), &mut buf);
                black_box(buf.len());
            }
        });
        (t, WIRE_CALLS)
    })
}

fn decode_row(name: &'static str, payload: usize) -> (&'static str, Stat) {
    let mut wire = BytesMut::new();
    encode(&data_packet(payload), &mut wire);
    let datagram = wire.freeze();
    row(name, || {
        let t = time(|| {
            for _ in 0..WIRE_CALLS {
                black_box(decode(black_box(datagram.clone())).expect("own encoding decodes"));
            }
        });
        (t, WIRE_CALLS)
    })
}

fn cc_ctx(now_us: u64) -> CcContext {
    // The WAN workload's operating point: 40 ms RTT, 200 Mb/s of 1500 B.
    CcContext {
        now: Nanos::from_micros(now_us),
        rtt_us: 40_000.0,
        bandwidth_pps: 16_667.0,
        recv_rate_pps: 10_000.0,
        mss: 1500,
        max_cwnd: 8192.0,
        snd_curr_seq: SeqNo::new(1_000_000),
        min_snd_period_us: 0.0,
    }
}

/// A list holding `LOSS_RUNS` separate four-packet loss runs.
fn loss_runs() -> LossList {
    let mut l = LossList::new(65_536);
    for i in 0..LOSS_RUNS {
        l.insert(SeqNo::new(i * 16), SeqNo::new(i * 16 + 3));
    }
    l
}

fn sleep_overshoots(n: usize) -> Vec<f64> {
    let spin = udt::UdtConfig::default().timer_spin;
    (0..n)
        .map(|_| {
            let over = precise_sleep_until(Instant::now() + Duration::from_micros(100), spin);
            over.as_secs_f64() * 1e6
        })
        .collect()
}

pub fn run() -> Ledger {
    let mut rows: Metrics = vec![
        encode_row("proto.wire.encode_ns_64", 64),
        encode_row("proto.wire.encode_ns_1488", 1488),
        decode_row("proto.wire.decode_ns_64", 64),
        decode_row("proto.wire.decode_ns_1488", 1488),
    ];

    // A NAK of 32 loss runs, the compressed encoding of §3.1.
    let ranges: Vec<SeqRange> = (0..32)
        .map(|i| SeqRange::new(SeqNo::new(i * 100), SeqNo::new(i * 100 + 40)))
        .collect();
    let words = encode_loss_list(&ranges);
    rows.push(row("proto.nak.encode_ns", || {
        (
            time(|| (0..5000).for_each(|_| drop(black_box(encode_loss_list(black_box(&ranges)))))),
            5000,
        )
    }));
    rows.push(row("proto.nak.decode_ns", || {
        (
            time(|| (0..5000).for_each(|_| drop(black_box(decode_loss_list(black_box(&words)))))),
            5000,
        )
    }));

    rows.push(row("algo.losslist.insert_ns", || {
        (time(loss_runs), u64::from(LOSS_RUNS))
    }));
    rows.push(row("algo.losslist.remove_ns", || {
        // A retransmission arrives for the first packet of each run.
        let mut l = loss_runs();
        let t = time(|| {
            (0..LOSS_RUNS).for_each(|i| {
                black_box(l.remove(SeqNo::new(i * 16)));
            })
        });
        (t, u64::from(LOSS_RUNS))
    }));
    rows.push(row("algo.losslist.pop_first_ns", || {
        let mut l = loss_runs();
        let mut pops = 0u64;
        let t = time(|| {
            while black_box(l.pop_first()).is_some() {
                pops += 1;
            }
        });
        (t, pops)
    }));

    rows.push(row("algo.rate.on_ack_ns", || {
        let mut cc = UdtCc::with_defaults(SeqNo::ZERO);
        cc.on_loss(&[SeqRange::single(SeqNo::new(1))], &cc_ctx(1)); // leave slow start
        let t = time(|| {
            for i in 0..20_000u32 {
                // One SYN apart, so every call does the rate update.
                cc.on_ack(
                    SeqNo::new(100 + i * 100),
                    &cc_ctx(1_000_000 + u64::from(i) * 10_000),
                );
            }
            cc.pkt_snd_period_us()
        });
        (t, 20_000)
    }));
    rows.push(row("algo.rate.on_loss_ns", || {
        let mut cc = UdtCc::with_defaults(SeqNo::ZERO);
        cc.on_loss(&[SeqRange::single(SeqNo::new(1))], &cc_ctx(1));
        let t = time(|| {
            for i in 0..20_000u32 {
                cc.on_loss(
                    &[SeqRange::single(SeqNo::new(100 + i * 10))],
                    &cc_ctx(2_000_000),
                );
            }
            cc.pkt_snd_period_us()
        });
        (t, 20_000)
    }));

    rows.push(row("algo.history.on_pkt_arrival_ns", || {
        let mut h = PktTimeWindow::new();
        let t = time(|| {
            (0..50_000u64)
                .for_each(|i| black_box(&mut h).on_pkt_arrival(Nanos(black_box(i) * 60_000)));
            h.pkt_recv_speed()
        });
        (t, 50_000)
    }));
    rows.push(row("algo.history.recv_speed_ns", || {
        let mut h = PktTimeWindow::new();
        (0..64u64).for_each(|i| h.on_pkt_arrival(Nanos(i * 60_000 + (i % 7) * 900)));
        (
            time(|| {
                (0..20_000).for_each(|_| {
                    black_box(black_box(&h).pkt_recv_speed());
                })
            }),
            20_000,
        )
    }));

    for (name, size) in [
        ("udt.buffer.snd_append_ns_64", 64),
        ("udt.buffer.snd_append_ns_1488", 1488),
    ] {
        let data = vec![0x5Au8; size];
        rows.push(row(name, || {
            let mut b = SndBuffer::new(BUF_PKTS, 1488);
            let t = time(|| {
                (0..BUF_PKTS).for_each(|_| {
                    black_box(b.append(black_box(&data)));
                })
            });
            (t, BUF_PKTS as u64)
        }));
    }
    let full = vec![0x5Au8; 1488];
    rows.push(row("udt.buffer.snd_ack_ns", || {
        // Per packet released, 64 packets per ACK.
        let mut b = SndBuffer::new(BUF_PKTS, 1488);
        (0..BUF_PKTS).for_each(|_| {
            b.append(&full);
        });
        (
            time(|| (0..BUF_PKTS / 64).for_each(|_| b.ack(64))),
            BUF_PKTS as u64,
        )
    }));
    let payload = Bytes::from(full);
    let filled = || {
        let mut b = RcvBuffer::new(BUF_PKTS, SeqNo::ZERO);
        let t = time(|| {
            for i in 0..BUF_PKTS as u32 {
                black_box(b.insert(SeqNo::new(i), payload.clone()));
            }
        });
        (b, t)
    };
    rows.push(row("udt.buffer.rcv_insert_ns", || {
        (filled().1, BUF_PKTS as u64)
    }));
    rows.push(row("udt.buffer.rcv_read_ns_1488", || {
        // Per packet drained, through 64 KiB application reads.
        let (mut b, _) = filled();
        let mut out = vec![0u8; 64 * 1024];
        let upto = SeqNo::new(BUF_PKTS as u32);
        let t = time(|| while black_box(b.read(&mut out, upto)) > 0 {});
        (t, BUF_PKTS as u64)
    }));

    // mux, pool and mmsg are crate-private; run_pump is their public door.
    let pump = |payload: usize| -> Vec<udt::datapath::PumpOut> {
        (0..PUMP_RUNS)
            .filter_map(|_| {
                run_pump(&PumpSpec {
                    pkts: PUMP_PKTS,
                    payload,
                    ..PumpSpec::default()
                })
                .ok()
            })
            .collect()
    };
    let small = pump(64);
    let large = pump(1488);
    let med = |runs: &[udt::datapath::PumpOut], f: fn(&udt::datapath::PumpOut) -> f64, unit| {
        let v: Vec<f64> = runs.iter().map(f).collect();
        Stat::median_of(&v, unit)
    };
    rows.extend([
        (
            "udt.datapath.pump_msgs_per_s_64",
            med(&small, |p| p.msgs_per_s, "1/s"),
        ),
        (
            "udt.datapath.pump_msgs_per_s_1488",
            med(&large, |p| p.msgs_per_s, "1/s"),
        ),
        (
            "udt.datapath.pump_pool_hit_rate",
            med(&small, |p| p.rcv.pool_hit_rate(), "ratio"),
        ),
        (
            "udt.datapath.pump_pkts_per_recv_batch",
            med(&small, |p| p.rcv.avg_recv_batch(), "pkts"),
        ),
        (
            "udt.datapath.pump_pkts_per_send_batch",
            med(&small, |p| p.snd.avg_send_batch(), "pkts"),
        ),
        (
            "udt.datapath.pump_delivered_share",
            med(
                &small,
                |p| p.delivered as f64 / f64::from(PUMP_PKTS),
                "ratio",
            ),
        ),
    ]);

    sleep_overshoots(20); // settle the scheduler's view of this thread
    let over = sleep_overshoots(1000);
    rows.push((
        "udt.timing.sleep_overshoot_us_p50",
        Stat::of(&over, 0.5, "us"),
    ));
    rows.push((
        "udt.timing.sleep_overshoot_us_p99",
        Stat::of(&over, 0.99, "us"),
    ));
    Ledger { rows }
}
