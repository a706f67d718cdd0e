//! The `sustained` probe: one long-lived loopback bulk stream and one
//! long-lived request-response connection. The workloads avoid long-lived
//! loopback connections because they are erratic on the seed (README,
//! "the send-cost floor"); this probe is where that regime stays visible.
//! Its numbers are per-layer and ungated.

use std::time::{Duration, Instant};

use udt::UdtConfig;

use crate::report::{starved_share, Metrics};
use crate::session::{run_op, OpEnv, Payload, Plan, Reaper, Stream, CHUNK, SOFT_DEADLINE};
use crate::stats::Stat;
use crate::trace::SideTrace;

/// The size the issue that defined the probe gave it: the regime shows
/// within some tens of seconds of one connection, or not at all.
const STREAM_FOR: Duration = Duration::from_secs(20);
const ROUND_TRIPS: u32 = 20_000;
/// The round trips stop here if the connection has slowed that far
/// (20 000 take under 2 s at the usual 60 us).
const RR_BUDGET: Duration = Duration::from_secs(10);

pub struct Sustained {
    pub rows: Metrics,
    /// Goodput of each full second of the stream, Mb/s.
    pub per_second_mbps: Vec<f64>,
    /// Median round trip of each quarter of the round trips made, µs.
    pub rr_quarter_p50_us: Vec<f64>,
    /// `(NAKs, EXP timeouts, retransmissions)` of the stream: a collapse
    /// with all three at zero is not congestion control reacting to loss.
    pub stream_naks_exp_retx: (u64, u64, u64),
}

/// `smoke` cuts the probe to a second or so, for the unit tests.
pub fn run(seed: u64, smoke: bool) -> Sustained {
    let (stream_for, round_trips, rr_budget) = if smoke {
        (Duration::from_millis(500), 200, Duration::from_secs(1))
    } else {
        (STREAM_FOR, ROUND_TRIPS, RR_BUDGET)
    };
    let cfg = UdtConfig {
        linger: Duration::from_secs(2),
        ..UdtConfig::default()
    };
    let payload = Payload::generate(seed ^ 0x5057_4149, 64 * CHUNK);
    let epoch = Instant::now();
    let reaper = Reaper::start();
    let probe = |plan: Plan| {
        let (mut client, mut server) = (SideTrace::new(epoch), SideTrace::new(epoch));
        let env = OpEnv {
            reaper: &reaper,
            cfg: &cfg,
            plan,
            payload: &payload,
            wan: None,
            op_id: 0,
        };
        let out = run_op(&env, Some((&mut client, &mut server)));
        if let Some(why) = &out.failed {
            eprintln!("sustained probe: {why}");
        }
        (out, client)
    };

    let (bulk, trace) = probe(Plan {
        rr_warm: 0,
        rr_timed: 0,
        stream: Stream::Timed {
            msg_bytes: CHUNK,
            warm: Duration::ZERO,
            measure: stream_for,
        },
        deadline: SOFT_DEADLINE,
    });
    let periods: Vec<f64> = trace.perf.iter().map(|p| p.snd_period_us).collect();

    let (rr, _) = probe(Plan {
        rr_warm: 0,
        rr_timed: round_trips,
        stream: Stream::None,
        deadline: rr_budget,
    });
    let quarter = (rr.rr_us.len() / 4).max(1);
    let late = &rr.rr_us[rr.rr_us.len().saturating_sub(quarter)..];

    Sustained {
        rows: vec![
            (
                "udt.conn.sustained_goodput_mbps",
                Stat::scalar(bulk.goodput_mbps(), "Mb/s"),
            ),
            (
                "udt.conn.sustained_starved_share",
                Stat {
                    n: bulk.windows.len(),
                    ..Stat::scalar(starved_share(&bulk.windows), "ratio")
                },
            ),
            (
                "udt.conn.sustained_snd_period_us_p99",
                Stat::of(&periods, 0.99, "us"),
            ),
            (
                "udt.conn.sustained_rr_late_p50_us",
                Stat::of(late, 0.5, "us"),
            ),
        ],
        stream_naks_exp_retx: (
            bulk.counters.naks,
            bulk.counters.exp_timeouts,
            bulk.counters.pkts_retx,
        ),
        per_second_mbps: bulk
            .windows
            .chunks_exact(10)
            .map(|s| s.iter().sum::<u64>() as f64 * 8.0 / 1e6)
            .collect(),
        rr_quarter_p50_us: rr
            .rr_us
            .chunks(quarter)
            .take(4)
            .map(|q| Stat::of(q, 0.5, "us").value)
            .collect(),
    }
}
