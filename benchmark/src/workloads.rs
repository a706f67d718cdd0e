//! The four workloads and the loop that runs one of them.
//!
//! All are closed loop with one client: a transport flow is back-pressured
//! by its own flow and congestion windows, and request-response keeps one
//! request outstanding. Loopback workloads are sequences of short ops on
//! *fresh* connections with the median over ops reported, because one
//! long-lived loopback connection is bimodal on the seed (README, "the
//! send-cost floor"); the long-lived regime is `wan_bdp` and the
//! `sustained` probe.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use udt::{MetricsHub, UdtConfig};
use udt_metrics::hist::HistSnapshot;
use udt_metrics::registry::SampleValue;

use crate::alloc::AllocCounters;
use crate::procfs;
use crate::session::{
    run_op, OpEnv, OpOut, Payload, Plan, Reaper, Stream, Wan, CHUNK, SOFT_DEADLINE,
};
use crate::trace::SideTrace;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload was chosen, one line, as `BENCHMARK.json` gives it.
    pub why: &'static str,
    /// One op per plan, each on a fresh connection, round and round until
    /// the time is up. A round with a timed stream is run once.
    pub plans: &'static [Plan],
    /// The `--smoke` size: the same shape, small enough for a unit test.
    pub smoke: &'static [Plan],
    pub wan: Option<Wan>,
    /// The metric `trace.overhead_pct` compares between the two runs.
    pub headline: &'static str,
}

/// Warm-up a timed WAN stream runs before its measured windows: slow start
/// and the first congestion epochs at 40 ms RTT.
const WAN_WARM: Duration = Duration::from_secs(3);
const SETUP_REPS: usize = 3;

const fn round_trips(rr_warm: u32, rr_timed: u32) -> Plan {
    Plan {
        rr_warm,
        rr_timed,
        stream: Stream::None,
        deadline: SOFT_DEADLINE,
    }
}

const fn counted(msgs: u32, msg_bytes: usize) -> Plan {
    Plan {
        rr_warm: 0,
        rr_timed: 0,
        stream: Stream::Count { msgs, msg_bytes },
        deadline: SOFT_DEADLINE,
    }
}

/// `measure` is filled in from --seconds.
const fn timed(warm: Duration) -> Plan {
    let stream = Stream::Timed {
        msg_bytes: CHUNK,
        warm,
        measure: Duration::ZERO,
    };
    Plan {
        rr_warm: 0,
        rr_timed: 0,
        stream,
        deadline: SOFT_DEADLINE,
    }
}

/// The request-response op of the loopback workloads: 50 warm-up and 2000
/// timed round trips, so that a connection's p99 has twenty beyond it.
const RR: Plan = round_trips(50, 2000);
const RR_SMOKE: Plan = round_trips(5, 100);

/// Every workload reports every end-to-end metric (the driver's contract),
/// so each has a stream op (goodput) and a request-response op (latency);
/// both give close times. On `bulk_loopback` and `small_msgs` the latency
/// rows are therefore a second and third reading of `rr_loopback`'s, not
/// news. The two ops run on *separate* fresh connections because on one
/// connection the first phase spoils the second, either way round (README,
/// "findings"): round trips first leave the stream paced at 60 us a packet
/// (bulk 1.2 -> 0.28 Gb/s), a stream first leaves one connection in five
/// answering round trips in 5.6 ms.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bulk_loopback",
        why: "64 MB streams in 64 KiB sends on fresh loopback connections: full-size packets, CPU-bound; per-byte copies and per-packet datapath cost do the work, congestion control almost none",
        plans: &[counted(1024, CHUNK), RR],
        smoke: &[counted(64, CHUNK), RR_SMOKE],
        wan: None,
        headline: "goodput_mbps",
    },
    Workload {
        name: "small_msgs",
        why: "62500 sends of 64 B per fresh connection, one packet each: per-packet cost (codec, syscall share, pool, hand-off, allocs) is everything; a batching change that helps bulk and costs this shows",
        plans: &[counted(62_500, 64), RR],
        smoke: &[counted(4000, 64), RR_SMOKE],
        wan: None,
        headline: "goodput_mbps",
    },
    Workload {
        name: "rr_loopback",
        why: "2000 sequential 64 B -> 1024 B round trips per fresh connection: nothing batches and pacing is idle, so latency is thread hand-offs and wake-ups; deferred flushes show here as a cost",
        plans: &[RR],
        smoke: &[RR_SMOKE],
        wan: None,
        headline: "rr_p50_us",
    },
    Workload {
        name: "wan_bdp",
        why: "one long connection through linkemu at 200 Mb/s, 40 ms RTT, BDP-sized DropTail: the paper's regime, set by slow-start exit, AIMD, NAK/retransmit and pacing; datapath work should not move it",
        plans: &[round_trips(2, 25), timed(WAN_WARM)],
        smoke: &[round_trips(1, 3), timed(Duration::from_millis(500))],
        wan: Some(Wan {
            rate_bps: 200e6,
            one_way: Duration::from_millis(20),
        }),
        headline: "goodput_mbps",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub alloc: Option<&'static AllocCounters>,
    /// The CPU the process is pinned to, if it is.
    pub cpu: Option<usize>,
}

/// Registry series of all ops, folded by family name across connections.
#[derive(Default)]
pub struct RegistryFold {
    pub counters: HashMap<String, u64>,
    pub hists: HashMap<String, HistSnapshot>,
}

impl RegistryFold {
    fn absorb(&mut self, hub: &MetricsHub) {
        for fam in hub.registry().snapshot().families {
            for s in fam.series {
                match s.value {
                    SampleValue::Counter(c) => {
                        *self.counters.entry(fam.name.clone()).or_default() += c
                    }
                    SampleValue::Hist(h) => {
                        self.hists
                            .entry(fam.name.clone())
                            .or_insert_with(HistSnapshot::empty)
                            .merge(&h);
                    }
                    SampleValue::Gauge(_) => {}
                }
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// What the traced run collected on top of the ops themselves.
pub struct Traced {
    pub client: SideTrace,
    pub server: SideTrace,
    pub registry: RegistryFold,
}

pub struct RunResult {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Measured ops, in order; failed ones included.
    pub ops: Vec<OpOut>,
    /// Ops attempted and failed, warm-ups included.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub steal_share: f64,
    pub traced: Option<Traced>,
}

fn base_config() -> UdtConfig {
    UdtConfig {
        linger: Duration::from_secs(2),
        ..UdtConfig::default()
    }
}

pub fn run_workload(w: &'static Workload, opts: &RunOpts) -> RunResult {
    let host0 = procfs::jiffies(None);
    let mut plans = if opts.smoke { w.smoke } else { w.plans }.to_vec();
    let mut stream_bytes = 0;
    let mut timed_stream = false;
    for p in &mut plans {
        match &mut p.stream {
            Stream::None => {}
            Stream::Count { msgs, msg_bytes } => stream_bytes = *msgs as usize * *msg_bytes,
            Stream::Timed { measure, .. } => {
                *measure = Duration::from_secs_f64(opts.seconds);
                stream_bytes = 64 * CHUNK;
                timed_stream = true;
            }
        }
    }
    let mut res = RunResult {
        workload: w,
        seed: opts.seed,
        seconds: opts.seconds,
        smoke: opts.smoke,
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        setup_s: Vec::new(),
        steal_share: 0.0,
        traced: None,
    };
    let epoch = Instant::now();
    let mut traced = opts.traced.then(|| Traced {
        client: SideTrace::new(epoch),
        server: SideTrace::new(epoch),
        registry: RegistryFold::default(),
    });
    let cfg = base_config();
    let reaper = Reaper::start();

    // Set-up, several times over, median reported: generate the payload,
    // and run one whole round of ops that is thrown away (first bind,
    // connect and accept, page faults, lazy statics). A timed stream sets
    // up once; its warm-up, part of its only op, is added below.
    let mut payload = None;
    for rep in 0..if timed_stream { 1 } else { SETUP_REPS } {
        let t0 = Instant::now();
        let p = Payload::generate(opts.seed, stream_bytes);
        for plan in plans.iter().filter(|_| !timed_stream) {
            let env = OpEnv {
                reaper: &reaper,
                cfg: &cfg,
                plan: *plan,
                payload: &p,
                wan: w.wan,
                op_id: u32::MAX,
            };
            let warm = run_op(&env, None);
            res.attempted += 1;
            if let Some(why) = warm.failed {
                res.failed += 1;
                res.failures.push(format!("warm-up round {rep}: {why}"));
            }
        }
        res.setup_s.push(t0.elapsed().as_secs_f64());
        payload = Some(p);
    }
    let payload = payload.expect("at least one set-up repetition");

    let t_measure = Instant::now();
    let mut op_id = 0u32;
    'rounds: loop {
        for (plan_idx, plan) in plans.iter().enumerate() {
            // A hub per traced op keeps the registry the size of one
            // connection pair; the untraced path has no hub at all.
            let hub = traced.is_some().then(MetricsHub::new);
            let op_cfg = UdtConfig {
                metrics: hub.clone(),
                ..cfg.clone()
            };
            let env = OpEnv {
                reaper: &reaper,
                cfg: &op_cfg,
                plan: *plan,
                payload: &payload,
                wan: w.wan,
                op_id,
            };
            let jiffies0 = procfs::jiffies(opts.cpu);
            let alloc0 = opts.alloc.map(AllocCounters::read);
            let mut out = run_op(
                &env,
                traced.as_mut().map(|t| (&mut t.client, &mut t.server)),
            );
            out.steal_share = procfs::steal_share(jiffies0, procfs::jiffies(opts.cpu));
            out.plan = plan_idx;
            if let (Some(a), Some((n0, bytes0))) = (opts.alloc, alloc0) {
                // Around the op only: the hub and the folding of its
                // registry are the harness's allocations, not the library's.
                let (n, bytes) = a.read();
                out.allocs = n - n0;
                out.alloc_bytes = bytes - bytes0;
            }
            if let (Some(t), Some(h)) = (traced.as_mut(), hub) {
                t.registry.absorb(&h);
            }
            res.attempted += 1;
            if let Some(why) = &out.failed {
                res.failed += 1;
                res.failures.push(format!("op {op_id}: {why}"));
            }
            if let Stream::Timed { warm, .. } = plan.stream {
                res.setup_s[0] += (out.bind_us + out.connect_us) / 1e6 + warm.as_secs_f64();
            }
            res.ops.push(out);
            op_id += 1;
            if !timed_stream && t_measure.elapsed().as_secs_f64() >= opts.seconds {
                break 'rounds;
            }
        }
        if timed_stream {
            break;
        }
    }
    drop(reaper);
    res.steal_share = procfs::steal_share(host0, procfs::jiffies(None));
    res.traced = traced;
    res
}

/// An op during which the hypervisor withheld the pinned CPU for more
/// than this share of the time was disturbed from outside the guest.
pub const DISTURBED_STEAL: f64 = 0.05;

impl RunResult {
    pub fn good_ops(&self) -> impl Iterator<Item = &OpOut> {
        self.ops.iter().filter(|o| o.failed.is_none())
    }

    /// The ops the medians are taken over: good and undisturbed. Among the
    /// ops of one plan, when under a quarter are undisturbed (a host that
    /// noisy, or a plan that ran once), the least disturbed quarter stands
    /// in, so no plan ever drops out of the numbers.
    pub fn clean_ops(&self) -> Vec<&OpOut> {
        let good: Vec<&OpOut> = self.good_ops().collect();
        let limit_of = |plan: usize| {
            let mut steal: Vec<f64> = good
                .iter()
                .filter(|o| o.plan == plan)
                .map(|o| o.steal_share)
                .collect();
            steal.sort_by(f64::total_cmp);
            crate::stats::percentile(&steal, 0.25).max(DISTURBED_STEAL)
        };
        let limits: Vec<f64> = (0..self.workload.plans.len()).map(limit_of).collect();
        good.into_iter()
            .filter(|o| o.steal_share <= limits[o.plan])
            .collect()
    }

    pub fn disturbed_share(&self) -> f64 {
        let good = self.good_ops().count();
        self.good_ops()
            .filter(|o| o.steal_share > DISTURBED_STEAL)
            .count() as f64
            / good.max(1) as f64
    }
}
