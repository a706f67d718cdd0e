//! Multipath bonding: bonded goodput on asymmetric links and failover
//! versus reconnect-resume under a seeded blackout.
//!
//! Two parts. The *goodput* part runs in the deterministic simulator:
//! three paths of 12/30/60 Mb/s bonded by the weighted scheduler must
//! strictly beat the best single path carrying the same bytes alone, and
//! an identical re-run must reproduce the timeline. The *failover* part
//! runs over real sockets: two linkemu paths, one blacked out mid-
//! transfer; the bonded session's longest receiver stall is compared
//! against the PR-2 [`udt::ResilientSession`] reconnect-resume machinery
//! riding the same outage on a single path. Results are also written to
//! `BENCH_multipath.json` for machine consumption.

// Numeric casts in this module are deliberate: test-pattern hashing and
// Duration→µs conversions on second-scale blackout windows, all far from
// the truncation range. Sequence casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation)]

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use linkemu::{LinkEmu, LinkSpec};
use udt::{bonded_accept, bonded_connect, RetryPolicy, UdtConfig, UdtListener};
use udt_algo::Nanos;
use udt_chaos::{ImpairmentSpec, Scenario};
use udt_multipath::{run_bonded_sim, BondedCfg, BondedSimCfg, BondedSimResult, SimPathSpec};
use udt_trace::json::Value;
use udt_trace::Tracer;

use crate::perfjson::{self, Obj};
use crate::realnet::{pattern, resilient_upload_through};
use crate::report::{mbps, Report};

/// Sizing knobs for the two parts.
struct Sizing {
    /// Bytes pushed through the simulator part.
    sim_bytes: usize,
    /// Bytes pushed through the bonded failover transfer.
    bonded_bytes: usize,
    /// Bytes pushed through the reconnect-resume baseline.
    baseline_bytes: usize,
    /// Blackout start after the relay comes up.
    blackout_start: Duration,
    /// Blackout length.
    blackout_len: Duration,
}

fn sizing(quick: bool) -> Sizing {
    if quick {
        Sizing {
            sim_bytes: 2 * 1024 * 1024,
            bonded_bytes: 16 * 1024 * 1024,
            baseline_bytes: 6 * 1024 * 1024,
            blackout_start: Duration::from_millis(500),
            blackout_len: Duration::from_millis(1_800),
        }
    } else {
        Sizing {
            sim_bytes: 8 * 1024 * 1024,
            bonded_bytes: 36 * 1024 * 1024,
            baseline_bytes: 16 * 1024 * 1024,
            blackout_start: Duration::from_secs(1),
            blackout_len: Duration::from_millis(2_500),
        }
    }
}

/// Longest gap between consecutive increases of `progress`, polled until
/// `stop` is raised (lead-in and tail excluded).
fn max_stall(stop: &AtomicBool, mut progress: impl FnMut() -> u64) -> Duration {
    let mut last_val = 0u64;
    let mut last_t: Option<Instant> = None;
    let mut worst = Duration::ZERO;
    loop {
        let done = stop.load(Ordering::Acquire);
        let v = progress();
        if v > last_val {
            let now = Instant::now();
            if let Some(t) = last_t {
                worst = worst.max(now - t);
            }
            last_val = v;
            last_t = Some(now);
        }
        if done {
            return worst;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn asymmetric_paths() -> Vec<SimPathSpec> {
    vec![
        SimPathSpec::clean(12e6, Nanos::from_millis(6)),
        SimPathSpec::clean(30e6, Nanos::from_millis(8)),
        SimPathSpec::clean(60e6, Nanos::from_millis(10)),
    ]
}

fn sim_run_json(tag: &str, r: &BondedSimResult) -> Value {
    Value::from(
        Obj::new()
            .str("run", tag)
            .num("goodput_bps", r.goodput_bps().unwrap_or(0.0))
            .int("complete_ns", r.complete_at_ns.unwrap_or(0))
            .int("bytes", r.out.len() as u64)
            .arr(
                "per_path_chunks",
                r.per_path_chunks.iter().map(|&c| Value::UInt(c)).collect(),
            ),
    )
}

struct FailoverOut {
    ok: bool,
    stall: Duration,
    path_downs: usize,
    rejoined: bool,
    reconnects: usize,
}

/// Bonded transfer over two 40 Mb/s linkemu paths, path 0 blacked out.
fn bonded_failover(sz: &Sizing, data: &[u8]) -> FailoverOut {
    let tracer = Tracer::ring(1 << 15);
    let listener_cfg = UdtConfig {
        max_exp_count: 4,
        broken_silence_floor: Duration::from_millis(800),
        ..UdtConfig::default()
    };
    let listener = Arc::new(
        UdtListener::bind("127.0.0.1:0".parse().unwrap(), listener_cfg).expect("bind"),
    );
    let server_addr = listener.local_addr();
    let outage = ImpairmentSpec::Blackout {
        start_us: sz.blackout_start.as_micros() as u64,
        duration_us: sz.blackout_len.as_micros() as u64,
        period_us: None,
    };
    let impaired = || LinkSpec::clean(40e6, Duration::from_millis(2)).impair(outage.clone());
    let clean = || LinkSpec::clean(40e6, Duration::from_millis(2));
    let link_a = LinkEmu::start(impaired(), impaired(), server_addr).expect("link A");
    let link_b = LinkEmu::start(clean(), clean(), server_addr).expect("link B");

    let mp = BondedCfg {
        chunk_len: 16 * 1024,
        window_chunks: 256,
        tracer: tracer.clone(),
        conn: 78,
        rejoin_backoff: Duration::from_millis(150),
        max_rejoins: 60,
        ..BondedCfg::default()
    };
    let base_cfg = UdtConfig {
        connect_timeout: Duration::from_millis(300),
        ..UdtConfig::default()
    };
    let rx = Arc::new(bonded_accept(Arc::clone(&listener), 2, mp.clone()));
    let mut tx = bonded_connect(&[link_a.client_addr(), link_b.client_addr()], &base_cfg, mp)
        .expect("bonded connect");

    let done = Arc::new(AtomicBool::new(false));
    let drain = {
        let rx = Arc::clone(&rx);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut got = Vec::new();
            let mut buf = vec![0u8; 64 * 1024];
            loop {
                match rx.recv_timeout(&mut buf, Duration::from_secs(30)) {
                    Ok(0) => break,
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) => panic!("bonded recv failed: {e}"),
                }
            }
            done.store(true, Ordering::Release);
            got
        })
    };
    let sender = {
        let data = data.to_vec();
        std::thread::spawn(move || {
            tx.send(&data).expect("bonded send");
            tx.finish(Duration::from_secs(120)).expect("finish");
        })
    };
    let stall = max_stall(&done, || rx.progress());
    let got = drain.join().expect("drain thread");
    sender.join().expect("sender thread");
    link_a.shutdown();
    link_b.shutdown();

    let events = tracer.snapshot();
    let first_down = events
        .iter()
        .find(|e| e.kind.name() == "path_down")
        .map(|e| e.t_ns);
    FailoverOut {
        ok: got == data,
        stall,
        path_downs: events.iter().filter(|e| e.kind.name() == "path_down").count(),
        rejoined: first_down.is_some_and(|t0| {
            events.iter().any(|e| e.kind.name() == "path_up" && e.t_ns > t0)
        }),
        reconnects: events
            .iter()
            .filter(|e| e.kind.name() == "reconnect" || e.kind.name() == "resume")
            .count(),
    }
}

struct BaselineOut {
    ok: bool,
    stall: Duration,
    reconnects: u64,
    resumed_bytes: u64,
}

/// The PR-2 reconnect-resume machinery riding the same blackout on one
/// 40 Mb/s path.
fn baseline_failover(sz: &Sizing, dir: &Path, data: &[u8]) -> BaselineOut {
    let len = data.len() as u64;
    let src = dir.join("mp-base-src.bin");
    let dest = dir.join("mp-base-dest.bin");
    std::fs::write(&src, data).expect("write src");
    let scenario = Scenario::new("exp-multipath-baseline", 41)
        .forward(ImpairmentSpec::RateClamp {
            bps: 40e6,
            max_backlog_us: 200_000,
        })
        .both(ImpairmentSpec::Blackout {
            start_us: sz.blackout_start.as_micros() as u64,
            duration_us: sz.blackout_len.as_micros() as u64,
            period_us: None,
        });
    let cfg = UdtConfig {
        max_exp_count: 4,
        broken_silence_floor: Duration::from_millis(800),
        linger: Duration::from_secs(60),
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(200),
            ..RetryPolicy::default()
        },
        ..UdtConfig::default()
    };
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let part = udt::file::part_path(&dest);
        let dest = dest.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            max_stall(&done, || {
                std::fs::metadata(&part)
                    .or_else(|_| std::fs::metadata(&dest))
                    .map_or(0, |m| m.len())
            })
        })
    };
    let up = resilient_upload_through(
        &scenario,
        &cfg,
        &src,
        &dest,
        len,
        8,
        Duration::from_secs(20),
    );
    done.store(true, Ordering::Release);
    let stall = watcher.join().expect("watcher thread");

    let out = std::fs::read(&dest).unwrap_or_default();
    BaselineOut {
        ok: up.sent == len && up.completed && out == data,
        stall,
        reconnects: up.session.reconnect_successes,
        resumed_bytes: up.session.resumed_bytes,
    }
}

/// Run the experiment; `quick` is the CI-sized variant.
pub fn run(quick: bool) -> Report {
    let sz = sizing(quick);
    let mut rep = Report::new(
        "multipath",
        "Bonded multipath: goodput over asymmetric links, failover vs reconnect-resume",
        format!(
            "sim {} MB over 12/30/60 Mb/s; failover {} MB over 2×40 Mb/s linkemu, \
             {:?} blackout vs {} MB resilient baseline",
            sz.sim_bytes / (1024 * 1024),
            sz.bonded_bytes / (1024 * 1024),
            sz.blackout_len,
            sz.baseline_bytes / (1024 * 1024),
        ),
    );

    // -- Part 1: deterministic goodput comparison --
    let data = pattern(sz.sim_bytes, 0x5B);
    let bonded_cfg = BondedSimCfg {
        paths: asymmetric_paths(),
        ..BondedSimCfg::default()
    };
    let bonded = run_bonded_sim(&bonded_cfg, &data, &Tracer::disabled());
    let single_cfg = BondedSimCfg {
        paths: vec![asymmetric_paths().pop().expect("specs")],
        ..BondedSimCfg::default()
    };
    let single = run_bonded_sim(&single_cfg, &data, &Tracer::disabled());
    let again = run_bonded_sim(&bonded_cfg, &data, &Tracer::disabled());
    let bonded_bps = bonded.goodput_bps().unwrap_or(0.0);
    let single_bps = single.goodput_bps().unwrap_or(0.0);
    rep.row(format!(
        "bonded 12+30+60 Mb/s: {} Mb/s goodput, split {:?}",
        mbps(bonded_bps),
        bonded.per_path_chunks
    ));
    rep.row(format!("best single 60 Mb/s: {} Mb/s goodput", mbps(single_bps)));
    rep.shape(
        "bonded delivers byte-identical data on all runs",
        bonded.out == data && single.out == data && again.out == data,
        format!("{} bytes each", data.len()),
    );
    rep.shape(
        "bonded goodput strictly exceeds the best single path",
        bonded_bps > single_bps && bonded.complete_at_ns < single.complete_at_ns,
        format!("{} vs {} Mb/s", mbps(bonded_bps), mbps(single_bps)),
    );
    rep.shape(
        "weighted split follows the bandwidth asymmetry",
        bonded.per_path_chunks.windows(2).all(|w| w[0] < w[1]),
        format!("{:?}", bonded.per_path_chunks),
    );
    rep.shape(
        "same seed reproduces the timeline and split",
        again.complete_at_ns == bonded.complete_at_ns
            && again.per_path_chunks == bonded.per_path_chunks,
        format!("complete_at {:?} ns twice", bonded.complete_at_ns),
    );

    // -- Part 2: failover vs reconnect-resume under the same blackout --
    let dir = std::env::temp_dir().join(format!("exp-multipath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let fo = bonded_failover(&sz, &pattern(sz.bonded_bytes, 0xC4));
    let base = baseline_failover(&sz, &dir, &pattern(sz.baseline_bytes, 0x1F));
    std::fs::remove_dir_all(&dir).ok();
    rep.row(format!(
        "bonded failover: max stall {:?}, {} path_down(s), rejoined={}",
        fo.stall, fo.path_downs, fo.rejoined
    ));
    rep.row(format!(
        "reconnect-resume baseline: max stall {:?}, {} reconnect(s), {} bytes resumed",
        base.stall, base.reconnects, base.resumed_bytes
    ));
    rep.shape(
        "both recovery strategies deliver byte-identical data",
        fo.ok && base.ok,
        "bonded and baseline streams verified",
    );
    rep.shape(
        "blackout triggers path failover, never a session reconnect",
        fo.path_downs >= 1 && fo.reconnects == 0,
        format!("{} path_down, {} reconnect/resume events", fo.path_downs, fo.reconnects),
    );
    rep.shape(
        "baseline really took the reconnect-resume path",
        base.reconnects >= 1 && base.resumed_bytes > 0,
        format!("{} reconnects, {} bytes resumed", base.reconnects, base.resumed_bytes),
    );
    rep.shape(
        "bonded failover stalls less than reconnect-resume",
        fo.stall < base.stall,
        format!("{:?} vs {:?}", fo.stall, base.stall),
    );

    let json = Obj::new()
        .arr(
            "runs",
            vec![
                sim_run_json("bonded-sim", &bonded),
                sim_run_json("single-best", &single),
                Value::from(
                    Obj::new()
                        .str("run", "failover-bonded")
                        .int("bytes", sz.bonded_bytes as u64)
                        .num("stall_ms", fo.stall.as_secs_f64() * 1e3)
                        .int("path_downs", fo.path_downs as u64)
                        .flag("rejoined", fo.rejoined)
                        .int("reconnect_events", fo.reconnects as u64),
                ),
                Value::from(
                    Obj::new()
                        .str("run", "failover-baseline")
                        .int("bytes", sz.baseline_bytes as u64)
                        .num("stall_ms", base.stall.as_secs_f64() * 1e3)
                        .int("reconnects", base.reconnects)
                        .int("resumed_bytes", base.resumed_bytes),
                ),
            ],
        );
    perfjson::emit(&mut rep, "multipath", quick, json);
    rep
}
