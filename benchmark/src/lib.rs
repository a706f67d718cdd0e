//! The repository's benchmark: four pinned loopback/WAN workloads, the
//! end-to-end metrics a user of the transport sees, and an outside-in
//! ledger of what each layer costs. It drives the library through its
//! public API only. README.md has the method and the reasons for it.

pub mod affinity;
pub mod alloc;
pub mod compare;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod payload;
pub mod procfs;
pub mod report;
pub mod results;
pub mod session;
pub mod stats;
pub mod sustained;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use alloc::AllocCounters;
use workloads::{RunOpts, Workload, WORKLOADS};

const USAGE: &str = "\
usage:
  benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
      Run one workload (or all four). --trace 0: the untraced pass, which prints
      the end-to-end metrics. --trace 1 (the default): the untraced pass, then the
      traced pass, which prints the per-layer metrics.
  benchmark compare A/results.json B/results.json
      Verdict per (end-to-end metric, workload): better / within bound / worse / unresolved.
  benchmark sustained [--seed N]
      The sustained probe alone, with its per-second series.
  benchmark manifest
      Print BENCHMARK.json from the metric tables.
workloads: bulk_loopback small_msgs rr_loopback wan_bdp";

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: true,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => {
                cli.smoke = true;
                cli.seconds = 0.5;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Replace this process with the sibling binary that has (or lacks) the
/// counting allocator. Only returns if that failed.
fn exec_sibling(traced: bool, args: &[String]) -> String {
    use std::os::unix::process::CommandExt;
    let name = if traced {
        "benchmark-traced"
    } else {
        "benchmark"
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p.with_file_name(name),
        Err(e) => return format!("cannot find own executable: {e}"),
    };
    format!(
        "exec {}: {}",
        exe.display(),
        std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .exec()
    )
}

/// One pass over the selected workloads in this binary: the untraced pass
/// in the plain binary, the traced pass in the one that counts allocations.
/// The traced pass follows the untraced one of the same invocation, so that
/// `trace.overhead_pct` compares two passes of one seed, size and hour.
fn run(args: &[String], alloc: Option<&'static AllocCounters>) -> Result<ExitCode, String> {
    let cli = parse_run(args)?;
    let traced = alloc.is_some();
    if traced && !cli.trace {
        return Err(exec_sibling(false, args));
    }
    // Before the first thread is spawned, so every thread inherits it.
    let cpu = affinity::pin_to_highest_cpu();
    match cpu {
        Some(c) => eprintln!("pinned to cpu {c}"),
        None => eprintln!("warning: could not pin to one cpu; timings will be noisier"),
    }
    let selected: Vec<&'static Workload> = cli
        .workload
        .map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w]);
    let size = results::Size {
        seconds: cli.seconds,
        smoke: cli.smoke,
    };
    // Looked up before anything is measured, so that a traced pass with
    // nothing to compare against stops at once.
    let bases = selected
        .iter()
        .map(|w| {
            traced
                .then(|| results::untraced_base(&cli.out, w, cli.seed, size))
                .transpose()
        })
        .collect::<Result<Vec<Option<f64>>, String>>()?;
    // The ledger and the sustained probe do not depend on the workload:
    // one measurement serves every workload of this invocation.
    let shared = traced.then(|| (ledger::run(), sustained::run(cli.seed, cli.smoke)));
    let mut ok = true;
    for (w, base) in selected.into_iter().zip(bases) {
        let opts = RunOpts {
            seed: cli.seed,
            seconds: cli.seconds,
            traced,
            smoke: cli.smoke,
            alloc,
            cpu,
        };
        let res = workloads::run_workload(w, &opts);
        for why in &res.failures {
            eprintln!("{}: {why}", w.name);
        }
        let per_layer = match (&shared, base) {
            (Some((ledger, sustained)), Some(base)) => {
                let overhead = results::overhead_pct(base, &res);
                report::per_layer(&res, ledger, sustained, overhead)
            }
            _ => Vec::new(),
        };
        let record = results::record(&res, per_layer, cpu);
        results::append(&cli.out, &record)?;
        results::write_trace(&cli.out, &res)?;
        ok &= record.acceptable();
        record.print(traced == cli.trace);
    }
    if !ok {
        return Ok(ExitCode::FAILURE);
    }
    if cli.trace && !traced {
        return Err(exec_sibling(true, args));
    }
    Ok(ExitCode::SUCCESS)
}

/// The probe alone, with the per-second series a collapse would show in.
fn sustained_cmd(args: &[String]) -> Result<ExitCode, String> {
    let seed = match args {
        [] => 1,
        [flag, value] if flag == "--seed" => value.parse().map_err(|e| format!("--seed: {e}"))?,
        _ => return Err(USAGE.to_string()),
    };
    affinity::pin_to_highest_cpu();
    let out = sustained::run(seed, false);
    report::print_table("sustained probe", &out.rows);
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (naks, exp, retx) = out.stream_naks_exp_retx;
    println!("stream: {naks} NAKs, {exp} EXP timeouts, {retx} retransmissions");
    println!(
        "goodput of each second, Mb/s: {}",
        fmt(&out.per_second_mbps)
    );
    println!(
        "round-trip p50 of each quarter, us: {}",
        fmt(&out.rr_quarter_p50_us)
    );
    Ok(ExitCode::SUCCESS)
}

/// Entry point of both binaries. `alloc` is the counting allocator's
/// counters in the traced binary and `None` in the untraced one.
pub fn main_with(alloc: Option<&'static AllocCounters>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], alloc),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("sustained") => sustained_cmd(&args[1..]),
        Some("manifest") => {
            println!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use std::collections::HashSet;

    fn smoke(workload: &'static Workload, traced: bool) -> workloads::RunResult {
        let opts = RunOpts {
            seed: 7,
            seconds: 0.5,
            traced,
            smoke: true,
            alloc: None,
            cpu: None,
        };
        workloads::run_workload(workload, &opts)
    }

    /// All four workloads at `--smoke` size: every op verifies its bytes,
    /// and every workload yields every end-to-end metric, none of them 0.
    #[test]
    fn smoke_every_workload_reports_every_end_to_end_metric() {
        let t0 = std::time::Instant::now();
        for w in &WORKLOADS {
            let run = smoke(w, false);
            assert_eq!(run.failed, 0, "{}: {:?}", w.name, run.failures);
            let rows = report::end_to_end(&run);
            let names: Vec<&str> = rows.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{}", w.name);
            for (name, stat) in &rows {
                assert!(
                    stat.value > 0.0 && stat.value.is_finite(),
                    "{} {name} = {}",
                    w.name,
                    stat.value
                );
                assert_eq!(stat.unit, metrics::end_to_end(name).unwrap().unit);
            }
        }
        eprintln!("smoke of all four workloads took {:?}", t0.elapsed());
    }

    /// A traced smoke run yields exactly the per-layer table, writes its
    /// spans with parents that exist, and appends to results.json.
    #[test]
    fn traced_smoke_reports_every_per_layer_metric_and_writes_spans() {
        let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-out-traced-smoke");
        let _ = std::fs::remove_dir_all(&out);
        let w = workloads::find("small_msgs").unwrap();
        let shared = (ledger::run(), sustained::run(7, true));
        for traced in [false, true] {
            let run = smoke(w, traced);
            assert_eq!(run.failed, 0, "{:?}", run.failures);
            let size = results::Size {
                seconds: run.seconds,
                smoke: run.smoke,
            };
            let base = results::untraced_base(&out, w, run.seed, size);
            let rows = if traced {
                let overhead = results::overhead_pct(base.unwrap(), &run);
                report::per_layer(&run, &shared.0, &shared.1, overhead)
            } else {
                assert!(base.is_err(), "nothing to take the overhead against yet");
                Vec::new()
            };
            let record = results::record(&run, rows.clone(), None);
            assert!(record.acceptable());
            results::append(&out, &record).unwrap();
            if !traced {
                continue;
            }
            let names: Vec<&str> = rows.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            for (name, stat) in &rows {
                assert!(stat.value.is_finite(), "{name}");
                assert_eq!(stat.unit, metrics::per_layer(name).unwrap().unit, "{name}");
            }
            let get = |n: &str| rows.iter().find(|(name, _)| *name == n).unwrap().1.value;
            assert!(get("udt.conn.send_call_us_p50") > 0.0);
            assert!(get("udt.mux.pkts_per_recv_batch") >= 1.0);
            assert!(get("proto.wire.encode_ns_64") > 0.0);
            assert!(get("algo.history.on_pkt_arrival_ns") > 0.1);
            assert!(get("udt.instrument.snd_ns_per_pkt") > 0.0);

            results::write_trace(&out, &run).unwrap();
            let doc =
                Json::parse(&std::fs::read_to_string(out.join("trace_small_msgs.json")).unwrap())
                    .unwrap();
            let spans = doc.get("spans").unwrap().items();
            let ids: HashSet<u64> = spans
                .iter()
                .map(|s| s.get("id").unwrap().as_f64().unwrap() as u64)
                .collect();
            assert!(spans
                .iter()
                .any(|s| s.get("name").unwrap().as_str() == Some("udt.conn.send")));
            for s in spans {
                let parent = s.get("parent").unwrap().as_f64().unwrap() as u64;
                assert!(
                    parent == 0 || ids.contains(&parent),
                    "span names a parent that was not written"
                );
                assert!(s.get("end_ns").unwrap().as_f64() >= s.get("start_ns").unwrap().as_f64());
            }
        }
        let doc = Json::parse(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
        let runs = doc.get("runs").unwrap().items();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("traced").unwrap().as_bool(), Some(true));
        assert!(
            runs[0]
                .get("end_to_end")
                .unwrap()
                .get("goodput_mbps")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        let a = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_run(&a(&["--workload", "nope"])).is_err());
        assert!(parse_run(&a(&["--trace", "2"])).is_err());
        assert!(parse_run(&a(&["--seconds", "0"])).is_err());
        assert!(parse_run(&a(&["--seed"])).is_err());
        let cli = parse_run(&a(&[
            "--workload",
            "wan_bdp",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (cli.workload.unwrap().name, cli.seed, cli.seconds, cli.trace),
            ("wan_bdp", 9, 3.0, true)
        );
    }
}
