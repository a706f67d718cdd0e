//! What a run leaves behind: the result line the driver reads,
//! `results.json` (one record per run, appended), and the span trace.

use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::report::{self, Metrics};
use crate::session::OpOut;
use crate::stats::percentile;
use crate::trace::spans_json;
use crate::workloads::{RunResult, Workload};

/// Below this share of good ops the run is not a measurement.
const MIN_GOOD_SHARE: f64 = 0.8;
/// Above this the hypervisor took enough CPU away to move the numbers.
const NOISY_STEAL: f64 = 0.05;

pub struct Record {
    title: String,
    traced: bool,
    end_to_end: Metrics,
    per_layer: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
    good_share: f64,
    steal_share: f64,
    disturbed_share: f64,
    json: Json,
}

fn metrics_json(rows: &Metrics, with_sample: bool) -> Json {
    Json::obj(rows.iter().map(|(name, s)| {
        let mut pairs = vec![("value", Json::Num(s.value)), ("unit", Json::str(s.unit))];
        if with_sample {
            pairs.extend([
                ("n", Json::Num(s.n as f64)),
                ("p25", Json::Num(s.p25)),
                ("p75", Json::Num(s.p75)),
            ]);
        }
        (*name, Json::obj(pairs))
    }))
}

/// The raw figures of one op, so a median can be traced back to its ops.
fn op_json(o: &OpOut) -> Json {
    let mut rr = o.rr_us.clone();
    rr.sort_by(f64::total_cmp);
    Json::obj([
        ("plan", Json::Num(o.plan as f64)),
        ("ok", Json::Bool(o.failed.is_none())),
        ("truncated", Json::Bool(o.truncated)),
        ("steal_share", Json::Num(o.steal_share)),
        ("wall_ms", Json::Num(o.wall.as_secs_f64() * 1e3)),
        ("goodput_mbps", Json::Num(o.goodput_mbps())),
        ("rr_p50_us", Json::Num(percentile(&rr, 0.5))),
        ("rr_p95_us", Json::Num(percentile(&rr, 0.95))),
        ("rr_p99_us", Json::Num(percentile(&rr, 0.99))),
        ("connect_us", Json::Num(o.connect_us)),
        ("close_ms", Json::Num(o.close_ms)),
    ])
}

/// The size of a run: runs of different sizes are different measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    pub seconds: f64,
    pub smoke: bool,
}

impl Size {
    fn of(run: &Json) -> Size {
        Size {
            seconds: run.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
            smoke: run.get("smoke").and_then(Json::as_bool).unwrap_or(false),
        }
    }
}

/// The runs of one `results.json`.
pub struct Runs(Vec<Json>);

impl Runs {
    /// No file is no runs; a file that does not read as runs is an error.
    pub fn load(file: &Path) -> Result<Runs, String> {
        if !file.exists() {
            return Ok(Runs(Vec::new()));
        }
        let text = fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        match doc.get("runs") {
            Some(Json::Arr(runs)) => Ok(Runs(runs.clone())),
            _ => Err(format!("{}: no array of runs", file.display())),
        }
    }

    /// Untraced runs of one workload: end-to-end metrics are measured
    /// with tracing off.
    pub fn untraced<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Json> {
        self.0.iter().filter(move |r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("traced").and_then(Json::as_bool) == Some(false)
        })
    }

    /// One end-to-end metric's value in each of those runs.
    pub fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.untraced(workload)
            .filter_map(|r| r.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// The sizes of those runs, each once.
    pub fn sizes(&self, workload: &str) -> Vec<Size> {
        let mut sizes: Vec<Size> = Vec::new();
        for r in self.untraced(workload) {
            let size = Size::of(r);
            if !sizes.contains(&size) {
                sizes.push(size);
            }
        }
        sizes
    }
}

/// What a traced pass takes `trace.overhead_pct` against: the workload's
/// headline metric in the untraced pass of the same invocation, which is the
/// last untraced record in `out` of the same workload, seed and size.
pub fn untraced_base(out: &Path, w: &Workload, seed: u64, size: Size) -> Result<f64, String> {
    let value_of = |m: &Json| m.get(w.headline)?.get("value")?.as_f64();
    Runs::load(&out.join("results.json"))?
        .untraced(w.name)
        .filter(|r| {
            r.get("seed").and_then(Json::as_f64) == Some(seed as f64) && Size::of(r) == size
        })
        .last()
        .and_then(|r| value_of(r.get("end_to_end")?))
        .filter(|base| *base > 0.0)
        .ok_or_else(|| {
            format!(
                "{}: no untraced pass of {} seed {seed} to take trace.overhead_pct against; \
                 run the traced pass through `benchmark run --trace 1`",
                out.display(),
                w.name,
            )
        })
}

/// Tracing overhead: how much worse the traced run's headline metric is
/// than `base`, in per cent of `base`.
pub fn overhead_pct(base: f64, run: &RunResult) -> f64 {
    let w = run.workload;
    let def = metrics::end_to_end(w.headline).expect("headline is an end-to-end metric");
    let mine = report::end_to_end(run)
        .iter()
        .find(|(n, _)| *n == w.headline)
        .map_or(0.0, |(_, s)| s.value);
    match def.better {
        Better::Higher => (base - mine) / base * 100.0,
        Better::Lower => (mine - base) / base * 100.0,
    }
}

/// `per_layer` is empty for an untraced run.
pub fn record(run: &RunResult, per_layer: Metrics, cpu: Option<usize>) -> Record {
    let w = run.workload;
    let end_to_end = report::end_to_end(run);
    let good = run.good_ops().count() as f64;
    let corrupt = run.failures.iter().any(|f| f.contains("corrupt:"));
    let truncated = run.good_ops().filter(|o| o.truncated).count();
    let traced = run.traced.is_some();
    let json = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(run.seed as f64)),
        ("traced", Json::Bool(traced)),
        ("seconds", Json::Num(run.seconds)),
        ("smoke", Json::Bool(run.smoke)),
        (
            "pinned_cpu",
            cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("ops_attempted", Json::Num(run.attempted as f64)),
        ("ops_failed", Json::Num(run.failed as f64)),
        ("ops_truncated", Json::Num(truncated as f64)),
        ("corrupt", Json::Bool(corrupt)),
        ("host.steal_share", Json::Num(run.steal_share)),
        ("host.disturbed_op_share", Json::Num(run.disturbed_share())),
        (
            "failures",
            Json::Arr(run.failures.iter().map(Json::str).collect()),
        ),
        ("end_to_end", metrics_json(&end_to_end, true)),
        ("per_layer", metrics_json(&per_layer, true)),
        ("ops", Json::Arr(run.ops.iter().map(op_json).collect())),
    ]);
    Record {
        title: format!(
            "{} seed {} {}",
            w.name,
            run.seed,
            if traced { "traced" } else { "untraced" }
        ),
        traced,
        end_to_end,
        per_layer,
        correct: !corrupt,
        attempted: run.attempted,
        failed: run.failed,
        good_share: good / run.ops.len().max(1) as f64,
        steal_share: run.steal_share,
        disturbed_share: run.disturbed_share(),
        json,
    }
}

impl Record {
    /// No corruption, and enough ops completed to call it a measurement.
    pub fn acceptable(&self) -> bool {
        self.correct && self.good_share >= MIN_GOOD_SHARE
    }

    /// The tables for a person and, when `result_line` is set, the one line
    /// the driver reads: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one. An unacceptable run prints no
    /// result line.
    pub fn print(&self, result_line: bool) {
        report::print_table(&format!("{}: end to end", self.title), &self.end_to_end);
        if self.traced {
            report::print_table(&format!("{}: per layer", self.title), &self.per_layer);
        }
        let noisy = if self.steal_share > NOISY_STEAL {
            " (noisy: above 0.05)"
        } else {
            ""
        };
        println!(
            "# ops attempted {} failed {}; disturbed by steal and left out of the medians {:.0}%; host.steal_share {:.4}{noisy}",
            self.attempted,
            self.failed,
            self.disturbed_share * 100.0,
            self.steal_share
        );
        if !self.acceptable() {
            eprintln!(
                "{}: corrupt output or under 80% of ops completed; no result",
                self.title
            );
            return;
        }
        if !result_line {
            return;
        }
        let rows = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let line = Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(rows, false)),
        ]);
        println!("{}", line.render());
    }
}

/// Append one run to `<out>/results.json`, one record per line inside the
/// `runs` array so the file diffs and greps well. A file that is there but
/// does not read as runs is left as it is.
pub fn append(out: &Path, record: &Record) -> Result<(), String> {
    let file = out.join("results.json");
    let mut runs = Runs::load(&file)?.0;
    runs.push(record.json.clone());
    let body: Vec<String> = runs.iter().map(Json::render).collect();
    fs::create_dir_all(out)
        .and_then(|()| fs::write(&file, format!("{{\"runs\":[\n{}\n]}}\n", body.join(",\n"))))
        .map_err(|e| format!("{}: {e}", file.display()))
}

pub fn write_trace(out: &Path, run: &RunResult) -> Result<(), String> {
    let Some(t) = &run.traced else { return Ok(()) };
    let mut spans = t.client.spans.clone();
    spans.extend(t.server.spans.iter().cloned());
    spans.sort_by_key(|s| s.start_ns);
    let doc = Json::obj([
        ("workload", Json::str(run.workload.name)),
        ("seed", Json::Num(run.seed as f64)),
        (
            "spans_dropped",
            Json::Num((t.client.spans_dropped + t.server.spans_dropped) as f64),
        ),
        ("spans", spans_json(&spans)),
    ]);
    let file = out.join(format!("trace_{}.json", run.workload.name));
    fs::create_dir_all(out)
        .and_then(|()| fs::write(&file, doc.render()))
        .map_err(|e| format!("{}: {e}", file.display()))
}
