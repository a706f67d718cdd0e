//! Perf-regression gate: compare fresh `BENCH_*.json` artifacts against
//! committed baselines (`crates/bench/baselines/`).
//!
//! The gate is data-driven: [`GATES`] names, per artifact, the payload
//! metrics worth holding the line on, which direction is better, and how
//! much noise to tolerate. Loopback goodput on a shared host swings wildly
//! (see `trace_overhead`), so socket-measured metrics get loose relative
//! tolerances, while seeded-simulation metrics (deterministic by
//! construction) get tight ones — those are the gates that catch a real
//! 20% regression.
//!
//! Metric paths address into the envelope's `payload`:
//!
//! - `pump_msgs_per_s_batched` — a top-level field
//! - `goodput_bps[1]` — array index
//! - `runs[run=bonded-sim].goodput_bps` — array element selected by a
//!   field match, then a field of it
//!
//! A baseline with no matching current artifact is a **failure** (the
//! experiment stopped emitting); a gate whose metric disappeared from the
//! current payload likewise. A quick/full mismatch between baseline and
//! current skips the file with a visible note — the sizes are not
//! comparable.

use std::path::Path;

use udt_trace::json::{parse as parse_json, Value as Val};

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Bigger numbers are better (throughput, msgs/s).
    Higher,
    /// Smaller numbers are better (deltas, stalls, CPU shares).
    Lower,
}

/// How much movement in the *worse* direction to tolerate.
#[derive(Debug, Clone, Copy)]
pub enum Tol {
    /// Relative: fail when the worse-direction change exceeds this
    /// fraction of the baseline magnitude.
    Rel(f64),
    /// Absolute: fail when the worse-direction change exceeds this many
    /// units (for metrics that live near zero, where ratios explode).
    Abs(f64),
}

/// One regression gate over one payload metric of one artifact.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Artifact file name, e.g. `BENCH_multipath.json`.
    pub file: &'static str,
    /// Payload metric path (see module docs for the syntax).
    pub metric: &'static str,
    /// Direction of goodness.
    pub better: Better,
    /// Noise tolerance.
    pub tol: Tol,
}

/// The committed gate set. Tolerance notes:
///
/// - `multipath` bonded/single goodput come from seeded `netsim` runs —
///   deterministic modulo scheduling of the sim loop, so 15% relative is
///   generous and still catches a 20% slowdown.
/// - `datapath` pump rates are real-socket loopback: only a halving is
///   distinguishable from scheduler luck. The CPU share is bounded
///   absolutely since it is already a ratio.
/// - the `auth`, `trace_overhead` and `metrics_overhead` rows are the one
///   CI gate on each overhead number (the experiments only record whether
///   the design bound held): the median-of-pairs goodput loss may not rise
///   more than ten points over the committed baseline's. Repeats of one
///   leg on one host spread about that much (auth medians 4–25 %, tracing
///   −8…+5 %, metrics −1…+8 % over ten repeats when the baselines were
///   recorded), so this catches a new per-packet cost, not a bad minute.
pub const GATES: &[Gate] = &[
    Gate {
        file: "BENCH_multipath.json",
        metric: "runs[run=bonded-sim].goodput_bps",
        better: Better::Higher,
        tol: Tol::Rel(0.15),
    },
    Gate {
        file: "BENCH_multipath.json",
        metric: "runs[run=single-best].goodput_bps",
        better: Better::Higher,
        tol: Tol::Rel(0.15),
    },
    Gate {
        file: "BENCH_datapath.json",
        metric: "pump_msgs_per_s_batched",
        better: Better::Higher,
        tol: Tol::Rel(0.5),
    },
    Gate {
        file: "BENCH_datapath.json",
        metric: "udp_cpu_share_batched",
        better: Better::Lower,
        tol: Tol::Abs(0.20),
    },
    Gate {
        file: "BENCH_auth.json",
        metric: "median_delta",
        better: Better::Lower,
        tol: Tol::Abs(0.10),
    },
    Gate {
        file: "BENCH_trace_overhead.json",
        metric: "median_delta",
        better: Better::Lower,
        tol: Tol::Abs(0.10),
    },
    Gate {
        file: "BENCH_metrics_overhead.json",
        metric: "median_delta",
        better: Better::Lower,
        tol: Tol::Abs(0.10),
    },
];

/// Outcome of one gate comparison.
#[derive(Debug)]
pub struct GateOutcome {
    /// The gate that produced this outcome.
    pub gate: Gate,
    /// Human line: `file metric base -> cur (change) PASS|FAIL`.
    pub line: String,
    /// Whether the gate held.
    pub ok: bool,
}

/// Walk a metric path into a payload value.
pub fn lookup<'v>(payload: &'v Val, path: &str) -> Option<&'v Val> {
    let mut cur = payload;
    for seg in path.split('.') {
        let (key, idx) = match seg.find('[') {
            Some(open) => {
                let inner = seg.get(open + 1..seg.len().checked_sub(1)?)?;
                if !seg.ends_with(']') {
                    return None;
                }
                (&seg[..open], Some(inner))
            }
            None => (seg, None),
        };
        cur = cur.get(key)?;
        if let Some(inner) = idx {
            let items = cur.items()?;
            cur = match inner.split_once('=') {
                // runs[run=bonded-sim] — select by field value
                Some((field, want)) => items
                    .iter()
                    .find(|it| it.get(field).and_then(Val::as_str) == Some(want))?,
                // goodput_bps[1] — numeric index
                None => items.get(inner.parse::<usize>().ok()?)?,
            };
        }
    }
    Some(cur)
}

fn judge(gate: &Gate, base: f64, cur: f64) -> (bool, String) {
    // Signed movement in the *worse* direction.
    let worse = match gate.better {
        Better::Higher => base - cur,
        Better::Lower => cur - base,
    };
    let (ok, detail) = match gate.tol {
        Tol::Rel(tol) => {
            let rel = worse / base.abs().max(1e-12);
            (rel <= tol, format!("{:+.1}% (tol {:.0}%)", -rel * 100.0, tol * 100.0))
        }
        Tol::Abs(tol) => (worse <= tol, format!("{worse:+.4} worse (tol {tol})")),
    };
    (ok, detail)
}

/// Compare one artifact pair against every gate registered for `file`.
pub fn compare_artifact(file: &str, baseline: &Val, current: &Val) -> Vec<GateOutcome> {
    let mut out = Vec::new();
    let (bq, cq) = (
        baseline.get("quick").and_then(Val::as_bool),
        current.get("quick").and_then(Val::as_bool),
    );
    if bq != cq {
        // Not comparable: quick and full runs use different sizes.
        for gate in GATES.iter().filter(|g| g.file == file) {
            out.push(GateOutcome {
                gate: *gate,
                line: format!(
                    "{file} {}: SKIP (baseline quick={bq:?}, current quick={cq:?})",
                    gate.metric
                ),
                ok: true,
            });
        }
        return out;
    }
    let (bp, cp) = (baseline.get("payload"), current.get("payload"));
    for gate in GATES.iter().filter(|g| g.file == file) {
        let base = bp.and_then(|p| lookup(p, gate.metric)).and_then(Val::as_f64);
        let cur = cp.and_then(|p| lookup(p, gate.metric)).and_then(Val::as_f64);
        let (ok, line) = match (base, cur) {
            (Some(b), Some(c)) => {
                let (ok, detail) = judge(gate, b, c);
                (
                    ok,
                    format!(
                        "{file} {}: {b:.4e} -> {c:.4e} {detail} {}",
                        gate.metric,
                        if ok { "PASS" } else { "FAIL" }
                    ),
                )
            }
            (None, _) => (
                false,
                format!("{file} {}: FAIL (metric missing from baseline)", gate.metric),
            ),
            (_, None) => (
                false,
                format!("{file} {}: FAIL (metric missing from current run)", gate.metric),
            ),
        };
        out.push(GateOutcome { gate: *gate, line, ok });
    }
    out
}

/// Result of a full regress run.
#[derive(Debug, Default)]
pub struct RegressReport {
    /// One line per gate / file-level event, in evaluation order.
    pub lines: Vec<String>,
    /// Number of failed gates (0 = green).
    pub failures: usize,
}

impl RegressReport {
    /// True when every gate held.
    pub fn ok(&self) -> bool {
        self.failures == 0
    }
}

/// Run the whole gate set: for every distinct artifact named by [`GATES`],
/// read `baseline_dir/<file>` and `current_dir/<file>` and compare. A
/// missing baseline skips the file (nothing committed to hold the line
/// against); a missing current artifact fails it.
pub fn run(baseline_dir: &Path, current_dir: &Path) -> RegressReport {
    let mut rep = RegressReport::default();
    let mut files: Vec<&str> = GATES.iter().map(|g| g.file).collect();
    files.dedup();
    for file in files {
        let base_path = baseline_dir.join(file);
        let Ok(base_text) = std::fs::read_to_string(&base_path) else {
            rep.lines
                .push(format!("{file}: SKIP (no committed baseline at {})", base_path.display()));
            continue;
        };
        let cur_path = current_dir.join(file);
        let Ok(cur_text) = std::fs::read_to_string(&cur_path) else {
            rep.lines.push(format!(
                "{file}: FAIL (no current artifact at {} — did the experiment run?)",
                cur_path.display()
            ));
            rep.failures += 1;
            continue;
        };
        match (parse_json(&base_text), parse_json(&cur_text)) {
            (Ok(base), Ok(cur)) => {
                for v in [&base, &cur] {
                    if v.get("schema_version").and_then(Val::as_f64) != Some(2.0) {
                        rep.lines
                            .push(format!("{file}: note: artifact is not schema v2"));
                    }
                }
                for o in compare_artifact(file, &base, &cur) {
                    if !o.ok {
                        rep.failures += 1;
                    }
                    rep.lines.push(o.line);
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                rep.lines.push(format!("{file}: FAIL (unparseable artifact: {e})"));
                rep.failures += 1;
            }
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfjson::{envelope, Obj};

    fn artifact(goodput_scale: f64) -> Val {
        let payload = Obj::new().arr(
            "runs",
            vec![
                Val::from(
                    Obj::new()
                        .str("run", "bonded-sim")
                        .num("goodput_bps", 80e6 * goodput_scale),
                ),
                Val::from(
                    Obj::new()
                        .str("run", "single-best")
                        .num("goodput_bps", 50e6 * goodput_scale),
                ),
            ],
        );
        parse_json(&envelope("multipath", true, payload).render()).unwrap()
    }

    #[test]
    fn lookup_walks_fields_selectors_and_indexes() {
        let v = parse_json(
            r#"{"a":{"b":[10,20]},"runs":[{"run":"x","g":1.5},{"run":"y","g":2.5}]}"#,
        )
        .unwrap();
        assert_eq!(lookup(&v, "a.b[1]").and_then(Val::as_f64), Some(20.0));
        assert_eq!(lookup(&v, "runs[run=y].g").and_then(Val::as_f64), Some(2.5));
        assert!(lookup(&v, "runs[run=z].g").is_none());
        assert!(lookup(&v, "a.b[7]").is_none());
        assert!(lookup(&v, "nope").is_none());
    }

    #[test]
    fn synthetic_twenty_percent_slowdown_fails_the_gate() {
        let base = artifact(1.0);
        let slow = artifact(0.8);
        let outcomes = compare_artifact("BENCH_multipath.json", &base, &slow);
        assert!(
            outcomes.iter().any(|o| !o.ok),
            "a 20% goodput loss must trip a gate: {outcomes:?}"
        );
        // And the tight gate specifically (tol 0.15 < 0.20).
        let bonded = outcomes
            .iter()
            .find(|o| o.gate.metric.contains("bonded-sim"))
            .unwrap();
        assert!(!bonded.ok, "{}", bonded.line);
    }

    #[test]
    fn identical_artifacts_pass_and_improvements_pass() {
        let base = artifact(1.0);
        let outcomes = compare_artifact("BENCH_multipath.json", &base, &artifact(1.0));
        assert!(outcomes.iter().all(|o| o.ok), "{outcomes:?}");
        let faster = compare_artifact("BENCH_multipath.json", &base, &artifact(1.3));
        assert!(faster.iter().all(|o| o.ok), "improvement never fails: {faster:?}");
    }

    #[test]
    fn small_noise_within_tolerance_passes() {
        let base = artifact(1.0);
        let noisy = compare_artifact("BENCH_multipath.json", &base, &artifact(0.9));
        assert!(noisy.iter().all(|o| o.ok), "10% < 15% tol: {noisy:?}");
    }

    #[test]
    fn missing_metric_in_current_run_fails() {
        let base = artifact(1.0);
        let empty =
            parse_json(&envelope("multipath", true, Obj::new()).render()).unwrap();
        let outcomes = compare_artifact("BENCH_multipath.json", &base, &empty);
        assert!(outcomes.iter().all(|o| !o.ok), "{outcomes:?}");
        assert!(outcomes[0].line.contains("missing from current run"));
    }

    #[test]
    fn quick_full_mismatch_skips_with_note() {
        let base = artifact(1.0);
        let full_payload = Obj::new();
        let full = parse_json(&envelope("multipath", false, full_payload).render()).unwrap();
        let outcomes = compare_artifact("BENCH_multipath.json", &base, &full);
        assert!(outcomes.iter().all(|o| o.ok && o.line.contains("SKIP")), "{outcomes:?}");
    }

    #[test]
    fn lower_is_better_abs_gate_judges_both_directions() {
        let gate = Gate {
            file: "f",
            metric: "m",
            better: Better::Lower,
            tol: Tol::Abs(0.08),
        };
        assert!(judge(&gate, 0.02, 0.05).0, "within abs tol");
        assert!(!judge(&gate, 0.02, 0.25).0, "beyond abs tol");
        assert!(judge(&gate, 0.05, -0.02).0, "improvement");
    }

    #[test]
    fn run_reports_missing_current_artifact_as_failure() {
        let dir = std::env::temp_dir().join(format!("regress-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("base")).unwrap();
        std::fs::create_dir_all(dir.join("cur")).unwrap();
        std::fs::write(
            dir.join("base").join("BENCH_multipath.json"),
            envelope("multipath", true, Obj::new()).render(),
        )
        .unwrap();
        let rep = run(&dir.join("base"), &dir.join("cur"));
        assert!(!rep.ok());
        assert!(rep.lines.iter().any(|l| l.contains("no current artifact")), "{rep:?}");
        // Baselines absent entirely -> all files skip, gate is green.
        let rep2 = run(&dir.join("cur"), &dir.join("cur"));
        assert!(rep2.ok(), "{rep2:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
