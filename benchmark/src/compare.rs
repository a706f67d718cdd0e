//! `benchmark compare A.json B.json`: for every (end-to-end metric,
//! workload) pair, is B better than A, within the metric's bound, worse, or
//! can the runs not tell (the spread of either side exceeds the bound)?
//! The runs of a workload, both files together, must be of one size.

use std::path::Path;
use std::process::ExitCode;

use crate::metrics::{Better, END_TO_END};
use crate::results::Runs;
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the baseline. Fewer than two runs on a side have no spread, so
/// they cannot resolve anything.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.len() < 2 || b.len() < 2 || spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let worsening = match better {
        Better::Higher => (ma - mb) / ma.abs(),
        Better::Lower => (mb - ma) / ma.abs(),
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (
        Runs::load(Path::new(path_a))?,
        Runs::load(Path::new(path_b))?,
    );
    let mut all_within = true;
    println!(
        "{:<14} {:<16} {:>3} {:>12} {:>7} {:>3} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "iqr A",
        "nB",
        "median B",
        "iqr B",
        "B vs A",
        "bound"
    );
    for w in &WORKLOADS {
        let steal = |side: &Runs| -> Vec<f64> {
            side.untraced(w.name)
                .filter_map(|r| r.get("host.steal_share")?.as_f64())
                .collect()
        };
        let (sa, sb) = (steal(&a), steal(&b));
        if sa.is_empty() && sb.is_empty() {
            continue;
        }
        let mut sizes = a.sizes(w.name);
        for size in b.sizes(w.name) {
            if !sizes.contains(&size) {
                sizes.push(size);
            }
        }
        if sizes.len() > 1 {
            return Err(format!(
                "{}: runs of different sizes cannot be pooled: {sizes:?}",
                w.name
            ));
        }
        for m in END_TO_END {
            let (va, vb) = (a.values(w.name, m.name), b.values(w.name, m.name));
            let v = verdict(&va, &vb, m.better, m.bound);
            all_within &= matches!(v, Verdict::WithinBound | Verdict::Better);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<14} {:<16} {:>3} {:>12.4} {:>6.1}% {:>3} {:>12.4} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                va.len(),
                ma,
                spread(&va) * 100.0,
                vb.len(),
                mb,
                spread(&vb) * 100.0,
                if ma == 0.0 { 0.0 } else { (mb - ma) / ma * 100.0 },
                m.bound * 100.0,
                v.as_str()
            );
        }
        let fmt = |v: &[f64]| {
            v.iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{:<14} host.steal_share  A: {}   B: {}",
            w.name,
            fmt(&sa),
            fmt(&sb)
        );
    }
    Ok(if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0];
        let v = |b: &[f64], better| verdict(&base, b, better, 0.10);
        assert_eq!(
            v(&[100.5, 99.5, 101.5], Better::Higher),
            Verdict::WithinBound
        );
        assert_eq!(v(&[85.0, 86.0, 84.0], Better::Higher), Verdict::Worse);
        assert_eq!(v(&[85.0, 86.0, 84.0], Better::Lower), Verdict::Better);
        assert_eq!(v(&[120.0, 121.0, 119.0], Better::Higher), Verdict::Better);
        assert_eq!(v(&[120.0, 121.0, 119.0], Better::Lower), Verdict::Worse);
        // A side whose own runs disagree by more than the bound resolves nothing.
        assert_eq!(
            v(&[80.0, 100.0, 125.0], Better::Higher),
            Verdict::Unresolved
        );
        assert_eq!(v(&[100.0], Better::Higher), Verdict::Unresolved);
    }
}
