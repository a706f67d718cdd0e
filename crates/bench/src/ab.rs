//! The one A/B comparison every overhead and speed-up experiment uses.
//!
//! Loopback goodput on a shared host is noisy (scheduler placement and
//! retransmission luck swing single runs widely), and whichever side runs
//! first inherits a colder or warmer machine. So: run the two sides in
//! interleaved pairs, alternate which side goes first, keep every pair,
//! and report the **median of pairs** with its quartiles. A bound is held
//! against that median — one lucky pair cannot pass it, one unlucky pair
//! cannot fail it — and a bound the median does not meet is recorded as
//! not holding, not re-tuned.

use udt::UdtConfig;
use udt_trace::json::Value;

use crate::perfjson::Obj;
use crate::realnet::run_loopback_blast;
use crate::report::{mbps, Report};

/// Interleaved pairs per comparison (odd, so the median is a real pair).
pub const PAIRS: usize = 5;

/// One interleaved pair of runs.
#[derive(Debug)]
pub struct Pair<A, B> {
    /// The baseline side's result.
    pub a: A,
    /// The changed side's result.
    pub b: B,
    /// Whether `a` ran before `b` in this pair.
    pub a_first: bool,
}

/// Median and quartiles of one per-pair statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Lower quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q3: f64,
}

/// Quartiles of `values` by linear interpolation between order statistics
/// (all zero for an empty input).
pub fn quartiles(mut values: Vec<f64>) -> Quartiles {
    values.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let Some(last) = values.len().checked_sub(1) else {
            return 0.0;
        };
        let pos = p * last as f64;
        // `pos` lies in [0, last]: both indexes are in range.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
    };
    Quartiles {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
    }
}

/// Median and quartiles of `stat` over `pairs`.
pub fn quartiles_of<A, B>(pairs: &[Pair<A, B>], stat: impl Fn(&Pair<A, B>) -> f64) -> Quartiles {
    quartiles(pairs.iter().map(stat).collect())
}

/// Run `pairs` interleaved pairs of `a` and `b` — `a` goes first in even
/// pairs, `b` in odd ones — and return every pair in run order.
pub fn compare<A, B>(
    pairs: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> Vec<Pair<A, B>> {
    (0..pairs)
        .map(|i| {
            let a_first = i % 2 == 0;
            let (a, b) = if a_first {
                let a = a();
                (a, b())
            } else {
                let b = b();
                (a(), b)
            };
            Pair { a, b, a_first }
        })
        .collect()
}

/// Goodput cost of switching a feature on: [`PAIRS`] interleaved pairs of
/// `total_bytes` loopback blasts, the default config's goodput against
/// `on()`'s (both bits/s). Prints every pair into `rep`, records `claim`
/// as holding when the median loss is under `bound` (recorded, not gated:
/// the CI gate on this number is its `bench regress` row), and returns the
/// artifact payload (`overhead_pairs`, `median_delta`, `q1_delta`,
/// `q3_delta`, `bound`).
pub fn goodput_loss(
    rep: &mut Report,
    claim: &str,
    bound: f64,
    total_bytes: u64,
    on: impl FnMut() -> f64,
) -> Obj {
    // Warm the stack (thread pools, allocator, page cache) off the books.
    let _ = run_loopback_blast(UdtConfig::default(), total_bytes / 4);
    let ab = compare(
        PAIRS,
        || run_loopback_blast(UdtConfig::default(), total_bytes).throughput_bps(),
        on,
    );
    let loss = |p: &Pair<f64, f64>| 1.0 - p.b / p.a.max(1e-9);
    let mut pairs_json = Vec::new();
    for (i, p) in ab.iter().enumerate() {
        rep.row(format!(
            "pair {i} ({} first): off {} Mb/s, on {} Mb/s, delta {:+.2}%",
            if p.a_first { "off" } else { "on" },
            mbps(p.a),
            mbps(p.b),
            loss(p) * 100.0
        ));
        pairs_json.push(Value::from(
            Obj::new()
                .num("off_mbps", p.a / 1e6)
                .num("on_mbps", p.b / 1e6)
                .num("delta", loss(p))
                .flag("off_first", p.a_first),
        ));
    }
    let q = quartiles_of(&ab, loss);
    let summary = format!(
        "median delta {:+.2}% (quartiles {:+.2}% .. {:+.2}%, bound {:.0}%)",
        q.median * 100.0,
        q.q1 * 100.0,
        q.q3 * 100.0,
        bound * 100.0
    );
    rep.measured(claim, q.median < bound, summary);
    Obj::new()
        .arr("overhead_pairs", pairs_json)
        .num("median_delta", q.median)
        .num("q1_delta", q.q1)
        .num("q3_delta", q.q3)
        .num("bound", bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn order_alternates_and_every_pair_is_kept() {
        let order = RefCell::new(String::new());
        let ab = compare(
            4,
            || {
                order.borrow_mut().push('a');
                1.0
            },
            || {
                order.borrow_mut().push('b');
                2.0
            },
        );
        assert_eq!(*order.borrow(), "abbaabba");
        let firsts: Vec<bool> = ab.iter().map(|p| p.a_first).collect();
        assert_eq!(firsts, [true, false, true, false]);
        assert!(ab.iter().all(|p| p.a == 1.0 && p.b == 2.0));
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let q = quartiles(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = quartiles(vec![10.0, 20.0, 40.0]);
        assert_eq!((q.q1, q.median, q.q3), (15.0, 20.0, 30.0));
        let q = quartiles(vec![7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(Vec::new()).median, 0.0);
    }

    #[test]
    fn one_lucky_pair_cannot_pass_a_bound() {
        // The committed auth artifact's shape: two honest pairs well over
        // a 10% bound and one pair that got lucky.
        let mut on = [84.6, 81.4, 98.0].into_iter();
        let ab = compare(3, || 100.0, || on.next().expect("three pairs"));
        let loss = quartiles_of(&ab, |p| 1.0 - p.b / p.a);
        let best = ab
            .iter()
            .map(|p| 1.0 - p.b / p.a)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.10, "the most favourable pair would have passed");
        assert!(loss.median >= 0.10, "the median does not: {loss:?}");
        assert!((loss.median - 0.154).abs() < 1e-9);
    }
}
