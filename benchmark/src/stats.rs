//! Order statistics used for every reported number.

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so spreads computed here match the driver's.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        _ => std::array::from_fn(|i| {
            let m = (i + 1) * (n + 1);
            let j = (m / 4).clamp(1, n - 1);
            // `delta` may exceed 4 or go negative at the clamped ends:
            // that is the linear extrapolation Python does too.
            let delta = m as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        }),
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the driver and `benchmark compare` hold against a bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// One reported number: the value plus the sample it summarises.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub p25: f64,
    pub p75: f64,
}

impl Stat {
    /// A single measured or derived number.
    pub fn scalar(value: f64, unit: &'static str) -> Stat {
        let value = if value.is_finite() { value } else { 0.0 };
        Stat {
            value,
            unit,
            n: 1,
            p25: value,
            p75: value,
        }
    }

    /// The `q` percentile of a sample, with its quartiles and size.
    pub fn of(samples: &[f64], q: f64, unit: &'static str) -> Stat {
        if samples.is_empty() {
            return Stat {
                n: 0,
                ..Stat::scalar(0.0, unit)
            };
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Stat {
            value: percentile(&v, q),
            unit,
            n: v.len(),
            p25: percentile(&v, 0.25),
            p75: percentile(&v, 0.75),
        }
    }

    pub fn median_of(samples: &[f64], unit: &'static str) -> Stat {
        Stat {
            value: median(samples),
            ..Stat::of(samples, 0.5, unit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_stat() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = Stat::median_of(&[4.0, 1.0, 3.0, 2.0], "ms");
        assert_eq!((s.value, s.n, s.p25, s.p75), (2.5, 4, 1.0, 3.0));
        assert_eq!(Stat::scalar(f64::NAN, "s").value, 0.0);
    }
}
