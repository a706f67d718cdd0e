//! Path scheduling: which path(s) carry the next session chunk.
//!
//! Schedulers are deliberately dumb about transport details — they see
//! only the [`PathTable`] (liveness + estimates) and answer, one chunk at
//! a time, "send this on which up path(s)?". The session layer calls them
//! at assignment time, so weights follow the estimates as they move; no
//! separate rebalancing pass is needed.

use crate::path::{PathId, PathTable};

/// The scheduler contract. One decision per session chunk.
pub trait PathScheduler: Send {
    /// Pick the path(s) the next chunk goes on. An empty vector means
    /// "no up path can take it" (the session re-asks once a path is up).
    /// Returning more than one path duplicates the chunk onto each.
    fn assign(&mut self, table: &PathTable) -> Vec<PathId>;

    /// Human-readable name, for traces and reports.
    fn name(&self) -> &'static str;
}

/// Built-in scheduler strategies, as plain config data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Weighted by per-path estimated bandwidth (smooth weighted
    /// round-robin over the live estimates).
    #[default]
    Weighted,
    /// Every chunk duplicated onto every up path (latency/loss armor at
    /// the cost of goodput).
    Redundant,
}

impl SchedKind {
    /// Instantiate the scheduler this kind names.
    pub fn build(self) -> Box<dyn PathScheduler> {
        match self {
            SchedKind::Weighted => Box::new(WeightedScheduler::new()),
            SchedKind::Redundant => Box::new(RedundantScheduler),
        }
    }
}

impl std::str::FromStr for SchedKind {
    type Err = String;

    fn from_str(s: &str) -> Result<SchedKind, String> {
        match s {
            "weighted" => Ok(SchedKind::Weighted),
            "redundant" => Ok(SchedKind::Redundant),
            other => Err(format!("unknown scheduler '{other}' (weighted|redundant)")),
        }
    }
}

/// Smooth weighted round-robin over estimated bandwidth.
///
/// Classic SWRR: every up path accumulates credit proportional to its
/// weight; the path with the most credit wins the chunk and pays back the
/// total weight. Interleaving is as smooth as the weights allow — a 2:1
/// bandwidth ratio yields A,A,B,A,A,B…, not A,A,…,B,B,…. Paths with no
/// estimate yet weigh as the mean of the known estimates (explore, don't
/// starve).
pub struct WeightedScheduler {
    credit: Vec<f64>,
}

impl WeightedScheduler {
    /// Fresh scheduler with zero credit everywhere.
    pub fn new() -> WeightedScheduler {
        WeightedScheduler { credit: Vec::new() }
    }

    fn weight_of(table: &PathTable, id: PathId, mean_known: f64) -> f64 {
        let est = table.get(id).est.bw_pps;
        if est > 0.0 {
            est
        } else {
            mean_known
        }
    }
}

impl Default for WeightedScheduler {
    fn default() -> WeightedScheduler {
        WeightedScheduler::new()
    }
}

impl PathScheduler for WeightedScheduler {
    fn assign(&mut self, table: &PathTable) -> Vec<PathId> {
        let up = table.up_paths();
        if up.is_empty() {
            return Vec::new();
        }
        self.credit.resize(table.len(), 0.0);
        // Unmeasured paths inherit the mean known estimate so a fresh
        // path gets probing traffic instead of starving forever.
        let known: Vec<f64> = up
            .iter()
            .map(|&id| table.get(id).est.bw_pps)
            .filter(|&b| b > 0.0)
            .collect();
        let mean_known = if known.is_empty() {
            1.0
        } else {
            known.iter().sum::<f64>() / known.len() as f64
        };
        let mut total = 0.0;
        let mut best = up[0];
        let mut best_credit = f64::NEG_INFINITY;
        for &id in &up {
            let w = WeightedScheduler::weight_of(table, id, mean_known);
            total += w;
            let c = &mut self.credit[id.0 as usize];
            *c += w;
            if *c > best_credit {
                best_credit = *c;
                best = id;
            }
        }
        self.credit[best.0 as usize] -= total;
        vec![best]
    }

    fn name(&self) -> &'static str {
        "weighted"
    }
}

/// Duplicate every chunk onto every up path.
pub struct RedundantScheduler;

impl PathScheduler for RedundantScheduler {
    fn assign(&mut self, table: &PathTable) -> Vec<PathId> {
        table.up_paths()
    }

    fn name(&self) -> &'static str {
        "redundant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathEstimate;

    fn table(bw: &[f64]) -> PathTable {
        let mut t = PathTable::new(bw.len(), &udt_trace::Tracer::disabled(), 0);
        for (i, &b) in bw.iter().enumerate() {
            let id = PathId::from_index(i);
            t.mark_up(id);
            t.update_estimate(
                id,
                PathEstimate {
                    bw_pps: b,
                    ..PathEstimate::default()
                },
            );
        }
        t
    }

    fn tally(sched: &mut dyn PathScheduler, t: &PathTable, n: usize) -> Vec<usize> {
        let mut counts = vec![0usize; t.len()];
        for _ in 0..n {
            for id in sched.assign(t) {
                counts[id.0 as usize] += 1;
            }
        }
        counts
    }

    #[test]
    fn weighted_follows_bandwidth_ratio() {
        let t = table(&[1000.0, 3000.0]);
        let mut s = WeightedScheduler::new();
        let counts = tally(&mut s, &t, 400);
        assert_eq!(counts[0] + counts[1], 400);
        // 1:3 ratio → expect ~100/300.
        assert!((90..=110).contains(&counts[0]), "{counts:?}");
    }

    #[test]
    fn weighted_interleaves_smoothly() {
        let t = table(&[1000.0, 2000.0]);
        let mut s = WeightedScheduler::new();
        // With 1:2 weights no path should win three times in a row.
        let mut run = 0;
        let mut last = PathId(u32::MAX);
        for _ in 0..60 {
            let id = s.assign(&t)[0];
            if id == last {
                run += 1;
                assert!(run < 3, "path {id} won 3+ consecutive chunks");
            } else {
                run = 1;
                last = id;
            }
        }
    }

    #[test]
    fn weighted_rebalances_when_estimates_move() {
        let mut t = table(&[1000.0, 1000.0]);
        let mut s = WeightedScheduler::new();
        let before = tally(&mut s, &t, 200);
        assert!((before[0] as i64 - before[1] as i64).abs() <= 2, "{before:?}");
        // Path 1's estimate collapses; new chunks should shift to path 0.
        t.update_estimate(
            PathId(1),
            PathEstimate {
                bw_pps: 100.0,
                ..PathEstimate::default()
            },
        );
        let after = tally(&mut s, &t, 220);
        assert!(after[0] > 8 * after[1], "{after:?}");
    }

    #[test]
    fn weighted_skips_down_paths_and_handles_none_up() {
        let mut t = table(&[1000.0, 2000.0]);
        t.mark_down(PathId(1));
        let mut s = WeightedScheduler::new();
        for _ in 0..10 {
            assert_eq!(s.assign(&t), vec![PathId(0)]);
        }
        t.mark_down(PathId(0));
        assert!(s.assign(&t).is_empty());
    }

    #[test]
    fn weighted_probes_unmeasured_paths() {
        // Path 1 has no estimate yet; it must still receive chunks.
        let mut t = table(&[4000.0, 0.0]);
        t.update_estimate(PathId(1), PathEstimate::default());
        let mut s = WeightedScheduler::new();
        let counts = tally(&mut s, &t, 100);
        assert!(counts[1] > 0, "unmeasured path starved: {counts:?}");
    }

    #[test]
    fn redundant_duplicates_to_all_up() {
        let mut t = table(&[1000.0, 2000.0, 3000.0]);
        t.mark_down(PathId(1));
        let mut s = RedundantScheduler;
        assert_eq!(s.assign(&t), vec![PathId(0), PathId(2)]);
    }

    #[test]
    fn sched_kind_parses_and_builds() {
        assert_eq!("weighted".parse::<SchedKind>().unwrap(), SchedKind::Weighted);
        assert_eq!(
            "redundant".parse::<SchedKind>().unwrap(),
            SchedKind::Redundant
        );
        assert!("rr".parse::<SchedKind>().is_err());
        assert_eq!(SchedKind::Weighted.build().name(), "weighted");
        assert_eq!(SchedKind::Redundant.build().name(), "redundant");
    }
}
