//! Exhaustive DFS over the model's delivery schedules.
//!
//! Every reachable state is visited once: a transposition table keyed on
//! [`Model::fingerprint`] collapses the (many) schedules that lead to the
//! same protocol state, which is what makes 4–8-packet runs with drop and
//! duplication budgets exhaustively checkable in well under a second each.
//!
//! On a violation the search returns the *shortest* trace it knows that
//! reaches the bad state (DFS order means the recorded trace is the first
//! found, and the iterative-deepening wrapper in `--minimize` mode shrinks
//! it to a true minimum), encoded as a replayable seed:
//!
//! ```text
//! p6w3d1u1b16s2147483645:T,T,X0,D0,A,...
//! ```

use std::collections::HashSet;

use crate::model::{Action, Config, Model};

/// A violation found by the search.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What went wrong (invariant message or "stuck" diagnosis).
    pub message: String,
    /// Replayable seed: `<config>:<trace>`.
    pub seed: String,
}

/// Search statistics.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub states: u64,
    pub dedup_hits: u64,
    pub completed_runs: u64,
    pub max_depth: usize,
}

/// Encode a run as a replayable seed string.
pub fn encode_seed(cfg: &Config, trace: &[Action]) -> String {
    let acts: Vec<String> = trace.iter().map(Action::encode).collect();
    format!("{}:{}", cfg.encode(), acts.join(","))
}

/// Parse a seed string back into a config and trace.
pub fn decode_seed(seed: &str) -> Option<(Config, Vec<Action>)> {
    let (cfg_s, trace_s) = seed.split_once(':')?;
    let cfg = Config::decode(cfg_s)?;
    let trace = if trace_s.is_empty() {
        Vec::new()
    } else {
        trace_s
            .split(',')
            .map(Action::decode)
            .collect::<Option<Vec<_>>>()?
    };
    Some((cfg, trace))
}

/// Exhaustively explore `cfg`. Stops at the first violation (returning
/// it), or when the whole reachable graph has been visited.
///
/// `depth_cap` bounds trace length as a safety net against an unforeseen
/// unbounded region of the graph; hitting it prunes (and is recorded), it
/// is not a violation by itself.
pub fn explore(cfg: &Config, depth_cap: usize) -> (Option<Violation>, Stats) {
    let mut stats = Stats::default();
    let mut seen: HashSet<u64> = HashSet::new();
    let root = Model::new(cfg.clone());
    if let Err(e) = root.check() {
        let v = Violation {
            message: format!("initial state: {e}"),
            seed: encode_seed(cfg, &[]),
        };
        return (Some(v), stats);
    }
    seen.insert(root.fingerprint());
    // Explicit stack: (model, trace) pairs. Cloning the model per node
    // trades memory for simplicity; bounded runs stay tiny.
    let mut stack: Vec<(Model, Vec<Action>)> = vec![(root, Vec::new())];
    while let Some((m, trace)) = stack.pop() {
        stats.states += 1;
        stats.max_depth = stats.max_depth.max(trace.len());
        if m.complete() {
            stats.completed_runs += 1;
            continue;
        }
        let acts = m.enabled();
        if acts.is_empty() {
            // Incomplete and nothing enabled: the protocol is stuck. The
            // EXP/ACK timer gates are supposed to make this unreachable.
            let v = Violation {
                message: format!(
                    "stuck: transfer incomplete ({} bytes delivered) with no enabled action",
                    m.delivered_bytes()
                ),
                seed: encode_seed(cfg, &trace),
            };
            return (Some(v), stats);
        }
        if trace.len() >= depth_cap {
            continue;
        }
        for a in acts {
            let mut next = m.clone();
            next.step(a);
            if let Err(e) = next.check() {
                let mut t = trace;
                t.push(a);
                let v = Violation {
                    message: e,
                    seed: encode_seed(cfg, &t),
                };
                return (Some(v), stats);
            }
            if seen.insert(next.fingerprint()) {
                let mut t = trace.clone();
                t.push(a);
                stack.push((next, t));
            } else {
                stats.dedup_hits += 1;
            }
        }
    }
    (None, stats)
}

/// Replay a seed, printing each step, and report the first invariant
/// failure (or success). Returns `Err` on a malformed seed or an action
/// that is not enabled at its position.
pub fn replay(seed: &str, verbose: bool) -> Result<Option<String>, String> {
    let (cfg, trace) = decode_seed(seed).ok_or_else(|| format!("malformed seed: {seed}"))?;
    let mut m = Model::new(cfg);
    if verbose {
        println!("config: {:?}", m.cfg);
    }
    for (i, a) in trace.iter().enumerate() {
        if !m.enabled().contains(a) {
            return Err(format!(
                "step {i}: action {} not enabled (net: {:?})",
                a.encode(),
                m.net_contents()
            ));
        }
        let desc = m.step(*a);
        if verbose {
            println!("{i:3}  {:4}  {desc}", a.encode());
        }
        if let Err(e) = m.check() {
            return Ok(Some(format!("step {i} ({}): {e}", a.encode())));
        }
    }
    if verbose {
        println!(
            "final: {} bytes delivered, complete={}",
            m.delivered_bytes(),
            m.complete()
        );
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_proto::{SeqNo, SEQ_MAX};

    fn small(total: u32, init: u32, drops: u32, dups: u32) -> Config {
        Config {
            total_pkts: total,
            init_seq: SeqNo::new(init),
            window: 3,
            max_drops: drops,
            max_dups: dups,
            buf_pkts: 8,
        }
    }

    /// The core regression: exhaustive exploration of a lossy, duplicating,
    /// reordering schedule space finds no invariant violation and no stuck
    /// state.
    #[test]
    fn exhaustive_small_run_is_clean() {
        let (violation, stats) = explore(&small(4, 0, 1, 1), 200);
        assert!(violation.is_none(), "{violation:?}");
        assert!(stats.states > 1_000, "too few states: {stats:?}");
        assert!(stats.completed_runs > 0);
    }

    /// Same space with the sequence numbers straddling the 2^31 wrap: the
    /// state graph must be isomorphic to the unwrapped one.
    #[test]
    fn exhaustive_run_across_wrap_is_clean() {
        let base = explore(&small(4, 0, 1, 1), 200);
        let wrap = explore(&small(4, SEQ_MAX - 1, 1, 1), 200);
        assert!(wrap.0.is_none(), "{:?}", wrap.0);
        assert_eq!(
            base.1.states, wrap.1.states,
            "wrap changed the reachable state count: {:?} vs {:?}",
            base.1, wrap.1
        );
    }

    /// Seeds round-trip and replay cleanly.
    #[test]
    fn seed_round_trip_and_replay() {
        let cfg = small(2, SEQ_MAX, 1, 0);
        let seed = encode_seed(
            &cfg,
            &[
                crate::model::Action::Transmit,
                crate::model::Action::Deliver(0),
                crate::model::Action::AckTimer,
            ],
        );
        let (back, trace) = decode_seed(&seed).expect("decodes");
        assert_eq!(back.encode(), cfg.encode());
        assert_eq!(trace.len(), 3);
        assert_eq!(replay(&seed, false), Ok(None));
    }

    /// A malformed seed is rejected, not panicked on.
    #[test]
    fn malformed_seeds_are_rejected() {
        assert!(replay("nonsense", false).is_err());
        assert!(replay("p2w3d0u0b8s0:Q9", false).is_err());
        // Well-formed but not enabled at step 0:
        assert!(replay("p2w3d0u0b8s0:D0", false).is_err());
    }
}
