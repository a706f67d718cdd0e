//! Declarative impairment scenarios.
//!
//! A [`Scenario`] is data: a name, a master seed, and per-direction lists
//! of [`ImpairmentSpec`]s. Every layer (netsim, linkemu) calls
//! [`Scenario::build`] to turn the description into a live
//! [`ImpairmentChain`]; each stage's RNG seed is derived from
//! `(master seed, direction, stage index)`, so the two directions draw
//! independent random streams and inserting a stage does not perturb the
//! streams of stages before it.

use crate::impairments::{
    Adversary, Bernoulli, Blackout, BurstReorder, Corrupt, Duplicate, GilbertElliott, Jitter,
    RateClamp, Reorder,
};
use crate::{Impairment, ImpairmentChain};

/// Which side of the link a chain applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server (data direction in most experiments).
    Forward,
    /// Server → client (ACK/NAK direction in most experiments).
    Reverse,
}

/// Serializable description of one impairment stage.
#[derive(Debug, Clone, PartialEq)]
pub enum ImpairmentSpec {
    /// Independent loss, optionally amplified per MTU-sized fragment
    /// (the legacy linkemu loss model).
    Bernoulli {
        /// Per-packet (or per-fragment) loss probability.
        loss: f64,
        /// Fragment size for per-fragment amplification, if any.
        mtu: Option<usize>,
    },
    /// Two-state bursty loss.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_good_to_bad: f64,
        /// P(bad → good) per packet.
        p_bad_to_good: f64,
        /// Loss rate while in the good state.
        loss_good: f64,
        /// Loss rate while in the bad state.
        loss_bad: f64,
    },
    /// Uniform random reordering.
    Reorder {
        /// Fraction of packets held back.
        prob: f64,
        /// Maximum extra delay, µs.
        max_extra_us: u64,
    },
    /// Periodic burst reordering (route-change style).
    BurstReorder {
        /// Cycle length in packets.
        period: u64,
        /// Packets delayed at the start of each cycle.
        burst: u64,
        /// Extra delay for the burst, µs.
        extra_us: u64,
    },
    /// Random duplication.
    Duplicate {
        /// Fraction of packets duplicated.
        prob: f64,
        /// Extra copies per duplicated packet.
        copies: u32,
    },
    /// Random bit corruption (drop at layers without raw bytes).
    Corrupt {
        /// Fraction of packets corrupted.
        prob: f64,
        /// Maximum bit flips per corrupted packet.
        max_bit_flips: u32,
    },
    /// Uniform per-packet jitter in `[0, max_us]`.
    Jitter {
        /// Maximum jitter, µs.
        max_us: u64,
    },
    /// Serialization-rate clamp with bounded virtual backlog.
    RateClamp {
        /// Link rate, bits/second.
        bps: f64,
        /// Maximum queued backlog before drops, µs.
        max_backlog_us: u64,
    },
    /// Timed outage; periodic if `period_us` is set (link flapping).
    Blackout {
        /// Outage start, µs on the layer's clock.
        start_us: u64,
        /// Outage length, µs.
        duration_us: u64,
        /// Flap period, µs (must exceed `duration_us`), or one-shot.
        period_us: Option<u64>,
    },
    /// Active on-path adversary: forged DATA/ACK/Shutdown injection,
    /// capture-and-replay, and trailer-tag bit flips (see
    /// [`crate::impairments::Adversary`]).
    Adversary {
        /// Per observed packet, probability of injecting one forged DATA.
        forge_data: f64,
        /// Per observed packet, probability of injecting one forged ACK.
        forge_ack: f64,
        /// Per observed packet, probability of capturing it and replaying
        /// it byte-identically after
        /// [`crate::impairments::REPLAY_DELAY_US`].
        replay: f64,
        /// Per packet, probability of flipping one bit of the trailing 8
        /// bytes (where an auth trailer tag sits).
        tag_flip: f64,
        /// Inject one forged Shutdown after observing this many packets.
        forge_shutdown_after: Option<u64>,
    },
}

impl ImpairmentSpec {
    /// Instantiate this spec with the given stage seed.
    pub fn build(&self, seed: u64) -> Box<dyn Impairment> {
        match *self {
            ImpairmentSpec::Bernoulli { loss, mtu } => Box::new(Bernoulli::new(loss, mtu, seed)),
            ImpairmentSpec::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => Box::new(GilbertElliott::new(
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
                seed,
            )),
            ImpairmentSpec::Reorder { prob, max_extra_us } => {
                Box::new(Reorder::new(prob, max_extra_us, seed))
            }
            ImpairmentSpec::BurstReorder {
                period,
                burst,
                extra_us,
            } => Box::new(BurstReorder::new(period, burst, extra_us)),
            ImpairmentSpec::Duplicate { prob, copies } => {
                Box::new(Duplicate::new(prob, copies, seed))
            }
            ImpairmentSpec::Corrupt {
                prob,
                max_bit_flips,
            } => Box::new(Corrupt::new(prob, max_bit_flips, seed)),
            ImpairmentSpec::Jitter { max_us } => Box::new(Jitter::new(max_us, seed)),
            ImpairmentSpec::RateClamp {
                bps,
                max_backlog_us,
            } => Box::new(RateClamp::new(bps, max_backlog_us)),
            ImpairmentSpec::Blackout {
                start_us,
                duration_us,
                period_us,
            } => Box::new(Blackout::new(start_us, duration_us, period_us)),
            ImpairmentSpec::Adversary {
                forge_data,
                forge_ack,
                replay,
                tag_flip,
                forge_shutdown_after,
            } => Box::new(Adversary::new(
                forge_data,
                forge_ack,
                replay,
                tag_flip,
                forge_shutdown_after,
                seed,
            )),
        }
    }
}

/// A named, seeded, per-direction impairment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (used in experiment output).
    pub name: String,
    /// Master seed; every stage RNG derives from it.
    pub seed: u64,
    /// Impairments on the forward (client → server) direction, in order.
    pub forward: Vec<ImpairmentSpec>,
    /// Impairments on the reverse (server → client) direction, in order.
    pub reverse: Vec<ImpairmentSpec>,
}

/// SplitMix64 finalizer: decorrelates the per-stage seeds derived from
/// `(master, direction, index)` tuples that differ in only a few bits.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Scenario {
    /// Empty scenario (no impairments either way).
    pub fn new(name: impl Into<String>, seed: u64) -> Scenario {
        Scenario {
            name: name.into(),
            seed,
            forward: Vec::new(),
            reverse: Vec::new(),
        }
    }

    /// Append a stage to the forward chain.
    pub fn forward(mut self, spec: ImpairmentSpec) -> Scenario {
        self.forward.push(spec);
        self
    }

    /// Append a stage to the reverse chain.
    pub fn reverse(mut self, spec: ImpairmentSpec) -> Scenario {
        self.reverse.push(spec);
        self
    }

    /// Append a stage to both chains (each direction still draws its own
    /// RNG stream).
    pub fn both(self, spec: ImpairmentSpec) -> Scenario {
        let s = self.forward(spec.clone());
        s.reverse(spec)
    }

    /// Seed for stage `index` of `dir`, derived so that directions and
    /// stages are pairwise independent.
    pub fn stage_seed(&self, dir: Direction, index: usize) -> u64 {
        let tag = match dir {
            Direction::Forward => 0x0046_4F52_5741_5244_u64, // "FORWARD"
            Direction::Reverse => 0x0052_4556_4552_5345_u64, // "REVERSE"
        };
        mix(self.seed ^ mix(tag) ^ mix(index as u64 + 1))
    }

    /// Build the live chain for one direction.
    pub fn build(&self, dir: Direction) -> ImpairmentChain {
        let specs = match dir {
            Direction::Forward => &self.forward,
            Direction::Reverse => &self.reverse,
        };
        ImpairmentChain::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, spec)| spec.build(self.stage_seed(dir, i)))
                .collect(),
        )
    }

    /// Whether this scenario impairs nothing.
    pub fn is_transparent(&self) -> bool {
        self.forward.is_empty() && self.reverse.is_empty()
    }
}

/// Canned scenarios used by tests and the `bench exp chaos` experiment.
pub mod presets {
    use super::*;

    /// The acceptance scenario: Gilbert–Elliott bursty loss with ≥30%
    /// loss in the bad state, uniform reordering, duplication, and one
    /// 200 ms blackout at t = 1 s, all on the data direction.
    pub fn bursty_blackout(seed: u64) -> Scenario {
        Scenario::new("bursty-blackout", seed)
            .forward(ImpairmentSpec::GilbertElliott {
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.25,
                loss_good: 0.0,
                loss_bad: 0.4,
            })
            .forward(ImpairmentSpec::Reorder {
                prob: 0.05,
                max_extra_us: 2_000,
            })
            .forward(ImpairmentSpec::Duplicate {
                prob: 0.02,
                copies: 1,
            })
            .forward(ImpairmentSpec::Blackout {
                start_us: 1_000_000,
                duration_us: 200_000,
                period_us: None,
            })
    }

    /// Pure bursty loss at a tunable severity: `p_bad` is the loss rate
    /// inside bursts; mean burst length is 4 packets.
    pub fn bursty_loss(seed: u64, p_bad: f64) -> Scenario {
        Scenario::new("bursty-loss", seed).forward(ImpairmentSpec::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.25,
            loss_good: 0.0,
            loss_bad: p_bad,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_seeds_are_pairwise_distinct() {
        let s = Scenario::new("x", 42);
        let mut seeds = Vec::new();
        for dir in [Direction::Forward, Direction::Reverse] {
            for i in 0..8 {
                seeds.push(s.stage_seed(dir, i));
            }
        }
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "stage seed collision");
    }

    #[test]
    fn both_adds_to_both_directions() {
        let s = Scenario::new("b", 1).both(ImpairmentSpec::Jitter { max_us: 10 });
        assert_eq!(s.forward.len(), 1);
        assert_eq!(s.reverse.len(), 1);
        assert!(!s.is_transparent());
        assert!(Scenario::new("t", 1).is_transparent());
    }

    #[test]
    fn build_respects_stage_order() {
        let chain = presets::bursty_blackout(7).build(Direction::Forward);
        let names: Vec<_> = chain.counter_handles().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["gilbert-elliott", "reorder", "duplicate", "blackout"]
        );
        // Reverse direction of this preset is transparent.
        assert!(presets::bursty_blackout(7)
            .build(Direction::Reverse)
            .is_empty());
    }
}
