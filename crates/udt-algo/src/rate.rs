//! The UDT congestion controller (§3.3–§3.5).
//!
//! Rate control is the primary mechanism: the sender spaces data packets by
//! a *packet sending period* `P`. Every SYN (0.01 s), if no loss was
//! reported since the last adjustment, the rate is increased additively
//! (formula 2):
//!
//! ```text
//! SYN/P_new = SYN/P_old + inc
//! ```
//!
//! where the increase parameter `inc` (packets per SYN) is derived from the
//! **estimated available bandwidth** `B` (formula 1 / Table 1):
//!
//! ```text
//! inc = max( 10^⌈log10(B·MSS·8)⌉ · 1.5·10⁻⁶ · (1500/MSS) / 1500 , 1/MSS )
//!     = max( 10^⌈log10(B_bits)⌉ · β / MSS , 1/MSS ),   β = 1.5·10⁻⁶
//! ```
//!
//! On a loss report for *new* data (sequence numbers beyond the horizon of
//! the last decrease) the period is stretched multiplicatively (formula 3,
//! `P ← 1.125·P`, i.e. rate × 8/9) and sending freezes for one SYN to let
//! the queue drain. Loss reports *within* the same congestion event do not
//! each trigger a decrease — that would collapse the rate under the bursty
//! loss of Figure 8; instead, following the released UDT implementation, a
//! bounded number of additional randomized decreases (at most 5, i.e. rate
//! ≥ 0.875⁵ ≈ ½ of the pre-congestion rate) spreads flow back-off within an
//! event. Set [`UdtCcConfig::per_nak_decrease`] for the paper-literal
//! behaviour (ablation `bench exp abl_*`).
//!
//! Bandwidth estimation (§3.4): the receiver's packet-pair filter yields the
//! link capacity `L` (packets/s, shipped in every full ACK). The available
//! bandwidth is `L − C` (with `C` the current sending rate) while sending
//! above the last-decrease rate, and `min(L/9, L − C)` below it — the `L/9`
//! term being the surplus freed when every flow cut its rate by 1/9.
//! Because all flows sharing a bottleneck see (approximately) the same `L`,
//! faster flows cannot increase faster, which is what drives convergence to
//! fairness (Figure 2).

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use udt_proto::{SeqNo, SeqRange};

use crate::clock::Nanos;

/// Per-call environment handed to the congestion controller by its host
/// (the real socket or the simulated endpoint).
#[derive(Debug, Clone, Copy)]
pub struct CcContext {
    /// Current time.
    pub now: Nanos,
    /// Smoothed RTT, microseconds.
    pub rtt_us: f64,
    /// Link capacity estimate `L` from the receiver's packet-pair filter,
    /// packets/second (0 while unknown).
    pub bandwidth_pps: f64,
    /// Packet arrival speed `AS` reported by the receiver, packets/second.
    pub recv_rate_pps: f64,
    /// Maximum segment size, bytes.
    pub mss: u32,
    /// Maximum congestion window (the flow-window cap), packets.
    pub max_cwnd: f64,
    /// Largest data sequence number sent so far.
    pub snd_curr_seq: SeqNo,
    /// Floor on the sending period: the measured wall-clock cost of one
    /// `send()` (§4.4, "preventing rate control from being impaired").
    /// Zero in simulation.
    pub min_snd_period_us: f64,
}

/// A rate-based congestion-control algorithm.
///
/// UDT implements [`UdtCc`]; SABUL's MIMD controller implements the same
/// interface in [`crate::sabul`], and the `bench` crate's ablations swap
/// them freely — this is the paper's §7 point that the implementation is
/// "designed so that alternate congestion control algorithms can be
/// tested".
pub trait RateControl: Send {
    /// An ACK for data up to `ack` (exclusive) was processed.
    fn on_ack(&mut self, ack: SeqNo, ctx: &CcContext);
    /// A NAK reporting `losses` was received.
    fn on_loss(&mut self, losses: &[SeqRange], ctx: &CcContext);
    /// The EXP timer fired with no feedback from the peer.
    fn on_timeout(&mut self, ctx: &CcContext);
    /// Current inter-packet sending period, microseconds.
    fn pkt_snd_period_us(&self) -> f64;
    /// Current congestion window, packets.
    fn cwnd(&self) -> f64;
    /// True once, right after a decrease that should freeze sending for one
    /// SYN (§3.3). Cleared by the call.
    fn take_freeze(&mut self) -> bool {
        false
    }
    /// Short algorithm name for traces.
    fn name(&self) -> &'static str;
}

/// Tunables for [`UdtCc`] (defaults reproduce the paper).
#[derive(Debug, Clone)]
pub struct UdtCcConfig {
    /// Rate-control interval, microseconds (the SYN constant; §3.7 discusses
    /// the trade-off this sets — sweep it with `bench exp abl_syn`).
    pub syn_us: f64,
    /// Use the bandwidth-estimation-driven increase (formula 1). When
    /// `false` the fixed increase `fixed_inc_pkts` is used instead
    /// (ablation: what the paper says plain AIMD would do).
    pub use_bwe: bool,
    /// Fixed increase (packets/SYN) when `use_bwe` is off.
    pub fixed_inc_pkts: f64,
    /// Decrease on *every* NAK (paper formula 3 read literally) instead of
    /// only on new congestion events + bounded randomized decreases.
    pub per_nak_decrease: bool,
    /// RNG seed for the randomized within-event decrease.
    pub seed: u64,
}

impl Default for UdtCcConfig {
    fn default() -> UdtCcConfig {
        UdtCcConfig {
            syn_us: crate::clock::SYN_US,
            use_bwe: true,
            fixed_inc_pkts: 1.0,
            per_nak_decrease: false,
            seed: 0x5EED_u64,
        }
    }
}

/// Formula (1): increase parameter (packets per SYN) for an available
/// bandwidth of `bw_avail_bits` bits/second and segment size `mss` bytes.
///
/// Exposed as a free function so Table 1 can be pinned by tests and printed
/// by `bench exp tbl1`.
pub fn increase_param(bw_avail_bits: f64, mss: u32) -> f64 {
    let mss = f64::from(mss);
    if bw_avail_bits <= 0.0 {
        return 1.0 / mss;
    }
    let exp = bw_avail_bits.log10().ceil();
    let inc = 10f64.powf(exp) * 1.5e-6 / mss;
    inc.max(1.0 / mss)
}

/// The UDT congestion controller.
pub struct UdtCc {
    cfg: UdtCcConfig,
    pkt_snd_period_us: f64,
    cwnd: f64,
    slow_start: bool,
    last_ack: SeqNo,
    /// Loss seen since the last rate increase (suppresses the next one).
    loss_since_inc: bool,
    last_dec_seq: SeqNo,
    last_dec_period_us: f64,
    nak_count: u32,
    dec_count: u32,
    avg_nak_num: u32,
    dec_random: u32,
    last_rc_time: Option<Nanos>,
    freeze: bool,
    rng: SmallRng,
}

impl UdtCc {
    /// New controller for a connection whose first data packet will carry
    /// `init_seq`.
    pub fn new(init_seq: SeqNo, cfg: UdtCcConfig) -> UdtCc {
        UdtCc {
            rng: SmallRng::seed_from_u64(cfg.seed),
            cfg,
            pkt_snd_period_us: 1.0,
            cwnd: 16.0,
            slow_start: true,
            last_ack: init_seq,
            loss_since_inc: false,
            last_dec_seq: init_seq.prev(),
            last_dec_period_us: 1.0,
            nak_count: 0,
            dec_count: 1,
            avg_nak_num: 1,
            dec_random: 1,
            last_rc_time: None,
            freeze: false,
        }
    }

    /// Controller with default configuration.
    pub fn with_defaults(init_seq: SeqNo) -> UdtCc {
        UdtCc::new(init_seq, UdtCcConfig::default())
    }

    /// Whether the controller is still in its slow-start phase.
    pub fn in_slow_start(&self) -> bool {
        self.slow_start
    }

    /// Current sending rate in packets/second implied by the period.
    pub fn send_rate_pps(&self) -> f64 {
        1e6 / self.pkt_snd_period_us
    }

    fn clamp_period(&mut self, ctx: &CcContext) {
        // §4.4: never let the nominal period drop below the real per-packet
        // send cost, or the flow window silently becomes the controller and
        // the period drifts meaninglessly low.
        if self.pkt_snd_period_us < ctx.min_snd_period_us {
            self.pkt_snd_period_us = ctx.min_snd_period_us;
        }
        // Keep the period finite (1 pkt/s floor) so a zero recv-rate report
        // cannot stall the connection forever.
        // NaN-safe upper clamp (a NaN period would poison the pacing loop).
        if self.pkt_snd_period_us.is_nan() || self.pkt_snd_period_us > 1e6 {
            self.pkt_snd_period_us = 1e6;
        }
        if self.pkt_snd_period_us < 1e-3 {
            self.pkt_snd_period_us = 1e-3;
        }
    }

    fn decrease(&mut self, ctx: &CcContext) {
        self.last_dec_period_us = self.pkt_snd_period_us;
        self.pkt_snd_period_us *= 1.125;
        self.last_dec_seq = ctx.snd_curr_seq;
    }
}

impl RateControl for UdtCc {
    fn on_ack(&mut self, ack: SeqNo, ctx: &CcContext) {
        // Rate adjustments are clocked at the SYN interval regardless of how
        // often ACKs arrive.
        match self.last_rc_time {
            Some(t) if ctx.now.since(t) < Nanos::from_micros(self.cfg.syn_us as u64) => return,
            _ => self.last_rc_time = Some(ctx.now),
        }

        if self.slow_start {
            let advanced = f64::from(self.last_ack.offset_to(ack).max(0));
            self.cwnd += advanced;
            self.last_ack = ack;
            if self.cwnd > ctx.max_cwnd {
                self.slow_start = false;
                if ctx.recv_rate_pps > 0.0 {
                    self.pkt_snd_period_us = 1e6 / ctx.recv_rate_pps;
                } else {
                    self.pkt_snd_period_us = (ctx.rtt_us + self.cfg.syn_us) / self.cwnd;
                }
                self.clamp_period(ctx);
                // The transition tick sets the period from the measured
                // receive rate; additive increase starts next SYN.
                return;
            }
        } else {
            // §3.2: W = AS·(SYN + RTT); the +16 floor keeps the window from
            // starving the estimator when AS reads low.
            self.cwnd = ctx.recv_rate_pps / 1e6 * (ctx.rtt_us + self.cfg.syn_us) + 16.0;
        }

        if self.slow_start {
            return;
        }
        if self.loss_since_inc {
            self.loss_since_inc = false;
            return;
        }

        let inc = if self.cfg.use_bwe {
            // Available bandwidth in packets/s: capacity minus current rate,
            // capped at L/9 while recovering from a decrease (§3.4).
            let mut avail_pps = ctx.bandwidth_pps - 1e6 / self.pkt_snd_period_us;
            if self.pkt_snd_period_us > self.last_dec_period_us
                && ctx.bandwidth_pps / 9.0 < avail_pps
            {
                avail_pps = ctx.bandwidth_pps / 9.0;
            }
            if avail_pps <= 0.0 {
                1.0 / f64::from(ctx.mss)
            } else {
                increase_param(avail_pps * f64::from(ctx.mss) * 8.0, ctx.mss)
            }
        } else {
            self.cfg.fixed_inc_pkts
        };

        // Formula (2): SYN/P' = SYN/P + inc  ⇒  P' = P·SYN / (P·inc + SYN).
        let syn = self.cfg.syn_us;
        self.pkt_snd_period_us =
            self.pkt_snd_period_us * syn / (self.pkt_snd_period_us * inc + syn);
        self.clamp_period(ctx);
    }

    fn on_loss(&mut self, losses: &[SeqRange], ctx: &CcContext) {
        if losses.is_empty() {
            return;
        }
        if self.slow_start {
            self.slow_start = false;
            if ctx.recv_rate_pps > 0.0 {
                self.pkt_snd_period_us = 1e6 / ctx.recv_rate_pps;
            } else {
                self.pkt_snd_period_us = (ctx.rtt_us + self.cfg.syn_us) / self.cwnd.max(1.0);
            }
            self.clamp_period(ctx);
        }

        self.loss_since_inc = true;
        let first_lost = losses[0].from;

        if self.last_dec_seq.lt_seq(first_lost) {
            // Loss of data sent after the last decrease: a new congestion
            // event. Decrease (formula 3), freeze one SYN (§3.3), reseed the
            // randomized within-event decrease schedule.
            self.decrease(ctx);
            self.freeze = true;
            self.avg_nak_num =
                (f64::from(self.avg_nak_num) * 0.875 + f64::from(self.nak_count) * 0.125).ceil() as u32;
            self.nak_count = 1;
            self.dec_count = 1;
            self.dec_random = self.rng.gen_range(1..=self.avg_nak_num.max(1));
        } else if self.cfg.per_nak_decrease {
            self.decrease(ctx);
        } else {
            self.nak_count += 1;
            if self.dec_count <= 5 && self.nak_count.is_multiple_of(self.dec_random.max(1)) {
                // 0.875^5 ≈ 0.51: within one event the rate never falls
                // below half of its pre-congestion value.
                self.decrease(ctx);
                self.dec_count += 1;
            }
        }
        self.clamp_period(ctx);
    }

    fn on_timeout(&mut self, ctx: &CcContext) {
        if self.slow_start {
            self.slow_start = false;
            if ctx.recv_rate_pps > 0.0 {
                self.pkt_snd_period_us = 1e6 / ctx.recv_rate_pps;
            } else {
                self.pkt_snd_period_us = (ctx.rtt_us + self.cfg.syn_us) / self.cwnd.max(1.0);
            }
            self.clamp_period(ctx);
        }
        // The released UDT leaves the period unchanged on EXP timeouts (an
        // experimental 2× stretch is disabled in the reference code); the
        // EXP machinery instead re-queues in-flight packets for loss repair.
    }

    fn pkt_snd_period_us(&self) -> f64 {
        self.pkt_snd_period_us
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn take_freeze(&mut self) -> bool {
        std::mem::take(&mut self.freeze)
    }

    fn name(&self) -> &'static str {
        "udt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SYN_US;

    fn ctx(now_us: u64, snd_seq: u32) -> CcContext {
        CcContext {
            now: Nanos::from_micros(now_us),
            rtt_us: 100_000.0,
            bandwidth_pps: 83_333.0, // ~1 Gb/s at 1500 B
            recv_rate_pps: 40_000.0,
            mss: 1500,
            max_cwnd: 10_000.0,
            snd_curr_seq: SeqNo::new(snd_seq),
            min_snd_period_us: 0.0,
        }
    }

    /// Table 1 of the paper, MSS = 1500 B.
    #[test]
    fn table1_rows_pinned() {
        let rows: &[(f64, f64)] = &[
            (10e9, 10.0),
            (1e9, 1.0),
            (100e6, 0.1),
            (10e6, 0.01),
            (1e6, 0.001),
            (100e3, 1.0 / 1500.0), // floored at 1/MSS = 0.00067
        ];
        for &(b, want) in rows {
            let got = increase_param(b, 1500);
            assert!(
                (got - want).abs() < 1e-9,
                "B={b}: inc={got}, want {want}"
            );
        }
    }

    #[test]
    fn table1_band_edges() {
        // Exactly 1 Gb/s sits in the (100 Mb/s, 1 Gb/s] band → inc = 1.
        assert!((increase_param(1e9, 1500) - 1.0).abs() < 1e-9);
        // Just above moves to the next band → inc = 10.
        assert!((increase_param(1.0001e9, 1500) - 10.0).abs() < 1e-9);
        // Just below stays, at 0.999e9 ceil(log10)=9 → inc = 1.
        assert!((increase_param(0.999e9, 1500) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table1_mss_correction() {
        // Paper: "If MSS is not 1500 bytes, the increments will be corrected
        // by the ratio of 1500/MSS" — i.e. inc scales as 1/MSS.
        let inc_1500 = increase_param(1e9, 1500);
        let inc_9000 = increase_param(1e9, 9000);
        assert!((inc_9000 - inc_1500 * 1500.0 / 9000.0).abs() < 1e-12);
    }

    #[test]
    fn negative_bandwidth_floors() {
        assert!((increase_param(-5.0, 1500) - 1.0 / 1500.0).abs() < 1e-12);
        assert!((increase_param(0.0, 1500) - 1.0 / 1500.0).abs() < 1e-12);
    }

    #[test]
    fn slow_start_grows_window_then_exits() {
        let mut cc = UdtCc::with_defaults(SeqNo::ZERO);
        assert!(cc.in_slow_start());
        let mut now = 0u64;
        let mut acked = 0u32;
        while cc.in_slow_start() && now < 10_000_000 {
            now += SYN_US as u64;
            acked += 2_000;
            cc.on_ack(SeqNo::new(acked), &ctx(now, acked + 100));
        }
        assert!(!cc.in_slow_start(), "never exited slow start");
        // Period set from the receive rate: 1e6/40_000 = 25 µs.
        assert!((cc.pkt_snd_period_us() - 25.0).abs() < 1e-6);
    }

    #[test]
    fn loss_exits_slow_start() {
        let mut cc = UdtCc::with_defaults(SeqNo::ZERO);
        cc.on_loss(&[SeqRange::single(SeqNo::new(5))], &ctx(100, 50));
        assert!(!cc.in_slow_start());
        assert!(cc.take_freeze(), "new congestion event must freeze");
        assert!(!cc.take_freeze(), "freeze is one-shot");
    }

    fn warmed_cc(period_us: f64) -> UdtCc {
        let mut cc = UdtCc::with_defaults(SeqNo::ZERO);
        cc.on_loss(&[SeqRange::single(SeqNo::new(1))], &ctx(10, 10));
        cc.take_freeze();
        cc.pkt_snd_period_us = period_us;
        cc.last_dec_period_us = period_us;
        cc
    }

    #[test]
    fn ack_applies_formula_2() {
        let mut cc = warmed_cc(100.0); // 10_000 pps
        let c = ctx(1_000_000, 100);
        cc.on_ack(SeqNo::new(50), &c);
        cc.loss_since_inc = false;
        let before = cc.pkt_snd_period_us();
        // Next SYN boundary.
        let c2 = ctx(1_020_000, 120);
        cc.on_ack(SeqNo::new(60), &c2);
        let after = cc.pkt_snd_period_us();
        // Available bw ≈ 83_333 − 10_000 pps ≈ 880 Mb/s → inc = 1 pkt/SYN.
        let want = before * SYN_US / (before * 1.0 + SYN_US);
        assert!((after - want).abs() < 1e-9, "after={after} want={want}");
        assert!(after < before);
    }

    #[test]
    fn rate_updates_gated_at_syn() {
        let mut cc = warmed_cc(100.0);
        cc.on_ack(SeqNo::new(10), &ctx(1_000_000, 50));
        cc.loss_since_inc = false;
        let p0 = cc.pkt_snd_period_us();
        // 1 ms later: below the SYN interval, must be a no-op.
        cc.on_ack(SeqNo::new(11), &ctx(1_001_000, 51));
        assert_eq!(cc.pkt_snd_period_us(), p0);
    }

    #[test]
    fn new_congestion_event_decreases_and_freezes() {
        let mut cc = warmed_cc(100.0);
        let c = ctx(2_000_000, 500);
        cc.on_loss(&[SeqRange::single(SeqNo::new(400))], &c);
        assert!((cc.pkt_snd_period_us() - 112.5).abs() < 1e-9);
        assert!(cc.take_freeze());
    }

    #[test]
    fn repeat_loss_in_same_event_does_not_always_decrease() {
        let mut cc = warmed_cc(100.0);
        let c = ctx(2_000_000, 500);
        cc.on_loss(&[SeqRange::single(SeqNo::new(400))], &c);
        cc.take_freeze();
        let p_after_event = cc.pkt_snd_period_us();
        // Losses behind the last-decrease horizon: bounded extra decreases,
        // never more than 5 → period ≤ p · 1.125^5.
        for s in 0..50u32 {
            cc.on_loss(&[SeqRange::single(SeqNo::new(401 + s))], &ctx(2_000_000 + u64::from(s), 500));
        }
        let cap = p_after_event * 1.125f64.powi(5) + 1e-6;
        assert!(
            cc.pkt_snd_period_us() <= cap,
            "period {} exceeds bounded-decrease cap {}",
            cc.pkt_snd_period_us(),
            cap
        );
        assert!(!cc.take_freeze(), "no freeze within an ongoing event");
    }

    #[test]
    fn per_nak_mode_decreases_every_time() {
        let mut cc = UdtCc::new(
            SeqNo::ZERO,
            UdtCcConfig {
                per_nak_decrease: true,
                ..UdtCcConfig::default()
            },
        );
        let c = ctx(2_000_000, 500);
        cc.on_loss(&[SeqRange::single(SeqNo::new(400))], &c); // exits SS
        cc.pkt_snd_period_us = 100.0;
        cc.last_dec_seq = SeqNo::new(1000); // pretend horizon ahead
        let p0 = cc.pkt_snd_period_us();
        cc.on_loss(&[SeqRange::single(SeqNo::new(500))], &c);
        cc.on_loss(&[SeqRange::single(SeqNo::new(501))], &c);
        assert!((cc.pkt_snd_period_us() - p0 * 1.125 * 1.125).abs() < 1e-9);
    }

    #[test]
    fn min_period_clamp_applies() {
        let mut cc = warmed_cc(1.0);
        cc.loss_since_inc = false;
        let mut c = ctx(3_000_000, 999);
        c.min_snd_period_us = 12.0; // a GigE NIC's ~12 µs per 1500 B packet
        cc.on_ack(SeqNo::new(700), &c);
        assert!(cc.pkt_snd_period_us() >= 12.0);
    }

    #[test]
    fn recovery_time_to_90_percent_matches_paper() {
        // §3.3: "UDT can recover 90% of the available bandwidth after a
        // single loss in 7.5 seconds" — derived in the paper as a climb to
        // 0.9·L at an L/9-capped available bandwidth (inc = 1 pkt/SYN on a
        // 1 Gb/s link: dRate/dt = 1.2·10⁸ b/s², so 0.9·10⁹ / 1.2·10⁸ = 7.5).
        let capacity_pps = 1e9 / (1500.0 * 8.0); // 83_333 pps
        let mut cc = warmed_cc(1_000.0); // knocked down to 1000 pps
        cc.loss_since_inc = false;
        cc.last_dec_period_us = 12.0; // the decrease happened near capacity
        let mut now_us = 0u64;
        let mut syns = 0u32;
        while cc.send_rate_pps() < 0.9 * capacity_pps && syns < 10_000 {
            now_us += SYN_US as u64;
            syns += 1;
            let mut c = ctx(now_us, syns * 1000);
            c.bandwidth_pps = capacity_pps;
            cc.on_ack(SeqNo::new(syns * 900), &c);
        }
        let secs = f64::from(syns) * SYN_US / 1e6;
        assert!(
            (6.0..9.0).contains(&secs),
            "took {secs:.2}s to recover to 90% of 1 Gb/s; paper derives 7.5s"
        );
    }
}
