//! SABUL's MIMD rate controller (§2.3), kept as a baseline.
//!
//! SABUL — UDT's predecessor — tuned the packet sending period with a
//! *multiplicative* increase proportional to the current sending rate, over
//! the same constant SYN interval. The paper replaced it because, per Chiu
//! and Jain's analysis, MIMD does not converge to a fairness equilibrium:
//! two SABUL flows keep whatever rate ratio they start with (shown by
//! `bench exp abl_sabul`). Efficiency is comparable to UDT, which is exactly the
//! paper's point: the congestion-control change bought fairness, not speed.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use udt_proto::{SeqNo, SeqRange};

use crate::clock::Nanos;
use crate::rate::{CcContext, RateControl};

/// SABUL MIMD rate control.
pub struct SabulCc {
    /// Multiplicative rate gain per SYN with no loss (rate ×= 1 + α).
    alpha: f64,
    syn_us: f64,
    pkt_snd_period_us: f64,
    cwnd: f64,
    last_rc_time: Option<Nanos>,
    loss_since_inc: bool,
    slow_start: bool,
    last_ack: SeqNo,
}

impl SabulCc {
    /// Default gain: 1/64 per SYN (≈ 56 %/s compound growth), matching the
    /// aggressive probing SABUL was known for.
    pub const DEFAULT_ALPHA: f64 = 1.0 / 64.0;

    /// New controller.
    pub fn new(init_seq: SeqNo, alpha: f64) -> SabulCc {
        SabulCc {
            alpha,
            syn_us: crate::clock::SYN_US,
            // Window-paced slow start, like UDT: the period is nominal
            // until the first rate measurement or loss.
            pkt_snd_period_us: 1.0,
            cwnd: 16.0,
            last_rc_time: None,
            loss_since_inc: false,
            slow_start: true,
            last_ack: init_seq,
        }
    }

    /// Current rate in packets/second.
    pub fn send_rate_pps(&self) -> f64 {
        1e6 / self.pkt_snd_period_us
    }
}

impl RateControl for SabulCc {
    fn on_ack(&mut self, ack: SeqNo, ctx: &CcContext) {
        match self.last_rc_time {
            Some(t) if ctx.now.since(t) < Nanos::from_micros(self.syn_us as u64) => return,
            _ => self.last_rc_time = Some(ctx.now),
        }
        if self.slow_start {
            self.cwnd += f64::from(self.last_ack.offset_to(ack).max(0));
            self.last_ack = ack;
            if self.cwnd > ctx.max_cwnd {
                self.slow_start = false;
                if ctx.recv_rate_pps > 0.0 {
                    self.pkt_snd_period_us = 1e6 / ctx.recv_rate_pps;
                }
            }
            return;
        }
        // SABUL has a static flow window; mirror it at the negotiated max.
        self.cwnd = ctx.max_cwnd;
        if self.loss_since_inc {
            self.loss_since_inc = false;
            return;
        }
        // MIMD increase: rate ×= (1 + α)  ⇔  period ÷= (1 + α).
        self.pkt_snd_period_us /= 1.0 + self.alpha;
        if self.pkt_snd_period_us < ctx.min_snd_period_us {
            self.pkt_snd_period_us = ctx.min_snd_period_us;
        }
        if self.pkt_snd_period_us < 1e-3 {
            self.pkt_snd_period_us = 1e-3;
        }
    }

    fn on_loss(&mut self, losses: &[SeqRange], ctx: &CcContext) {
        if losses.is_empty() {
            return;
        }
        if self.slow_start {
            self.slow_start = false;
            if ctx.recv_rate_pps > 0.0 {
                self.pkt_snd_period_us = 1e6 / ctx.recv_rate_pps;
            }
        }
        if !self.loss_since_inc {
            // One decrease per SYN round, same 1/8 stretch as UDT.
            self.pkt_snd_period_us *= 1.125;
            self.loss_since_inc = true;
        }
        if self.pkt_snd_period_us > 1e6 {
            self.pkt_snd_period_us = 1e6;
        }
    }

    fn on_timeout(&mut self, _ctx: &CcContext) {
        self.slow_start = false;
    }

    fn pkt_snd_period_us(&self) -> f64 {
        self.pkt_snd_period_us
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn name(&self) -> &'static str {
        "sabul"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(now_us: u64) -> CcContext {
        CcContext {
            now: Nanos::from_micros(now_us),
            rtt_us: 10_000.0,
            bandwidth_pps: 83_333.0,
            recv_rate_pps: 10_000.0,
            mss: 1500,
            max_cwnd: 100.0,
            snd_curr_seq: SeqNo::new(1_000),
            min_snd_period_us: 0.0,
        }
    }

    fn exit_slow_start(cc: &mut SabulCc) {
        cc.on_loss(&[SeqRange::single(SeqNo::new(1))], &ctx(1));
        cc.loss_since_inc = false;
    }

    #[test]
    fn mimd_increase_is_multiplicative() {
        let mut cc = SabulCc::new(SeqNo::ZERO, SabulCc::DEFAULT_ALPHA);
        exit_slow_start(&mut cc);
        let r0 = cc.send_rate_pps();
        cc.on_ack(SeqNo::new(10), &ctx(20_000));
        cc.on_ack(SeqNo::new(20), &ctx(40_000));
        let r2 = cc.send_rate_pps();
        let want = r0 * (1.0 + SabulCc::DEFAULT_ALPHA).powi(2);
        assert!((r2 - want).abs() / want < 1e-9);
    }

    #[test]
    fn loss_decreases_once_per_round() {
        let mut cc = SabulCc::new(SeqNo::ZERO, SabulCc::DEFAULT_ALPHA);
        exit_slow_start(&mut cc);
        let p0 = cc.pkt_snd_period_us();
        cc.on_loss(&[SeqRange::single(SeqNo::new(5))], &ctx(50_000));
        cc.on_loss(&[SeqRange::single(SeqNo::new(6))], &ctx(50_001));
        assert!((cc.pkt_snd_period_us() - p0 * 1.125).abs() < 1e-9);
    }

    #[test]
    fn mimd_preserves_rate_ratio() {
        // The fairness failure UDT fixed: two flows with a 4:1 rate ratio
        // keep it under synchronized increase/decrease.
        let mut a = SabulCc::new(SeqNo::ZERO, SabulCc::DEFAULT_ALPHA);
        let mut b = SabulCc::new(SeqNo::ZERO, SabulCc::DEFAULT_ALPHA);
        exit_slow_start(&mut a);
        exit_slow_start(&mut b);
        a.pkt_snd_period_us = 100.0;
        b.pkt_snd_period_us = 400.0;
        let mut now = 1_000_000u64;
        for round in 0..200 {
            now += 20_000;
            if round % 10 == 9 {
                a.on_loss(&[SeqRange::single(SeqNo::new(round))], &ctx(now));
                b.on_loss(&[SeqRange::single(SeqNo::new(round))], &ctx(now));
            } else {
                a.on_ack(SeqNo::new(round), &ctx(now));
                b.on_ack(SeqNo::new(round), &ctx(now));
            }
        }
        let ratio = a.send_rate_pps() / b.send_rate_pps();
        assert!((ratio - 4.0).abs() < 0.01, "MIMD ratio drifted: {ratio}");
    }
}
