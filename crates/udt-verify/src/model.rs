//! The protocol model: one sender, one receiver, one lossy network, built
//! from the *real* data structures (`SndBuffer`/`RcvBuffer` from `udt`) and
//! driving the *real* event core (`udt_algo::conn`: the same `SndCore` and
//! `RcvCore` calls `udt::conn` makes for data, ACK, ACK2, NAK and the
//! timers). There are no threads and no randomness, and the clock is the
//! model checker's: it owns the schedule, so every interleaving the
//! transport could experience — reorder, loss, duplication, crossing ACKs
//! and NAKs, a lost ACK2, timers firing in between — is a path in a finite
//! graph.
//!
//! Time is abstracted to what the sequencing depends on. A delivery takes a
//! microsecond; a timer action means "time passes until this timer has
//! something to do", so the core's own time gates (the ACK repeat interval,
//! the EXP interval, the progress clock) decide *what* happens and the model
//! only decides *that* enough time went by. Periodic NAK reports are left
//! out (as before): a lost NAK is repaired through the EXP timer.
//!
//! Payload bytes encode their position in the stream, which is what lets
//! [`Model::check`] prove end-to-end properties ("no byte delivered twice
//! or out of order") and not just structural ones.

// Numeric casts in this module are deliberate: bounded protocol arithmetic,
// 32-bit wire fields, and clock/rate conversions whose ranges are argued at
// the cast sites. Sequence/timestamp casts are separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use std::hash::{Hash, Hasher};

use bytes::Bytes;
use udt::buffer::{RcvBuffer, SndBuffer};
use udt_algo::clock::{Nanos, SYN};
use udt_algo::conn::{CoreTrace, DataVerdict, RcvCore, SndCfg, SndCore, TimerAction};
use udt_algo::{CcContext, RateControl};
use udt_proto::ctrl::AckData;
use udt_proto::{SeqNo, SeqRange};

/// Payload bytes per modelled packet. Two bytes encode offsets up to
/// 65535, far beyond any bounded run.
pub const PAYLOAD: usize = 2;

/// One bounded-run configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Data packets the sender must move (4–8 keeps runs exhaustive).
    pub total_pkts: u32,
    /// Initial sequence number (straddle 2^31 by starting near `SEQ_MAX`).
    pub init_seq: SeqNo,
    /// Flow window in packets: hard cap on sent-but-unacknowledged data.
    pub window: u32,
    /// Network fault budget: packets the schedule may destroy.
    pub max_drops: u32,
    /// Network fault budget: packets the schedule may duplicate.
    pub max_dups: u32,
    /// Receiver buffer capacity, packets.
    pub buf_pkts: usize,
}

impl Config {
    /// Compact textual form, embedded in replay seeds:
    /// `p<total>w<win>d<drops>u<dups>b<buf>s<init_seq>`.
    pub fn encode(&self) -> String {
        format!(
            "p{}w{}d{}u{}b{}s{}",
            self.total_pkts,
            self.window,
            self.max_drops,
            self.max_dups,
            self.buf_pkts,
            self.init_seq.raw()
        )
    }

    /// Parse the [`Config::encode`] form.
    pub fn decode(s: &str) -> Option<Config> {
        let mut vals = Vec::new();
        let mut cur = String::new();
        for c in s.chars() {
            if c.is_ascii_digit() {
                cur.push(c);
            } else {
                if !cur.is_empty() {
                    vals.push(cur.parse::<u64>().ok()?);
                    cur.clear();
                }
                if !matches!(c, 'p' | 'w' | 'd' | 'u' | 'b' | 's') {
                    return None;
                }
            }
        }
        if !cur.is_empty() {
            vals.push(cur.parse::<u64>().ok()?);
        }
        if vals.len() != 6 {
            return None;
        }
        Some(Config {
            total_pkts: vals[0] as u32,
            window: vals[1] as u32,
            max_drops: vals[2] as u32,
            max_dups: vals[3] as u32,
            buf_pkts: vals[4] as usize,
            init_seq: SeqNo::new(vals[5] as u32),
        })
    }
}

/// A packet in flight. The network is a bag, not a queue: any element may
/// be delivered, dropped or duplicated next, which models arbitrary
/// reordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pkt {
    Data {
        seq: SeqNo,
        retx: bool,
    },
    Ack {
        ack_seq: u32,
        data: AckData,
    },
    /// `confirms` is what the ACK it answers acknowledged (the receiver
    /// looks that up by `ack_seq`; kept here to name the packet).
    Ack2 {
        ack_seq: u32,
        confirms: SeqNo,
    },
    Nak {
        from: SeqNo,
        to: SeqNo,
    },
}

impl Pkt {
    fn describe(&self) -> String {
        match self {
            Pkt::Data { seq, retx: false } => format!("DATA {seq}"),
            Pkt::Data { seq, retx: true } => format!("DATA {seq} (retx)"),
            Pkt::Ack { data, .. } => format!("ACK {}", data.rcv_next),
            Pkt::Ack2 { confirms, .. } => format!("ACK2 for ACK {confirms}"),
            Pkt::Nak { from, to } => format!("NAK {from}..={to}"),
        }
    }

    /// Canonical encoding for state hashing (bag semantics: the hash must
    /// not depend on arrival order into the vector). ACK numbers are left
    /// out: two ACKs saying the same thing, and the ACK2s answering them,
    /// have the same future.
    fn encode(&self) -> (u8, u32, u32) {
        match self {
            Pkt::Data { seq, retx } => (0, seq.raw(), u32::from(*retx)),
            Pkt::Ack { data, .. } => (1, data.rcv_next.raw(), data.avail_buf_pkts.unwrap_or(0)),
            Pkt::Nak { from, to } => (2, from.raw(), to.raw()),
            Pkt::Ack2 { confirms, .. } => (3, confirms.raw(), 0),
        }
    }
}

/// One scheduler step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Sender transmits its next packet (loss list first, then new data).
    Transmit,
    /// Network delivers in-flight packet `i` to its destination.
    Deliver(usize),
    /// Network destroys in-flight packet `i` (consumes drop budget).
    Drop(usize),
    /// Network duplicates in-flight packet `i` (consumes dup budget).
    Dup(usize),
    /// Time passes until the receiver's ACK rule sends one: a new ACK on the
    /// next SYN, a repeat of an unconfirmed one after its interval.
    AckTimer,
    /// Time passes on a silent wire until the sender's timer acts: EXP
    /// expires, and data that made no progress is queued again.
    SndTimer,
}

impl Action {
    pub fn encode(&self) -> String {
        match self {
            Action::Transmit => "T".into(),
            Action::Deliver(i) => format!("D{i}"),
            Action::Drop(i) => format!("X{i}"),
            Action::Dup(i) => format!("U{i}"),
            Action::AckTimer => "A".into(),
            Action::SndTimer => "E".into(),
        }
    }

    pub fn decode(s: &str) -> Option<Action> {
        let mut chars = s.chars();
        let head = chars.next()?;
        let rest: String = chars.collect();
        let idx = || rest.parse::<usize>().ok();
        Some(match head {
            'T' if rest.is_empty() => Action::Transmit,
            'A' if rest.is_empty() => Action::AckTimer,
            'E' if rest.is_empty() => Action::SndTimer,
            'D' => Action::Deliver(idx()?),
            'X' => Action::Drop(idx()?),
            'U' => Action::Dup(idx()?),
            _ => return None,
        })
    }
}

/// The model's rate controller: a fixed window, no pacing. What the real
/// controllers decide is how fast; the model explores every order anyway.
#[derive(Clone)]
struct FixedWindow(f64);

impl RateControl for FixedWindow {
    fn on_ack(&mut self, _: SeqNo, _: &CcContext) {}
    fn on_loss(&mut self, _: &[SeqRange], _: &CcContext) {}
    fn on_timeout(&mut self, _: &CcContext) {}
    fn pkt_snd_period_us(&self) -> f64 {
        1.0
    }
    fn cwnd(&self) -> f64 {
        self.0
    }
    fn name(&self) -> &'static str {
        "fixed-window"
    }
}

/// A timer action gives up (and the search reports it) if the core has not
/// acted after this many of its own deadlines.
const MAX_TICKS: usize = 64;

/// The full model state.
#[derive(Clone)]
pub struct Model {
    pub cfg: Config,
    // --- sender (as `udt::conn`'s `SndCtl`) ---
    snd_buffer: SndBuffer,
    snd: SndCore<FixedWindow>,
    // --- receiver (as `RcvCtl`) ---
    rcv_buffer: RcvBuffer,
    rcv: RcvCore,
    // --- application ---
    delivered: Vec<u8>,
    // --- network ---
    net: Vec<Pkt>,
    drops_used: u32,
    dups_used: u32,
    /// The model's clock (see the module docs).
    now: Nanos,
    /// A timer action found the core in a state no schedule should reach.
    fault: Option<String>,
}

impl Model {
    pub fn new(cfg: Config) -> Model {
        let total = cfg.total_pkts as usize;
        let mut snd_buffer = SndBuffer::new(total.max(1), PAYLOAD);
        // Pre-load the whole transfer; byte i of the stream is `i & 0xFF`.
        let stream: Vec<u8> = (0..total * PAYLOAD).map(|i| i as u8).collect();
        let pushed = snd_buffer.append(&stream);
        assert_eq!(pushed, stream.len(), "send buffer sized for the transfer");
        let loss_cap = (total * 2).max(16);
        let cc = Box::new(FixedWindow(f64::from(cfg.window)));
        let snd = SndCfg::new(cfg.init_seq, cc, PAYLOAD as u32, loss_cap);
        Model {
            snd_buffer,
            snd: SndCore::new(snd, Nanos::ZERO),
            rcv_buffer: RcvBuffer::new(cfg.buf_pkts, cfg.init_seq),
            rcv: RcvCore::new(
                cfg.init_seq,
                cfg.buf_pkts as u32,
                loss_cap,
                SYN,
                Nanos::ZERO,
                CoreTrace::default(),
            ),
            delivered: Vec::new(),
            net: Vec::new(),
            drops_used: 0,
            dups_used: 0,
            now: Nanos::ZERO,
            fault: None,
            cfg,
        }
    }

    /// The byte stream the receiver must observe, in order.
    fn expected_stream(&self) -> Vec<u8> {
        (0..self.cfg.total_pkts as usize * PAYLOAD)
            .map(|i| i as u8)
            .collect()
    }

    /// Packets of the transfer numbered so far.
    fn sent(&self) -> u32 {
        self.cfg.init_seq.offset_to(self.snd.snd_una()).max(0) as u32 + self.snd.in_flight()
    }

    /// The receiver heard its last ACK confirmed and has nothing new to say.
    fn rcv_quiet(&self) -> bool {
        self.rcv.frontier() == self.rcv.ack_state().1
    }

    /// Is the transfer fully done: everything delivered, acknowledged and
    /// the acknowledgement confirmed, wire drained?
    pub fn complete(&self) -> bool {
        self.delivered.len() == self.cfg.total_pkts as usize * PAYLOAD
            && self.snd.in_flight() == 0
            && self.rcv_quiet()
            && self.net.is_empty()
    }

    pub fn delivered_bytes(&self) -> usize {
        self.delivered.len()
    }

    /// All actions enabled in this state. The gates on the two timer actions
    /// are what keeps the graph finite; what a timer *does* is the core's.
    pub fn enabled(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        if self.snd.has_sendable(self.sent() < self.cfg.total_pkts) {
            acts.push(Action::Transmit);
        }
        for i in 0..self.net.len() {
            acts.push(Action::Deliver(i));
        }
        if self.drops_used < self.cfg.max_drops {
            for i in 0..self.net.len() {
                acts.push(Action::Drop(i));
            }
        }
        if self.dups_used < self.cfg.max_dups {
            for i in 0..self.net.len() {
                acts.push(Action::Dup(i));
            }
        }
        if self.can_ack_timer() {
            acts.push(Action::AckTimer);
        }
        if self.can_snd_timer() {
            acts.push(Action::SndTimer);
        }
        acts
    }

    fn can_ack_timer(&self) -> bool {
        if self.rcv_quiet() {
            return false; // the core would stay silent however long we wait
        }
        // Something new to acknowledge: always. A repeat: only once the last
        // exchange has left the wire, ACK2 included — a lost ACK or ACK2 must
        // be recoverable, but copies must not pile up without bound.
        self.rcv.frontier() != self.rcv.ack_state().0
            || !self
                .net
                .iter()
                .any(|p| matches!(p, Pkt::Ack { .. } | Pkt::Ack2 { .. }))
    }

    fn can_snd_timer(&self) -> bool {
        // Wire silent, nothing queued for retransmission, data outstanding:
        // where `on_timer` has a repair to make.
        self.net.is_empty() && self.snd.loss_ranges().is_empty() && self.snd.in_flight() > 0
    }

    /// Apply one action. Returns a human-readable description of what
    /// happened (for `--replay`). Panics if the action is not enabled —
    /// the search only feeds enabled actions, and replay validates first.
    pub fn step(&mut self, a: Action) -> String {
        self.now = self.now.plus(Nanos::from_micros(1));
        match a {
            Action::Transmit => {
                let more = self.sent() < self.cfg.total_pkts;
                let (seq, retx) = self.snd.next(|_| more).expect("Transmit is enabled");
                self.net.push(Pkt::Data { seq, retx });
                format!("sender transmits {}", Pkt::Data { seq, retx }.describe())
            }
            Action::Deliver(i) => {
                let pkt = self.net.remove(i);
                let desc = format!("deliver {}", pkt.describe());
                match pkt {
                    Pkt::Data { seq, .. } => self.recv_data(seq),
                    Pkt::Ack { ack_seq, data } => self.recv_ack(ack_seq, &data),
                    Pkt::Ack2 { ack_seq, .. } => {
                        self.rcv.on_ack2(self.now, ack_seq);
                    }
                    Pkt::Nak { from, to } => {
                        self.snd.on_arrival(self.now);
                        let mut ranges = vec![SeqRange::new(from, to)];
                        self.snd.on_nak(self.now, &mut ranges, 0.0);
                    }
                }
                desc
            }
            Action::Drop(i) => {
                let pkt = self.net.remove(i);
                self.drops_used += 1;
                format!("network drops {}", pkt.describe())
            }
            Action::Dup(i) => {
                let pkt = self.net[i].clone();
                self.dups_used += 1;
                let desc = format!("network duplicates {}", pkt.describe());
                self.net.push(pkt);
                desc
            }
            Action::AckTimer => {
                let (base, cap) = (self.rcv_buffer.base_seq(), self.cfg.buf_pkts as u32);
                for _ in 0..MAX_TICKS {
                    // SYN by SYN at first, then faster: the repeat interval
                    // follows the RTT samples, and those include our waits.
                    self.now = self
                        .now
                        .plus(SYN.max(self.now.since(self.rcv.last_ack_time())));
                    if let Some((ack_seq, data)) = self.rcv.ack(self.now, base, cap) {
                        self.net.push(Pkt::Ack { ack_seq, data });
                        return format!("receiver emits ACK {}", data.rcv_next);
                    }
                }
                self.fault = Some("the ACK rule stayed silent with an unconfirmed ACK".into());
                "receiver's ACK timer: nothing".into()
            }
            Action::SndTimer => {
                for _ in 0..MAX_TICKS {
                    self.now = self.now.max(self.snd.next_deadline());
                    match self.snd.on_timer(self.now, 0.0) {
                        TimerAction::None => {}
                        TimerAction::Requeued => {
                            let r = self.snd.loss_ranges();
                            return format!("EXP requeues {}..={}", r[0].from, r[0].to);
                        }
                        other => {
                            self.fault = Some(format!("{other:?} with data outstanding"));
                            return format!("sender's timer: {other:?}");
                        }
                    }
                }
                self.fault = Some("the sender's timer never repaired outstanding data".into());
                "sender's timer: nothing".into()
            }
        }
    }

    /// Receiver side of a data arrival, as `udt::conn`'s `handle_data`.
    fn recv_data(&mut self, seq: SeqNo) {
        let (base, cap) = (self.rcv_buffer.base_seq(), self.cfg.buf_pkts as u32);
        self.rcv.on_arrivals([(seq, 0, self.now)]);
        match self.rcv.on_data(self.now, seq, PAYLOAD as u32, base, cap) {
            DataVerdict::Implausible => return,
            DataVerdict::New { nak: Some(gap) } => self.net.push(Pkt::Nak {
                from: gap.from,
                to: gap.to,
            }),
            _ => {}
        }
        let payload = self.payload_for(seq);
        let _ = self.rcv_buffer.insert(seq, payload);
        // The application drains everything deliverable immediately.
        let upto = self.rcv.frontier();
        let mut buf = [0u8; 64];
        loop {
            let n = self.rcv_buffer.read(&mut buf, upto);
            if n == 0 {
                break;
            }
            self.delivered.extend_from_slice(&buf[..n]);
        }
    }

    /// Sender side of an ACK arrival, as `handle_ack`.
    fn recv_ack(&mut self, ack_seq: u32, data: &AckData) {
        self.snd.on_arrival(self.now);
        let Some(acked) = self.snd.on_ack(self.now, ack_seq, data, 0.0) else {
            return; // corrupted/hostile: beyond the send frontier
        };
        self.snd_buffer.ack(acked.pkts as usize);
        if acked.ack2 {
            self.net.push(Pkt::Ack2 {
                ack_seq,
                confirms: data.rcv_next,
            });
        }
    }

    /// The payload the sender would put in packet `seq` (position-encoded
    /// bytes, so delivery order is externally checkable).
    fn payload_for(&self, seq: SeqNo) -> Bytes {
        let idx = self.cfg.init_seq.offset_to(seq);
        debug_assert!(idx >= 0);
        let start = idx as usize * PAYLOAD;
        let bytes: Vec<u8> = (start..start + PAYLOAD).map(|i| i as u8).collect();
        Bytes::from(bytes)
    }

    /// Check every invariant. Called by the search after every step.
    pub fn check(&self) -> Result<(), String> {
        if let Some(fault) = &self.fault {
            return Err(fault.clone());
        }
        // The cores' own cross-field invariants (the hooks `udt::conn` runs
        // in debug builds), and the real buffers'.
        self.snd
            .check_invariants()
            .map_err(|e| format!("sender: {e}"))?;
        self.rcv
            .check_invariants(self.rcv_buffer.base_seq())
            .map_err(|e| format!("receiver: {e}"))?;
        self.snd_buffer
            .check_invariants()
            .map_err(|e| format!("snd buffer: {e}"))?;
        self.rcv_buffer
            .check_invariants()
            .map_err(|e| format!("rcv buffer: {e}"))?;

        // The send frontier stays within the transfer and the buffer.
        if self.sent() > self.cfg.total_pkts {
            return Err(format!(
                "{} packets numbered, transfer has {}",
                self.sent(),
                self.cfg.total_pkts
            ));
        }
        if self.snd.in_flight() as usize > self.snd_buffer.len_pkts() {
            return Err(format!(
                "{} packets in flight but only {} buffered",
                self.snd.in_flight(),
                self.snd_buffer.len_pkts()
            ));
        }

        // Flow window never exceeded.
        if self.snd.in_flight() > self.cfg.window.max(2) {
            return Err(format!(
                "flow window exceeded: {} in flight, window {}",
                self.snd.in_flight(),
                self.cfg.window
            ));
        }

        // No byte delivered twice, dropped, or out of order: the delivered
        // stream must be a prefix of the expected stream.
        let expected = self.expected_stream();
        if self.delivered.len() > expected.len()
            || self.delivered[..] != expected[..self.delivered.len()]
        {
            return Err(format!(
                "delivered stream diverges at byte {} (got {} bytes)",
                self.delivered
                    .iter()
                    .zip(&expected)
                    .position(|(a, b)| a != b)
                    .unwrap_or(expected.len().min(self.delivered.len())),
                self.delivered.len()
            ));
        }
        Ok(())
    }

    /// Canonical 64-bit fingerprint for the transposition table: everything
    /// that decides which packets the cores will emit, and nothing that only
    /// decides when. The network is hashed as a sorted bag so permutations
    /// of the in-flight vector (which enable identical futures) collapse.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.snd.snd_una().raw().hash(&mut h);
        self.snd.in_flight().hash(&mut h);
        self.snd.peer_window().hash(&mut h);
        for r in self.snd.loss_ranges() {
            (r.from.raw(), r.to.raw()).hash(&mut h);
        }
        self.rcv.lrsn().raw().hash(&mut h);
        let (sent, acked) = self.rcv.ack_state();
        (sent.raw(), acked.raw()).hash(&mut h);
        for r in self.rcv.loss_ranges() {
            (r.from.raw(), r.to.raw()).hash(&mut h);
        }
        self.delivered.len().hash(&mut h);
        let mut bag: Vec<(u8, u32, u32)> = self.net.iter().map(Pkt::encode).collect();
        bag.sort_unstable();
        bag.hash(&mut h);
        self.drops_used.hash(&mut h);
        self.dups_used.hash(&mut h);
        h.finish()
    }

    /// In-flight packet descriptions (test introspection / replay).
    pub fn net_contents(&self) -> Vec<String> {
        self.net.iter().map(Pkt::describe).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_proto::SEQ_MAX;

    fn cfg(total: u32, init: u32) -> Config {
        Config {
            total_pkts: total,
            init_seq: SeqNo::new(init),
            window: 4,
            max_drops: 1,
            max_dups: 1,
            buf_pkts: 16,
        }
    }

    /// Happy path: transmit-deliver-ack round trips complete the transfer.
    #[test]
    fn lockstep_transfer_completes() {
        let mut m = Model::new(cfg(4, 0));
        while !m.complete() {
            let acts = m.enabled();
            // Deterministic schedule: prefer Deliver, then AckTimer, then
            // Transmit — a lossless in-order network.
            let a = acts
                .iter()
                .find(|a| matches!(a, Action::Deliver(0)))
                .or_else(|| acts.iter().find(|a| matches!(a, Action::AckTimer)))
                .or_else(|| acts.iter().find(|a| matches!(a, Action::Transmit)))
                .copied()
                .expect("transfer must not get stuck");
            m.step(a);
            m.check().expect("invariants");
        }
        assert_eq!(m.delivered_bytes(), 4 * PAYLOAD);
    }

    /// Same lockstep run straddling the 2^31 wrap.
    #[test]
    fn lockstep_transfer_completes_across_wrap() {
        let mut m = Model::new(cfg(6, SEQ_MAX - 2));
        while !m.complete() {
            let acts = m.enabled();
            let a = acts
                .iter()
                .find(|a| matches!(a, Action::Deliver(0)))
                .or_else(|| acts.iter().find(|a| matches!(a, Action::AckTimer)))
                .or_else(|| acts.iter().find(|a| matches!(a, Action::Transmit)))
                .copied()
                .expect("transfer must not get stuck");
            m.step(a);
            m.check().expect("invariants");
        }
        assert_eq!(m.delivered_bytes(), 6 * PAYLOAD);
        assert!(m.snd.snd_una().raw() < 16, "snd_una wrapped past zero");
    }

    /// A dropped packet is NAKed on gap detection and retransmitted.
    #[test]
    fn drop_triggers_nak_and_retransmit() {
        let mut m = Model::new(cfg(2, 0));
        m.step(Action::Transmit); // DATA 0
        m.step(Action::Transmit); // DATA 1
        m.step(Action::Drop(0)); // destroy DATA 0
        m.step(Action::Deliver(0)); // DATA 1 arrives -> gap -> NAK 0..=0
        assert_eq!(m.net_contents(), vec!["NAK 0..=0".to_string()]);
        assert_eq!(m.rcv.loss_ranges(), vec![SeqRange::single(SeqNo::ZERO)]);
        m.step(Action::Deliver(0)); // NAK arrives -> 0 queued for retx
        assert_eq!(m.snd.loss_ranges(), vec![SeqRange::single(SeqNo::ZERO)]);
        m.step(Action::Transmit); // retransmit 0
        m.step(Action::Deliver(0));
        m.check().expect("invariants");
        assert_eq!(m.delivered_bytes(), 2 * PAYLOAD);
    }

    /// Run `trace` (seed syntax), checking each action is enabled where it
    /// stands and every invariant after it.
    fn run(m: &mut Model, trace: &str) {
        for a in trace.split(',') {
            let a = Action::decode(a).expect("well-formed action");
            assert!(
                m.enabled().contains(&a),
                "{a:?} not enabled; net {:?}",
                m.net_contents()
            );
            m.step(a);
            m.check().expect("invariants");
        }
    }

    /// A lost tail shows the receiver no gap: once its ACK is confirmed it
    /// goes quiet, and only the sender's timer can repair the transfer.
    #[test]
    fn a_dropped_tail_packet_is_repaired_by_the_senders_timer() {
        let mut m = Model::new(cfg(2, 0));
        run(&mut m, "T,T,X1,D0,A,D0,D0"); // DATA 1 lost; ACK 1, ACK2
        assert_eq!(m.enabled(), vec![Action::SndTimer], "receiver is quiet");
        run(&mut m, "E");
        assert_eq!(m.snd.loss_ranges(), vec![SeqRange::single(SeqNo::new(1))]);
        run(&mut m, "T,D0,A,D0,D0");
        assert!(m.complete());
    }

    /// A lost final ACK is repeated (the sender, unacknowledged, may also
    /// retransmit); the exchange ends with the ACK2.
    #[test]
    fn a_dropped_final_ack_is_repeated_until_confirmed() {
        let mut m = Model::new(cfg(1, 0));
        run(&mut m, "T,D0,A,X0");
        assert_eq!(m.enabled(), vec![Action::AckTimer, Action::SndTimer]);
        run(&mut m, "A");
        assert_eq!(m.net_contents(), vec!["ACK 1".to_string()]);
        run(&mut m, "D0,D0");
        assert!(m.complete());
        assert!(
            m.enabled().iter().all(|a| *a != Action::AckTimer),
            "confirmed: quiet"
        );
    }

    /// A lost ACK2 leaves the receiver unconfirmed: it repeats its ACK, the
    /// sender answers again, and only then does the receiver go quiet.
    #[test]
    fn a_dropped_ack2_is_answered_again() {
        let mut m = Model::new(cfg(1, 0));
        run(&mut m, "T,D0,A,D0,X0");
        assert!(
            !m.complete(),
            "acknowledged, but the receiver does not know it"
        );
        assert_eq!(m.enabled(), vec![Action::AckTimer]);
        run(&mut m, "A,D0");
        assert_eq!(m.net_contents(), vec!["ACK2 for ACK 1".to_string()]);
        run(&mut m, "D0");
        assert!(m.complete());
    }

    #[test]
    fn config_seed_round_trips() {
        let c = cfg(5, SEQ_MAX - 1);
        let enc = c.encode();
        let back = Config::decode(&enc).expect("decodes");
        assert_eq!(back.encode(), enc);
    }

    #[test]
    fn action_encoding_round_trips() {
        for a in [
            Action::Transmit,
            Action::Deliver(3),
            Action::Drop(0),
            Action::Dup(12),
            Action::AckTimer,
            Action::SndTimer,
        ] {
            assert_eq!(Action::decode(&a.encode()), Some(a));
        }
    }
}
