//! ACK ↔ ACK2 pairing window for RTT measurement.
//!
//! Each full ACK carries its own *ACK sequence number*. The data sender
//! answers with an ACK2 echoing that number; the receiver then measures the
//! round trip as `now − time the ACK was sent`. The window is a fixed-size
//! ring — if an ACK is overwritten before its ACK2 returns, that sample is
//! simply dropped (timer-based ACKs arrive every SYN, so the ring covers
//! many seconds).

use crate::clock::Nanos;
use udt_proto::SeqNo;

#[derive(Debug, Clone, Copy)]
struct Slot {
    ack_seq: u32,
    data_seq: SeqNo,
    sent_at: Nanos,
    valid: bool,
}

/// Fixed-size ring of outstanding ACKs awaiting their ACK2.
#[derive(Debug, Clone)]
pub struct AckWindow {
    slots: Vec<Slot>,
    head: usize,
}

/// Default capacity (UDT uses 1024).
pub const DEFAULT_ACK_WINDOW: usize = 1024;

impl AckWindow {
    /// New window with the given capacity (must be non-zero).
    pub fn new(capacity: usize) -> AckWindow {
        assert!(capacity > 0, "ack window capacity must be non-zero");
        AckWindow {
            slots: vec![
                Slot {
                    ack_seq: 0,
                    data_seq: SeqNo::ZERO,
                    sent_at: Nanos::ZERO,
                    valid: false,
                };
                capacity
            ],
            head: 0,
        }
    }

    /// Record that ACK number `ack_seq`, acknowledging data up to
    /// `data_seq`, was sent at `now`.
    pub fn store(&mut self, ack_seq: u32, data_seq: SeqNo, now: Nanos) {
        self.slots[self.head] = Slot {
            ack_seq,
            data_seq,
            sent_at: now,
            valid: true,
        };
        self.head = (self.head + 1) % self.slots.len();
    }

    /// Process an incoming ACK2 for `ack_seq` at time `now`. Returns the RTT
    /// sample and the acknowledged data sequence number, if the matching ACK
    /// is still in the window.
    pub fn acknowledge(&mut self, ack_seq: u32, now: Nanos) -> Option<(Nanos, SeqNo)> {
        for slot in self.slots.iter_mut() {
            if slot.valid && slot.ack_seq == ack_seq {
                slot.valid = false;
                return Some((now.since(slot.sent_at), slot.data_seq));
            }
        }
        None
    }
}

impl Default for AckWindow {
    fn default() -> AckWindow {
        AckWindow::new(DEFAULT_ACK_WINDOW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_ack_with_ack2() {
        let mut w = AckWindow::new(8);
        w.store(1, SeqNo::new(100), Nanos::from_micros(1_000));
        let (rtt, seq) = w.acknowledge(1, Nanos::from_micros(3_500)).unwrap();
        assert_eq!(rtt, Nanos::from_micros(2_500));
        assert_eq!(seq, SeqNo::new(100));
    }

    #[test]
    fn unknown_ack2_ignored() {
        let mut w = AckWindow::new(8);
        w.store(1, SeqNo::new(100), Nanos::ZERO);
        assert!(w.acknowledge(9, Nanos::from_micros(10)).is_none());
    }

    #[test]
    fn double_ack2_only_counts_once() {
        let mut w = AckWindow::new(8);
        w.store(1, SeqNo::new(100), Nanos::ZERO);
        assert!(w.acknowledge(1, Nanos::from_micros(10)).is_some());
        assert!(w.acknowledge(1, Nanos::from_micros(20)).is_none());
    }

    #[test]
    fn overwritten_slot_drops_sample() {
        let mut w = AckWindow::new(2);
        w.store(1, SeqNo::new(1), Nanos::ZERO);
        w.store(2, SeqNo::new(2), Nanos::ZERO);
        w.store(3, SeqNo::new(3), Nanos::ZERO); // overwrites ack 1
        assert!(w.acknowledge(1, Nanos::from_micros(10)).is_none());
        assert!(w.acknowledge(2, Nanos::from_micros(10)).is_some());
        assert!(w.acknowledge(3, Nanos::from_micros(10)).is_some());
    }
}
