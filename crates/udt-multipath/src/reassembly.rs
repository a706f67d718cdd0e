//! Reorder-tolerant reassembly of the session sequence space.
//!
//! The bonded session numbers chunks in the same 31-bit wrap-around
//! space as packet sequencing ([`SeqNo`]). Paths deliver chunks in
//! their own order, so the receiver holds out-of-order chunks keyed by
//! raw sequence number (no ordered comparisons on raw values — only the
//! wrap-safe [`SeqNo::offset_to`] distance is used for accept/reject
//! decisions, keeping udt-lint's seq-arithmetic rule meaningful).

use std::collections::{HashMap, VecDeque};

use udt_proto::SeqNo;

/// Default acceptance horizon: how far past the in-order frontier a
/// chunk may land and still be buffered. Far smaller than the half-space
/// `offset_to` disambiguates, so wrap-around never aliases.
pub const DEFAULT_MAX_GAP: i32 = 1 << 20;

/// Reassembles session chunks back into an in-order byte stream.
#[derive(Debug)]
pub struct Reassembly {
    /// First session sequence number not yet moved to the ready queue.
    rcv_next: SeqNo,
    /// First unused sequence number past the stream, once FIN is seen.
    end: Option<SeqNo>,
    /// Out-of-order chunks, keyed by raw session sequence number.
    buf: HashMap<u32, Vec<u8>>,
    /// In-order chunks awaiting the application.
    ready: VecDeque<Vec<u8>>,
    /// Bytes moved to the ready queue so far (contiguous progress).
    delivered_bytes: u64,
    max_gap: i32,
}

impl Reassembly {
    /// Fresh reassembler expecting `init_seq` first.
    pub fn new(init_seq: SeqNo) -> Reassembly {
        Reassembly {
            rcv_next: init_seq,
            end: None,
            buf: HashMap::new(),
            ready: VecDeque::new(),
            delivered_bytes: 0,
            max_gap: DEFAULT_MAX_GAP,
        }
    }

    /// Offer one chunk. Returns `true` if the chunk was fresh (first
    /// copy, within the horizon); `false` for duplicates, already
    /// delivered, or absurdly far-future sequence numbers.
    pub fn offer(&mut self, seq: SeqNo, data: Vec<u8>) -> bool {
        let off = self.rcv_next.offset_to(seq);
        if off < 0 || off >= self.max_gap {
            return false;
        }
        if off == 0 {
            self.push_ready(data);
            self.rcv_next = self.rcv_next.next();
            // Drain whatever the frontier advance just unblocked.
            while let Some(chunk) = self.buf.remove(&self.rcv_next.raw()) {
                self.push_ready(chunk);
                self.rcv_next = self.rcv_next.next();
            }
            return true;
        }
        match self.buf.entry(seq.raw()) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(data);
                true
            }
            std::collections::hash_map::Entry::Occupied(_) => false,
        }
    }

    fn push_ready(&mut self, data: Vec<u8>) {
        self.delivered_bytes += data.len() as u64;
        self.ready.push_back(data);
    }

    /// Next in-order chunk, if any.
    pub fn pop_ready(&mut self) -> Option<Vec<u8>> {
        self.ready.pop_front()
    }

    /// Record the end of stream (first unused sequence number).
    pub fn set_end(&mut self, end: SeqNo) {
        self.end = Some(end);
    }

    /// `true` once every chunk up to the recorded end reached the ready
    /// queue (the queue itself may still hold undrained chunks).
    pub fn complete(&self) -> bool {
        self.end == Some(self.rcv_next)
    }

    /// The in-order frontier (next expected session sequence number).
    pub fn rcv_next(&self) -> SeqNo {
        self.rcv_next
    }

    /// Contiguous bytes moved in order so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Out-of-order chunks currently held.
    pub fn buffered_chunks(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_proto::SEQ_MAX;

    fn drain(r: &mut Reassembly) -> Vec<u8> {
        let mut out = Vec::new();
        while let Some(c) = r.pop_ready() {
            out.extend_from_slice(&c);
        }
        out
    }

    #[test]
    fn in_order_stream_flows_straight_through() {
        let mut r = Reassembly::new(SeqNo::ZERO);
        for i in 0..5u8 {
            assert!(r.offer(SeqNo::new(u32::from(i)), vec![i]));
        }
        assert_eq!(drain(&mut r), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.delivered_bytes(), 5);
        assert_eq!(r.buffered_chunks(), 0);
    }

    #[test]
    fn reorders_and_dedups() {
        let mut r = Reassembly::new(SeqNo::ZERO);
        assert!(r.offer(SeqNo::new(2), vec![2]));
        assert!(r.offer(SeqNo::new(1), vec![1]));
        assert!(!r.offer(SeqNo::new(2), vec![99]), "duplicate buffered chunk");
        assert!(r.pop_ready().is_none(), "nothing in order yet");
        assert!(r.offer(SeqNo::new(0), vec![0]));
        assert_eq!(drain(&mut r), vec![0, 1, 2]);
        assert!(!r.offer(SeqNo::new(1), vec![1]), "already delivered");
    }

    #[test]
    fn reassembles_across_the_wrap() {
        // Frontier starts just below the 2^31 wrap; chunks arrive out of
        // order across it.
        let init = SeqNo::new(SEQ_MAX - 1);
        let mut r = Reassembly::new(init);
        let seqs = [
            init.add(2), // wraps to 0
            init,
            init.add(4),
            init.add(1), // SEQ_MAX
            init.add(3),
        ];
        for (i, s) in seqs.iter().enumerate() {
            let tag = u8::try_from(i).unwrap_or(0);
            assert!(r.offer(*s, vec![tag]), "offer {} rejected", s.raw());
        }
        // Delivery must follow sequence order 0,1,2,3,4 relative to init.
        assert_eq!(drain(&mut r), vec![1, 3, 0, 4, 2]);
        assert_eq!(r.rcv_next(), init.add(5));
        assert_eq!(r.rcv_next().raw(), 3, "frontier wrapped into low numbers");
    }

    #[test]
    fn old_and_far_future_chunks_rejected() {
        let init = SeqNo::new(100);
        let mut r = Reassembly::new(init);
        assert!(!r.offer(SeqNo::new(99), vec![0]), "behind the frontier");
        assert!(
            !r.offer(init.add(DEFAULT_MAX_GAP.unsigned_abs()), vec![0]),
            "beyond the horizon"
        );
        assert!(r.offer(init.add(DEFAULT_MAX_GAP.unsigned_abs() - 1), vec![0]));
    }

    #[test]
    fn completion_tracks_fin_frontier() {
        let mut r = Reassembly::new(SeqNo::ZERO);
        r.set_end(SeqNo::new(2));
        assert!(!r.complete());
        assert!(r.offer(SeqNo::new(0), vec![0]));
        assert!(!r.complete());
        assert!(r.offer(SeqNo::new(1), vec![1]));
        assert!(r.complete(), "frontier reached end");
        assert_eq!(drain(&mut r), vec![0, 1]);
    }
}
