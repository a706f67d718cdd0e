//! The close scenario: two ends after a completed transfer, each the real
//! [`CloseCore`], on a network that may drop, duplicate and reorder every
//! `Shutdown` and every answer. Either end, or both, may close at any point;
//! a timer step means "time passes until this end's repeat is due".
//!
//! In every reachable state an end has sent at most [`SHUTDOWN_COPIES`]
//! `Shutdown`s and at most one answer per `Shutdown` it heard (so the packet
//! count is bounded: no rally), and an end that heard a `Shutdown` is no
//! longer open (its application sees EOF). Every schedule ends, with both
//! machines done and the wire empty.

use std::collections::HashSet;

use udt_algo::clock::Nanos;
use udt_algo::conn::{CloseCore, CoreTrace, SHUTDOWN_COPIES};
use udt_proto::ctrl::ControlBody;

/// Longer than any schedule: every step spends a copy, a packet or a fault.
const MAX_DEPTH: usize = 64;

#[derive(Clone)]
struct World {
    ends: [CloseCore; 2],
    /// Per end: `Shutdown`s sent, answers sent, `Shutdown`s heard.
    counts: [[u32; 3]; 2],
    /// In flight, as `(destination, is an answer)`; any one may move next.
    net: Vec<(usize, bool)>,
    /// Drops and duplications the network may still do.
    faults: [u32; 2],
    now: Nanos,
}

impl World {
    /// Put what end `from` was told to send on the wire.
    fn send(&mut self, from: usize, body: &Option<ControlBody>) {
        if let Some(ControlBody::Shutdown { answer }) = *body {
            self.counts[from][usize::from(answer)] += 1;
            self.net.push((1 - from, answer));
        }
    }

    /// Every state one step away.
    fn successors(&self) -> Vec<World> {
        let mut out = Vec::new();
        let mut step = |f: &dyn Fn(&mut World)| {
            let mut w = self.clone();
            w.now = w.now.plus(Nanos::from_micros(1));
            f(&mut w);
            out.push(w);
        };
        for (i, end) in self.ends.iter().enumerate() {
            if end.is_open() {
                step(&|w| {
                    let first = w.ends[i].close(w.now, Nanos::from_millis(30));
                    w.send(i, &first);
                });
            } else if !end.is_done() {
                step(&|w| {
                    w.now = w.now.max(w.ends[i].next_deadline());
                    let repeat = w.ends[i].on_timer(w.now);
                    w.send(i, &repeat);
                });
            }
        }
        for k in 0..self.net.len() {
            step(&|w| {
                let (to, answer) = w.net.remove(k);
                w.counts[to][2] += u32::from(!answer);
                let reply = w.ends[to].on_shutdown(w.now, answer);
                w.send(to, &reply);
            });
            for fault in (0..2).filter(|&f| self.faults[f] > 0) {
                step(&|w| {
                    w.faults[fault] -= 1;
                    let pkt = w.net.remove(k);
                    if fault == 1 {
                        w.net.extend([pkt, pkt]);
                    }
                });
            }
        }
        out
    }

    fn check(&self, terminal: bool) -> Result<(), String> {
        for (i, (end, &[sent, answered, heard])) in self.ends.iter().zip(&self.counts).enumerate() {
            if sent > SHUTDOWN_COPIES || answered > heard {
                return Err(format!("end {i}: {sent} Shutdowns, {answered} answers to {heard}"));
            }
            if heard > 0 && end.is_open() {
                return Err(format!("end {i} heard a Shutdown and is still open"));
            }
            if terminal && !end.is_done() {
                return Err(format!("end {i} is stuck short of done"));
            }
        }
        Ok(())
    }

    /// What decides the future (the network as a bag), as a hashable string.
    fn key(&self) -> String {
        let mut net = self.net.clone();
        net.sort_unstable();
        let phase = |e: &CloseCore| (e.is_done(), e.copies_sent());
        let ends = [phase(&self.ends[0]), phase(&self.ends[1])];
        format!("{ends:?}{:?}{net:?}{:?}", self.counts, self.faults)
    }
}

/// Explore every schedule with up to `drops` packets lost and `dups`
/// duplicated: the number of states visited, or the first violation.
pub fn explore(drops: u32, dups: u32) -> Result<u64, String> {
    let end = || CloseCore::new(CoreTrace::default());
    let root = World {
        ends: [end(), end()],
        counts: [[0; 3]; 2],
        net: Vec::new(),
        faults: [drops, dups],
        now: Nanos::ZERO,
    };
    let mut seen = HashSet::from([root.key()]);
    let mut stack = vec![(root, 0)];
    let mut states = 0;
    while let Some((w, depth)) = stack.pop() {
        states += 1;
        let next = w.successors();
        w.check(next.is_empty())?;
        if depth >= MAX_DEPTH {
            return Err(format!("a schedule of {depth} steps has not ended"));
        }
        let new = next.into_iter().filter(|n| seen.insert(n.key()));
        stack.extend(new.map(|n| (n, depth + 1)));
    }
    Ok(states)
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_exchange_terminates_under_drops_duplicates_and_reordering() {
        let states = super::explore(2, 1).expect("no violation");
        assert!(states > 500, "only {states} states: the faults were not explored");
    }
}
