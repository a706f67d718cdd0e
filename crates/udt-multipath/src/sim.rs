//! Deterministic netsim harness: N simulated UDT flows bonded into one
//! session.
//!
//! Each path is an independent node pair joined by its own duplex link,
//! carrying a real simulated UDT flow (AIMD + packet-pair probing from
//! `netsim::agents::udt`). The bonded layer rides the agents' payload
//! hooks: the sender-side hook pulls the next session chunk for its path
//! (assignment happens *on pull*, so the scheduler sees live estimates),
//! and the receiver-side sink feeds arrivals into the shared
//! [`Reassembly`]. Per-path arrival rates are measured over a sliding
//! window and written back into the [`PathTable`], which is what makes
//! the weighted scheduler rebalance as path estimates move.
//!
//! Everything is seeded and single-threaded: the same config and data
//! produce the same completion time, chunk split, and trace, which is
//! what the experiments lean on.

// Numeric casts here are bounded harness arithmetic (path counts, chunk
// lengths below MP_MAX_CHUNK, rate conversions); sequence-number handling
// goes through SeqNo and is separately policed by udt-lint.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use netsim::agents::udt::{UdtReceiver, UdtReceiverCfg, UdtSender, UdtSenderCfg};
use netsim::TopoBuilder;
use udt_algo::Nanos;
use udt_chaos::{Direction, ImpairmentSpec, Scenario};
use udt_proto::{MpFrame, SeqNo, MP_HEADER_LEN};
use udt_trace::{EventKind, Tracer};

use crate::path::{PathEstimate, PathId, PathTable};
use crate::reassembly::Reassembly;
use crate::sched::{PathScheduler, SchedKind};

/// Sliding window for the receiver-side arrival-rate estimate.
const ARRIVAL_WINDOW_NS: u64 = 200_000_000;
/// Emit a `PathRate` trace sample every this many arrivals per path.
const RATE_EVERY: u64 = 64;
/// Cap on scheduler rounds per pull, so one starving path cannot spin
/// the assignment loop unboundedly when it never wins a chunk.
const ASSIGN_BURST: usize = 1024;
/// Granularity of the run loop's completion checks.
const CHECK_STEP_NS: u64 = 200_000_000;

/// One simulated path of a bonded session.
#[derive(Debug, Clone)]
pub struct SimPathSpec {
    /// Link rate, bits per second (both directions).
    pub rate_bps: f64,
    /// One-way propagation delay.
    pub one_way: Nanos,
    /// DropTail queue capacity, packets.
    pub queue_cap: usize,
    /// Optional seeded Bernoulli loss on the data direction:
    /// `(loss probability, seed)`.
    pub loss: Option<(f64, u64)>,
    /// Initial *per-path* UDT sequence number (independent of the
    /// session sequence space).
    pub init_seq: SeqNo,
}

impl SimPathSpec {
    /// A loss-free path with a default queue and `init_seq` zero.
    pub fn clean(rate_bps: f64, one_way: Nanos) -> SimPathSpec {
        SimPathSpec {
            rate_bps,
            one_way,
            queue_cap: 256,
            loss: None,
            init_seq: SeqNo::ZERO,
        }
    }
}

/// Configuration of one bonded simulation run.
#[derive(Debug, Clone)]
pub struct BondedSimCfg {
    /// The paths to bond (index == `PathId`).
    pub paths: Vec<SimPathSpec>,
    /// Session chunk payload length, bytes.
    pub chunk_len: usize,
    /// MSS for the underlying simulated UDT flows.
    pub mss: u32,
    /// First *session* sequence number (chunk numbering).
    pub session_init_seq: SeqNo,
    /// Scheduler strategy.
    pub sched: SchedKind,
    /// Connection id stamped on trace events.
    pub conn: u32,
    /// Give up (and return partial output) at this simulated time.
    pub horizon: Nanos,
}

impl Default for BondedSimCfg {
    fn default() -> BondedSimCfg {
        BondedSimCfg {
            paths: Vec::new(),
            chunk_len: 1452,
            mss: 1500,
            session_init_seq: SeqNo::ZERO,
            sched: SchedKind::Weighted,
            conn: 900,
            horizon: Nanos::from_secs(60),
        }
    }
}

/// Outcome of one bonded simulation run.
#[derive(Debug, Clone)]
pub struct BondedSimResult {
    /// Reassembled session bytes, in order.
    pub out: Vec<u8>,
    /// Simulated time the final in-order byte arrived, if the transfer
    /// finished before the horizon.
    pub complete_at_ns: Option<u64>,
    /// Chunks that *arrived* on each path (duplicates included).
    pub per_path_chunks: Vec<u64>,
}

impl BondedSimResult {
    /// Session goodput in bits/second, if the transfer completed.
    pub fn goodput_bps(&self) -> Option<f64> {
        let t = self.complete_at_ns?;
        if t == 0 {
            return None;
        }
        Some(self.out.len() as f64 * 8.0 * 1e9 / t as f64)
    }
}

/// Shared bonded state both hook sides mutate. Single-threaded by
/// construction (netsim agents need not be `Send`), hence `Rc<RefCell>`.
struct SimCore {
    table: PathTable,
    sched: Box<dyn PathScheduler>,
    /// First session sequence number; chunk `i` is `base + i`.
    base: SeqNo,
    /// Pre-encoded DATA frames, one per session chunk.
    frames: Vec<Bytes>,
    /// Payload length of each chunk.
    lens: Vec<u32>,
    /// Next chunk index the scheduler has not yet assigned.
    next_chunk: usize,
    /// Per-path queue of assigned-but-unsent chunk indices.
    queues: Vec<VecDeque<usize>>,
    /// Per-path retransmission cache: raw path seqno → chunk index.
    caches: Vec<HashMap<u32, usize>>,
    reass: Reassembly,
    out: Vec<u8>,
    total_len: usize,
    complete_at: Option<u64>,
    /// Per-path arrival timestamps inside the sliding window.
    arrivals: Vec<VecDeque<u64>>,
    /// Static per-path RTT estimate (2 × one-way), microseconds.
    rtt_us: Vec<f64>,
}

impl SimCore {
    fn seq_of(&self, idx: usize) -> SeqNo {
        self.base.add(idx as u32)
    }

    /// Sender-side payload hook for path `pid`: hand out the next frame
    /// for this path, or the cached frame on retransmission. `None`
    /// defers the packet (no chunk currently assigned here).
    fn next_frame(&mut self, pid: u32, now: u64, pseq: SeqNo, retx: bool) -> Option<Bytes> {
        let p = pid as usize;
        if retx {
            let idx = *self.caches[p].get(&pseq.raw())?;
            return Some(self.frames[idx].clone());
        }
        // Assign on pull: run scheduler rounds until this path's queue
        // has work or everything is assigned. Assignment at send time is
        // what lets moving estimates rebalance the split mid-transfer.
        let mut spins = 0;
        while self.queues[p].is_empty() && self.next_chunk < self.frames.len() {
            let targets = self.sched.assign(&self.table);
            if targets.is_empty() {
                break;
            }
            for t in &targets {
                self.queues[t.0 as usize].push_back(self.next_chunk);
            }
            self.next_chunk += 1;
            spins += 1;
            if spins >= ASSIGN_BURST {
                break;
            }
        }
        let idx = self.queues[p].pop_front()?;
        self.caches[p].insert(pseq.raw(), idx);
        self.table.get(PathId(pid)).events.emit_at(
            now,
            EventKind::PathSend {
                path: pid,
                seq: self.seq_of(idx).raw(),
                bytes: self.lens[idx],
            },
        );
        Some(self.frames[idx].clone())
    }

    /// Receiver-side sink for path `pid`: decode, reassemble, and update
    /// this path's arrival-rate estimate.
    fn absorb(&mut self, pid: u32, now: u64, payload: &Bytes) {
        let Ok(MpFrame::Data { seq, len }) = MpFrame::decode_header(payload) else {
            return; // not a session chunk (e.g. empty filler)
        };
        let end = MP_HEADER_LEN + len as usize;
        if payload.len() < end {
            return;
        }
        let fresh = self.reass.offer(seq, payload[MP_HEADER_LEN..end].to_vec());
        self.table.get(PathId(pid)).events.emit_at(
            now,
            EventKind::PathRecv {
                path: pid,
                seq: seq.raw(),
                bytes: len,
            },
        );
        if fresh {
            while let Some(chunk) = self.reass.pop_ready() {
                self.out.extend_from_slice(&chunk);
            }
            if self.complete_at.is_none() && self.out.len() >= self.total_len {
                self.complete_at = Some(now);
            }
        }
        self.sample_rate(pid, now);
    }

    /// Update the sliding-window arrival rate for `pid` and feed it back
    /// into the path table (the scheduler's steering signal).
    fn sample_rate(&mut self, pid: u32, now: u64) {
        let p = pid as usize;
        let a = &mut self.arrivals[p];
        a.push_back(now);
        while a
            .front()
            .is_some_and(|&t| now.saturating_sub(t) > ARRIVAL_WINDOW_NS)
        {
            a.pop_front();
        }
        if a.len() < 2 {
            return;
        }
        let Some(&first) = a.front() else { return };
        let span = now.saturating_sub(first);
        if span == 0 {
            return;
        }
        let bw_pps = (a.len() - 1) as f64 * 1e9 / span as f64;
        let est = PathEstimate {
            bw_pps,
            rtt_us: self.rtt_us[p],
            ..PathEstimate::default()
        };
        self.table.update_estimate(PathId(pid), est);
        let events = &self.table.get(PathId(pid)).events;
        if events.counters().snapshot().chunks_recv.is_multiple_of(RATE_EVERY) {
            events.emit_at(now, est.rate_event(PathId(pid)));
        }
    }
}

/// Run one bonded transfer of `data` over the configured paths inside a
/// fresh deterministic simulator. Per-path trace events (`path_up`,
/// `path_send`, `path_recv`, `path_rate`) go to `tracer`.
pub fn run_bonded_sim(cfg: &BondedSimCfg, data: &[u8], tracer: &Tracer) -> BondedSimResult {
    assert!(!cfg.paths.is_empty(), "bonded sim needs at least one path");
    let n = cfg.paths.len();

    // One isolated node pair + duplex link per path.
    let mut topo = TopoBuilder::new();
    let mut pairs = Vec::with_capacity(n);
    for spec in &cfg.paths {
        let a = topo.node();
        let b = topo.node();
        let (fwd, _rev) = topo.duplex(a, b, spec.rate_bps, spec.one_way, spec.queue_cap);
        pairs.push((a, b, fwd));
    }
    let mut sim = topo.build();
    for (spec, &(_, _, fwd)) in cfg.paths.iter().zip(&pairs) {
        if let Some((loss, seed)) = spec.loss {
            let sc = Scenario::new("bonded-path-loss", seed)
                .forward(ImpairmentSpec::Bernoulli { loss, mtu: None });
            sim.link_mut(fwd).set_impairments(sc.build(Direction::Forward));
        }
    }

    // Pre-encode the session chunks.
    let chunk_len = cfg.chunk_len.max(1);
    let mut frames = Vec::new();
    let mut lens = Vec::new();
    let mut seq = cfg.session_init_seq;
    for chunk in data.chunks(chunk_len) {
        frames.push(Bytes::from(MpFrame::encode_data(seq, chunk)));
        lens.push(chunk.len() as u32);
        seq = seq.next();
    }

    let mut table = PathTable::new(n, tracer, cfg.conn);
    for p in 0..n {
        let pid = PathId::from_index(p);
        table.mark_up(pid);
        table.get(pid).events.emit_at(0, EventKind::PathUp { path: pid.0 });
    }

    let core = Rc::new(RefCell::new(SimCore {
        table,
        sched: cfg.sched.build(),
        base: cfg.session_init_seq,
        frames,
        lens,
        next_chunk: 0,
        queues: (0..n).map(|_| VecDeque::new()).collect(),
        caches: (0..n).map(|_| HashMap::new()).collect(),
        reass: Reassembly::new(cfg.session_init_seq),
        out: Vec::with_capacity(data.len()),
        total_len: data.len(),
        complete_at: None,
        arrivals: (0..n).map(|_| VecDeque::new()).collect(),
        rtt_us: cfg
            .paths
            .iter()
            .map(|s| 2.0 * s.one_way.as_secs_f64() * 1e6)
            .collect(),
    }));

    for (p, (spec, &(src, dst, _))) in cfg.paths.iter().zip(&pairs).enumerate() {
        let pid = PathId::from_index(p).0;
        let flow = sim.add_flow();
        let mut scfg = UdtSenderCfg::bulk(dst, flow);
        scfg.mss = cfg.mss;
        scfg.init_seq = spec.init_seq;
        let rcfg = UdtReceiverCfg {
            src,
            flow,
            mss: cfg.mss,
            init_seq: spec.init_seq,
            buffer_pkts: scfg.max_flow_win,
            syn: scfg.cc.syn(),
        };
        let tx_pid = pid;
        let tx = Rc::clone(&core);
        let sender = UdtSender::new(scfg).with_payload_fn(Box::new(move |now, pseq, retx| {
            tx.borrow_mut().next_frame(tx_pid, now, pseq, retx)
        }));
        let rx_pid = pid;
        let rx = Rc::clone(&core);
        let receiver =
            UdtReceiver::new(rcfg).with_payload_sink(Box::new(move |now, _pseq, payload| {
                rx.borrow_mut().absorb(rx_pid, now, payload);
            }));
        sim.add_agent(src, Box::new(sender));
        sim.add_agent(dst, Box::new(receiver));
    }

    // Run in slices so we can stop shortly after the last byte lands.
    let mut t = 0u64;
    while t < cfg.horizon.0 {
        t = (t + CHECK_STEP_NS).min(cfg.horizon.0);
        sim.run_until(Nanos(t));
        if core.borrow().complete_at.is_some() {
            break;
        }
    }

    let c = core.borrow();
    BondedSimResult {
        out: c.out.clone(),
        complete_at_ns: c.complete_at,
        per_path_chunks: c
            .table
            .iter()
            .map(|p| p.events.counters().snapshot().chunks_recv)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udt_proto::SEQ_MAX;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + i / 251) as u8).collect()
    }

    #[test]
    fn bonded_asymmetric_paths_deliver_byte_identical_and_reproducibly() {
        let cfg = BondedSimCfg {
            paths: vec![
                SimPathSpec::clean(10e6, Nanos::from_millis(5)),
                SimPathSpec::clean(40e6, Nanos::from_millis(10)),
            ],
            horizon: Nanos::from_secs(30),
            ..BondedSimCfg::default()
        };
        let data = pattern(768 * 1024);
        let r1 = run_bonded_sim(&cfg, &data, &Tracer::disabled());
        assert_eq!(r1.out, data, "reassembled stream must be byte-identical");
        let done = r1.complete_at_ns.expect("transfer completed before horizon");
        assert!(
            r1.per_path_chunks.iter().all(|&c| c > 0),
            "both paths must carry traffic: {:?}",
            r1.per_path_chunks
        );
        assert!(
            r1.per_path_chunks[1] > r1.per_path_chunks[0],
            "faster path should carry more chunks: {:?}",
            r1.per_path_chunks
        );
        // Deterministic: same config + data → same timeline and split.
        let r2 = run_bonded_sim(&cfg, &data, &Tracer::disabled());
        assert_eq!(r2.complete_at_ns, Some(done));
        assert_eq!(r2.per_path_chunks, r1.per_path_chunks);
    }

    #[test]
    fn bonded_session_space_wraps_with_mismatched_path_init_seqs() {
        // Session numbering starts just below 2^31 and wraps mid-transfer
        // while each path runs its own unrelated UDT sequence space.
        let cfg = BondedSimCfg {
            paths: vec![
                SimPathSpec {
                    init_seq: SeqNo::new(SEQ_MAX - 50),
                    ..SimPathSpec::clean(20e6, Nanos::from_millis(4))
                },
                SimPathSpec {
                    init_seq: SeqNo::new(1000),
                    ..SimPathSpec::clean(20e6, Nanos::from_millis(8))
                },
            ],
            chunk_len: 1024,
            session_init_seq: SeqNo::new(SEQ_MAX - 100),
            horizon: Nanos::from_secs(30),
            ..BondedSimCfg::default()
        };
        let data = pattern(400 * 1024); // 400 chunks: crosses the wrap
        let r = run_bonded_sim(&cfg, &data, &Tracer::disabled());
        assert_eq!(r.out, data);
        assert!(r.complete_at_ns.is_some());
    }

    #[test]
    fn lossy_path_still_delivers_exactly_once() {
        let cfg = BondedSimCfg {
            paths: vec![
                SimPathSpec::clean(20e6, Nanos::from_millis(5)),
                SimPathSpec {
                    loss: Some((0.02, 7)),
                    ..SimPathSpec::clean(20e6, Nanos::from_millis(5))
                },
            ],
            horizon: Nanos::from_secs(60),
            ..BondedSimCfg::default()
        };
        let data = pattern(256 * 1024);
        let r = run_bonded_sim(&cfg, &data, &Tracer::disabled());
        assert_eq!(r.out, data, "loss must be repaired, duplicates dropped");
    }

    #[test]
    fn emits_per_path_trace_events_on_the_sim_timeline() {
        let cfg = BondedSimCfg {
            paths: vec![
                SimPathSpec::clean(20e6, Nanos::from_millis(5)),
                SimPathSpec::clean(20e6, Nanos::from_millis(5)),
            ],
            horizon: Nanos::from_secs(30),
            ..BondedSimCfg::default()
        };
        let tracer = Tracer::ring(1 << 14);
        let data = pattern(64 * 1024);
        let r = run_bonded_sim(&cfg, &data, &tracer);
        assert_eq!(r.out, data);
        let evs = tracer.snapshot();
        let has = |name: &str| evs.iter().any(|e| e.kind.name() == name);
        assert!(has("path_up"), "missing path_up");
        assert!(has("path_send"), "missing path_send");
        assert!(has("path_recv"), "missing path_recv");
        for want in [0u32, 1] {
            assert!(
                evs.iter().any(|e| matches!(
                    e.kind,
                    EventKind::PathRecv { path, .. } if path == want
                )),
                "no path_recv for path {want}"
            );
        }
        // Timeline is the simulated clock, monotone within the ring.
        assert!(evs.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }
}
