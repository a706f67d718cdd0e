//! The bonded session: one reliable byte stream striped across N paths.
//!
//! The session layer is transport-agnostic: anything implementing
//! [`PathStream`] (a reliable, ordered byte stream — in practice a UDT
//! connection) can carry a path. The `udt` crate supplies the glue that
//! turns `UdtConnection`s into paths; tests here use in-memory pipes.
//!
//! ## Failover state machine
//!
//! Each path cycles `connecting → up → down → (re-join) → up …`, driven
//! by a per-path manager thread:
//!
//! * **up** — a writer thread pulls chunks assigned to the path and a
//!   reader thread absorbs cumulative ACKs.
//! * **down** — any stream error flips the path down: its queued and
//!   unacknowledged sole-owner chunks are immediately re-assigned to the
//!   surviving up paths (`PathLoss` records the migration) and the
//!   session keeps flowing — no session-level reconnect, no resume.
//! * **re-join** — the manager retries the connector with linear
//!   backoff; a fresh `JOIN` frame re-attaches the path and the
//!   scheduler starts steering chunks to it again.
//!
//! Only when *every* path has exhausted its re-join budget does the
//! session fail.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use udt_metrics::counters::PathSnapshot;
use udt_proto::{MpFrame, SeqNo, MP_HEADER_LEN};
use udt_trace::{EventKind, Tracer};

use crate::path::{PathEstimate, PathId, PathTable};
use crate::sched::{PathScheduler, SchedKind};
use crate::reassembly::Reassembly;

/// Session-layer failure (any underlying stream error collapses to this;
/// the session's only response to a sick path is failover, so the exact
/// transport error is reported but not matched on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamError(String);

impl StreamError {
    /// An error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> StreamError {
        StreamError(msg.into())
    }

    /// The peer closed the stream.
    pub fn closed() -> StreamError {
        StreamError::new("stream closed")
    }
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StreamError {}

/// One reliable, ordered byte stream carrying one path of a bonded
/// session. Implementations must be usable from two threads at once
/// (one sending, one receiving).
pub trait PathStream: Send + Sync {
    /// Write all of `buf` (blocking).
    fn send(&self, buf: &[u8]) -> Result<(), StreamError>;
    /// Read up to `buf.len()` bytes (blocking). `Ok(0)` means EOF.
    fn recv(&self, buf: &mut [u8]) -> Result<usize, StreamError>;
    /// Tear the stream down, unblocking both directions.
    fn close(&self);
    /// Live transport estimates for the scheduler (zeroes if unknown).
    fn estimate(&self) -> PathEstimate;
}

/// Dials one path of a bonded session (and re-dials it on failover).
pub trait PathConnector: Send + Sync {
    /// Open a fresh stream for `path`.
    fn connect(&self, path: PathId) -> Result<Box<dyn PathStream>, StreamError>;
}

/// Bonded-session configuration, shared by both halves.
#[derive(Clone)]
pub struct BondedCfg {
    /// Payload bytes per session chunk (one DATA frame each).
    pub chunk_len: usize,
    /// Maximum unacknowledged chunks before `send` blocks.
    pub window_chunks: usize,
    /// Scheduling strategy.
    pub sched: SchedKind,
    /// Trace sink; per-path events are stamped with `conn`.
    pub tracer: Tracer,
    /// Session id used as the `conn` field of trace events.
    pub conn: u32,
    /// Receiver sends a cumulative ACK at least every this many chunks.
    pub ack_every: u32,
    /// Initial session sequence number (carried in JOIN).
    pub init_seq: SeqNo,
    /// Base backoff between re-join attempts (linear: `n * backoff`).
    pub rejoin_backoff: Duration,
    /// Re-join attempts per outage before a path is abandoned.
    pub max_rejoins: u32,
}

impl Default for BondedCfg {
    fn default() -> BondedCfg {
        BondedCfg {
            chunk_len: 16 * 1024,
            window_chunks: 256,
            sched: SchedKind::Weighted,
            tracer: Tracer::disabled(),
            conn: 0,
            ack_every: 16,
            init_seq: SeqNo::ZERO,
            rejoin_backoff: Duration::from_millis(100),
            max_rejoins: 20,
        }
    }
}

/// FIN retransmission interval while `finish` awaits the final ACK.
const FIN_RETX: Duration = Duration::from_millis(250);

/// How long a completed receiver waits for the sender to close the path
/// streams before force-closing them itself.
const CLOSE_GRACE: Duration = Duration::from_secs(5);

/// Blocking exact read over a [`PathStream`].
fn read_exact(stream: &dyn PathStream, buf: &mut [u8]) -> Result<(), StreamError> {
    let mut done = 0;
    while done < buf.len() {
        let n = stream.recv(&mut buf[done..])?;
        if n == 0 {
            return Err(StreamError::closed());
        }
        done += n;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Sender half
// ---------------------------------------------------------------------------

/// An unacknowledged chunk and the paths currently responsible for it.
struct Chunk {
    data: Vec<u8>,
    owners: Vec<u32>,
}

struct TxCore {
    table: PathTable,
    sched: Box<dyn PathScheduler>,
    /// Next unassigned session sequence number.
    next_seq: SeqNo,
    /// Cumulative acknowledgement frontier.
    snd_una: SeqNo,
    /// Unacknowledged chunks by raw session sequence number.
    store: HashMap<u32, Chunk>,
    /// Per-path send queues (raw session sequence numbers).
    queues: Vec<VecDeque<u32>>,
    /// End of stream, once `finish` is called.
    fin: Option<SeqNo>,
    fin_sent: Vec<bool>,
    closed: bool,
    failed: Option<String>,
    live_paths: usize,
}

struct TxShared {
    core: Mutex<TxCore>,
    cv: Condvar,
}

enum WriterExit {
    /// Session closed; the path thread should stop.
    Closed,
    /// The reader (or another actor) marked this path down.
    PathDown,
    /// Our own send failed; caller marks the path down.
    SendFailed,
}

enum TxJob {
    Data { frame: Vec<u8>, payload_len: usize, seq: u32 },
    Fin(Vec<u8>),
}

/// The sending half of a bonded session.
pub struct BondedSender {
    shared: Arc<TxShared>,
    cfg: BondedCfg,
    threads: Vec<JoinHandle<()>>,
}

impl BondedSender {
    /// Connect all `n_paths` paths up front and start the per-path
    /// manager threads. Any initial connect failure aborts the whole
    /// session (so CLIs can report a one-line diagnostic and exit).
    // The connector is cloned into each path-manager thread; ownership of
    // the caller's handle is the natural API even though only clones are
    // consumed.
    #[allow(clippy::needless_pass_by_value)]
    pub fn start(
        connector: Arc<dyn PathConnector>,
        n_paths: usize,
        cfg: BondedCfg,
    ) -> Result<BondedSender, StreamError> {
        if n_paths == 0 {
            return Err(StreamError::new("bonded session needs at least one path"));
        }
        let mut first = Vec::new();
        for p in 0..n_paths {
            match connector.connect(PathId::from_index(p)) {
                Ok(s) => first.push(s),
                Err(e) => {
                    for s in &first {
                        s.close();
                    }
                    return Err(StreamError::new(format!("path {p} setup failed: {e}")));
                }
            }
        }
        let shared = Arc::new(TxShared {
            core: Mutex::new(TxCore {
                table: PathTable::new(n_paths, &cfg.tracer, cfg.conn),
                sched: cfg.sched.build(),
                next_seq: cfg.init_seq,
                snd_una: cfg.init_seq,
                store: HashMap::new(),
                queues: vec![VecDeque::new(); n_paths],
                fin: None,
                fin_sent: vec![false; n_paths],
                closed: false,
                failed: None,
                live_paths: n_paths,
            }),
            cv: Condvar::new(),
        });
        let mut threads = Vec::new();
        for (p, stream) in first.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let connector = Arc::clone(&connector);
            let cfg = cfg.clone();
            let pid = PathId::from_index(p);
            let n = u16::try_from(n_paths).unwrap_or(u16::MAX);
            threads.push(thread::spawn(move || {
                tx_path_thread(&shared, connector.as_ref(), &cfg, pid, n, stream);
            }));
        }
        Ok(BondedSender {
            shared,
            cfg,
            threads,
        })
    }

    /// Stripe `data` across the bonded paths. Blocks on the chunk
    /// window; fails only if every path is permanently gone.
    pub fn send(&self, data: &[u8]) -> Result<(), StreamError> {
        let window = i32::try_from(self.cfg.window_chunks).unwrap_or(i32::MAX);
        for chunk in data.chunks(self.cfg.chunk_len.max(1)) {
            let mut g = self.shared.core.lock();
            loop {
                if let Some(why) = &g.failed {
                    return Err(StreamError::new(why.clone()));
                }
                if g.closed {
                    return Err(StreamError::new("session closed"));
                }
                if g.fin.is_some() {
                    return Err(StreamError::new("send after finish"));
                }
                let in_flight = g.snd_una.offset_to(g.next_seq);
                if in_flight < window {
                    let core = &mut *g;
                    let owners = core.sched.assign(&core.table);
                    if !owners.is_empty() {
                        let seq = core.next_seq;
                        core.next_seq = core.next_seq.next();
                        for o in &owners {
                            core.queues[o.0 as usize].push_back(seq.raw());
                        }
                        core.store.insert(
                            seq.raw(),
                            Chunk {
                                data: chunk.to_vec(),
                                owners: owners.iter().map(|o| o.0).collect(),
                            },
                        );
                        drop(g);
                        self.shared.cv.notify_all();
                        break;
                    }
                }
                self.shared.cv.wait(&mut g);
            }
        }
        Ok(())
    }

    /// Mark end of stream, wait for every chunk to be acknowledged, and
    /// tear the session down.
    ///
    /// While waiting, FIN is re-sent on every up path each
    /// `FIN_RETX`: the final cumulative ACK rides a quiescing
    /// connection with nothing else in flight, so if it is lost the
    /// transport's own liveness machinery has no traffic to notice the
    /// silence by — each re-sent FIN elicits a fresh cumulative ACK
    /// from the receiver instead.
    pub fn finish(&mut self, timeout: Duration) -> Result<(), StreamError> {
        let deadline = Instant::now() + timeout;
        {
            let mut g = self.shared.core.lock();
            let end = g.next_seq;
            g.fin = Some(end);
            self.shared.cv.notify_all();
            loop {
                if g.snd_una == end && g.store.is_empty() {
                    break;
                }
                if let Some(why) = &g.failed {
                    return Err(StreamError::new(why.clone()));
                }
                let slice = (Instant::now() + FIN_RETX).min(deadline);
                if self.shared.cv.wait_until(&mut g, slice).timed_out() {
                    if Instant::now() >= deadline {
                        return Err(StreamError::new("finish timed out awaiting acks"));
                    }
                    for sent in &mut g.fin_sent {
                        *sent = false;
                    }
                    self.shared.cv.notify_all();
                }
            }
            g.closed = true;
        }
        self.shared.cv.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        Ok(())
    }

    /// Per-path counter snapshots, in path-id order.
    pub fn counters(&self) -> Vec<PathSnapshot> {
        let g = self.shared.core.lock();
        g.table.iter().map(|p| p.events.counters().snapshot()).collect()
    }

    /// Number of paths currently up.
    pub fn up_paths(&self) -> usize {
        self.shared.core.lock().table.up_count()
    }
}

impl Drop for BondedSender {
    fn drop(&mut self) {
        {
            let mut g = self.shared.core.lock();
            g.closed = true;
        }
        self.shared.cv.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

fn tx_mark_up(shared: &TxShared, p: PathId) {
    let mut g = shared.core.lock();
    if !g.table.mark_up(p) {
        return;
    }
    g.table.get(p).events.emit(EventKind::PathUp { path: p.0 });
    // Adopt any chunks orphaned while every path was down.
    let core = &mut *g;
    let mut adopted = 0u32;
    for (raw, chunk) in &mut core.store {
        if chunk.owners.is_empty() {
            chunk.owners.push(p.0);
            core.queues[p.0 as usize].push_back(*raw);
            adopted += 1;
        }
    }
    if adopted > 0 {
        let (path, lost) = (p.0, adopted);
        core.table.get(p).events.emit(EventKind::PathLoss { path, lost });
    }
    drop(g);
    shared.cv.notify_all();
}

fn tx_mark_down(shared: &TxShared, p: PathId) {
    let mut g = shared.core.lock();
    if !g.table.mark_down(p) {
        return;
    }
    g.table.get(p).events.emit(EventKind::PathDown { path: p.0 });
    g.queues[p.0 as usize].clear();
    // Chunks this path solely owned migrate to the survivors, nearest
    // the ack frontier first (they gate the receiver's progress).
    let core = &mut *g;
    let mut orphans: Vec<u32> = Vec::new();
    for (raw, chunk) in &mut core.store {
        chunk.owners.retain(|&o| o != p.0);
        if chunk.owners.is_empty() {
            orphans.push(*raw);
        }
    }
    let base = core.snd_una;
    orphans.sort_unstable_by_key(|&raw| base.offset_to(SeqNo::new(raw)));
    let mut moved = 0u32;
    for raw in orphans {
        let owners = core.sched.assign(&core.table);
        if owners.is_empty() {
            // No survivor up right now; tx_mark_up re-adopts later.
            continue;
        }
        for o in &owners {
            core.queues[o.0 as usize].push_back(raw);
        }
        if let Some(chunk) = core.store.get_mut(&raw) {
            chunk.owners = owners.iter().map(|o| o.0).collect();
        }
        moved += 1;
    }
    if moved > 0 {
        let (path, lost) = (p.0, moved);
        core.table.get(p).events.emit(EventKind::PathLoss { path, lost });
    }
    drop(g);
    shared.cv.notify_all();
}

fn tx_writer_loop(shared: &TxShared, p: PathId, stream: &dyn PathStream) -> WriterExit {
    let events = shared.core.lock().table.get(p).events.clone();
    loop {
        let job = {
            let mut g = shared.core.lock();
            loop {
                if g.closed {
                    // `finish` can observe the final *data* ACK and close
                    // the session before this writer ever woke to send
                    // FIN; without FIN the receiver never learns the end
                    // of stream. Flush it on the way out.
                    if let Some(end) = g.fin {
                        if !g.fin_sent[p.0 as usize] && g.table.get(p).up {
                            g.fin_sent[p.0 as usize] = true;
                            break TxJob::Fin(MpFrame::Fin { end }.header_bytes().to_vec());
                        }
                    }
                    return WriterExit::Closed;
                }
                if !g.table.get(p).up {
                    return WriterExit::PathDown;
                }
                let mut next = None;
                while let Some(raw) = g.queues[p.0 as usize].pop_front() {
                    if g.store.contains_key(&raw) {
                        next = Some(raw);
                        break;
                    }
                }
                if let Some(raw) = next {
                    let frame = MpFrame::encode_data(SeqNo::new(raw), &g.store[&raw].data);
                    break TxJob::Data {
                        payload_len: frame.len() - MP_HEADER_LEN,
                        frame,
                        seq: raw,
                    };
                }
                if let Some(end) = g.fin {
                    if !g.fin_sent[p.0 as usize] {
                        g.fin_sent[p.0 as usize] = true;
                        break TxJob::Fin(MpFrame::Fin { end }.header_bytes().to_vec());
                    }
                }
                shared.cv.wait(&mut g);
            }
        };
        match job {
            TxJob::Data {
                frame,
                payload_len,
                seq,
            } => {
                if stream.send(&frame).is_err() {
                    // Put the chunk back for whoever takes over.
                    let mut g = shared.core.lock();
                    g.queues[p.0 as usize].push_front(seq);
                    return WriterExit::SendFailed;
                }
                events.emit(EventKind::PathSend {
                    path: p.0,
                    seq,
                    bytes: u32::try_from(payload_len).unwrap_or(u32::MAX),
                });
            }
            TxJob::Fin(frame) => {
                if stream.send(&frame).is_err() {
                    let mut g = shared.core.lock();
                    g.fin_sent[p.0 as usize] = false;
                    return WriterExit::SendFailed;
                }
            }
        }
    }
}

fn tx_reader_loop(shared: &TxShared, p: PathId, stream: &dyn PathStream) {
    let events = shared.core.lock().table.get(p).events.clone();
    let mut hdr = [0u8; MP_HEADER_LEN];
    let mut acks = 0u64;
    loop {
        if read_exact(stream, &mut hdr).is_err() {
            break;
        }
        match MpFrame::decode_header(&hdr) {
            Ok(MpFrame::Ack { cum }) => {
                acks += 1;
                let mut g = shared.core.lock();
                // Accept only ACKs inside [snd_una, next_seq].
                let adv = g.snd_una.offset_to(cum);
                let lim = g.snd_una.offset_to(g.next_seq);
                if adv > 0 && adv <= lim {
                    while g.snd_una != cum {
                        let raw = g.snd_una.raw();
                        g.store.remove(&raw);
                        g.snd_una = g.snd_una.next();
                    }
                    drop(g);
                    shared.cv.notify_all();
                } else {
                    drop(g);
                }
                let est = stream.estimate();
                let mut g = shared.core.lock();
                g.table.update_estimate(p, est);
                drop(g);
                if acks.is_multiple_of(64) {
                    events.emit(est.rate_event(p));
                }
            }
            Ok(MpFrame::Data { len, .. }) => {
                // Protocol misuse (data flowing to the sender); skip it.
                let mut sink = vec![0u8; usize::try_from(len).unwrap_or(0)];
                if read_exact(stream, &mut sink).is_err() {
                    break;
                }
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    let closed = shared.core.lock().closed;
    if !closed {
        tx_mark_down(shared, p);
    }
}

fn tx_path_thread(
    shared: &Arc<TxShared>,
    connector: &dyn PathConnector,
    cfg: &BondedCfg,
    p: PathId,
    n_paths: u16,
    first: Box<dyn PathStream>,
) {
    let mut pending = Some(first);
    let mut attempts = 0u32;
    loop {
        let stream: Arc<dyn PathStream> = match pending.take() {
            Some(s) => Arc::from(s),
            None => {
                if attempts >= cfg.max_rejoins {
                    break;
                }
                attempts += 1;
                thread::sleep(cfg.rejoin_backoff.saturating_mul(attempts));
                if shared.core.lock().closed {
                    break;
                }
                match connector.connect(p) {
                    Ok(s) => Arc::from(s),
                    Err(_) => continue,
                }
            }
        };
        let join = MpFrame::Join {
            path_id: u16::try_from(p.0).unwrap_or(u16::MAX),
            n_paths,
            init_seq: cfg.init_seq,
        };
        if stream.send(&join.header_bytes()).is_err() {
            stream.close();
            continue;
        }
        tx_mark_up(shared, p);
        attempts = 0;
        let reader = {
            let shared = Arc::clone(shared);
            let stream = Arc::clone(&stream);
            thread::spawn(move || tx_reader_loop(&shared, p, stream.as_ref()))
        };
        let exit = tx_writer_loop(shared, p, stream.as_ref());
        stream.close();
        let _ = reader.join();
        match exit {
            WriterExit::Closed => break,
            WriterExit::SendFailed => tx_mark_down(shared, p),
            WriterExit::PathDown => {}
        }
        if shared.core.lock().closed {
            break;
        }
    }
    let mut g = shared.core.lock();
    g.live_paths -= 1;
    if g.live_paths == 0 && !g.closed && g.failed.is_none() {
        g.failed = Some("all bonded paths failed permanently".to_string());
    }
    drop(g);
    shared.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Receiver half
// ---------------------------------------------------------------------------

struct RxCore {
    table: PathTable,
    reass: Option<Reassembly>,
    /// In-order bytes awaiting the application.
    out: VecDeque<u8>,
    closed: bool,
    streams: Vec<Arc<dyn PathStream>>,
    stream_threads: Vec<JoinHandle<()>>,
}

struct RxShared {
    core: Mutex<RxCore>,
    cv: Condvar,
    cfg: BondedCfg,
}

/// Polled source of incoming path streams (typically a listener's
/// `accept_timeout` loop). `Ok(None)` means "nothing yet, poll again".
pub type AcceptFn = Box<dyn FnMut() -> Result<Option<Box<dyn PathStream>>, StreamError> + Send>;

/// The receiving half of a bonded session.
pub struct BondedReceiver {
    shared: Arc<RxShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl BondedReceiver {
    /// Start accepting path streams. `n_paths` bounds the path-id space;
    /// re-joining paths replace their dead predecessor by id.
    pub fn start(mut accept: AcceptFn, n_paths: usize, cfg: BondedCfg) -> BondedReceiver {
        let shared = Arc::new(RxShared {
            core: Mutex::new(RxCore {
                table: PathTable::new(n_paths, &cfg.tracer, cfg.conn),
                reass: None,
                out: VecDeque::new(),
                closed: false,
                streams: Vec::new(),
                stream_threads: Vec::new(),
            }),
            cv: Condvar::new(),
            cfg,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::spawn(move || loop {
            if accept_shared.core.lock().closed {
                break;
            }
            match accept() {
                Ok(Some(stream)) => {
                    let stream: Arc<dyn PathStream> = Arc::from(stream);
                    let worker = {
                        let shared = Arc::clone(&accept_shared);
                        let stream = Arc::clone(&stream);
                        thread::spawn(move || rx_stream_loop(&shared, &stream))
                    };
                    let mut g = accept_shared.core.lock();
                    g.streams.push(stream);
                    g.stream_threads.push(worker);
                }
                Ok(None) => {}
                Err(_) => break,
            }
        });
        BondedReceiver {
            shared,
            accept_thread: Some(accept_thread),
        }
    }

    /// Read in-order bytes; `Ok(0)` once the stream completed and was
    /// fully drained. Times out if nothing arrives before the deadline.
    pub fn recv_timeout(&self, buf: &mut [u8], timeout: Duration) -> Result<usize, StreamError> {
        let deadline = Instant::now() + timeout;
        let mut g = self.shared.core.lock();
        loop {
            if !g.out.is_empty() {
                let n = buf.len().min(g.out.len());
                for (slot, byte) in buf.iter_mut().zip(g.out.drain(..n)) {
                    *slot = byte;
                }
                return Ok(n);
            }
            if g.reass.as_ref().is_some_and(Reassembly::complete) {
                return Ok(0);
            }
            if g.closed {
                return Err(StreamError::new("receiver closed"));
            }
            if self.shared.cv.wait_until(&mut g, deadline).timed_out() {
                return Err(StreamError::new("recv timed out"));
            }
        }
    }

    /// Contiguous session bytes reassembled so far — the progress
    /// counter failover experiments measure stalls with.
    pub fn progress(&self) -> u64 {
        let g = self.shared.core.lock();
        g.reass.as_ref().map_or(0, Reassembly::delivered_bytes)
    }

    /// `true` once the whole stream (FIN seen, all chunks) reassembled.
    pub fn complete(&self) -> bool {
        let g = self.shared.core.lock();
        g.reass.as_ref().is_some_and(Reassembly::complete)
    }

    /// Block until the stream completes (or the timeout passes).
    pub fn wait_complete(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.shared.core.lock();
        loop {
            if g.reass.as_ref().is_some_and(Reassembly::complete) {
                return true;
            }
            if g.closed || self.shared.cv.wait_until(&mut g, deadline).timed_out() {
                return g.reass.as_ref().is_some_and(Reassembly::complete);
            }
        }
    }

    /// Per-path counter snapshots, in path-id order.
    pub fn counters(&self) -> Vec<PathSnapshot> {
        let g = self.shared.core.lock();
        g.table.iter().map(|p| p.events.counters().snapshot()).collect()
    }

    /// Tear the receiver down: stop accepting, close every path stream,
    /// and join the worker threads.
    ///
    /// If the stream completed, the teardown first waits (up to
    /// `CLOSE_GRACE`) for the sender to close the path streams from
    /// its side: the final cumulative ACKs may still be unacknowledged
    /// in the transport, and closing immediately could discard them and
    /// strand the sender's `finish` without its last ACK.
    pub fn close(&mut self) {
        let complete = {
            let g = self.shared.core.lock();
            g.reass.as_ref().is_some_and(Reassembly::complete)
        };
        if complete {
            let deadline = Instant::now() + CLOSE_GRACE;
            loop {
                let g = self.shared.core.lock();
                if g.stream_threads.iter().all(JoinHandle::is_finished) {
                    break;
                }
                drop(g);
                if Instant::now() >= deadline {
                    break;
                }
                thread::sleep(Duration::from_millis(10));
            }
        }
        let (streams, workers) = {
            let mut g = self.shared.core.lock();
            g.closed = true;
            (
                std::mem::take(&mut g.streams),
                std::mem::take(&mut g.stream_threads),
            )
        };
        self.shared.cv.notify_all();
        for s in &streams {
            s.close();
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for BondedReceiver {
    fn drop(&mut self) {
        self.close();
    }
}

fn rx_stream_loop(shared: &RxShared, stream: &Arc<dyn PathStream>) {
    let cfg = &shared.cfg;
    let mut hdr = [0u8; MP_HEADER_LEN];
    if read_exact(stream.as_ref(), &mut hdr).is_err() {
        return;
    }
    let Ok(MpFrame::Join {
        path_id, init_seq, ..
    }) = MpFrame::decode_header(&hdr)
    else {
        stream.close();
        return;
    };
    let pid = PathId(u32::from(path_id));
    let events = {
        let mut g = shared.core.lock();
        if (pid.0 as usize) >= g.table.len() {
            stream.close();
            return;
        }
        if g.reass.is_none() {
            g.reass = Some(Reassembly::new(init_seq));
        }
        let events = g.table.get(pid).events.clone();
        if g.table.mark_up(pid) {
            events.emit(EventKind::PathUp { path: pid.0 });
        }
        events
    };
    shared.cv.notify_all();
    let mut since_ack = 0u32;
    let mut chunks = 0u64;
    loop {
        if read_exact(stream.as_ref(), &mut hdr).is_err() {
            break;
        }
        let frame = match MpFrame::decode_header(&hdr) {
            Ok(f) => f,
            Err(_) => break,
        };
        match frame {
            MpFrame::Data { seq, len } => {
                let mut payload = vec![0u8; usize::try_from(len).unwrap_or(0)];
                if read_exact(stream.as_ref(), &mut payload).is_err() {
                    break;
                }
                let (advanced, complete, cum) = {
                    let mut g = shared.core.lock();
                    let Some(reass) = g.reass.as_mut() else { break };
                    let before = reass.rcv_next();
                    reass.offer(seq, payload);
                    let advanced = reass.rcv_next() != before;
                    let complete = reass.complete();
                    let cum = reass.rcv_next();
                    if advanced {
                        while let Some(chunk) = g
                            .reass
                            .as_mut()
                            .and_then(Reassembly::pop_ready)
                        {
                            g.out.extend(chunk);
                        }
                    }
                    (advanced, complete, cum)
                };
                events.emit(EventKind::PathRecv {
                    path: pid.0,
                    seq: seq.raw(),
                    bytes: len,
                });
                if advanced {
                    shared.cv.notify_all();
                }
                chunks += 1;
                since_ack += 1;
                if advanced || complete || since_ack >= cfg.ack_every.max(1) {
                    since_ack = 0;
                    if stream
                        .send(&MpFrame::Ack { cum }.header_bytes())
                        .is_err()
                    {
                        break;
                    }
                }
                if chunks.is_multiple_of(64) {
                    let est = stream.estimate();
                    let mut g = shared.core.lock();
                    g.table.update_estimate(pid, est);
                    drop(g);
                    events.emit(est.rate_event(pid));
                }
            }
            MpFrame::Fin { end } => {
                let cum = {
                    let mut g = shared.core.lock();
                    let Some(reass) = g.reass.as_mut() else { break };
                    reass.set_end(end);
                    reass.rcv_next()
                };
                shared.cv.notify_all();
                if stream
                    .send(&MpFrame::Ack { cum }.header_bytes())
                    .is_err()
                {
                    break;
                }
            }
            MpFrame::Join { .. } | MpFrame::Ack { .. } => {}
        }
    }
    // Stream gone: clean teardown (session closed or stream complete)
    // exits silently; anything else is a path failure.
    let mut g = shared.core.lock();
    let clean = g.closed || g.reass.as_ref().is_some_and(Reassembly::complete);
    if g.table.mark_down(pid) && !clean {
        events.emit(EventKind::PathDown { path: pid.0 });
    }
    drop(g);
    shared.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// One direction of an in-memory duplex pipe.
    struct PipeBuf {
        q: Mutex<(VecDeque<u8>, bool)>,
        cv: Condvar,
    }

    impl PipeBuf {
        fn new() -> Arc<PipeBuf> {
            Arc::new(PipeBuf {
                q: Mutex::new((VecDeque::new(), false)),
                cv: Condvar::new(),
            })
        }

        fn push(&self, b: &[u8]) -> Result<(), StreamError> {
            let mut g = self.q.lock();
            if g.1 {
                return Err(StreamError::closed());
            }
            g.0.extend(b.iter().copied());
            self.cv.notify_all();
            Ok(())
        }

        fn pop(&self, buf: &mut [u8]) -> Result<usize, StreamError> {
            let mut g = self.q.lock();
            loop {
                if !g.0.is_empty() {
                    let n = buf.len().min(g.0.len());
                    for (slot, byte) in buf.iter_mut().zip(g.0.drain(..n)) {
                        *slot = byte;
                    }
                    return Ok(n);
                }
                if g.1 {
                    return Ok(0);
                }
                self.cv.wait(&mut g);
            }
        }

        fn shut(&self) {
            self.q.lock().1 = true;
            self.cv.notify_all();
        }
    }

    struct PipeStream {
        out: Arc<PipeBuf>,
        inp: Arc<PipeBuf>,
        broken: Arc<AtomicBool>,
    }

    impl PathStream for PipeStream {
        fn send(&self, buf: &[u8]) -> Result<(), StreamError> {
            if self.broken.load(Ordering::Relaxed) {
                return Err(StreamError::new("pipe broken"));
            }
            self.out.push(buf)
        }

        fn recv(&self, buf: &mut [u8]) -> Result<usize, StreamError> {
            if self.broken.load(Ordering::Relaxed) {
                return Err(StreamError::new("pipe broken"));
            }
            self.inp.pop(buf)
        }

        fn close(&self) {
            self.out.shut();
            self.inp.shut();
        }

        fn estimate(&self) -> PathEstimate {
            PathEstimate::default()
        }
    }

    fn pipe_pair(broken: &Arc<AtomicBool>) -> (PipeStream, PipeStream) {
        let a = PipeBuf::new();
        let b = PipeBuf::new();
        (
            PipeStream {
                out: Arc::clone(&a),
                inp: Arc::clone(&b),
                broken: Arc::clone(broken),
            },
            PipeStream {
                out: Arc::clone(&b),
                inp: Arc::clone(&a),
                broken: Arc::clone(broken),
            },
        )
    }

    /// Everything needed to hard-fail one live pipe pair.
    struct PairHandle {
        broken: Arc<AtomicBool>,
        a: Arc<PipeBuf>,
        b: Arc<PipeBuf>,
    }

    /// Dials in-memory pipes; server halves land in an accept queue.
    struct PipeConnector {
        accept_q: Arc<Mutex<VecDeque<Box<dyn PathStream>>>>,
        /// Per-path: refuse connects while true.
        down: Vec<Arc<AtomicBool>>,
        /// Break handles of every pair handed out, per path.
        handles: Mutex<Vec<Vec<PairHandle>>>,
    }

    impl PipeConnector {
        fn new(n: usize) -> PipeConnector {
            PipeConnector {
                accept_q: Arc::new(Mutex::new(VecDeque::new())),
                down: (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect(),
                handles: Mutex::new((0..n).map(|_| Vec::new()).collect()),
            }
        }

        fn accept_fn(&self) -> AcceptFn {
            let q = Arc::clone(&self.accept_q);
            Box::new(move || {
                let got = q.lock().pop_front();
                if got.is_none() {
                    thread::sleep(Duration::from_millis(1));
                }
                Ok(got)
            })
        }

        /// Hard-fail a path: break its live pipes (waking any blocked
        /// reader) and refuse re-dials.
        fn blackout(&self, p: usize) {
            self.down[p].store(true, Ordering::Relaxed);
            for h in &self.handles.lock()[p] {
                h.broken.store(true, Ordering::Relaxed);
                h.a.shut();
                h.b.shut();
            }
        }

        /// Let the path connect again.
        fn recover(&self, p: usize) {
            self.down[p].store(false, Ordering::Relaxed);
        }
    }

    impl PathConnector for PipeConnector {
        fn connect(&self, path: PathId) -> Result<Box<dyn PathStream>, StreamError> {
            let p = path.0 as usize;
            if self.down[p].load(Ordering::Relaxed) {
                return Err(StreamError::new(format!("{path} unreachable")));
            }
            let broken = Arc::new(AtomicBool::new(false));
            let (client, server) = pipe_pair(&broken);
            self.handles.lock()[p].push(PairHandle {
                broken,
                a: Arc::clone(&client.out),
                b: Arc::clone(&client.inp),
            });
            self.accept_q.lock().push_back(Box::new(server));
            Ok(Box::new(client))
        }
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| u8::try_from((i * 31 + i / 251) % 256).unwrap_or(0))
            .collect()
    }

    fn read_all(rx: &BondedReceiver, timeout: Duration) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match rx.recv_timeout(&mut buf, timeout) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) => panic!("recv failed: {e}"),
            }
        }
        out
    }

    fn cfg(sched: SchedKind) -> BondedCfg {
        BondedCfg {
            chunk_len: 1024,
            window_chunks: 32,
            sched,
            rejoin_backoff: Duration::from_millis(5),
            max_rejoins: 3,
            ..BondedCfg::default()
        }
    }

    #[test]
    fn bonded_transfer_over_two_pipes_is_byte_identical() {
        let conn = Arc::new(PipeConnector::new(2));
        let rx = BondedReceiver::start(conn.accept_fn(), 2, cfg(SchedKind::Weighted));
        let mut tx = BondedSender::start(Arc::clone(&conn) as _, 2, cfg(SchedKind::Weighted))
            .expect("start");
        let data = pattern(300 * 1024);
        tx.send(&data).expect("send");
        tx.finish(Duration::from_secs(10)).expect("finish");
        let got = read_all(&rx, Duration::from_secs(10));
        assert_eq!(got, data);
        let c = rx.counters();
        assert!(c[0].chunks_recv > 0 && c[1].chunks_recv > 0, "both paths used: {c:?}");
    }

    #[test]
    fn redundant_schedule_survives_duplicates() {
        let conn = Arc::new(PipeConnector::new(2));
        let rx = BondedReceiver::start(conn.accept_fn(), 2, cfg(SchedKind::Redundant));
        let mut tx = BondedSender::start(Arc::clone(&conn) as _, 2, cfg(SchedKind::Redundant))
            .expect("start");
        let data = pattern(64 * 1024);
        tx.send(&data).expect("send");
        tx.finish(Duration::from_secs(10)).expect("finish");
        assert_eq!(read_all(&rx, Duration::from_secs(10)), data);
    }

    #[test]
    fn path_blackout_fails_over_without_session_reset() {
        let tracer = Tracer::ring(1 << 12);
        let mut c = cfg(SchedKind::Weighted);
        c.tracer = tracer.clone();
        let conn = Arc::new(PipeConnector::new(2));
        let rx = BondedReceiver::start(conn.accept_fn(), 2, c.clone());
        let mut tx = BondedSender::start(Arc::clone(&conn) as _, 2, c).expect("start");
        let data = pattern(600 * 1024);
        // Stream the first half, hard-fail path 0 mid-session, then keep
        // sending: the second half must fail over to path 1. Splitting
        // the send keeps the outage deterministic — a timer-based kill
        // can miss a transfer that outruns it.
        let (first, second) = data.split_at(data.len() / 2);
        tx.send(first).expect("send before the blackout");
        conn.blackout(0);
        tx.send(second).expect("send survives the blackout");
        tx.finish(Duration::from_secs(20)).expect("finish");
        assert_eq!(read_all(&rx, Duration::from_secs(10)), data);
        let snap = tx.counters();
        assert!(snap[0].path_downs >= 1, "path 0 never went down: {snap:?}");
        let events = tracer.snapshot();
        assert!(events.iter().any(|e| e.kind.name() == "path_down"));
        assert!(
            !events.iter().any(|e| e.kind.name() == "reconnect" || e.kind.name() == "resume"),
            "failover must not trip session-level reconnect/resume"
        );
    }

    #[test]
    fn dead_path_rejoins_on_recovery() {
        let mut c = cfg(SchedKind::Weighted);
        c.max_rejoins = 50;
        let conn = Arc::new(PipeConnector::new(2));
        let rx = BondedReceiver::start(conn.accept_fn(), 2, c.clone());
        let mut tx = BondedSender::start(Arc::clone(&conn) as _, 2, c).expect("start");
        // Let both paths come up before the outage, so the blackout is an
        // up → down → up cycle rather than a delayed first join.
        let deadline = Instant::now() + Duration::from_secs(5);
        while tx.up_paths() < 2 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(tx.up_paths(), 2, "paths never came up");
        conn.blackout(0);
        thread::sleep(Duration::from_millis(10));
        conn.recover(0);
        let data = pattern(400 * 1024);
        tx.send(&data).expect("send");
        // Give the re-join loop time to land before finishing.
        let deadline = Instant::now() + Duration::from_secs(5);
        while tx.up_paths() < 2 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(tx.up_paths(), 2, "path 0 did not re-join");
        tx.finish(Duration::from_secs(20)).expect("finish");
        assert_eq!(read_all(&rx, Duration::from_secs(10)), data);
        let ups: u64 = tx.counters().iter().map(|s| s.path_ups).sum();
        assert!(ups >= 3, "expected an extra path_up from the re-join, got {ups}");
    }

    #[test]
    fn initial_connect_failure_is_fatal_and_descriptive() {
        let conn = Arc::new(PipeConnector::new(2));
        conn.blackout(1);
        let err = BondedSender::start(Arc::clone(&conn) as _, 2, cfg(SchedKind::Weighted))
            .err()
            .expect("must fail");
        let msg = err.to_string();
        assert!(msg.contains("path 1"), "diagnostic names the path: {msg}");
    }

    #[test]
    fn all_paths_dead_fails_the_session() {
        let mut c = cfg(SchedKind::Weighted);
        c.max_rejoins = 1;
        c.rejoin_backoff = Duration::from_millis(1);
        let conn = Arc::new(PipeConnector::new(1));
        let _rx = BondedReceiver::start(conn.accept_fn(), 1, c.clone());
        let mut tx = BondedSender::start(Arc::clone(&conn) as _, 1, c).expect("start");
        conn.blackout(0);
        // Either send or finish must surface the permanent failure.
        let data = pattern(256 * 1024);
        let res = tx
            .send(&data)
            .and_then(|()| tx.finish(Duration::from_secs(5)));
        assert!(res.is_err(), "session with zero live paths must fail");
    }
}
