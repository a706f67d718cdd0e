//! One op: a whole session between a fresh listener and a fresh
//! connection — bind, connect/accept, a stream phase, a request-response
//! phase, close — driven through the library's public API by exactly two
//! application threads (the caller is the client, one scoped thread is the
//! server). Every workload is a sequence of these with different phase
//! sizes and, for `wan_bdp`, an emulated link in between.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use linkemu::{LinkEmu, LinkSpec};
use udt::{ConnStats, UdtConfig, UdtConnection, UdtListener};

use crate::payload::{Checksum, XorShift};
use crate::procfs::{Threads, Usage};
use crate::trace::SideTrace;

pub const REQ_BYTES: usize = 64;
pub const RESP_BYTES: usize = 1024;
/// Application read size, and the message size of the bulk streams.
pub const CHUNK: usize = 64 * 1024;
/// Soft deadline of a workload op: there the sender stops offering data and
/// closes; the op is truncated (its low value stays in the median), not
/// failed.
pub const SOFT_DEADLINE: Duration = Duration::from_secs(5);
/// An op still running this long after its soft deadline (and, for a timed
/// stream, its stream time) has failed, whatever it delivered.
pub const HARD_GRACE: Duration = Duration::from_secs(15);
/// Width of the delivery windows behind `starved_share`.
pub const WINDOW: Duration = Duration::from_millis(100);

/// What flows first on the connection, ahead of the round trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stream {
    None,
    /// `msgs` sends of `msg_bytes` each; the receiver knows the total.
    Count {
        msgs: u32,
        msg_bytes: usize,
    },
    /// Sends of `msg_bytes` until `warm + measure` have passed; goodput is
    /// what was delivered in the `measure` after `warm`, over `measure`. It
    /// has no soft deadline and ends with the connection, so a plan with
    /// one has no round trips.
    Timed {
        msg_bytes: usize,
        warm: Duration,
        measure: Duration,
    },
}

/// The stream phase runs first, then the round trips. No workload asks for
/// both on one connection: whichever comes second is slowed by the first
/// (README, "Findings").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub rr_warm: u32,
    pub rr_timed: u32,
    pub stream: Stream,
    /// Soft deadline, counted from the moment `connect` returns.
    pub deadline: Duration,
}

impl Plan {
    fn hard_timeout(&self) -> Duration {
        let stream = match self.stream {
            Stream::Timed { warm, measure, .. } => warm + measure,
            _ => Duration::ZERO,
        };
        self.deadline + stream + HARD_GRACE
    }
}

/// Emulated path: the same clean link each way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wan {
    pub rate_bps: f64,
    pub one_way: Duration,
}

/// The seeded bytes one workload run sends.
pub struct Payload {
    pub stream: Vec<u8>,
    pub stream_sum: u64,
    pub req: [u8; REQ_BYTES],
    pub resp: [u8; RESP_BYTES],
    pub link_seed: u64,
}

impl Payload {
    pub fn generate(seed: u64, stream_bytes: usize) -> Payload {
        let mut rng = XorShift::new(seed);
        let stream = rng.bytes(stream_bytes);
        let mut req = [0u8; REQ_BYTES];
        let mut resp = [0u8; RESP_BYTES];
        rng.fill(&mut req);
        rng.fill(&mut resp);
        Payload {
            stream_sum: Checksum::of(&stream),
            stream,
            req,
            resp,
            link_seed: rng.next_u64(),
        }
    }

    /// Checksum of the first `len` bytes of the stream cycled end to end.
    fn cycled_sum(&self, len: u64) -> u64 {
        let mut c = Checksum::default();
        let mut left = len;
        while left > 0 {
            let take = left.min(self.stream.len() as u64) as usize;
            c.update(&self.stream[..take]);
            left -= take as u64;
        }
        c.finish()
    }
}

/// `ConnStats` of both ends, summed over ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub pkts_sent: u64,
    pub pkts_retx: u64,
    pub pkts_received: u64,
    pub pkts_dup: u64,
    pub acks: u64,
    pub naks: u64,
    pub loss_events: u64,
    pub exp_timeouts: u64,
    pub pkts_rejected: u64,
    pub bytes_delivered: u64,
}

impl Counters {
    pub fn add_conn(&mut self, s: &ConnStats) {
        let g = ConnStats::get;
        self.pkts_sent += g(&s.pkts_sent);
        self.pkts_retx += g(&s.pkts_retransmitted);
        self.pkts_received += g(&s.pkts_received);
        self.pkts_dup += g(&s.pkts_duplicate);
        self.acks += g(&s.acks_sent);
        self.naks += g(&s.naks_sent);
        self.loss_events += g(&s.loss_events);
        self.exp_timeouts += g(&s.exp_timeouts);
        self.pkts_rejected += g(&s.pkts_rejected);
        self.bytes_delivered += g(&s.bytes_delivered);
    }

    pub fn add(&mut self, o: &Counters) {
        self.pkts_sent += o.pkts_sent;
        self.pkts_retx += o.pkts_retx;
        self.pkts_received += o.pkts_received;
        self.pkts_dup += o.pkts_dup;
        self.acks += o.acks;
        self.naks += o.naks;
        self.loss_events += o.loss_events;
        self.exp_timeouts += o.exp_timeouts;
        self.pkts_rejected += o.pkts_rejected;
        self.bytes_delivered += o.bytes_delivered;
    }
}

/// Link emulator counters of one op, both directions.
#[derive(Debug, Default, Clone, Copy)]
pub struct LinkCounts {
    pub forwarded: u64,
    pub queue_drops: u64,
}

/// What one op measured.
#[derive(Debug, Default)]
pub struct OpOut {
    /// Why the op failed. A reason that starts with `corrupt:` means the
    /// bytes delivered were not the bytes sent.
    pub failed: Option<String>,
    pub truncated: bool,
    pub wall: Duration,
    pub bind_us: f64,
    pub connect_us: f64,
    pub accept_us: f64,
    pub close_ms: f64,
    /// Timed round trips, µs.
    pub rr_us: Vec<f64>,
    /// Payload bytes and messages the stream phase delivered and verified,
    /// and the time they took (first byte sent → last byte received; for a
    /// timed stream, its measured window, whatever part of it delivered).
    pub stream_bytes: u64,
    pub stream_msgs: f64,
    pub stream_secs: f64,
    /// Bytes delivered in each full 100 ms window of the stream phase.
    pub windows: Vec<u64>,
    pub counters: Counters,
    /// Table 3 nanoseconds of the data-sending and data-receiving ends.
    pub instr_snd: [u64; 9],
    pub instr_rcv: [u64; 9],
    pub link: LinkCounts,
    /// Steal share of the pinned CPU while the op ran.
    pub steal_share: f64,
    /// Which of the workload's plans this op ran.
    pub plan: usize,
    /// Traced ops only: CPU and context switches by thread role, threads
    /// alive before close, and allocations made while the op ran.
    pub usage: Usage,
    pub threads: usize,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl OpOut {
    fn rr_secs(&self) -> f64 {
        (self.rr_us.iter().sum::<f64>() / 1e6).max(1e-9)
    }

    /// Verified payload bits per second: of the stream phase, or for an op
    /// without one, of its timed round trips (requests and responses).
    pub fn goodput_mbps(&self) -> f64 {
        if self.stream_secs > 0.0 {
            self.stream_bytes as f64 * 8.0 / self.stream_secs / 1e6
        } else {
            (self.rr_us.len() * (REQ_BYTES + RESP_BYTES)) as f64 * 8.0 / self.rr_secs() / 1e6
        }
    }

    /// Messages delivered and verified per second of the same phase.
    pub fn msgs_per_s(&self) -> f64 {
        if self.stream_secs > 0.0 {
            self.stream_msgs / self.stream_secs
        } else {
            (self.rr_us.len() * 2) as f64 / self.rr_secs()
        }
    }
}

/// State the two application threads of one op share. It carries harness
/// bookkeeping only; nothing the library sees.
struct Shared {
    epoch: Instant,
    truncated: AtomicBool,
    /// Stream bytes the client handed to `send()`.
    sent_bytes: AtomicU64,
    /// When the client made its first stream `send()`, ns after `epoch`.
    first_send_ns: AtomicU64,
    /// Set once the client's `close()` has returned (or it gave up).
    client_done: AtomicBool,
}

struct ServerOut {
    failed: Option<String>,
    accept_us: f64,
    got: u64,
    last_recv_ns: u64,
    /// `(ns after epoch, cumulative bytes)` at each window boundary.
    marks: Vec<(u64, u64)>,
    /// Timed stream: bytes delivered by the start and by the end of the
    /// measured window.
    got_by_lo: u64,
    got_by_hi: u64,
    counters: Counters,
    instr: [u64; 9],
}

/// Drops closed endpoints off the measuring threads. Dropping a connection
/// or a listener joins its demultiplexer and service threads, which notice
/// the stop flag only when a 100 ms socket timeout expires; that is idle
/// waiting, and done here the next op need not sit through it.
pub struct Reaper {
    tx: Option<std::sync::mpsc::Sender<Box<dyn Send>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Reaper {
    pub fn start() -> Reaper {
        let (tx, rx) = std::sync::mpsc::channel::<Box<dyn Send>>();
        let thread = std::thread::Builder::new()
            .name("bench-reaper".into())
            .spawn(move || rx.into_iter().for_each(drop))
            .expect("spawn reaper thread");
        Reaper {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    fn defer(&self, endpoint: impl Send + 'static) {
        if let Some(tx) = &self.tx {
            // If the reaper is gone the value is dropped here instead.
            let _ = tx.send(Box::new(endpoint));
        }
    }
}

impl Drop for Reaper {
    /// Waits until everything handed over has been dropped.
    fn drop(&mut self) {
        self.tx = None;
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

pub struct OpEnv<'a> {
    pub reaper: &'a Reaper,
    pub cfg: &'a UdtConfig,
    pub plan: Plan,
    pub payload: &'a Payload,
    pub wan: Option<Wan>,
    pub op_id: u32,
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Run one op. `trace` is the client's and the server's trace of a traced
/// run; `None` on the untraced path, which then times only what the
/// end-to-end metrics need.
pub fn run_op(env: &OpEnv<'_>, trace: Option<(&mut SideTrace, &mut SideTrace)>) -> OpOut {
    let mut out = OpOut::default();
    let t_op = Instant::now();
    let (mut ctrace, mut strace) = match trace {
        Some((c, s)) => (Some(c), Some(s)),
        None => (None, None),
    };
    let threads0 = ctrace.is_some().then(Threads::sample);
    for t in [&mut ctrace, &mut strace].into_iter().flatten() {
        t.op_id = env.op_id;
    }
    let op_span = ctrace.as_mut().map_or(0, |t| t.open());

    let t0 = Instant::now();
    let listener = match UdtListener::bind("127.0.0.1:0".parse().expect("addr"), env.cfg.clone()) {
        Ok(l) => l,
        Err(e) => {
            out.failed = Some(format!("bind: {e}"));
            return out;
        }
    };
    let t1 = Instant::now();
    out.bind_us = (t1 - t0).as_secs_f64() * 1e6;
    if let Some(t) = ctrace.as_mut() {
        t.phase("udt.socket.bind", op_span, t0, t1);
    }

    let emu = match env.wan {
        None => None,
        Some(w) => {
            let spec = |seed| LinkSpec {
                seed,
                ..LinkSpec::clean(w.rate_bps, w.one_way)
            };
            let s = env.payload.link_seed;
            match LinkEmu::start(spec(s), spec(s ^ 1), listener.local_addr()) {
                Ok(e) => Some(e),
                Err(e) => {
                    out.failed = Some(format!("linkemu: {e}"));
                    return out;
                }
            }
        }
    };
    let target = emu
        .as_ref()
        .map_or(listener.local_addr(), LinkEmu::client_addr);

    let shared = Shared {
        epoch: t_op,
        truncated: AtomicBool::new(false),
        sent_bytes: AtomicU64::new(0),
        first_send_ns: AtomicU64::new(0),
        client_done: AtomicBool::new(false),
    };
    let srv = std::thread::scope(|s| {
        // The server thread owns the listener and drops it after its
        // connection, so both ends tear down side by side.
        let server = std::thread::Builder::new()
            .name("app-server".into())
            .spawn_scoped(s, || server_side(listener, env, &shared, strace, op_span))
            .expect("spawn server thread");
        client_side(
            target,
            env,
            &shared,
            ctrace.as_deref_mut(),
            op_span,
            threads0.as_ref(),
            &mut out,
        );
        // Also on the paths where the client gave up before closing.
        shared.client_done.store(true, Ordering::Release);
        server.join()
    });
    if let Some(e) = emu {
        for d in [&e.a_to_b, &e.b_to_a] {
            out.link.forwarded += d.forwarded.load(Ordering::Relaxed);
            out.link.queue_drops += d.queue_drops.load(Ordering::Relaxed);
        }
        e.shutdown();
    }
    out.truncated = shared.truncated.load(Ordering::Relaxed);
    out.wall = t_op.elapsed();
    if let Some(t) = ctrace.as_mut() {
        t.close(op_span, "op", 0, t_op, Instant::now());
    }

    let srv = match srv {
        Ok(s) => s,
        Err(_) => {
            out.failed.get_or_insert("server thread panicked".into());
            return out;
        }
    };
    out.accept_us = srv.accept_us;
    out.counters.add(&srv.counters);
    out.instr_rcv = srv.instr;
    if out.failed.is_none() {
        out.failed = srv.failed.clone();
    }
    if out.failed.is_none() && out.wall > env.plan.hard_timeout() {
        out.failed = Some(format!("hard timeout: op took {:?}", out.wall));
    }
    fill_stream_result(env, &shared, &srv, &mut out);
    out
}

/// Turn the server's delivery marks into the op's stream figures.
fn fill_stream_result(env: &OpEnv<'_>, shared: &Shared, srv: &ServerOut, out: &mut OpOut) {
    let first = shared.first_send_ns.load(Ordering::Relaxed);
    let mut marks = &srv.marks[..];
    match env.plan.stream {
        Stream::None => {}
        Stream::Count { msg_bytes, .. } => {
            out.stream_bytes = srv.got;
            out.stream_msgs = srv.got as f64 / msg_bytes as f64;
            out.stream_secs = srv.last_recv_ns.saturating_sub(first) as f64 / 1e9;
        }
        Stream::Timed {
            msg_bytes,
            warm,
            measure,
        } => {
            // Over the whole window, so that a receiver starved at either
            // edge lowers the goodput instead of shortening the window.
            out.stream_bytes = srv.got_by_hi - srv.got_by_lo;
            out.stream_secs = measure.as_secs_f64();
            out.stream_msgs = out.stream_bytes as f64 / msg_bytes as f64;
            if out.failed.is_none() && out.stream_bytes == 0 {
                out.failed = Some("timed stream delivered nothing in its window".into());
            }
            let lo = first + warm.as_nanos() as u64;
            let hi = lo + measure.as_nanos() as u64;
            let from = marks.partition_point(|(t, _)| *t < lo);
            let to = marks.partition_point(|(t, _)| *t <= hi);
            marks = &marks[from..to.max(from)];
        }
    }
    // A mark is made by the first recv() to return after a grid line, so a
    // receiver that sat blocked across k lines left k - 1 empty windows.
    for w in marks.windows(2) {
        let k = ((w[1].0 - w[0].0) as f64 / WINDOW.as_nanos() as f64)
            .round()
            .max(1.0) as usize;
        out.windows.extend(std::iter::repeat_n(0, k - 1));
        out.windows.push(w[1].1 - w[0].1);
    }
}

fn client_side(
    target: SocketAddr,
    env: &OpEnv<'_>,
    shared: &Shared,
    mut trace: Option<&mut SideTrace>,
    op_span: u64,
    threads0: Option<&Threads>,
    out: &mut OpOut,
) {
    let t0 = Instant::now();
    let conn = match UdtConnection::connect(target, env.cfg.clone()) {
        Ok(c) => c,
        Err(e) => {
            out.failed = Some(format!("connect: {e}"));
            return;
        }
    };
    let t1 = Instant::now();
    out.connect_us = (t1 - t0).as_secs_f64() * 1e6;
    if let Some(t) = trace.as_deref_mut() {
        t.phase("udt.socket.connect", op_span, t0, t1);
    }
    let soft_deadline = t1 + env.plan.deadline;

    let result = client_stream(
        &conn,
        env,
        shared,
        trace.as_deref_mut(),
        op_span,
        soft_deadline,
    )
    .and_then(|()| {
        client_rr(
            &conn,
            env,
            shared,
            trace.as_deref_mut(),
            op_span,
            soft_deadline,
            out,
        )
    });
    if let Err(e) = &result {
        out.failed = Some(e.clone());
    }

    // `close()` is timed against an empty send buffer: wait for the last
    // ACK first (bounded by the linger the config gives close itself).
    let flush_by = Instant::now() + env.cfg.linger;
    while result.is_ok() && conn.unflushed_pkts() > 0 && Instant::now() < flush_by {
        std::thread::sleep(Duration::from_millis(1));
    }
    if let (Some(t0), Some(_)) = (threads0, trace.as_ref()) {
        // Both ends' protocol threads are still alive here.
        let now = Threads::sample();
        out.threads = now.count();
        now.add_delta_since(t0, &mut out.usage);
    }
    let t0 = Instant::now();
    let closed = conn.close();
    let t1 = Instant::now();
    shared.client_done.store(true, Ordering::Release);
    out.close_ms = (t1 - t0).as_secs_f64() * 1e3;
    if let Some(t) = trace {
        t.phase("udt.conn.close", op_span, t0, t1);
    }
    if let (Err(e), None) = (closed, &out.failed) {
        out.failed = Some(format!("close: {e}"));
    }
    out.counters.add_conn(conn.stats());
    out.instr_snd = conn.instrument().snapshot();
    env.reaper.defer(conn);
}

fn client_rr(
    conn: &UdtConnection,
    env: &OpEnv<'_>,
    shared: &Shared,
    mut trace: Option<&mut SideTrace>,
    op_span: u64,
    soft_deadline: Instant,
    out: &mut OpOut,
) -> Result<(), String> {
    let plan = env.plan;
    let total = plan.rr_warm + plan.rr_timed;
    if total == 0 || shared.truncated.load(Ordering::Relaxed) {
        return Ok(());
    }
    let phase = trace.as_deref_mut().map_or(0, |t| t.open());
    let t_phase = Instant::now();
    let mut req = env.payload.req;
    let mut resp = [0u8; RESP_BYTES];
    let mut nonces = XorShift::new(env.payload.link_seed ^ u64::from(env.op_id));
    out.rr_us.reserve(plan.rr_timed as usize);
    for i in 0..total {
        let nonce = nonces.next_u64();
        req[..8].copy_from_slice(&nonce.to_le_bytes());
        let t0 = Instant::now();
        if t0 >= soft_deadline {
            shared.truncated.store(true, Ordering::Relaxed);
            break;
        }
        conn.send(&req).map_err(|e| format!("rr send: {e}"))?;
        let t_sent = trace.is_some().then(Instant::now);
        conn.recv_exact(&mut resp)
            .map_err(|e| format!("rr recv: {e}"))?;
        let t1 = Instant::now();
        if let (Some(t), Some(ts)) = (trace.as_deref_mut(), t_sent) {
            t.send_call(phase, t0, ts);
            t.recv_call(phase, ts, t1, RESP_BYTES);
            t.maybe_perfmon(conn, t1);
        }
        if resp[..8] != nonce.to_le_bytes() || resp[8..] != env.payload.resp[8..] {
            return Err(format!(
                "corrupt: rr {i}: response does not match the request's nonce and filler"
            ));
        }
        if i >= plan.rr_warm {
            out.rr_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
    }
    if let Some(t) = trace {
        t.close(phase, "phase.rr", op_span, t_phase, Instant::now());
    }
    Ok(())
}

fn client_stream(
    conn: &UdtConnection,
    env: &OpEnv<'_>,
    shared: &Shared,
    mut trace: Option<&mut SideTrace>,
    op_span: u64,
    soft_deadline: Instant,
) -> Result<(), String> {
    let (msg_bytes, limit_msgs, stop_at) = match env.plan.stream {
        Stream::None => return Ok(()),
        Stream::Count { msgs, msg_bytes } => (msg_bytes, u64::from(msgs), soft_deadline),
        Stream::Timed {
            msg_bytes,
            warm,
            measure,
        } => {
            // A little past the window, so its last mark falls inside.
            (
                msg_bytes,
                u64::MAX,
                Instant::now() + warm + measure + WINDOW,
            )
        }
    };
    let timed = matches!(env.plan.stream, Stream::Timed { .. });
    let data = &env.payload.stream;
    let phase = trace.as_deref_mut().map_or(0, |t| t.open());
    let t_phase = Instant::now();
    shared
        .first_send_ns
        .store(ns_since(shared.epoch, t_phase), Ordering::Release);
    let mut off = 0usize;
    let mut sent = 0u64;
    let mut t_prev = t_phase;
    for i in 0..limit_msgs {
        // Untraced, the clock is read once per 64 messages.
        if trace.is_some() || i % 64 == 0 {
            t_prev = Instant::now();
        }
        if t_prev >= stop_at {
            if !timed {
                shared.truncated.store(true, Ordering::Relaxed);
            }
            break;
        }
        conn.send(&data[off..off + msg_bytes])
            .map_err(|e| format!("stream send: {e}"))?;
        if let Some(t) = trace.as_deref_mut() {
            let t1 = Instant::now();
            t.send_call(phase, t_prev, t1);
            t.maybe_perfmon(conn, t1);
        }
        sent += msg_bytes as u64;
        shared.sent_bytes.store(sent, Ordering::Release);
        off += msg_bytes;
        if off + msg_bytes > data.len() {
            off = 0;
        }
    }
    if !timed && !shared.truncated.load(Ordering::Relaxed) {
        // The receiver answers a complete stream with its checksum; that
        // reply is how the sender learns delivery finished.
        let mut reply = [0u8; 8];
        conn.recv_exact(&mut reply)
            .map_err(|e| format!("stream reply: {e}"))?;
        if u64::from_le_bytes(reply) != env.payload.stream_sum {
            return Err(
                "corrupt: stream reply: receiver's checksum differs from the payload's".into(),
            );
        }
    }
    if let Some(t) = trace {
        t.close(phase, "phase.stream", op_span, t_phase, Instant::now());
    }
    Ok(())
}

fn server_side(
    listener: UdtListener,
    env: &OpEnv<'_>,
    shared: &Shared,
    mut trace: Option<&mut SideTrace>,
    op_span: u64,
) -> ServerOut {
    let mut out = ServerOut {
        failed: None,
        accept_us: 0.0,
        got: 0,
        last_recv_ns: 0,
        marks: Vec::new(),
        got_by_lo: 0,
        got_by_hi: 0,
        counters: Counters::default(),
        instr: [0; 9],
    };
    let t0 = Instant::now();
    let conn = match listener.accept_timeout(env.cfg.connect_timeout + Duration::from_secs(1)) {
        Ok(Some(c)) => c,
        Ok(None) => {
            out.failed = Some("accept: no connection arrived".into());
            return out;
        }
        Err(e) => {
            out.failed = Some(format!("accept: {e}"));
            return out;
        }
    };
    let t1 = Instant::now();
    out.accept_us = (t1 - t0).as_secs_f64() * 1e6;
    if let Some(t) = trace.as_deref_mut() {
        t.phase("udt.socket.accept", op_span, t0, t1);
    }
    if let Err(e) = server_phases(&conn, env, shared, trace.as_deref_mut(), op_span, &mut out) {
        out.failed = Some(e);
    }
    // Hold the connection open until the client's close() has returned, so
    // that close is timed against a live peer. (A blocked recv() would see
    // the peer's Shutdown up to 100 ms late: README, "findings".)
    let give_up = Instant::now() + env.plan.hard_timeout();
    while !shared.client_done.load(Ordering::Acquire) && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    let t0 = Instant::now();
    let _ = conn.close();
    if let Some(t) = trace {
        t.phase("udt.conn.close", op_span, t0, Instant::now());
    }
    out.counters.add_conn(conn.stats());
    out.instr = conn.instrument().snapshot();
    // The connection first: the listener owns the socket it used.
    env.reaper.defer((conn, listener));
    out
}

fn server_phases(
    conn: &UdtConnection,
    env: &OpEnv<'_>,
    shared: &Shared,
    mut trace: Option<&mut SideTrace>,
    op_span: u64,
    out: &mut ServerOut,
) -> Result<(), String> {
    let plan = env.plan;
    let (expect_total, window) = match plan.stream {
        Stream::None => (0, None),
        Stream::Count { msgs, msg_bytes } => (u64::from(msgs) * msg_bytes as u64, None),
        Stream::Timed { warm, measure, .. } => (u64::MAX, Some((warm, measure))),
    };
    if expect_total > 0 {
        let phase = trace.as_deref_mut().map_or(0, |t| t.open());
        let t_phase = Instant::now();
        let mut sum = Checksum::default();
        let mut buf = vec![0u8; CHUNK];
        let mut next_mark: Option<Instant> = None;
        // The measured window of a timed stream, ns after the epoch; known
        // once the first byte is here, since the sender stamps its first
        // send before making it.
        let mut measured: Option<(u64, u64)> = None;
        while out.got < expect_total {
            let t0 = trace.is_some().then(Instant::now);
            let want = (expect_total - out.got).min(CHUNK as u64) as usize;
            let n = conn
                .recv(&mut buf[..want])
                .map_err(|e| format!("stream recv: {e}"))?;
            let now = Instant::now();
            if n == 0 {
                break; // end of stream: the peer closed
            }
            if let (Some(t), Some(t0)) = (trace.as_deref_mut(), t0) {
                t.recv_call(phase, t0, now, n);
            }
            sum.update(&buf[..n]);
            out.got += n as u64;
            out.last_recv_ns = ns_since(shared.epoch, now);
            if let Some((warm, measure)) = window {
                let (lo, hi) = *measured.get_or_insert_with(|| {
                    let lo = shared.first_send_ns.load(Ordering::Acquire) + warm.as_nanos() as u64;
                    (lo, lo + measure.as_nanos() as u64)
                });
                // Bytes delivered by each edge of the window: what the
                // last recv() to return at or before it had brought.
                if out.last_recv_ns <= lo {
                    out.got_by_lo = out.got;
                }
                if out.last_recv_ns <= hi {
                    out.got_by_hi = out.got;
                }
            }
            // Delivery marks sit on a 100 ms grid that starts at the
            // first byte.
            let due = *next_mark.get_or_insert(now);
            if now >= due {
                out.marks.push((out.last_recv_ns, out.got));
                next_mark = Some(due + WINDOW * ((now - due).as_millis() as u32 / 100 + 1));
            }
        }
        if let Some(t) = trace.as_deref_mut() {
            t.close(phase, "phase.stream", op_span, t_phase, Instant::now());
        }

        if out.got == expect_total {
            if sum.finish() != env.payload.stream_sum {
                return Err("corrupt: stream: checksum differs from the payload's".into());
            }
            conn.send(&sum.finish().to_le_bytes())
                .map_err(|e| format!("stream reply: {e}"))?;
        } else {
            // Ended by the sender: a timed stream, or a truncated counted
            // one. Everything the sender handed to send() must have arrived
            // intact.
            let ended_on_purpose = window.is_some() || shared.truncated.load(Ordering::Relaxed);
            let sent = shared.sent_bytes.load(Ordering::Acquire);
            if !ended_on_purpose || out.got != sent {
                return Err(format!(
                    "corrupt: stream: short delivery, {} of {sent} bytes sent",
                    out.got
                ));
            }
            if sum.finish() != env.payload.cycled_sum(out.got) {
                return Err("corrupt: stream: checksum differs from the bytes sent".into());
            }
            // The peer has closed: no round trips follow.
            return Ok(());
        }
    }

    let total_rr = plan.rr_warm + plan.rr_timed;
    if total_rr > 0 {
        let phase = trace.as_deref_mut().map_or(0, |t| t.open());
        let t_phase = Instant::now();
        let mut req = [0u8; REQ_BYTES];
        let mut resp = env.payload.resp;
        for i in 0..total_rr {
            let t0 = trace.is_some().then(Instant::now);
            if let Err(e) = conn.recv_exact(&mut req) {
                if shared.truncated.load(Ordering::Relaxed) {
                    return Ok(());
                }
                return Err(format!("rr {i} recv: {e}"));
            }
            let t_got = trace.is_some().then(Instant::now);
            if req[8..] != env.payload.req[8..] {
                return Err(format!(
                    "corrupt: rr {i}: request filler differs from what was sent"
                ));
            }
            resp[..8].copy_from_slice(&req[..8]);
            conn.send(&resp).map_err(|e| format!("rr {i} send: {e}"))?;
            if let (Some(t), Some(t0), Some(tg)) = (trace.as_deref_mut(), t0, t_got) {
                t.recv_call(phase, t0, tg, REQ_BYTES);
                t.send_call(phase, tg, Instant::now());
            }
        }
        if let Some(t) = trace {
            t.close(phase, "phase.rr", op_span, t_phase, Instant::now());
        }
    }
    Ok(())
}
