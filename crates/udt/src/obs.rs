//! Observability hub: the shared metrics registry, the HTTP scrape
//! endpoint, and the continuous CPU self-profiler.
//!
//! One [`MetricsHub`] is shared (via [`crate::UdtConfig::metrics`]) by
//! every endpoint created from a config. Connections, muxes, listeners
//! and sessions register their counter families and histograms into the
//! hub's [`Registry`] under the `udt_<subsystem>_<name>` namespace; a
//! single `udt-obs` thread per hub then
//!
//! * serves `GET /metrics` (OpenMetrics text) on
//!   [`crate::UdtConfig::metrics_listen`] — hand-rolled single-threaded
//!   HTTP, no dependencies, plaintext (bind to localhost);
//! * ticks the continuous profiler every
//!   [`crate::UdtConfig::metrics_interval`]: per-thread CPU from
//!   `/proc/self/task` (Linux), plus live Table-3 category shares from
//!   each connection's [`Instrument`], emitted both as registry gauges
//!   and as [`EventKind::CpuBreakdown`] trace events.
//!
//! Everything here is fail-soft: a registration clash or a dead scrape
//! socket degrades observability, never the transport.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use udt_metrics::counters::AuthCounters;
use udt_metrics::export::to_openmetrics;
use udt_metrics::hist::Histogram;
use udt_metrics::registry::{Counter, Gauge, Registry};
use udt_trace::{EventKind, Tracer};

use crate::instrument::{Instrument, CATEGORY_NAMES, N_CATEGORIES};
use crate::ConnStats;

/// Poison-tolerant lock: observability must never take the transport
/// down, so a mutex poisoned by a panicking metrics thread is recovered
/// rather than propagated.
fn lock_poison_ok<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-connection datapath histograms. Held as `Option<ConnObs>` in the
/// connection's shared state: `None` (no hub configured) keeps every
/// emit site a single branch.
pub(crate) struct ConnObs {
    /// RTT samples, microseconds (receiver ACK2 measurement and the
    /// sender's ACK-carried estimate).
    pub rtt_us: Arc<Histogram>,
    /// ACK-to-delivery latency, microseconds: time from the periodic ACK
    /// advancing the in-order frontier to the application draining it.
    pub ack_delivery_us: Arc<Histogram>,
    /// Packets handed to this connection per demux wakeup.
    pub rcv_batch_pkts: Arc<Histogram>,
}

/// One profiled connection: a weak handle on its [`Instrument`] plus the
/// registry series its deltas feed. Dropped when the connection dies.
struct CpuSource {
    conn_id: u32,
    instr: Weak<Instrument>,
    tracer: Tracer,
    last: [u64; N_CATEGORIES],
    nanos: Vec<Arc<Counter>>,
    share: Vec<Arc<Gauge>>,
}

struct ServerState {
    addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// The observability hub: registry + scrape server + profiler thread.
pub struct MetricsHub {
    registry: Arc<Registry>,
    sources: Mutex<Vec<CpuSource>>,
    server: Mutex<Option<ServerState>>,
}

impl fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsHub")
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

impl MetricsHub {
    /// Fresh hub with an empty registry. No thread is started until an
    /// endpoint attaches it (see [`crate::UdtConfig::metrics`]).
    pub fn new() -> Arc<MetricsHub> {
        Arc::new(MetricsHub {
            registry: Arc::new(Registry::new()),
            sources: Mutex::new(Vec::new()),
            server: Mutex::new(None),
        })
    }

    /// The underlying registry (for custom application metrics).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Current registry state rendered as OpenMetrics text — exactly
    /// what `GET /metrics` serves.
    pub fn openmetrics(&self) -> String {
        to_openmetrics(&self.registry.snapshot())
    }

    /// Address the scrape endpoint is bound to, if serving.
    pub fn scrape_addr(&self) -> Option<SocketAddr> {
        lock_poison_ok(&self.server).as_ref().and_then(|s| s.addr)
    }

    /// Build the per-connection histogram set. Registration failures
    /// fall back to unregistered (invisible) histograms: recording must
    /// never fail even when the namespace is in a degraded state.
    pub(crate) fn conn_obs(&self, conn_id: u32) -> ConnObs {
        let id = conn_id.to_string();
        let h = |name: &str, help: &str| {
            self.registry
                .histogram(name, help, &[("conn", &id)])
                .unwrap_or_else(|_| Arc::new(Histogram::new()))
        };
        ConnObs {
            rtt_us: h("udt_conn_rtt_us", "round-trip time samples, microseconds"),
            ack_delivery_us: h(
                "udt_conn_ack_delivery_us",
                "latency from ACK emission to application delivery, microseconds",
            ),
            rcv_batch_pkts: h(
                "udt_conn_rcv_batch_pkts",
                "packets handed to the connection per demux wakeup",
            ),
        }
    }

    /// Hook a fully-built connection into the hub: its stats family, its
    /// auth counters (when authenticated) and its CPU instrument (fed to
    /// the profiler). Registration errors degrade silently.
    pub(crate) fn register_conn(
        &self,
        conn_id: u32,
        stats: &Arc<ConnStats>,
        instr: &Arc<Instrument>,
        tracer: &Tracer,
        auth: Option<Arc<AuthCounters>>,
    ) {
        let id = conn_id.to_string();
        let _ = self
            .registry
            .register_family(&[("conn", &id)], Arc::clone(stats));
        if let Some(a) = auth {
            let _ = self.registry.register_family(&[("conn", &id)], a);
        }
        let mut nanos = Vec::with_capacity(N_CATEGORIES);
        let mut share = Vec::with_capacity(N_CATEGORIES);
        for name in CATEGORY_NAMES {
            nanos.push(
                self.registry
                    .counter(
                        "udt_cpu_category_nanos",
                        "cumulative protocol CPU nanoseconds per Table-3 category",
                        &[("conn", &id), ("category", name)],
                    )
                    .unwrap_or_default(),
            );
            share.push(
                self.registry
                    .gauge(
                        "udt_cpu_category_share",
                        "share of protocol CPU per Table-3 category over the last profiler interval",
                        &[("conn", &id), ("category", name)],
                    )
                    .unwrap_or_default(),
            );
        }
        lock_poison_ok(&self.sources).push(CpuSource {
            conn_id,
            instr: Arc::downgrade(instr),
            tracer: tracer.clone(),
            last: [0; N_CATEGORIES],
            nanos,
            share,
        });
    }

    /// One profiler tick: fold each live connection's instrument deltas
    /// into the registry and emit a live Table-3 breakdown trace event;
    /// drop sources whose connections are gone.
    fn profile_tick(&self) {
        let mut sources = lock_poison_ok(&self.sources);
        sources.retain_mut(|src| {
            let Some(instr) = src.instr.upgrade() else {
                return false;
            };
            let snap = instr.snapshot();
            let mut delta = [0u64; N_CATEGORIES];
            let mut total = 0u64;
            for (d, (now, last)) in delta.iter_mut().zip(snap.iter().zip(&src.last)) {
                *d = now.saturating_sub(*last);
                total = total.saturating_add(*d);
            }
            for ((d, nanos), share) in delta.iter().zip(&src.nanos).zip(&src.share) {
                nanos.inc(*d);
                let s = if total > 0 {
                    *d as f64 / total as f64
                } else {
                    0.0
                };
                share.set(s);
            }
            src.last = snap;
            // Cumulative per-category nanoseconds, same convention as the
            // post-hoc Table-3 emission in `bench`.
            src.tracer
                .emit(src.conn_id, EventKind::CpuBreakdown { nanos: snap });
            true
        });
    }

    /// Start the `udt-obs` thread (scrape endpoint + profiler) if it is
    /// not already running; idempotent per hub (a second call with a
    /// different address keeps the first endpoint and returns its
    /// address). Returns the bound scrape address, `None` when serving
    /// was not requested (profiler only).
    pub fn ensure_serving(
        self: &Arc<Self>,
        listen: Option<SocketAddr>,
        interval: Duration,
    ) -> io::Result<Option<SocketAddr>> {
        let mut g = lock_poison_ok(&self.server);
        if let Some(s) = g.as_ref() {
            return Ok(s.addr);
        }
        let listener = match listen {
            Some(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let addr = match &listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let hub = Arc::downgrade(self);
        let stop2 = Arc::clone(&stop);
        let interval = interval.max(Duration::from_millis(20));
        let thread = std::thread::Builder::new()
            .name("udt-obs".to_string())
            .spawn(move || serve_loop(&hub, listener.as_ref(), interval, &stop2))?;
        *g = Some(ServerState {
            addr,
            stop,
            thread: Some(thread),
        });
        Ok(addr)
    }

    /// Stop the `udt-obs` thread (idempotent). Called from `Drop`; also
    /// useful in tests to make teardown deterministic.
    pub fn shutdown(&self) {
        let state = lock_poison_ok(&self.server).take();
        if let Some(mut s) = state {
            s.stop.store(true, Ordering::Release);
            if let Some(t) = s.thread.take() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for MetricsHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Attach the config's hub at endpoint creation: create one on demand
/// when only `metrics_listen` is set, and start the
/// `udt-obs` thread. A bind failure on the scrape address is a real
/// configuration error and fails the endpoint.
pub(crate) fn init(
    cfg: &mut crate::UdtConfig,
) -> crate::error::Result<Option<Arc<MetricsHub>>> {
    if cfg.metrics.is_none() && cfg.metrics_listen.is_none() {
        return Ok(None);
    }
    let hub = Arc::clone(cfg.metrics.get_or_insert_with(MetricsHub::new));
    hub.ensure_serving(cfg.metrics_listen, cfg.metrics_interval)
        .map_err(crate::UdtError::Io)?;
    Ok(Some(hub))
}

/// One-shot scrape client: `GET /metrics` from a hub's endpoint,
/// returning the OpenMetrics body. Used by `udtstat` and
/// `udtmon --metrics`.
pub fn scrape_text(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: udtstat\r\nConnection: close\r\n\r\n")?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    let Some(split) = resp.find("\r\n\r\n") else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"));
    };
    if !resp.starts_with("HTTP/1.1 200") && !resp.starts_with("HTTP/1.0 200") {
        let status = resp.lines().next().unwrap_or("").to_string();
        return Err(io::Error::new(io::ErrorKind::InvalidData, status));
    }
    Ok(resp[split + 4..].to_string())
}

/// Scrape and parse: the registry snapshot as served by `addr`.
pub fn scrape_snapshot(
    addr: SocketAddr,
) -> io::Result<udt_metrics::registry::RegistrySnapshot> {
    let body = scrape_text(addr)?;
    udt_metrics::export::parse_openmetrics(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The `udt-obs` thread: poll the scrape socket, tick the profiler.
/// Holds only a `Weak` on the hub so dropping the last user reference
/// tears the thread down.
fn serve_loop(
    hub: &Weak<MetricsHub>,
    listener: Option<&TcpListener>,
    interval: Duration,
    stop: &AtomicBool,
) {
    let mut threads = ThreadCpu::default();
    let mut last_tick = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let Some(hub) = hub.upgrade() else { return };
        if let Some(l) = listener {
            // Drain every pending scrape; the socket is nonblocking.
            while let Ok((stream, _)) = l.accept() {
                serve_scrape(&hub, stream);
            }
        }
        if last_tick.elapsed() >= interval {
            let wall_s = last_tick.elapsed().as_secs_f64();
            last_tick = Instant::now();
            hub.profile_tick();
            threads.sample(&hub.registry, wall_s);
        }
        drop(hub); // never hold a strong reference across the sleep
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Answer one HTTP request on an accepted scrape connection. Minimal by
/// design: `GET /metrics` and a `/` index, everything else is 404.
fn serve_scrape(hub: &MetricsHub, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 2048];
    let mut len = 0;
    // Read until the end of the request head (we ignore any body).
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let mut parts = head.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, ctype, body) = match (method, path) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            hub.openmetrics(),
        ),
        ("GET", "/") => (
            "200 OK",
            "text/plain; charset=utf-8",
            "udt-obs scrape endpoint; metrics at /metrics\n".to_string(),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
}

/// Per-thread CPU accounting from `/proc/self/task/<tid>/stat` (Linux).
/// Thread names come from `comm` (kernel-truncated to 15 bytes), so the
/// protocol threads show up as `udt-snd-…`/`udt-rcv-…`/`udt-mux`.
#[derive(Default)]
struct ThreadCpu {
    /// name → clock ticks (utime+stime) at the previous sample.
    last: std::collections::BTreeMap<String, u64>,
}

impl ThreadCpu {
    #[cfg(target_os = "linux")]
    fn sample(&mut self, registry: &Registry, wall_s: f64) {
        // Jiffies per second. sysconf(_SC_CLK_TCK) without libc: the
        // value is 100 on every mainstream Linux config; shares divide
        // tick deltas by wall time so an exotic HZ only skews the
        // absolute seconds gauge, not the shares.
        const CLK_TCK: f64 = 100.0;
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        let mut now: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for entry in tasks.flatten() {
            let dir = entry.path();
            let Ok(stat) = std::fs::read_to_string(dir.join("stat")) else {
                continue;
            };
            // comm may contain spaces/parens; parse from the last ')'.
            let Some(close) = stat.rfind(')') else { continue };
            let Some(open) = stat.find('(') else { continue };
            let name = stat[open + 1..close].to_string();
            let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
            // After ')': field 0 is the run state; utime/stime are the
            // 14th/15th fields of the full line, i.e. indices 11/12 here.
            let (Some(utime), Some(stime)) = (
                fields.get(11).and_then(|s| s.parse::<u64>().ok()),
                fields.get(12).and_then(|s| s.parse::<u64>().ok()),
            ) else {
                continue;
            };
            *now.entry(name).or_insert(0) += utime + stime;
        }
        for (name, &ticks) in &now {
            let prev = self.last.get(name).copied().unwrap_or(ticks);
            let share = if wall_s > 0.0 {
                (ticks.saturating_sub(prev)) as f64 / CLK_TCK / wall_s
            } else {
                0.0
            };
            let labels = [("thread", name.as_str())];
            if let Ok(g) = registry.gauge(
                "udt_cpu_thread_seconds",
                "cumulative CPU seconds (user+system) per thread name",
                &labels,
            ) {
                g.set(ticks as f64 / CLK_TCK);
            }
            if let Ok(g) = registry.gauge(
                "udt_cpu_thread_share",
                "CPU share (cores) per thread name over the last profiler interval",
                &labels,
            ) {
                g.set(share);
            }
        }
        self.last = now;
    }

    #[cfg(not(target_os = "linux"))]
    fn sample(&mut self, _registry: &Registry, _wall_s: f64) {
        // No portable per-thread CPU source; the Table-3 instrument
        // shares (which are wall-clock based) still flow.
        let _ = &self.last;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_scrape_endpoint_serves_openmetrics() {
        let hub = MetricsHub::new();
        hub.registry()
            .counter("udt_test_total", "t", &[])
            .unwrap()
            .inc(7);
        let addr = hub
            .ensure_serving(
                Some("127.0.0.1:0".parse().unwrap()),
                Duration::from_secs(3600),
            )
            .unwrap()
            .expect("bound address");
        // Second call is idempotent and returns the same address.
        let again = hub
            .ensure_serving(
                Some("127.0.0.1:0".parse().unwrap()),
                Duration::from_secs(3600),
            )
            .unwrap();
        assert_eq!(again, Some(addr));
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("udt_test_total 7"), "{resp}");
        assert!(resp.trim_end().ends_with("# EOF"), "{resp}");
        // Unknown paths 404 without killing the server.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        hub.shutdown();
    }

    #[test]
    fn profiler_tick_feeds_category_series_and_trace() {
        use crate::instrument::Category;
        let hub = MetricsHub::new();
        let instr = Instrument::new();
        let tracer = Tracer::ring(256);
        hub.register_conn(7, &Arc::new(ConnStats::default()), &instr, &tracer, None);
        instr.add(Category::UdpSend, 3_000_000);
        instr.add(Category::Timing, 1_000_000);
        hub.profile_tick();
        let snap = hub.registry().snapshot();
        let labels = [("category", CATEGORY_NAMES[0]), ("conn", "7")];
        match snap.series("udt_cpu_category_nanos", &labels) {
            Some(udt_metrics::registry::SampleValue::Counter(v)) => assert_eq!(*v, 3_000_000),
            other => panic!("missing category counter: {other:?}"),
        }
        match snap.series("udt_cpu_category_share", &labels) {
            Some(udt_metrics::registry::SampleValue::Gauge(v)) => {
                assert!((*v - 0.75).abs() < 1e-9);
            }
            other => panic!("missing category share: {other:?}"),
        }
        // A live Table-3 breakdown landed in the trace ring.
        let events = tracer.snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CpuBreakdown { .. })));
        // Dropping the instrument retires the source on the next tick.
        drop(instr);
        hub.profile_tick();
        assert!(hub.sources.lock().unwrap().is_empty());
    }

    #[test]
    fn init_creates_hub_on_demand_only_when_asked() {
        let mut cfg = crate::UdtConfig::default();
        assert!(init(&mut cfg).unwrap().is_none());
        assert!(cfg.metrics.is_none());
        cfg.metrics_listen = Some("127.0.0.1:0".parse().unwrap());
        let hub = init(&mut cfg).unwrap().expect("hub created on demand");
        assert!(hub.scrape_addr().is_some());
        assert!(cfg.metrics.is_some());
        hub.shutdown();
    }
}
