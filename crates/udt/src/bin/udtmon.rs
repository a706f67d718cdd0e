//! `udtmon` — live terminal monitor for UDT trace timelines.
//!
//! Tails a JSONL trace file (from `udtperf --trace`, `bench exp fig7 --trace`,
//! or a flight-recorder dump) and renders a per-connection summary table:
//! packet/ACK/NAK counts, retransmissions, drops, injected chaos faults,
//! and the latest RTT / rate / window / bandwidth observations. The §7
//! `perfmon` API gives one process its own numbers; `udtmon` reads the
//! exported timeline instead, so it works identically on live socket
//! runs, simulator exports and post-mortem dumps.
//!
//! Usage:
//!   udtmon <trace.jsonl>              live: re-reads appended lines, redraws
//!   udtmon --once <trace.jsonl>       render the current file once and exit
//!   udtmon --interval 500 <trace.jsonl>   redraw period in ms (default 1000)
//!   udtmon --metrics 127.0.0.1:9151 <trace.jsonl>   also scrape the udt-obs
//!       endpoint each pass and render per-connection latency/batch
//!       percentile rows (RTT p50/p99/p999, batch-size p50/p99)
//!
//! Lines that fail the shared schema parser are counted, not fatal —
//! a live writer may be mid-line at read time.
//!
//! Bonded (multipath) timelines carry `path_*` events alongside the
//! per-connection stream; these are grouped by path id and rendered as
//! indented per-path rows under the owning connection — one dashboard,
//! one row per path.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::PathBuf;
use std::time::Duration;

use udt::ConnStats;
use udt_metrics::counters::{AuthCounters, PathCounters};
use udt_metrics::registry::SampleValue;
use udt_trace::{json, DropReason, EventKind, Fold, TraceEvent};

/// Per-connection percentile row scraped from the udt-obs endpoint.
#[derive(Default, Clone)]
struct PctRow {
    rtt: Option<(u64, u64, u64, u64)>,   // count, p50, p99, p999 (µs)
    batch: Option<(u64, u64, u64)>,      // count, p50, p99 (pkts)
}

/// Scrape `addr` and fold the per-conn histograms into percentile rows.
fn scrape_percentiles(addr: std::net::SocketAddr) -> BTreeMap<u32, PctRow> {
    let mut rows: BTreeMap<u32, PctRow> = BTreeMap::new();
    let Ok(snap) = udt::obs::scrape_snapshot(addr) else {
        return rows;
    };
    for (family, is_rtt) in [
        ("udt_conn_rtt_us", true),
        ("udt_conn_rcv_batch_pkts", false),
    ] {
        let Some(fam) = snap.family(family) else { continue };
        for s in &fam.series {
            let Some(conn) = s
                .labels
                .iter()
                .find(|(k, _)| k == "conn")
                .and_then(|(_, v)| v.parse::<u32>().ok())
            else {
                continue;
            };
            let SampleValue::Hist(h) = &s.value else { continue };
            if h.count() == 0 {
                continue;
            }
            let row = rows.entry(conn).or_default();
            if is_rtt {
                row.rtt = Some((h.count(), h.p50(), h.p99(), h.p999()));
            } else {
                row.batch = Some((h.count(), h.p50(), h.p99()));
            }
        }
    }
    rows
}

/// One bonded path's slice of a connection timeline.
#[derive(Default)]
struct PathAgg {
    counters: PathCounters,
    bw_pps: Option<f64>,
    rtt_us: Option<f64>,
    loss_pct: Option<f64>,
    last_t_ns: u64,
}

/// One connection's slice of the timeline. Counts come from replaying the
/// events through the library's own folds, so a row reads what the
/// endpoint's live counters read; what is kept beside them has no fold:
/// other parties' drops, injected faults, batches, and latest-value gauges.
#[derive(Default)]
struct ConnAgg {
    events: u64,
    stats: ConnStats,
    auth: AuthCounters,
    /// Drops by a link, the demultiplexer or a full buffer.
    other_drops: u64,
    chaos: u64,
    rtt_us: Option<u32>,
    period_us: Option<f64>,
    cwnd: Option<f64>,
    bw_pps: Option<f64>,
    state: Option<&'static str>,
    /// Batched-datapath deliveries (receiver wakeups) and the packets
    /// they carried; ratio = demux batching efficiency.
    batches: u64,
    batch_pkts: u64,
    last_t_ns: u64,
    /// Bonded-session paths seen on this connection, by path id.
    paths: BTreeMap<u32, PathAgg>,
}

impl ConnAgg {
    fn feed(&mut self, ev: &TraceEvent) {
        self.events += 1;
        self.last_t_ns = self.last_t_ns.max(ev.t_ns);
        self.stats.apply(&ev.kind);
        self.auth.apply(&ev.kind);
        match ev.kind {
            EventKind::DataDrop { reason, .. }
                if !matches!(reason, DropReason::Duplicate | DropReason::Implausible) =>
            {
                self.other_drops += 1;
            }
            EventKind::ChaosFault { .. } => self.chaos += 1,
            EventKind::RttUpdate { rtt_us, .. } => self.rtt_us = Some(rtt_us),
            EventKind::RateUpdate { period_us, cwnd } => {
                self.period_us = Some(period_us);
                self.cwnd = Some(cwnd);
            }
            EventKind::BwEstimate { pps } => self.bw_pps = Some(pps),
            EventKind::StateChange { to, .. } => self.state = Some(to.as_str()),
            EventKind::BatchRecv { pkts } => {
                self.batches += 1;
                self.batch_pkts += u64::from(pkts);
            }
            EventKind::PathUp { path }
            | EventKind::PathDown { path }
            | EventKind::PathSend { path, .. }
            | EventKind::PathRecv { path, .. }
            | EventKind::PathLoss { path, .. } => {
                self.path(path, ev.t_ns).counters.apply(&ev.kind);
            }
            EventKind::PathRate {
                path,
                bw_pps,
                rtt_us,
                loss_pct,
            } => {
                let p = self.path(path, ev.t_ns);
                p.bw_pps = Some(bw_pps);
                p.rtt_us = Some(rtt_us);
                p.loss_pct = Some(loss_pct);
            }
            _ => {}
        }
    }

    fn path(&mut self, id: u32, t_ns: u64) -> &mut PathAgg {
        let p = self.paths.entry(id).or_default();
        p.last_t_ns = p.last_t_ns.max(t_ns);
        p
    }
}

#[derive(Default)]
struct Monitor {
    conns: BTreeMap<u32, ConnAgg>,
    parsed: u64,
    bad_lines: u64,
}

impl Monitor {
    fn feed_line(&mut self, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        match json::parse_line(line) {
            Ok(ev) => {
                self.parsed += 1;
                self.conns.entry(ev.conn).or_default().feed(&ev);
            }
            Err(_) => self.bad_lines += 1,
        }
    }

    fn render(&self, path: Option<&std::path::Path>, pct: &BTreeMap<u32, PctRow>) -> String {
        let mut s = String::new();
        match path {
            Some(p) => s.push_str(&format!(
                "udtmon — {} ({} events, {} unparsed)\n",
                p.display(),
                self.parsed,
                self.bad_lines
            )),
            None => s.push_str("udtmon — metrics scrape only (no trace file)\n"),
        }
        s.push_str(
            "conn      events     sent(retx)     recvd   acks   naks  drops  chaos  exp  \
             rtt(ms)  rate(pkt/s)   cwnd  bw(pkt/s)  state      last(s)\n",
        );
        for (conn, a) in &self.conns {
            let (st, get) = (&a.stats, ConnStats::get);
            let retx = get(&st.pkts_retransmitted);
            let rate_pps = a
                .period_us
                .map(|p| if p > 0.0 { 1e6 / p } else { 0.0 });
            s.push_str(&format!(
                "{:<8x} {:>8} {:>9}({:>4}) {:>9} {:>6} {:>6} {:>6} {:>6} {:>4}  {:>7} {:>12} {:>6} {:>10}  {:<9} {:>8.2}\n",
                conn,
                a.events,
                get(&st.pkts_sent) + retx,
                retx,
                get(&st.pkts_received),
                get(&st.acks_sent) + get(&st.acks_received),
                get(&st.naks_sent) + get(&st.naks_received),
                get(&st.pkts_duplicate) + get(&st.pkts_rejected) + a.other_drops,
                a.chaos,
                get(&st.exp_timeouts),
                a.rtt_us
                    .map_or_else(|| "-".into(), |r| format!("{:.2}", f64::from(r) / 1e3)),
                rate_pps.map_or_else(|| "-".into(), |r| format!("{r:.0}")),
                a.cwnd.map_or_else(|| "-".into(), |c| format!("{c:.0}")),
                a.bw_pps.map_or_else(|| "-".into(), |b| format!("{b:.0}")),
                a.state.unwrap_or("-"),
                a.last_t_ns as f64 / 1e9,
            ));
            let auth = a.auth.snapshot();
            if auth.tags_bad + auth.replays + auth.unauth_rejected > 0 {
                s.push_str(&format!(
                    "  └ auth: {} bad tags rejected, {} replays dropped, {} peers refused\n",
                    auth.tags_bad, auth.replays, auth.unauth_rejected,
                ));
            }
            if a.batches > 0 {
                s.push_str(&format!(
                    "  └ batch: {} deliveries, {} pkts, {:.1} avg pkts/batch\n",
                    a.batches,
                    a.batch_pkts,
                    a.batch_pkts as f64 / a.batches as f64,
                ));
            }
            if let Some(row) = pct.get(conn) {
                s.push_str(&render_pct_row(row));
            }
            for (pid, p) in &a.paths {
                let c = p.counters.snapshot();
                s.push_str(&format!(
                    "  └ path {pid:<3} sent {:>7} ({:>8.2} MB)  recvd {:>7} ({:>8.2} MB)  \
                     requeued {:>5}  up/down {}/{}  bw {:>8}  rtt {:>7}  loss {:>6}  last {:>7.2}\n",
                    c.chunks_sent,
                    c.bytes_sent as f64 / 1e6,
                    c.chunks_recv,
                    c.bytes_recv as f64 / 1e6,
                    c.chunks_requeued,
                    c.path_ups,
                    c.path_downs,
                    p.bw_pps
                        .map_or_else(|| "-".into(), |b| format!("{b:.0}p/s")),
                    p.rtt_us
                        .map_or_else(|| "-".into(), |r| format!("{:.2}ms", r / 1e3)),
                    p.loss_pct
                        .map_or_else(|| "-".into(), |l| format!("{l:.2}%")),
                    p.last_t_ns as f64 / 1e9,
                ));
            }
        }
        // Connections visible only through the scrape endpoint (e.g. a
        // metrics-enabled process that is not writing this trace file).
        for (conn, row) in pct {
            if !self.conns.contains_key(conn) {
                s.push_str(&format!("{conn:<8x} (metrics only)\n"));
                s.push_str(&render_pct_row(row));
            }
        }
        s
    }
}

/// The `└ pct:` sub-row shared by traced and metrics-only connections.
fn render_pct_row(row: &PctRow) -> String {
    let rtt = row.rtt.map_or_else(
        || "rtt -".to_string(),
        |(n, p50, p99, p999)| {
            format!(
                "rtt p50 {:.2}ms p99 {:.2}ms p999 {:.2}ms (n={n})",
                p50 as f64 / 1e3,
                p99 as f64 / 1e3,
                p999 as f64 / 1e3,
            )
        },
    );
    let batch = row.batch.map_or_else(
        || "batch -".to_string(),
        |(n, p50, p99)| format!("batch p50 {p50} p99 {p99} pkts (n={n})"),
    );
    format!("  └ pct: {rtt}  {batch}\n")
}

fn usage() -> ! {
    eprintln!(
        "usage: udtmon [--once] [--interval <ms>] [--metrics <host:port>] [<trace.jsonl>]\n\
         a trace file, --metrics, or both must be given"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut once = false;
    let mut interval = Duration::from_millis(1000);
    let mut path: Option<PathBuf> = None;
    let mut metrics: Option<std::net::SocketAddr> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--once" => once = true,
            "--interval" => {
                let Some(ms) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    usage();
                };
                interval = Duration::from_millis(ms.max(50));
            }
            "--metrics" => {
                let Some(addr) = it.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                metrics = Some(addr);
            }
            "--help" | "-h" => usage(),
            _ if path.is_none() => path = Some(PathBuf::from(a)),
            _ => usage(),
        }
    }
    if path.is_none() && metrics.is_none() {
        usage();
    }

    let mut mon = Monitor::default();
    let mut offset: u64 = 0;
    loop {
        // Tail: only the bytes appended since the last pass are parsed.
        // With --metrics alone there is no file to tail; the dashboard is
        // built entirely from the scrape.
        if let Some(path) = &path {
            match std::fs::File::open(path) {
                Ok(mut f) => {
                    let len = f.metadata().map(|m| m.len()).unwrap_or(0);
                    if len < offset {
                        // Truncated/rotated: start over.
                        mon = Monitor::default();
                        offset = 0;
                    }
                    if f.seek(SeekFrom::Start(offset)).is_ok() {
                        let mut reader = BufReader::new(&mut f);
                        let mut line = String::new();
                        loop {
                            line.clear();
                            match reader.read_line(&mut line) {
                                Ok(0) | Err(_) => break,
                                Ok(n) => {
                                    // Hold back a partial trailing line for the
                                    // next pass (a live writer may be mid-write).
                                    if !line.ends_with('\n') {
                                        break;
                                    }
                                    offset += n as u64;
                                    mon.feed_line(&line);
                                }
                            }
                        }
                    }
                }
                Err(e) => {
                    if once {
                        eprintln!("udtmon: {}: {e}", path.display());
                        std::process::exit(1);
                    }
                }
            }
        }
        let pct = metrics.map(scrape_percentiles).unwrap_or_default();
        if once {
            print!("{}", mon.render(path.as_deref(), &pct));
            if mon.parsed == 0 && pct.is_empty() {
                std::process::exit(1);
            }
            return;
        }
        // ANSI clear + home, then the table — a minimal live TUI.
        print!("\x1b[2J\x1b[H{}", mon.render(path.as_deref(), &pct));
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}
