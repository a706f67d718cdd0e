//! Bonded multipath sessions over real UDT sockets.
//!
//! This is the socket-layer glue for `udt-multipath`: a [`PathStream`]
//! implementation wrapping [`UdtConnection`] (estimates come straight
//! from the perfmon counters — packet-pair bandwidth, smoothed RTT,
//! retransmission rate), a [`PathConnector`] that dials one address per
//! path, and `bonded_connect` / `bonded_accept` entry points used by
//! `udtperf --path` and `udtcat --path`.
//!
//! Failover timing: a bonded path should be declared dead quickly — the
//! session has other paths to lean on, so the single-connection 16 × EXP
//! escalation with its 10 s silence floor is far too patient. Path
//! connections therefore run with [`bonded_path_cfg`], which drops
//! `max_exp_count` to 4 and the silence floor to 800 ms; the bonded layer
//! migrates unacknowledged chunks the moment the stream errors out.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use udt_multipath::session::AcceptFn;
use udt_multipath::{
    BondedCfg, BondedReceiver, BondedSender, PathConnector, PathEstimate, PathId, PathStream,
    StreamError,
};

use crate::config::UdtConfig;
use crate::conn::UdtConnection;
use crate::socket::UdtListener;

/// How long the accept pump waits per poll before checking for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(100);

/// A UDT connection carrying one path of a bonded session. The second
/// field is the optional `udt_path_rtt_us{path=…}` histogram, fed from
/// the scheduler's periodic [`PathStream::estimate`] polls.
pub struct UdtPathStream(
    pub UdtConnection,
    Option<std::sync::Arc<udt_metrics::hist::Histogram>>,
);

impl UdtPathStream {
    /// Wrap a connection with no metrics attached (accept side, tests).
    pub fn new(conn: UdtConnection) -> UdtPathStream {
        UdtPathStream(conn, None)
    }

    /// Wrap a connection; when `cfg` carries a metrics hub the path's
    /// RTT estimates are recorded under `udt_path_rtt_us{path="<id>"}`.
    pub fn wrap(conn: UdtConnection, cfg: &UdtConfig, path: u32) -> UdtPathStream {
        let hist = cfg.metrics.as_ref().and_then(|hub| {
            let id = path.to_string();
            hub.registry()
                .histogram(
                    "udt_path_rtt_us",
                    "bonded-path RTT estimates, microseconds",
                    &[("path", &id)],
                )
                .ok()
        });
        UdtPathStream(conn, hist)
    }
}

impl PathStream for UdtPathStream {
    fn send(&self, buf: &[u8]) -> Result<(), StreamError> {
        self.0
            .send(buf)
            .map_err(|e| StreamError::new(e.to_string()))
    }

    fn recv(&self, buf: &mut [u8]) -> Result<usize, StreamError> {
        self.0
            .recv(buf)
            .map_err(|e| StreamError::new(e.to_string()))
    }

    fn close(&self) {
        let _ = self.0.close();
    }

    fn estimate(&self) -> PathEstimate {
        let p = self.0.perfmon();
        let sent = p.pkts_sent.max(1);
        if let Some(h) = &self.1 {
            if p.rtt_us > 0.0 {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                h.record(p.rtt_us as u64);
            }
        }
        PathEstimate {
            bw_pps: p.bandwidth_est_pps,
            rtt_us: p.rtt_us,
            rtt_var_us: 0.0,
            loss_pct: 100.0 * p.pkts_retransmitted as f64 / sent as f64,
            cwnd_pkts: p.cwnd_pkts,
        }
    }
}

/// Derive the per-path connection config from a base config: identical
/// except for aggressive liveness detection (see module docs).
pub fn bonded_path_cfg(base: &UdtConfig) -> UdtConfig {
    let mut cfg = base.clone();
    cfg.max_exp_count = 4;
    cfg.broken_silence_floor = Duration::from_millis(800);
    cfg
}

/// Dials path `i` to `addrs[i]` (one address per path).
pub struct UdtPathConnector {
    addrs: Vec<SocketAddr>,
    cfg: UdtConfig,
}

impl UdtPathConnector {
    /// Connector over `addrs` using `cfg` (already path-tuned) for every
    /// connection.
    pub fn new(addrs: Vec<SocketAddr>, cfg: UdtConfig) -> UdtPathConnector {
        UdtPathConnector { addrs, cfg }
    }
}

impl PathConnector for UdtPathConnector {
    fn connect(&self, path: PathId) -> Result<Box<dyn PathStream>, StreamError> {
        let addr = self.addrs[path.0 as usize % self.addrs.len()];
        let conn = UdtConnection::connect(addr, self.cfg.clone())
            .map_err(|e| StreamError::new(format!("{addr}: {e}")))?;
        Ok(Box::new(UdtPathStream::wrap(conn, &self.cfg, path.0)))
    }
}

/// Open a bonded sending session with one UDT connection per address.
/// Any path failing to connect aborts the whole session with a
/// diagnostic naming the path.
pub fn bonded_connect(
    addrs: &[SocketAddr],
    cfg: &UdtConfig,
    mp: BondedCfg,
) -> Result<BondedSender, StreamError> {
    if addrs.is_empty() {
        return Err(StreamError::new("bonded connect needs at least one path address"));
    }
    let connector = Arc::new(UdtPathConnector::new(
        addrs.to_vec(),
        bonded_path_cfg(cfg),
    ));
    BondedSender::start(connector, addrs.len(), mp)
}

/// Accept up to `n_paths` path connections from `listener` into a bonded
/// receiving session. The pump polls the listener until the session
/// closes, so late re-joins after a failover are picked up too.
pub fn bonded_accept(
    listener: Arc<UdtListener>,
    n_paths: usize,
    mp: BondedCfg,
) -> BondedReceiver {
    let accept: AcceptFn = Box::new(move || match listener.accept_timeout(ACCEPT_POLL) {
        // Accept side: no per-path histogram (the listener has no stable
        // path identity to label by; the sender side records RTT).
        Ok(Some(c)) => Ok(Some(Box::new(UdtPathStream::new(c)) as Box<dyn PathStream>)),
        Ok(None) => Ok(None),
        Err(e) => Err(StreamError::new(e.to_string())),
    });
    BondedReceiver::start(accept, n_paths, mp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| u8::try_from(i % 251).unwrap_or(0)).collect()
    }

    #[test]
    fn bonded_loopback_transfer_over_two_udt_paths() {
        let cfg = UdtConfig::default();
        let listener = Arc::new(
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), cfg.clone()).expect("bind"),
        );
        let addr = listener.local_addr();
        let mp = BondedCfg {
            chunk_len: 4096,
            window_chunks: 64,
            ..BondedCfg::default()
        };
        let rx = bonded_accept(Arc::clone(&listener), 2, mp.clone());
        let mut tx = bonded_connect(&[addr, addr], &cfg, mp).expect("bonded connect");
        let data = pattern(256 * 1024);
        tx.send(&data).expect("send");
        tx.finish(Duration::from_secs(30)).expect("finish");
        let mut got = Vec::new();
        let mut buf = vec![0u8; 16 * 1024];
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let n = rx
                .recv_timeout(&mut buf, Duration::from_secs(5))
                .expect("recv");
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
            assert!(std::time::Instant::now() < deadline, "receive stalled");
        }
        assert_eq!(got, data, "bonded loopback stream must be byte-identical");
        let per_path: Vec<u64> = tx.counters().iter().map(|s| s.chunks_sent).collect();
        assert!(
            per_path.iter().all(|&c| c > 0),
            "both paths should carry chunks: {per_path:?}"
        );
    }

    #[test]
    fn bonded_connect_failure_names_the_path() {
        // Nothing listens on this address; connect must fail fast with a
        // diagnostic suitable for a one-line CLI error.
        let cfg = UdtConfig {
            connect_timeout: Duration::from_millis(300),
            ..UdtConfig::default()
        };
        let dead: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let err = bonded_connect(&[dead], &cfg, BondedCfg::default())
            .err()
            .expect("must fail");
        assert!(err.to_string().contains("path 0"), "got: {err}");
    }
}
