//! Connection configuration.

use std::path::PathBuf;
use std::time::Duration;

use udt_algo::UdtCcConfig;
use udt_proto::PreSharedKey;
use udt_trace::Tracer;

use crate::auth::AuthPolicy;

/// Congestion-control choice (§7: the implementation is structured so that
/// alternate control algorithms can be tested).
#[derive(Debug, Clone)]
pub enum CcChoice {
    /// UDT's bandwidth-estimating AIMD (the paper's contribution).
    Udt(UdtCcConfig),
    /// SABUL's MIMD predecessor (baseline).
    Sabul {
        /// Multiplicative rate gain per SYN.
        alpha: f64,
    },
}

impl Default for CcChoice {
    fn default() -> CcChoice {
        CcChoice::Udt(UdtCcConfig::default())
    }
}

/// Tunables for a UDT endpoint. The defaults reproduce the paper's setup
/// (1500-byte MSS, 0.01 s SYN, generous windows).
#[derive(Debug, Clone)]
pub struct UdtConfig {
    /// Maximum segment size: total UDP payload bytes per data packet
    /// (protocol header + application payload). §6/Figure 15: the optimum
    /// equals the path MTU. Negotiated down to the peer's value.
    pub mss: u32,
    /// Send buffer capacity, packets.
    pub snd_buf_pkts: u32,
    /// Receive buffer capacity, packets (this bounds the flow window).
    pub rcv_buf_pkts: u32,
    /// Congestion controller.
    pub cc: CcChoice,
    /// Handshake overall timeout.
    pub connect_timeout: Duration,
    /// Handshake retransmission interval.
    pub handshake_retry: Duration,
    /// How long `close` may wait flushing unacknowledged data.
    pub linger: Duration,
    /// Spin window of the high-precision send timer (§4.5): the thread
    /// sleeps until deadline − spin, then busy-waits. Larger values burn
    /// more CPU for tighter pacing.
    pub timer_spin: Duration,
    /// Declare the peer dead after this many consecutive EXP expirations.
    pub max_exp_count: u32,
    /// Never declare the peer dead before it has been silent this long,
    /// regardless of `max_exp_count`. The reference implementation pairs
    /// its 16-expiration ceiling with a 10 s elapsed-time floor: on
    /// tiny-RTT paths the count ladder completes in a few seconds, which a
    /// loaded host can starve a healthy peer past.
    pub broken_silence_floor: Duration,
    /// Force the initial data sequence number instead of randomizing it.
    /// Testing hook: lets integration tests exercise sequence wraparound
    /// deterministically.
    pub force_init_seq: Option<u32>,
    /// Listener: capacity of the accept queue. Fully-established
    /// connections past this bound are dropped (and counted) rather than
    /// queued without limit.
    pub accept_backlog: usize,
    /// Listener: maximum handshake packets accepted from one peer address
    /// per second; the excess is dropped (and counted). Keyed by the full
    /// `ip:port` so a flood from one source port cannot starve a
    /// well-behaved client on the same host (the loopback/NAT case).
    pub handshake_rate_limit: u32,
    /// Listener: idle entries in the handshake response cache and the
    /// resume-session table are evicted after this long.
    pub handshake_cache_ttl: Duration,
    /// Listener: when `true` (the default), a connection request must echo
    /// a server-derived cookie before any state is allocated (SYN-cookie
    /// hardening). Disable only to interoperate with pre-extension peers
    /// that cannot echo cookies.
    pub require_cookie: bool,
    /// Reconnect policy used by [`crate::resilience::ResilientSession`]
    /// (and `udtcat --retry`).
    pub retry: RetryPolicy,
    /// Structured event tracer. Disabled by default: every emission site
    /// is then a single branch with zero allocation. Clones of one enabled
    /// tracer share a ring, so handing the same tracer to both endpoints
    /// of a loopback test yields one interleaved timeline.
    pub tracer: Tracer,
    /// When set, connections dump a flight recording (the tracer ring as
    /// JSONL) into this directory on fatal events: the peer being declared
    /// `Broken`, or a handshake rejection. No-op while `tracer` is
    /// disabled.
    pub flight_dir: Option<PathBuf>,
    /// Packet-authentication policy (see [`AuthPolicy`] and the
    /// "Authenticated transport" section of DESIGN.md). `Prefer` and
    /// `Require` need `auth_key` set; connect/bind fail fast with
    /// `UdtError::AuthConfig` otherwise.
    pub auth: AuthPolicy,
    /// 128-bit pre-shared key the authenticated profile derives all
    /// per-connection MAC keys from. Unused while `auth` is `Off`.
    pub auth_key: Option<PreSharedKey>,
    /// Batched datapath: maximum datagrams drained from the UDP socket per
    /// demultiplexer wakeup (one `recvmmsg` on Linux). `1` disables
    /// receive batching and reproduces the legacy one-`recv_from`-per-
    /// wakeup behavior — also the semantics of the portable fallback.
    pub rcv_batch_pkts: u32,
    /// Batched datapath: maximum data packets the sender coalesces into
    /// one socket flush (`sendmmsg` on Linux) when the pacing period
    /// allows. Pacing is preserved in aggregate: a burst of `n` packets
    /// advances the send timer by `n` periods. `1` disables send
    /// coalescing (legacy per-packet sends).
    pub snd_batch_pkts: u32,
    /// `SO_SNDBUF` requested for the shared UDP socket at bind, bytes
    /// (`0` = leave the OS default). The reference implementation sets
    /// 64 KB: sends drain synchronously on most paths, so the send side
    /// needs far less than the receive side.
    pub udp_sndbuf_bytes: u32,
    /// `SO_RCVBUF` requested for the shared UDP socket at bind, bytes
    /// (`0` = leave the OS default). The reference implementation sizes
    /// this at ~10 MB (receive window × MSS): a burst absorbed by the
    /// kernel queue is drained as one big `recvmmsg` batch, while an
    /// OS-default queue (a few hundred KB) overflows under exactly the
    /// conditions batching is for. Best-effort: the kernel silently caps
    /// at `net.core.rmem_max`.
    pub udp_rcvbuf_bytes: u32,
    /// Observability hub: every endpoint created from this config
    /// registers its counters/histograms into the hub's
    /// [`crate::obs::MetricsHub`] registry. `None` (the default) disables
    /// all metric recording — every emit site is then a single
    /// `Option` branch. Left `None` with `metrics_listen` set, a hub is
    /// created on demand at bind/connect.
    pub metrics: Option<std::sync::Arc<crate::obs::MetricsHub>>,
    /// Plaintext HTTP scrape endpoint serving `GET /metrics` in
    /// OpenMetrics text. Off by default. The endpoint is unauthenticated
    /// cleartext — bind it to localhost (`127.0.0.1:9151`) unless the
    /// network is trusted; see "Distributions, registry and
    /// export" in DESIGN.md.
    pub metrics_listen: Option<std::net::SocketAddr>,
    /// Continuous-profiler sampling interval: how often the observability
    /// thread snapshots per-thread CPU and per-connection Table-3 category
    /// shares.
    pub metrics_interval: Duration,
}

/// Reconnect/backoff policy for resilient sessions: exponential backoff
/// with deterministic jitter, bounded by attempts and an overall deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum reconnect attempts per outage (0 = resilience disabled).
    pub max_attempts: u32,
    /// Backoff before the first reconnect attempt.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
    /// Overall wall-clock budget across all attempts of one outage;
    /// `None` = bounded by `max_attempts` only.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(5),
            deadline: None,
        }
    }
}

/// Each backoff is scaled by a deterministic factor drawn from
/// `[1 - BACKOFF_JITTER, 1 + BACKOFF_JITTER]`.
const BACKOFF_JITTER: f64 = 0.25;

impl RetryPolicy {
    /// Backoff before reconnect attempt `attempt` (1-based), with
    /// deterministic jitter derived from `seed` — same seed, same
    /// schedule, so chaos tests replay exactly.
    pub fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << exp.min(16))
            .min(self.max_backoff);
        // splitmix64 on (seed, attempt) → uniform factor in [1-j, 1+j].
        let mut z = seed ^ (u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + BACKOFF_JITTER * (2.0 * unit - 1.0);
        raw.mul_f64(factor)
    }
}

impl Default for UdtConfig {
    fn default() -> UdtConfig {
        UdtConfig {
            mss: 1500,
            snd_buf_pkts: 8192,
            rcv_buf_pkts: 8192,
            cc: CcChoice::default(),
            connect_timeout: Duration::from_secs(5),
            handshake_retry: Duration::from_millis(100),
            linger: Duration::from_secs(10),
            timer_spin: Duration::from_micros(200),
            max_exp_count: udt_algo::timerctl::MAX_EXP_COUNT,
            broken_silence_floor: udt_algo::timerctl::BROKEN_SILENCE_FLOOR.into(),
            force_init_seq: None,
            accept_backlog: 64,
            handshake_rate_limit: 64,
            handshake_cache_ttl: Duration::from_secs(60),
            require_cookie: true,
            retry: RetryPolicy::default(),
            tracer: Tracer::disabled(),
            flight_dir: None,
            auth: AuthPolicy::Off,
            auth_key: None,
            rcv_batch_pkts: 32,
            snd_batch_pkts: 16,
            udp_sndbuf_bytes: 65_536,
            udp_rcvbuf_bytes: 10_000_000,
            metrics: None,
            metrics_listen: None,
            metrics_interval: Duration::from_secs(1),
        }
    }
}

/// Smallest MSS either side will negotiate. A handshake proposing less is
/// treated as corrupted (the data header alone is 12 bytes; anything near
/// it would shatter throughput and, below it, underflow `payload_size`).
pub const MIN_MSS: u32 = 100;

impl UdtConfig {
    /// Application payload bytes per full data packet.
    pub fn payload_size(&self) -> usize {
        self.mss.max(MIN_MSS) as usize - udt_proto::DATA_HEADER_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_values() {
        let c = UdtConfig::default();
        assert_eq!(c.mss, 1500);
        assert_eq!(c.payload_size(), 1488);
        assert!(matches!(c.cc, CcChoice::Udt(_)));
        // Batched-datapath knobs: batching on by default.
        assert_eq!(c.rcv_batch_pkts, 32);
        assert_eq!(c.snd_batch_pkts, 16);
        // UDP socket buffers: reference-implementation parity (64 KB
        // send, ~10 MB receive).
        assert_eq!(c.udp_sndbuf_bytes, 65_536);
        assert_eq!(c.udp_rcvbuf_bytes, 10_000_000);
        // Observability is strictly opt-in.
        assert!(c.metrics.is_none());
        assert!(c.metrics_listen.is_none());
        assert_eq!(c.metrics_interval, Duration::from_secs(1));
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..=12u32 {
            let a = p.backoff(attempt, 42);
            let b = p.backoff(attempt, 42);
            assert_eq!(a, b, "same seed must give the same schedule");
            assert!(a <= p.max_backoff.mul_f64(1.0 + BACKOFF_JITTER));
        }
        // Jitter actually varies with the seed.
        assert_ne!(p.backoff(3, 1), p.backoff(3, 2));
        // Exponential shape: attempt 4 (unjittered 1.6 s) dwarfs attempt 1.
        assert!(p.backoff(4, 7) > p.backoff(1, 7));
    }

    #[test]
    fn payload_respects_custom_mss() {
        let c = UdtConfig {
            mss: 9000,
            ..UdtConfig::default()
        };
        assert_eq!(c.payload_size(), 9000 - 12);
    }
}
