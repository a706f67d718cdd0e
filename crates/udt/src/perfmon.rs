//! Performance monitoring: a point-in-time snapshot of a connection's
//! control state and rates (the released UDT library's `perfmon` API,
//! which the paper's §7 cites as a deliberate extensibility/observability
//! hook for protocol research).

use std::time::{Duration, Instant};

use crate::conn::UdtConnection;
use crate::ConnStats;

/// A point-in-time view of one connection.
#[derive(Debug, Clone)]
pub struct PerfSnapshot {
    /// Local socket id of the connection this snapshot was taken from.
    /// Interval math ([`PerfSnapshot::duration_since`],
    /// [`throughput_between`]) refuses to mix snapshots of different
    /// connections — each connection has its own counters and clock epoch,
    /// so cross-connection deltas are nonsense.
    pub conn_id: u32,
    /// Smoothed RTT seen by the sending side, microseconds.
    pub rtt_us: f64,
    /// Current packet sending period, microseconds.
    pub pkt_snd_period_us: f64,
    /// Implied sending rate, packets/second.
    pub send_rate_pps: f64,
    /// Congestion window, packets.
    pub cwnd_pkts: f64,
    /// Flow window advertised by the peer, packets.
    pub peer_window_pkts: u32,
    /// Link-capacity estimate from packet pairs, packets/second.
    pub bandwidth_est_pps: f64,
    /// Receive-rate report from the peer, packets/second.
    pub recv_rate_pps: f64,
    /// Data packets sent (first transmissions).
    pub pkts_sent: u64,
    /// Data packets retransmitted.
    pub pkts_retransmitted: u64,
    /// Data packets received (first copies).
    pub pkts_received: u64,
    /// Loss events the receiver has recorded.
    pub loss_events: u64,
    /// ACKs sent / received.
    pub acks: (u64, u64),
    /// NAKs sent / received.
    pub naks: (u64, u64),
    /// Application bytes accepted for sending.
    pub bytes_sent: u64,
    /// Application bytes delivered in order.
    pub bytes_delivered: u64,
    /// When the snapshot was taken.
    pub taken_at: Instant,
}

impl PerfSnapshot {
    /// Retransmission overhead: retransmitted / sent (0 when idle).
    pub fn retransmit_ratio(&self) -> f64 {
        if self.pkts_sent == 0 {
            0.0
        } else {
            self.pkts_retransmitted as f64 / self.pkts_sent as f64
        }
    }

    /// Elapsed time since an earlier snapshot of the *same* connection.
    /// `None` when the snapshots come from different connections or when
    /// `prev` is not actually earlier — `Instant`s only order within one
    /// process, and counters only share a meaning within one connection,
    /// so either way the interval is meaningless.
    pub fn duration_since(&self, prev: &PerfSnapshot) -> Option<Duration> {
        if self.conn_id != prev.conn_id || self.taken_at < prev.taken_at {
            return None;
        }
        Some(self.taken_at.duration_since(prev.taken_at))
    }
}

/// Throughput between two snapshots of one connection, application
/// bits/second, as `(sent_bps, delivered_bps)`. `None` when the snapshots
/// are from different connections or out of order (see
/// [`PerfSnapshot::duration_since`]) — returning a number there would be
/// nonsense dressed as a measurement.
pub fn throughput_between(a: &PerfSnapshot, b: &PerfSnapshot) -> Option<(f64, f64)> {
    let dt = b.duration_since(a)?.as_secs_f64().max(1e-9);
    Some((
        (b.bytes_sent.saturating_sub(a.bytes_sent)) as f64 * 8.0 / dt,
        (b.bytes_delivered.saturating_sub(a.bytes_delivered)) as f64 * 8.0 / dt,
    ))
}

impl UdtConnection {
    /// Take a performance snapshot. Cheap (two short lock acquisitions).
    pub fn perfmon(&self) -> PerfSnapshot {
        let sh = &self.sh;
        let (rtt_us, period, cwnd, peer_win, bw, rr) = {
            let s = &sh.snd.lock().core;
            (
                s.rtt_us(),
                s.pkt_snd_period_us(),
                s.cwnd(),
                s.peer_window(),
                s.bandwidth_pps(),
                s.recv_rate_pps(),
            )
        };
        let loss_events = sh.rcv.lock().core.loss_events().len() as u64;
        let st = sh.stats();
        PerfSnapshot {
            conn_id: sh.local_id,
            rtt_us,
            pkt_snd_period_us: period,
            send_rate_pps: 1e6 / period.max(1e-9),
            cwnd_pkts: cwnd,
            peer_window_pkts: peer_win,
            bandwidth_est_pps: bw,
            recv_rate_pps: rr,
            pkts_sent: ConnStats::get(&st.pkts_sent),
            pkts_retransmitted: ConnStats::get(&st.pkts_retransmitted),
            pkts_received: ConnStats::get(&st.pkts_received),
            loss_events,
            acks: (
                ConnStats::get(&st.acks_sent),
                ConnStats::get(&st.acks_received),
            ),
            naks: (
                ConnStats::get(&st.naks_sent),
                ConnStats::get(&st.naks_received),
            ),
            bytes_sent: ConnStats::get(&st.bytes_sent),
            bytes_delivered: ConnStats::get(&st.bytes_delivered),
            taken_at: Instant::now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UdtConfig;
    use crate::socket::UdtListener;

    #[test]
    fn snapshot_reflects_a_live_transfer() {
        let listener =
            UdtListener::bind("127.0.0.1:0".parse().unwrap(), UdtConfig::default()).unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut buf = vec![0u8; 1 << 16];
            let mut total = 0u64;
            loop {
                let n = conn.recv(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                total += n as u64;
            }
            total
        });
        let conn = UdtConnection::connect(addr, UdtConfig::default()).unwrap();
        let before = conn.perfmon();
        conn.send(&vec![1u8; 2_000_000]).unwrap();
        // Give the protocol a moment so ACKs flow.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let after = conn.perfmon();
        conn.close().unwrap();
        assert_eq!(server.join().unwrap(), 2_000_000);

        assert_eq!(after.bytes_sent, 2_000_000);
        assert!(after.pkts_sent > before.pkts_sent);
        assert!(after.acks.1 > 0, "no ACKs observed");
        assert!(after.send_rate_pps > 0.0);
        assert!(after.retransmit_ratio() < 0.5);
        let (sent_bps, _) = throughput_between(&before, &after).expect("same connection");
        assert!(sent_bps > 0.0);
        assert!(after.duration_since(&before).expect("same connection") > Duration::ZERO);
        // Reversed order is detected, not reported as a zero-length interval.
        assert_eq!(throughput_between(&after, &before), None);
    }

    #[test]
    fn retransmit_ratio_zero_when_idle() {
        let s = PerfSnapshot {
            conn_id: 1,
            rtt_us: 0.0,
            pkt_snd_period_us: 1.0,
            send_rate_pps: 0.0,
            cwnd_pkts: 0.0,
            peer_window_pkts: 0,
            bandwidth_est_pps: 0.0,
            recv_rate_pps: 0.0,
            pkts_sent: 0,
            pkts_retransmitted: 0,
            pkts_received: 0,
            loss_events: 0,
            acks: (0, 0),
            naks: (0, 0),
            bytes_sent: 0,
            bytes_delivered: 0,
            taken_at: Instant::now(),
        };
        assert_eq!(s.retransmit_ratio(), 0.0);
    }

    #[test]
    fn interval_math_refuses_mixed_connections() {
        let mut a = PerfSnapshot {
            conn_id: 1,
            rtt_us: 0.0,
            pkt_snd_period_us: 1.0,
            send_rate_pps: 0.0,
            cwnd_pkts: 0.0,
            peer_window_pkts: 0,
            bandwidth_est_pps: 0.0,
            recv_rate_pps: 0.0,
            pkts_sent: 0,
            pkts_retransmitted: 0,
            pkts_received: 0,
            loss_events: 0,
            acks: (0, 0),
            naks: (0, 0),
            bytes_sent: 0,
            bytes_delivered: 0,
            taken_at: Instant::now(),
        };
        let mut b = a.clone();
        b.taken_at = a.taken_at + Duration::from_millis(10);
        b.bytes_sent = 1000;
        // Same connection: a real interval and a real rate.
        assert_eq!(b.duration_since(&a), Some(Duration::from_millis(10)));
        let (sent_bps, delivered_bps) = throughput_between(&a, &b).unwrap();
        assert!(sent_bps > 0.0);
        assert_eq!(delivered_bps, 0.0);
        // Different connections: counters are unrelated, so no answer.
        b.conn_id = 2;
        assert_eq!(b.duration_since(&a), None);
        assert_eq!(throughput_between(&a, &b), None);
        // Out-of-order snapshots of one connection are likewise refused.
        b.conn_id = 1;
        a.taken_at = b.taken_at + Duration::from_millis(5);
        assert_eq!(b.duration_since(&a), None);
        assert_eq!(throughput_between(&a, &b), None);
    }
}
