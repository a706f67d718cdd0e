//! Raw-datapath loopback pump: a msgs/s microbenchmark harness for the
//! batched demultiplexer layer.
//!
//! The pump drives the mux/pool/`mmsg` stack *below* the connection
//! machinery: pre-built data packets are flushed from one mux to another
//! over loopback, and the receiver side drains its batched queue as fast
//! as it can. No pacing, no ACK/NAK machinery — the measured figure is
//! pure datapath capacity in messages per second, which is exactly what
//! per-packet syscall and allocation overhead bounds.
//!
//! `batch = 1` reproduces the legacy per-packet datapath (one `send_to`
//! per packet on the send side, one delivered packet per wakeup batch on
//! the receive side), so a batched-vs-1 pair isolates the win of the
//! batched unit of work. The `bench exp datapath` experiment in the bench crate
//! runs interleaved pairs and gates the speedup.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::RecvTimeoutError;
use udt_metrics::counters::BatchSnapshot;
use udt_proto::{DataPacket, Packet, SeqNo};

use crate::config::UdtConfig;
use crate::instrument::Instrument;
use crate::mux::Mux;

/// Connection id the pump routes through (any non-zero id works; zero
/// would address the listener queue).
const PUMP_CONN_ID: u32 = 7;

/// What one pump run should do.
#[derive(Debug, Clone)]
pub struct PumpSpec {
    /// Data packets to push through the datapath.
    pub pkts: u32,
    /// Payload bytes per packet (small payloads stress per-packet
    /// overhead, which is what the batched datapath amortizes).
    pub payload: usize,
    /// Batch size for both sides: the sender flushes this many packets
    /// per `send_batch` call and the receiver's mux drains up to this
    /// many datagrams per wakeup. `1` = legacy per-packet datapath.
    pub batch: u32,
    /// Leave the UDP socket buffers at the OS defaults instead of the
    /// deep reference-parity sizes. The pre-batching datapath never
    /// sized its socket buffers, so a faithful legacy baseline sets this
    /// together with `batch = 1`.
    pub os_udp_bufs: bool,
}

impl Default for PumpSpec {
    fn default() -> PumpSpec {
        PumpSpec {
            pkts: 50_000,
            payload: 32,
            batch: UdtConfig::default().rcv_batch_pkts,
            os_udp_bufs: false,
        }
    }
}

/// What one pump run observed.
#[derive(Debug, Clone)]
pub struct PumpOut {
    /// Packets that reached the receiving queue (loopback under blast
    /// load legitimately drops; throughput is measured over these).
    pub delivered: u64,
    /// Delivered messages per second, measured from first to last
    /// delivery on the receiving side.
    pub msgs_per_s: f64,
    /// `true` when both muxes used the multi-message syscalls (always
    /// `false` on non-Linux targets, where the portable fallback runs).
    pub batched_io: bool,
    /// Sending mux batch counters.
    pub snd: BatchSnapshot,
    /// Receiving mux batch counters (includes pool hit/miss figures).
    pub rcv: BatchSnapshot,
}

/// Run one loopback pump: blast `spec.pkts` pre-built data packets from
/// one mux to another and measure the receiving side's delivery rate.
pub fn run_pump(spec: &PumpSpec) -> io::Result<PumpOut> {
    let batch = spec.batch.max(1);
    let mut cfg = UdtConfig {
        rcv_batch_pkts: batch,
        snd_batch_pkts: batch,
        ..UdtConfig::default()
    };
    if spec.os_udp_bufs {
        cfg.udp_sndbuf_bytes = 0;
        cfg.udp_rcvbuf_bytes = 0;
    }
    // udt-lint: allow(unwrap) — literal addresses always parse
    let any: SocketAddr = "127.0.0.1:0".parse().expect("addr");
    let rx_mux = Mux::bind(any, &cfg)?;
    let tx_mux = Mux::bind(any, &cfg)?;
    let q = rx_mux.register(PUMP_CONN_ID, 65_536);
    let dst = rx_mux.local_addr();
    let instr = Instrument::default();
    let payload = Bytes::from(vec![0x55u8; spec.payload]);
    let total = u64::from(spec.pkts);

    // Drain as fast as possible; stop at the target count or after a
    // quiet period (blast loss is expected and not an error here).
    let drain = std::thread::spawn(move || {
        let mut delivered = 0u64;
        let mut t_first: Option<Instant> = None;
        let mut t_last = Instant::now();
        while delivered < total {
            match q.recv_timeout(Duration::from_millis(300)) {
                Ok(b) => {
                    if t_first.is_none() {
                        t_first = Some(Instant::now());
                    }
                    delivered += b.len() as u64;
                    t_last = Instant::now();
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => break,
            }
        }
        let span = t_first.map_or(Duration::ZERO, |t0| t_last.duration_since(t0));
        (delivered, span)
    });

    let mut scratch: Vec<Packet> = Vec::with_capacity(batch as usize);
    let mut sent = 0u32;
    while sent < spec.pkts {
        scratch.clear();
        let n = (spec.pkts - sent).min(batch);
        for k in 0..n {
            scratch.push(Packet::Data(DataPacket {
                seq: SeqNo::new(sent + k),
                timestamp_us: 0,
                conn_id: PUMP_CONN_ID,
                payload: payload.clone(),
            }));
        }
        tx_mux.send_batch(&scratch, dst, &instr, None)?;
        sent += n;
    }

    let (delivered, span) = drain
        .join()
        .map_err(|_| io::Error::other("pump drain thread panicked"))?;
    let msgs_per_s = delivered as f64 / span.as_secs_f64().max(1e-6);
    Ok(PumpOut {
        delivered,
        msgs_per_s,
        batched_io: rx_mux.batched_io() && tx_mux.batched_io(),
        snd: tx_mux.batch_counters(),
        rcv: rx_mux.batch_counters(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_delivers_and_counts_in_batched_mode() {
        let out = run_pump(&PumpSpec {
            pkts: 2_000,
            payload: 32,
            batch: 16,
            os_udp_bufs: false,
        })
        .unwrap();
        assert!(out.delivered > 0, "nothing got through the pump");
        assert!(out.msgs_per_s > 0.0);
        assert_eq!(out.snd.send_pkts, 2_000, "sender must flush every packet");
        assert_eq!(out.rcv.recv_pkts, out.delivered);
        // Batched mode must actually batch: fewer send flushes than
        // packets (2000 packets at batch 16 is at most 125 flushes).
        assert!(out.snd.send_batches <= 125);
    }

    #[test]
    fn pump_batch_one_reproduces_per_packet_semantics() {
        let out = run_pump(&PumpSpec {
            pkts: 500,
            payload: 32,
            batch: 1,
            os_udp_bufs: false,
        })
        .unwrap();
        assert!(out.delivered > 0);
        // batch=1: one flush per packet on the send side.
        assert_eq!(out.snd.send_batches, 500);
        assert_eq!(out.snd.send_pkts, 500);
    }
}
