//! Cross-crate integration: the simulator and its protocol agents.

use netsim::agents::tcp::{TcpSender, TcpSenderCfg, TcpSink};
use netsim::agents::tcpcc::TcpCcKind;
use netsim::agents::udt::{attach_udt_flow, CcKind, UdtReceiver, UdtSender, UdtSenderCfg};
use netsim::{dumbbell, paper_queue_cap, DumbbellCfg};
use udt_algo::Nanos;
use udt_metrics::jain_index;
use udt_proto::{SeqNo, SEQ_MAX};

#[test]
fn packet_conservation_under_congestion() {
    // Every data packet the sender transmitted is either delivered (first
    // copy), discarded as a duplicate, or dropped at a queue.
    let mut d = dumbbell(DumbbellCfg {
        flows: 1,
        rate_bps: 2e7,
        one_way_delay: Nanos::from_millis(10),
        queue_cap: 15,
    });
    let f = d.sim.add_flow();
    let cfg = UdtSenderCfg::bulk(d.sinks[0], f);
    let (sid, rid) = attach_udt_flow(&mut d.sim, d.sources[0], d.sinks[0], cfg);
    d.sim.run_until(Nanos::from_secs(20));
    let snd = d.sim.agent_as::<UdtSender>(sid);
    let rcv = d.sim.agent_as::<UdtReceiver>(rid);
    let transmitted = snd.sent_new() + snd.sent_retx();
    let mut dropped = 0;
    for l in 0..d.sim.link_count() {
        dropped += d.sim.link(netsim::LinkId(l)).stats.drops;
    }
    let accounted = rcv.received_pkts() + rcv.duplicate_pkts() + dropped;
    // In-flight at the instant the sim stops explains any small shortfall.
    let in_flight = transmitted.saturating_sub(accounted);
    assert!(
        in_flight < 2_000,
        "conservation broken: sent {transmitted}, accounted {accounted}"
    );
    assert!(transmitted > 10_000, "sender barely ran");
}

#[test]
fn survives_tiny_queue_congestion_loss_in_sim() {
    // The deterministic twin of `integration_lossy`'s real-UDP test of the
    // same name, through the same protocol core: 2 MB (1370 packets) over
    // 30 Mb/s, 20 ms RTT and a 20-packet DropTail buffer, where the
    // protocol's own probing causes burst loss (the Figure 8 regime).
    let mut d = dumbbell(DumbbellCfg {
        flows: 1,
        rate_bps: 30e6,
        one_way_delay: Nanos::from_millis(10),
        queue_cap: 20,
    });
    let f = d.sim.add_flow();
    let total = 1_370u64;
    let mut cfg = UdtSenderCfg::bulk(d.sinks[0], f);
    cfg.total_pkts = Some(total);
    let (sid, rid) = attach_udt_flow(&mut d.sim, d.sources[0], d.sinks[0], cfg);
    d.sim.run_until(Nanos::from_secs(30));
    let snd = d.sim.agent_as::<UdtSender>(sid);
    assert!(snd.transfer_complete(), "transfer did not complete");
    assert_eq!(d.sim.delivered(f), total * 1500, "data lost or repeated");
    assert_eq!(d.sim.agent_as::<UdtReceiver>(rid).received_pkts(), total);
    assert!(snd.sent_retx() > 0, "queue loss must have caused retransmissions");
}

#[test]
fn udt_sequence_wraparound_in_sim() {
    // Start the flow just below the 2^31 wrap point and push through it.
    let mut d = dumbbell(DumbbellCfg {
        flows: 1,
        rate_bps: 1e8,
        one_way_delay: Nanos::from_millis(2),
        queue_cap: 200,
    });
    let f = d.sim.add_flow();
    let total = 60_000u64; // crosses the wrap after 5_000 packets
    let mut cfg = UdtSenderCfg::bulk(d.sinks[0], f);
    cfg.init_seq = SeqNo::new(SEQ_MAX - 5_000);
    cfg.total_pkts = Some(total);
    let (sid, rid) = attach_udt_flow(&mut d.sim, d.sources[0], d.sinks[0], cfg);
    d.sim.run_until(Nanos::from_secs(30));
    let snd = d.sim.agent_as::<UdtSender>(sid);
    assert!(snd.transfer_complete(), "wrap transfer did not complete");
    let rcv = d.sim.agent_as::<UdtReceiver>(rid);
    assert_eq!(rcv.received_pkts(), total);
    assert_eq!(d.sim.delivered(f), total * 1500);
}

#[test]
fn udt_and_tcp_coexist() {
    let rate = 1e8;
    let rtt = Nanos::from_millis(20);
    let mut d = dumbbell(DumbbellCfg {
        flows: 2,
        rate_bps: rate,
        one_way_delay: Nanos(rtt.0 / 2),
        queue_cap: paper_queue_cap(rate, rtt, 1500),
    });
    let f_udt = d.sim.add_flow();
    let f_tcp = d.sim.add_flow();
    attach_udt_flow(
        &mut d.sim,
        d.sources[0],
        d.sinks[0],
        UdtSenderCfg::bulk(d.sinks[0], f_udt),
    );
    let tcfg = TcpSenderCfg::bulk(d.sinks[1], f_tcp);
    d.sim.add_agent(d.sources[1], Box::new(TcpSender::new(tcfg)));
    d.sim
        .add_agent(d.sinks[1], Box::new(TcpSink::new(d.sources[1], f_tcp, 1500)));
    d.sim.run_until(Nanos::from_secs(30));
    let udt_bps = d.sim.delivered(f_udt) as f64 * 8.0 / 30.0;
    let tcp_bps = d.sim.delivered(f_tcp) as f64 * 8.0 / 30.0;
    // At 20 ms RTT both should carry real traffic and neither starves.
    assert!(udt_bps > 0.15 * rate, "UDT starved: {udt_bps:.2e}");
    assert!(tcp_bps > 0.10 * rate, "TCP starved: {tcp_bps:.2e}");
    let total = udt_bps + tcp_bps;
    assert!(total > 0.7 * rate, "link underused: {total:.2e}");
}

#[test]
fn sabul_cc_plugs_into_sim_endpoint() {
    let mut d = dumbbell(DumbbellCfg {
        flows: 1,
        rate_bps: 1e8,
        one_way_delay: Nanos::from_millis(10),
        queue_cap: 300,
    });
    let f = d.sim.add_flow();
    let mut cfg = UdtSenderCfg::bulk(d.sinks[0], f);
    cfg.cc = CcKind::Sabul { alpha: 1.0 / 64.0 };
    attach_udt_flow(&mut d.sim, d.sources[0], d.sinks[0], cfg);
    d.sim.run_until(Nanos::from_secs(15));
    let bps = d.sim.delivered(f) as f64 * 8.0 / 15.0;
    assert!(bps > 0.5e8, "SABUL flow underperforms: {bps:.2e}");
}

#[test]
fn all_tcp_variants_move_data() {
    for cc in [
        TcpCcKind::Reno,
        TcpCcKind::HighSpeed,
        TcpCcKind::Scalable,
        TcpCcKind::Bic,
        TcpCcKind::Vegas,
    ] {
        let mut d = dumbbell(DumbbellCfg {
            flows: 1,
            rate_bps: 5e7,
            one_way_delay: Nanos::from_millis(10),
            queue_cap: 200,
        });
        let f = d.sim.add_flow();
        let mut cfg = TcpSenderCfg::bulk(d.sinks[0], f);
        cfg.cc = cc;
        d.sim.add_agent(d.sources[0], Box::new(TcpSender::new(cfg)));
        d.sim
            .add_agent(d.sinks[0], Box::new(TcpSink::new(d.sources[0], f, 1500)));
        d.sim.run_until(Nanos::from_secs(15));
        let bps = d.sim.delivered(f) as f64 * 8.0 / 15.0;
        assert!(
            bps > 0.5 * 5e7,
            "{cc:?} only reached {:.1} Mb/s on an easy link",
            bps / 1e6
        );
    }
}

#[test]
fn ten_udt_flows_converge_to_fairness() {
    let rate = 1e8;
    let rtt = Nanos::from_millis(40);
    let n = 10;
    let mut d = dumbbell(DumbbellCfg {
        flows: n,
        rate_bps: rate,
        one_way_delay: Nanos(rtt.0 / 2),
        queue_cap: paper_queue_cap(rate, rtt, 1500),
    });
    let mut flows = Vec::new();
    for i in 0..n {
        let f = d.sim.add_flow();
        attach_udt_flow(
            &mut d.sim,
            d.sources[i],
            d.sinks[i],
            UdtSenderCfg::bulk(d.sinks[i], f),
        );
        flows.push(f);
    }
    // Measure over the second half only.
    d.sim.run_until(Nanos::from_secs(30));
    let half: Vec<u64> = flows.iter().map(|f| d.sim.delivered(*f)).collect();
    d.sim.run_until(Nanos::from_secs(60));
    let shares: Vec<f64> = flows
        .iter()
        .zip(&half)
        .map(|(f, h)| (d.sim.delivered(*f) - h) as f64 * 8.0 / 30.0)
        .collect();
    let j = jain_index(&shares);
    assert!(j > 0.97, "J = {j:.4}, shares = {shares:?}");
    let agg: f64 = shares.iter().sum();
    assert!(agg > 0.8 * rate, "aggregate too low: {agg:.2e}");
}
