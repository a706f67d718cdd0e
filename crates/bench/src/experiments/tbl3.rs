//! Table 3 — CPU-time ratio per protocol function.
//!
//! The paper's VTune profile of a 970 Mb/s memory transfer: on the sending
//! side UDP writing dominates (66.7%), then packing (5.9%), control
//! processing (5.1%), timing (4.9%); on the receiving side UDP reading
//! (91%), then measurement (2.7%). Reproduced with the built-in
//! per-category scope timers ([`udt::instrument`]) around the same code
//! regions during a loopback blast.

use udt::UdtConfig;
use udt_trace::json::Value;

use crate::perfjson::{self, Obj};
use crate::realnet::{run_loopback_blast, TransferOut};
use crate::report::{mbps, Report};

/// One blast as a machine-readable run entry: goodput, wall clock, and
/// the full per-category CPU ratio tables for both sides.
fn blast_json(tag: &str, out: &TransferOut) -> Value {
    let ratios = |table: Vec<(&str, f64)>| {
        let mut o = Obj::new();
        for (name, ratio) in table {
            o = o.num(name, ratio);
        }
        o
    };
    Value::from(
        Obj::new()
            .str("run", tag)
            .num("throughput_bps", out.throughput_bps())
            .num("secs", out.secs)
            .obj("snd_cpu_ratio", ratios(out.snd_instr.table()))
            .obj("rcv_cpu_ratio", ratios(out.rcv_instr.table())),
    )
}

/// Run with a configurable transfer size.
pub fn run_with(total_bytes: u64) -> Report {
    let mut rep = Report::new(
        "tbl3",
        "CPU-time ratio of functions in UDT (instrumented)",
        format!(
            "{} MB memory-to-memory blast over loopback",
            total_bytes / 1_000_000
        ),
    );
    let out = run_loopback_blast(UdtConfig::default(), total_bytes);
    rep.row(format!(
        "transfer: {} Mb/s over {:.2} s",
        mbps(out.throughput_bps()),
        out.secs
    ));
    rep.row("-- data sending side --");
    for (name, ratio) in out.snd_instr.table() {
        if ratio > 0.0005 {
            rep.row(format!("{name:<36} {:>5.1}%", ratio * 100.0));
        }
    }
    rep.row("-- data receiving side --");
    for (name, ratio) in out.rcv_instr.table() {
        if ratio > 0.0005 {
            rep.row(format!("{name:<36} {:>5.1}%", ratio * 100.0));
        }
    }
    let snd_top = out.snd_instr.table()[0];
    rep.shape(
        "UDP writing is the dominant sender cost (paper: 66.7%)",
        snd_top.0 == "UDP writing" || out.snd_instr.ratio_of("UDP writing") > 0.3,
        format!(
            "sender top = {} at {:.1}%; UDP writing at {:.1}%",
            snd_top.0,
            snd_top.1 * 100.0,
            out.snd_instr.ratio_of("UDP writing") * 100.0
        ),
    );
    rep.shape(
        "UDP reading is the dominant receiver cost (paper: 91%)",
        out.rcv_instr.table()[0].0 == "UDP reading",
        format!(
            "receiver top = {} at {:.1}%",
            out.rcv_instr.table()[0].0,
            out.rcv_instr.table()[0].1 * 100.0
        ),
    );
    rep.shape(
        "loss processing is negligible on a clean path (paper: 0.6%)",
        out.rcv_instr.ratio_of("Loss processing") < 0.05,
        format!(
            "loss processing = {:.2}%",
            out.rcv_instr.ratio_of("Loss processing") * 100.0
        ),
    );
    rep
}

/// Default entry point.
pub fn run() -> Report {
    run_with(300_000_000)
}

/// CI-sized stability check (`bench exp tbl3 --quick`): two small blasts must
/// agree on the dominant categories and produce close ratios. A profile
/// whose percentages wander run-to-run cannot support Table 3-style
/// conclusions, so the quick gate checks reproducibility rather than the
/// absolute paper numbers (which need the full-size transfer).
pub fn run_quick() -> Report {
    let total: u64 = 40_000_000;
    let mut rep = Report::new(
        "tbl3-quick",
        "CPU-time ratios are stable across repeated blasts",
        format!("2 × {} MB loopback blasts, ratios compared", total / 1_000_000),
    );
    let a = run_loopback_blast(UdtConfig::default(), total);
    let b = run_loopback_blast(UdtConfig::default(), total);
    for (tag, out) in [("run A", &a), ("run B", &b)] {
        let (sname, sratio) = out.snd_instr.table()[0];
        let (rname, rratio) = out.rcv_instr.table()[0];
        rep.row(format!(
            "{tag}: {} Mb/s; sender top {sname} {:.1}%, receiver top {rname} {:.1}%",
            mbps(out.throughput_bps()),
            sratio * 100.0,
            rratio * 100.0
        ));
    }
    let snd_delta =
        (a.snd_instr.ratio_of("UDP writing") - b.snd_instr.ratio_of("UDP writing")).abs();
    let rcv_delta =
        (a.rcv_instr.ratio_of("UDP reading") - b.rcv_instr.ratio_of("UDP reading")).abs();
    rep.shape(
        "sender's dominant category agrees across runs",
        a.snd_instr.table()[0].0 == b.snd_instr.table()[0].0,
        format!(
            "{} vs {}",
            a.snd_instr.table()[0].0,
            b.snd_instr.table()[0].0
        ),
    );
    rep.shape(
        "UDP-writing ratio is stable (|delta| < 0.25)",
        snd_delta < 0.25,
        format!("|delta| = {snd_delta:.3}"),
    );
    rep.shape(
        "UDP-reading ratio is stable (|delta| < 0.25)",
        rcv_delta < 0.25,
        format!("|delta| = {rcv_delta:.3}"),
    );
    let json = Obj::new()
        .int("bytes_per_run", total)
        .arr("runs", vec![blast_json("A", &a), blast_json("B", &b)]);
    perfjson::emit(&mut rep, "tbl3", true, json);
    rep
}
