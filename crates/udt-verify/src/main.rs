//! udt-verify: bounded model checker for the UDT event core.
//!
//! Drives the protocol event core itself (`udt_algo::conn`: the `SndCore` /
//! `RcvCore` the sockets and the simulator run) with the real `SndBuffer` /
//! `RcvBuffer` through an exhaustive DFS over small schedules — every
//! interleaving of transmit, deliver (data, ACK, ACK2, NAK), drop, duplicate
//! and the two timers within the configured fault budgets — checking after
//! every event that:
//!
//! - the cores' own invariants hold (loss lists sorted, duplicate-free and
//!   inside the live span; `snd_una` never past the send frontier; the ACK2
//!   confirmation never ahead of the last ACK sent),
//! - no byte is delivered twice or out of order,
//! - the flow window is never exceeded,
//! - the transfer can always make progress (no stuck states) — through a
//!   dropped final ACK, a dropped ACK2, a dropped tail packet.
//!
//! A second scenario ([`close`]) drives two `CloseCore`s after a completed
//! transfer through every loss, duplication and reordering of `Shutdown`s
//! and answers; it is reported as its own row.
//!
//! Usage:
//! ```text
//! udt-verify              # full sweep (~6 min)
//! udt-verify --quick      # CI sweep (~5 s)
//! udt-verify --replay <seed>   # re-run a violation trace verbosely
//! ```

mod close;
mod model;
mod search;

use std::process::ExitCode;
use std::time::Instant;

use model::Config;
use udt_proto::{SeqNo, SEQ_MAX};

/// Trace-length safety cap. Far above any trace the bounded configs can
/// produce; hitting it would indicate an unbounded region of the graph.
const DEPTH_CAP: usize = 400;

fn sweep(quick: bool) -> Vec<(String, Config)> {
    // Initial sequence numbers: well clear of the wrap, and straddling it
    // (the transfer crosses 2^31 mid-run).
    let seqs: &[(&str, u32)] = &[
        ("zero", 0),
        ("wrap-1", SEQ_MAX),     // first packet IS the wrap point
        ("wrap-mid", SEQ_MAX - 2), // wrap crossed mid-transfer
    ];
    let shapes: &[(u32, u32, u32, u32, usize)] = if quick {
        // (total, window, drops, dups, buf)
        &[(4, 3, 1, 1, 8), (5, 2, 1, 0, 8)]
    } else {
        &[
            (4, 3, 1, 1, 8),
            (5, 2, 1, 0, 8),
            (6, 3, 2, 0, 8),
            (6, 4, 1, 0, 8),
            (7, 3, 1, 0, 8),
            // Tight receive buffer: the advertised window binds, and the
            // implausible-sequence gate is in reach.
            (5, 4, 1, 1, 4),
        ]
    };
    let mut out = Vec::new();
    for (sname, s) in seqs {
        for &(total, window, drops, dups, buf) in shapes {
            let cfg = Config {
                total_pkts: total,
                init_seq: SeqNo::new(*s),
                window,
                max_drops: drops,
                max_dups: dups,
                buf_pkts: buf,
            };
            out.push((format!("{sname}/p{total}w{window}d{drops}u{dups}b{buf}"), cfg));
        }
    }
    out
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut replay_seed: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--replay" => {
                let Some(s) = args.next() else {
                    eprintln!("--replay requires a seed");
                    return ExitCode::from(2);
                };
                replay_seed = Some(s);
            }
            other => {
                eprintln!("unknown argument `{other}` (try --quick / --replay <seed>)");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(seed) = replay_seed {
        return match search::replay(&seed, true) {
            Ok(None) => {
                println!("replay: all invariants held");
                ExitCode::SUCCESS
            }
            Ok(Some(v)) => {
                println!("replay: VIOLATION at {v}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("replay error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let t0 = Instant::now();
    let mut total_states = 0u64;
    let mut failed = false;
    for (name, cfg) in sweep(quick) {
        let t = Instant::now();
        let (violation, stats) = search::explore(&cfg, DEPTH_CAP);
        total_states += stats.states;
        match violation {
            None => {
                println!(
                    "ok   {name}: {} states, {} completed runs, depth<={}, {:.2?}",
                    stats.states, stats.completed_runs, stats.max_depth, t.elapsed()
                );
                if stats.max_depth >= DEPTH_CAP {
                    println!("warn {name}: depth cap reached — exploration incomplete");
                    failed = true;
                }
            }
            Some(v) => {
                println!("FAIL {name}: {}", v.message);
                println!("     replay with: udt-verify --replay \"{}\"", v.seed);
                failed = true;
            }
        }
    }
    // The close exchange: any two packets lost, any one duplicated.
    let t = Instant::now();
    match close::explore(2, 1) {
        Ok(states) => println!("ok   close/d2u1: {states} states, {:.2?}", t.elapsed()),
        Err(e) => {
            println!("FAIL close/d2u1: {e}");
            failed = true;
        }
    }
    println!(
        "udt-verify: {} states explored in {:.2?} ({})",
        total_states,
        t0.elapsed(),
        if quick { "quick sweep" } else { "full sweep" }
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
