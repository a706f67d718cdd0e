//! Resilience soak — a bulk upload through a flapping link.
//!
//! The resilience layer (PR: udt-resilience) claims a session outlives any
//! number of outages, paying only the outage time plus re-sent bytes after
//! the last confirmed offset. This soak drives a real-socket upload through
//! a fault-injecting `linkemu` relay whose link flaps dark periodically — each dark window
//! is long enough for EXP escalation to declare the connection terminally
//! `Broken` on both sides — and asserts the session reconnects, resumes,
//! and lands a byte-identical file, with the listener accepting exactly one
//! handshake per (re)connection.
//!
//! `--quick` shrinks the file so CI can afford the soak; the full run
//! crosses several flap cycles.

use std::time::Duration;

use udt::{RetryPolicy, UdtConfig};
use udt_chaos::scenario::{ImpairmentSpec, Scenario};

use crate::realnet::{pattern, resilient_upload_through, transfer_through};
use crate::report::{mbps, Report};

const SEED: u64 = 0x50AC_2026;

/// Run. `quick` soaks one flap cycle instead of several.
pub fn run(quick: bool) -> Report {
    let len: u64 = if quick { 4_000_000 } else { 16_000_000 };
    let mut rep = Report::new(
        "exp_soak",
        "Resilience soak: bulk upload across repeated link blackouts",
        format!(
            "{} MB upload through a fault-injecting relay, forward path clamped to 40 Mb/s, \
             1.2 s blackout both ways every 3 s (link dark 40% of the time); \
             fast EXP ladder (count 3, 500 ms floor) so every dark window kills \
             the connection; fixed scenario seed",
            len / 1_000_000
        ),
    );

    // Dark 1.2 s in every 3 s. EXP declares Broken after 0.9 s of silence
    // (count 3 × 300 ms ladder, above the 500 ms floor), well inside each
    // dark window, so every flap forces a real reconnect-and-resume.
    let scenario = Scenario::new("soak-flap", SEED)
        .forward(ImpairmentSpec::RateClamp {
            bps: 40_000_000.0,
            max_backlog_us: 200_000,
        })
        .both(ImpairmentSpec::Blackout {
            start_us: 300_000,
            duration_us: 1_200_000,
            period_us: Some(3_000_000),
        });
    let cfg = UdtConfig {
        max_exp_count: 3,
        broken_silence_floor: Duration::from_millis(500),
        connect_timeout: Duration::from_secs(3),
        linger: Duration::from_secs(30),
        retry: RetryPolicy {
            max_attempts: 12,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(800),
            ..RetryPolicy::default()
        },
        ..UdtConfig::default()
    };

    let dir = std::env::temp_dir().join(format!("udt-exp-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let src = dir.join("soak-src.bin");
    let dest = dir.join("soak-dest.bin");
    // `len` is 4 or 16 MB: fits any usize.
    #[allow(clippy::cast_possible_truncation)]
    let data = pattern(len as usize, 0);
    std::fs::write(&src, &data).expect("write source");

    let up = resilient_upload_through(
        &scenario,
        &cfg,
        &src,
        &dest,
        len,
        64,
        Duration::from_secs(30),
    );
    let (sent, elapsed, done, snap, lsnap) =
        (up.sent, up.elapsed, up.completed, up.session, up.listener);
    let out = std::fs::read(&dest).unwrap_or_default();
    std::fs::remove_dir_all(&dir).ok();

    // No-resilience baseline: the same transfer over a plain connection
    // through an identically-seeded relay. The first blackout kills it;
    // whatever arrived by then is all a restart-from-zero world keeps.
    let baseline = transfer_through(&scenario, &cfg, &data).0.len() as u64;

    let goodput = sent as f64 * 8.0 / elapsed.as_secs_f64();
    rep.row(format!(
        "{:>9} bytes in {elapsed:.1?}  ({} goodput incl. outages)",
        sent,
        mbps(goodput)
    ));
    rep.row(format!(
        "reconnects {}/{} attempts, {} bytes skipped by resume, \
         listener accepted {} handshakes",
        snap.reconnect_successes,
        snap.reconnect_attempts,
        snap.resumed_bytes,
        lsnap.handshakes_accepted
    ));

    rep.row(format!(
        "no-resilience baseline: {} of {} bytes before the link died ({:.0}% retained; \
         resilient session retained 100%)",
        baseline,
        len,
        baseline as f64 * 100.0 / len as f64
    ));

    rep.shape(
        "the upload completes byte-identical across repeated blackouts",
        done && out == data,
        format!("sink done={done}, {} of {} bytes match", out.len(), len),
    );
    rep.shape(
        "at least one outage was survived by reconnect-and-resume",
        snap.reconnect_successes >= 1 && snap.resumed_bytes > 0,
        format!(
            "{} reconnects, {} resumed bytes",
            snap.reconnect_successes, snap.resumed_bytes
        ),
    );
    rep.shape(
        "the listener accepted exactly one handshake per (re)connection",
        lsnap.handshakes_accepted == 1 + snap.reconnect_successes,
        format!(
            "{} accepted == 1 + {} reconnects",
            lsnap.handshakes_accepted, snap.reconnect_successes
        ),
    );
    rep.shape(
        "no attacker-path counters moved on a clean (if dark) link",
        lsnap.cookies_rejected == 0 && lsnap.backlog_drops == 0 && lsnap.rate_limited == 0,
        format!("{lsnap:?}"),
    );
    rep.shape(
        "without the resilience layer the same link kills the transfer mid-file",
        baseline < len,
        format!("baseline delivered {baseline} of {len} bytes"),
    );
    rep
}
