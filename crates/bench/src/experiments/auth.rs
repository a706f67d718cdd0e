//! UDT-AUTH audit: adversary rejection plus the goodput cost of the tag.
//!
//! Two parts. First, the gate: a seeded on-path adversary (forged
//! DATA/ACKs, capture-and-replay, tag bit flips, one spoofed Shutdown) is
//! aimed at an authenticated loopback transfer through the fault-injecting
//! relay, and the stream must arrive byte-identical with every forgery and
//! replay rejected and counted. Second, the measurement: what the
//! per-packet SipHash trailer costs in loopback goodput, by
//! [`crate::ab::goodput_loss`] — the 10% design bound is recorded against
//! the median of pairs, and the number's CI gate is its `bench regress`
//! row.

use std::time::Duration;

use udt::{AuthPolicy, PreSharedKey, UdtConfig};
use udt_chaos::scenario::{ImpairmentSpec, Scenario};

use crate::ab;
use crate::perfjson;
use crate::realnet::{pattern, run_loopback_blast, transfer_through};
use crate::report::Report;

/// Design bound on the goodput loss with authentication enabled.
const MAX_ENABLED_LOSS: f64 = 0.10;

/// Adversary master seed (fixed: the whole run must be reproducible).
const SEED: u64 = 0xA01D;

fn keyed() -> UdtConfig {
    UdtConfig {
        auth: AuthPolicy::Require,
        auth_key: Some(PreSharedKey::from_bytes(*b"bench-auth-key!!")),
        ..UdtConfig::default()
    }
}

/// One authenticated transfer through the fault-injecting relay running
/// the seeded adversary. Returns `(byte_identical, tags_bad, replays)`.
fn adversarial_run(bytes: usize) -> (bool, u64, u64) {
    let scenario = Scenario::new("bench-adversary", SEED).forward(ImpairmentSpec::Adversary {
        forge_data: 0.03,
        forge_ack: 0.01,
        replay: 0.03,
        tag_flip: 0.01,
        forge_shutdown_after: Some(500),
    });
    let cfg = UdtConfig {
        linger: Duration::from_secs(30),
        ..keyed()
    };
    let data = pattern(bytes, 0);
    let (got, auth) = transfer_through(&scenario, &cfg, &data);
    let (bad, replays) = auth.map_or((0, 0), |c| (c.tags_bad, c.replays));
    (got == data, bad, replays)
}

/// Run; `quick` is the CI-sized variant (60 MB blasts instead of 150 MB).
pub fn run(quick: bool) -> Report {
    let total_bytes: u64 = if quick { 60_000_000 } else { 150_000_000 };
    let mut rep = Report::new(
        "auth",
        "Adversary rejection and goodput cost of the authenticated profile",
        format!(
            "seeded adversary vs authenticated relay transfer; then {} interleaved \
             pairs of {} MB loopback blasts, auth off vs SipHash trailer on",
            ab::PAIRS,
            total_bytes / 1_000_000
        ),
    );

    // The gate: the adversary bounces off.
    let adv_bytes = (total_bytes / 8).clamp(2_000_000, 16_000_000) as usize;
    let (identical, tags_bad, replays) = adversarial_run(adv_bytes);
    rep.row(format!(
        "adversary (seed {SEED:#x}): byte-identical {identical}, \
         {tags_bad} forged/corrupt tags rejected, {replays} replays dropped"
    ));
    rep.shape(
        "authenticated transfer is byte-identical under the adversary",
        identical,
        format!("{} MB stream compared", adv_bytes / 1_000_000),
    );
    rep.shape(
        "forgeries were actually rejected and counted",
        tags_bad > 0 && replays > 0,
        format!("tags_bad {tags_bad}, replays {replays}"),
    );

    // The measurement: what the tag costs.
    let json = ab::goodput_loss(
        &mut rep,
        "enabled auth costs under 10% goodput (median of pairs)",
        MAX_ENABLED_LOSS,
        total_bytes,
        || run_loopback_blast(keyed(), total_bytes).throughput_bps(),
    );
    let json = json
        .int("seed", SEED)
        .flag("adversary_byte_identical", identical)
        .int("adversary_tags_bad", tags_bad)
        .int("adversary_replays", replays);
    perfjson::emit(&mut rep, "auth", quick, json);
    rep
}
