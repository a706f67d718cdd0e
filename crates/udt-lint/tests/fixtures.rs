//! Fixture-based regression tests for udt-lint.
//!
//! `tests/fixtures/bad/` holds known-bad snippets — including a verbatim
//! reduction of the PR-8 `if let … = pool.lock().pop()` deadlock — each of
//! which must trip *exactly* its rule (at least one denied finding, and
//! every denied finding carries the expected rule). `tests/fixtures/good/`
//! holds the fixed twins, which must come back with zero denied findings.
//!
//! Each fixture is analysed under a repo-relative pseudo-path chosen to
//! activate the right rule scope (e.g. pool.rs for guard-liveness on the
//! datapath, mmsg.rs for the FFI rules), through the same
//! [`udt_lint::analyze_source`] entry point the CLI uses per file.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// The canonical lock order (mirrors the conn.rs doc header the CLI
/// parses); needed so the lock-order fixtures are exercised.
const LOCK_ORDER: &[&str] = &["conn_table", "snd", "rcv", "threads"];

/// (fixture file, pseudo repo path it is analysed under, rule it trips).
const BAD: &[(&str, &str, &str)] = &[
    ("guard_if_let_pool.rs", "crates/udt/src/pool.rs", "guard-liveness"),
    ("guard_relock.rs", "crates/udt/src/mux.rs", "guard-liveness"),
    ("guard_channel_send.rs", "crates/linkemu/src/lib.rs", "guard-liveness"),
    ("unsafe_no_safety.rs", "crates/udt/src/mmsg.rs", "unsafe-audit"),
    ("unsafe_outside_allowlist.rs", "crates/udt/src/mux.rs", "unsafe-audit"),
    ("ffi_temp_pointer.rs", "crates/udt/src/mmsg.rs", "ffi-contract"),
    ("ffi_magic_len.rs", "crates/udt/src/mmsg.rs", "ffi-contract"),
    ("hot_alloc_closure.rs", "crates/udt/src/mux.rs", "hot-alloc"),
    ("lock_order_inversion.rs", "crates/udt/src/conn.rs", "lock-order"),
    ("metrics_name.rs", "crates/udt/src/obs.rs", "metrics-name"),
    ("unused_allow.rs", "crates/udt/src/buffer.rs", "unused-allow"),
];

/// (fixture file, pseudo repo path): the fixed twins, asserted clean.
const GOOD: &[(&str, &str)] = &[
    ("guard_if_let_pool.rs", "crates/udt/src/pool.rs"),
    ("guard_relock.rs", "crates/udt/src/mux.rs"),
    ("guard_channel_send.rs", "crates/linkemu/src/lib.rs"),
    ("unsafe_no_safety.rs", "crates/udt/src/mmsg.rs"),
    ("unsafe_outside_allowlist.rs", "crates/udt/src/mux.rs"),
    ("ffi_temp_pointer.rs", "crates/udt/src/mmsg.rs"),
    ("ffi_magic_len.rs", "crates/udt/src/mmsg.rs"),
    ("hot_alloc_closure.rs", "crates/udt/src/mux.rs"),
    ("lock_order_inversion.rs", "crates/udt/src/conn.rs"),
    ("metrics_name.rs", "crates/udt/src/obs.rs"),
    ("unused_allow.rs", "crates/udt/src/buffer.rs"),
];

fn fixture(kind: &str, name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(kind)
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Denied (non-suppressed) findings for one fixture.
fn denied(rel: &str, src: &str) -> Vec<udt_lint::Finding> {
    let order: Vec<String> = LOCK_ORDER.iter().map(|s| (*s).to_string()).collect();
    let (findings, _) = udt_lint::analyze_source(rel, src, &order);
    findings.into_iter().filter(|f| !f.allowed).collect()
}

#[test]
fn bad_fixtures_trip_exactly_their_rule() {
    for (name, rel, rule) in BAD {
        let src = fixture("bad", name);
        let d = denied(rel, &src);
        assert!(
            !d.is_empty(),
            "bad/{name} (as {rel}) should trip `{rule}` but came back clean"
        );
        for f in &d {
            assert_eq!(
                f.rule, *rule,
                "bad/{name} (as {rel}) tripped `{}` at line {} — expected only \
                 `{rule}`: {}",
                f.rule, f.line, f.message
            );
        }
    }
}

#[test]
fn good_twins_are_clean() {
    for (name, rel) in GOOD {
        let src = fixture("good", name);
        let d = denied(rel, &src);
        assert!(
            d.is_empty(),
            "good/{name} (as {rel}) should be clean but tripped: {d:#?}"
        );
    }
}

/// Every file in the corpus must be listed in the tables above — a
/// fixture that is never analysed is a regression test that never runs.
#[test]
fn every_fixture_file_is_listed() {
    for (kind, listed) in [
        (
            "bad",
            BAD.iter().map(|(n, _, _)| *n).collect::<BTreeSet<_>>(),
        ),
        ("good", GOOD.iter().map(|(n, _)| *n).collect::<BTreeSet<_>>()),
    ] {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(kind);
        let on_disk: BTreeSet<String> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let listed: BTreeSet<String> = listed.into_iter().map(str::to_string).collect();
        assert_eq!(
            on_disk, listed,
            "fixtures/{kind}/ and the {kind} table are out of sync"
        );
    }
}

/// The PR-8 reduction must be caught through the *inter-procedural* path:
/// the re-acquisition happens two calls down from the live guard.
#[test]
fn pr8_reduction_is_flagged_interprocedurally() {
    let src = fixture("bad", "guard_if_let_pool.rs");
    let d = denied("crates/udt/src/pool.rs", &src);
    assert!(
        d.iter().any(|f| f.rule == "guard-liveness"
            && f.message.contains("debug_check_sampled")
            && f.message.contains("free")),
        "expected a guard-liveness finding naming the call that re-locks `free`: {d:#?}"
    );
}
