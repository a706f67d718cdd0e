//! udt-lint: workspace-native static analysis for the UDT repo.
//!
//! Three layers, all dependency-free:
//!
//! * [`lexer`] — a hand-rolled Rust lexer (comments, strings, lifetimes,
//!   compound punctuation, test-region and allow-directive tracking);
//! * [`scope`] — block-structure analysis on top of the token stream:
//!   function boundaries, brace matching, dotted-chain navigation,
//!   statement-context classification;
//! * the rules — token-window rules in [`rules`], and the scope-aware
//!   analyses [`guards::guard_liveness`] (deadlock-shaped guard
//!   lifetimes, one-level inter-procedural via a per-crate lock summary)
//!   and [`unsafe_audit`] (`unsafe` documentation + FFI pointer
//!   contracts).
//!
//! The library form exists so the fixture regression tests (and any other
//! tooling) can run the exact analysis the CLI runs, one file at a time.

pub mod guards;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod unsafe_audit;

use std::collections::HashMap;
use std::path::Path;

pub use guards::LockSummary;
pub use lexer::LexedFile;
pub use rules::Finding;
pub use unsafe_audit::UnsafeStats;

/// The result of analysing a set of sources.
pub struct Report {
    /// All findings, sorted by (file, line), suppressed ones included.
    pub findings: Vec<Finding>,
    /// Number of files analysed.
    pub files: usize,
    /// `unsafe` coverage across the set.
    pub stats: UnsafeStats,
    /// Diagnostics about the lint run itself (unknown rule names in
    /// allow directives).
    pub warnings: Vec<String>,
}

/// The per-crate grouping key: the first two path components
/// (`crates/udt`, `shims/bytes`). Lock summaries are built per crate —
/// `guard-liveness`'s inter-procedural step never resolves a call across
/// a crate boundary.
fn crate_key(rel: &str) -> String {
    let mut it = rel.split('/');
    match (it.next(), it.next()) {
        (Some(a), Some(b)) => format!("{a}/{b}"),
        (Some(a), None) => a.to_string(),
        _ => String::new(),
    }
}

/// Analyse `sources` (repo-relative path → file contents) under the
/// canonical `lock_order` (from `conn.rs` docs; empty disables the
/// lock-order rule).
pub fn analyze(sources: &[(String, String)], lock_order: &[String]) -> Report {
    let lexed: Vec<(String, LexedFile)> = sources
        .iter()
        .map(|(rel, src)| (rel.clone(), lexer::lex(src)))
        .collect();
    // Pass 1: per-crate function→locks summaries.
    let mut groups: HashMap<String, Vec<&LexedFile>> = HashMap::new();
    for (rel, lf) in &lexed {
        groups.entry(crate_key(rel)).or_default().push(lf);
    }
    let summaries: HashMap<String, LockSummary> = groups
        .into_iter()
        .map(|(k, files)| (k, guards::lock_summary(&files)))
        .collect();
    // Pass 2: the rules.
    let empty = LockSummary::default();
    let mut findings = Vec::new();
    let mut stats = UnsafeStats::default();
    let mut warnings = Vec::new();
    for (rel, lf) in &lexed {
        let summary = summaries.get(&crate_key(rel)).unwrap_or(&empty);
        for (line, n) in &lf.allows {
            if !rules::RULES.contains(&n.as_str()) {
                warnings.push(format!(
                    "{rel}:{line}: unknown rule `{n}` in udt-lint allow directive"
                ));
            }
        }
        let (fs, st) = analyze_file(rel, lf, lock_order, summary);
        findings.extend(fs);
        stats.sites += st.sites;
        stats.with_safety += st.with_safety;
    }
    // Cross-file pass for `metrics-name`: the namespace is global, so a
    // name registered from call sites in two different files is the same
    // hazard the per-file duplicate check catches. Flag every site after
    // the first, in walk order.
    let mut first_site: HashMap<String, (String, u32)> = HashMap::new();
    for (rel, lf) in &lexed {
        if !rules::scope_for(Path::new(rel)).metrics_name {
            continue;
        }
        for (name, line) in rules::metrics_registrations(lf) {
            match first_site.get(&name) {
                None => {
                    first_site.insert(name, (rel.clone(), line));
                }
                Some((f0, l0)) if f0 != rel => {
                    findings.push(Finding {
                        file: rel.clone(),
                        line,
                        rule: "metrics-name",
                        message: format!(
                            "metric `{name}` already registered at {f0}:{l0}: one name, one call site"
                        ),
                        allowed: lf.is_allowed(line, "metrics-name"),
                    });
                }
                // Same-file duplicates were already reported per file.
                Some(_) => {}
            }
        }
    }
    // Last, because it audits the escape hatches against everything the
    // passes above found.
    for (rel, lf) in &lexed {
        let unused = rules::unused_allows(rel, lf, &findings);
        findings.extend(unused);
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    warnings.sort();
    warnings.dedup();
    Report {
        findings,
        files: lexed.len(),
        stats,
        warnings,
    }
}

/// Run every applicable rule over one lexed file. `summary` is the lock
/// summary of the file's crate; build one with [`guards::lock_summary`]
/// (a [`LockSummary::default`] disables the inter-procedural check).
pub fn analyze_file(
    rel: &str,
    lexed: &LexedFile,
    lock_order: &[String],
    summary: &LockSummary,
) -> (Vec<Finding>, UnsafeStats) {
    let scope = rules::scope_for(Path::new(rel));
    let mut findings = Vec::new();
    let mut stats = UnsafeStats::default();
    if scope.seq_cmp {
        findings.extend(rules::seq_cmp(rel, lexed));
    }
    if scope.wall_clock {
        findings.extend(rules::wall_clock(rel, lexed));
    }
    if scope.unwrap {
        findings.extend(rules::unwrap_rule(rel, lexed));
    }
    if scope.as_cast {
        findings.extend(rules::as_cast(rel, lexed));
    }
    if scope.lock_order && !lock_order.is_empty() {
        findings.extend(rules::lock_order(rel, lexed, lock_order));
    }
    if scope.println {
        findings.extend(rules::println_rule(rel, lexed));
    }
    if scope.secret_material {
        findings.extend(rules::secret_material(rel, lexed));
    }
    if scope.hot_alloc {
        findings.extend(rules::hot_alloc(rel, lexed));
    }
    if scope.metrics_name {
        findings.extend(rules::metrics_name(rel, lexed));
    }
    if scope.guard_liveness {
        findings.extend(guards::guard_liveness(rel, lexed, summary));
    }
    if scope.unsafe_audit {
        let (fs, st) = unsafe_audit::unsafe_audit(rel, lexed, scope.ffi_contract);
        findings.extend(fs);
        stats = st;
    }
    if scope.ffi_contract {
        findings.extend(unsafe_audit::ffi_contract(rel, lexed));
    }
    (findings, stats)
}

/// Convenience for single-file analysis (fixture tests): lex, build a
/// one-file lock summary, run every applicable rule.
pub fn analyze_source(rel: &str, src: &str, lock_order: &[String]) -> (Vec<Finding>, UnsafeStats) {
    let lexed = lexer::lex(src);
    let summary = guards::lock_summary(&[&lexed]);
    let (mut findings, stats) = analyze_file(rel, &lexed, lock_order, &summary);
    let unused = rules::unused_allows(rel, &lexed, &findings);
    findings.extend(unused);
    (findings, stats)
}
