//! The deny rules. Each rule scans a token stream (see [`crate::lexer`])
//! plus small look-around windows; none of them needs a syntax tree.
//!
//! | rule        | hazard                                                        |
//! |-------------|---------------------------------------------------------------|
//! | `seq-cmp`   | raw `<`/`>`/`wrapping_*` on sequence numbers outside `SeqNo`  |
//! | `wall-clock`| `Instant::now`/`SystemTime::now` in deterministic crates      |
//! | `unwrap`    | `unwrap`/`expect`/`panic!` in library (non-test) code         |
//! | `as-cast`   | `as` narrowing casts on sequence/timestamp values             |
//! | `lock-order`| lock acquisition violating the documented order               |
//! | `println`   | `println!`/`eprintln!` in library crates (use udt-trace)      |
//! | `secret-material` | key/secret/tag identifiers fed to format macros         |
//! | `hot-alloc` | per-packet heap allocation in the datapath modules            |
//! | `metrics-name` | registry metric names off the `udt_*` namespace, and duplicate registration sites |
//! | `unused-allow` | an allow directive that suppresses no finding (stale escape hatch) |
//!
//! Three further rules live in their own modules, built on the
//! block-structure layer in [`crate::scope`]:
//! [`crate::guards::guard_liveness`] (`guard-liveness`: a mutex guard live
//! across a re-acquisition, a blocking channel op, or a call into a
//! locking function), and [`crate::unsafe_audit`] (`unsafe-audit`:
//! SAFETY-comment coverage + FFI allowlist; `ffi-contract`: pointer
//! provenance and length hygiene at `extern` call sites).
//!
//! Every rule honours the `// udt-lint: allow(<rule>)` escape hatch on the
//! finding's line or the line above it.

use std::path::Path;

use crate::lexer::{Kind, LexedFile, Token};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the repo root.
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    /// True when an inline `udt-lint: allow` directive covers it.
    pub allowed: bool,
}

/// All rule names, for `--list-rules` and directive validation.
pub const RULES: &[&str] = &[
    "seq-cmp",
    "wall-clock",
    "unwrap",
    "as-cast",
    "lock-order",
    "println",
    "secret-material",
    "hot-alloc",
    "metrics-name",
    "guard-liveness",
    "unsafe-audit",
    "ffi-contract",
    "unused-allow",
];

/// Identifiers treated as sequence-number-typed. Field and local names in
/// this workspace are consistent enough that a name-based judgement works;
/// the escape hatch covers the rest.
fn is_seqish(name: &str) -> bool {
    matches!(
        name,
        "seq" | "seqno"
            | "snd_una"
            | "next_new"
            | "curr_seq"
            | "lrsn"
            | "init_seq"
            | "base_seq"
            | "ack_no"
            | "last_ack_sent"
            | "last_ack_acked"
            | "snd_init"
            | "rcv_init"
            | "first_seq"
            | "last_seq"
            | "start_seq"
            | "end_seq"
    ) || (name.ends_with("_seq") || name.starts_with("seq_"))
}

/// Identifiers that smell like timestamps (for `as-cast`).
fn is_timeish(name: &str) -> bool {
    name == "timestamp_us"
        || name == "as_micros"
        || name == "as_nanos"
        || name == "as_millis"
        || name.ends_with("_us")
        || name.ends_with("_ns")
        || name.ends_with("_ts")
        || name == "nanos"
        || name == "micros"
}

fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    tokens
        .get(i)
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(tokens: &[Token], i: usize, p: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == Kind::Punct && t.text == p)
}

/// Collect identifiers in a window around `i` (inclusive bounds clamped).
fn idents_around(tokens: &[Token], i: usize, back: usize, fwd: usize) -> Vec<&str> {
    let lo = i.saturating_sub(back);
    let hi = (i + fwd).min(tokens.len().saturating_sub(1));
    tokens[lo..=hi]
        .iter()
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

fn finding(
    file: &str,
    lexed: &LexedFile,
    line: u32,
    rule: &'static str,
    message: String,
) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule,
        message,
        allowed: lexed.is_allowed(line, rule),
    }
}

/// `seq-cmp`: raw ordered comparisons or wrapping arithmetic on
/// sequence-number values outside the blessed `SeqNo` helpers.
///
/// Raw `<` on two live sequence numbers is wrong half the time once the
/// space wraps at 2^31 (§4 of the paper); every comparison must go through
/// `cmp_seq`/`lt_seq`/`le_seq`/`offset_to`. Comparisons are told apart
/// from generics by spacing (the whole tree is rustfmt-formatted: `a < b`
/// vs `Vec<T>`).
pub fn seq_cmp(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test {
            continue;
        }
        match (t.kind, t.text.as_str()) {
            (Kind::Punct, "<" | ">" | "<=" | ">=") if t.ws_before && t.ws_after => {
                let near = idents_around(tokens, i, 4, 4);
                if let Some(name) = near.iter().find(|n| is_seqish(n)) {
                    out.push(finding(
                        file,
                        lexed,
                        t.line,
                        "seq-cmp",
                        format!(
                            "raw `{}` comparison near sequence-number `{name}`: use \
                             SeqNo::{{cmp_seq,lt_seq,le_seq,offset_to}} (wrap-safe)",
                            t.text
                        ),
                    ));
                }
            }
            (Kind::Ident, "wrapping_sub" | "wrapping_add") if punct_at(tokens, i.wrapping_sub(1), ".") => {
                let near = idents_around(tokens, i, 6, 0);
                if let Some(name) = near.iter().find(|n| is_seqish(n)) {
                    out.push(finding(
                        file,
                        lexed,
                        t.line,
                        "seq-cmp",
                        format!(
                            "raw `{}` on sequence-number `{name}`: use SeqNo::{{add,sub,offset_to}} \
                             so the 31-bit mask is applied",
                            t.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// `wall-clock`: `Instant::now()` / `SystemTime::now()` in crates whose
/// value is determinism (`netsim`, `udt-algo`). Simulated time must come
/// from the simulator's clock; a wall-clock read makes runs unrepeatable.
pub fn wall_clock(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        if tokens[i].in_test {
            continue;
        }
        let Some(ty) = ident_at(tokens, i) else {
            continue;
        };
        if (ty == "Instant" || ty == "SystemTime")
            && punct_at(tokens, i + 1, "::")
            && ident_at(tokens, i + 2) == Some("now")
        {
            out.push(finding(
                file,
                lexed,
                tokens[i].line,
                "wall-clock",
                format!(
                    "`{ty}::now()` in a deterministic crate: take time from the \
                     simulation clock so runs replay exactly"
                ),
            ));
        }
    }
    out
}

/// `unwrap`: `.unwrap()`, `.expect(…)`, `panic!`, `unreachable!`, `todo!`,
/// `unimplemented!` in library (non-test) code. Library paths must return
/// `UdtError`; a panic tears down the caller's protocol threads.
pub fn unwrap_rule(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test || t.kind != Kind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect"
                if punct_at(tokens, i.wrapping_sub(1), ".") && punct_at(tokens, i + 1, "(") => {
                    out.push(finding(
                        file,
                        lexed,
                        t.line,
                        "unwrap",
                        format!(
                            "`.{}()` in library code: return an error (or annotate why \
                             this cannot fail)",
                            t.text
                        ),
                    ));
                }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if punct_at(tokens, i + 1, "!") => {
                    out.push(finding(
                        file,
                        lexed,
                        t.line,
                        "unwrap",
                        format!("`{}!` in library code: return an error instead", t.text),
                    ));
                }
            _ => {}
        }
    }
    out
}

/// `as-cast`: `as` narrowing casts in expressions that mention sequence or
/// timestamp values. Truncating either silently corrupts wrap arithmetic;
/// deliberate protocol-field truncation gets an annotation.
pub fn as_cast(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    let mut out = Vec::new();
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        if tokens[i].in_test {
            continue;
        }
        if ident_at(tokens, i) != Some("as") {
            continue;
        }
        let Some(ty) = ident_at(tokens, i + 1) else {
            continue;
        };
        if !NARROW.contains(&ty) {
            continue;
        }
        let near = idents_around(tokens, i, 8, 0);
        if let Some(name) = near
            .iter()
            .find(|n| is_seqish(n) || is_timeish(n))
        {
            out.push(finding(
                file,
                lexed,
                tokens[i].line,
                "as-cast",
                format!(
                    "`as {ty}` narrowing near `{name}`: sequence/timestamp values \
                     must not be silently truncated"
                ),
            ));
        }
    }
    out
}

/// `println`: `println!`/`eprintln!`/`print!`/`eprint!` in library crates.
/// A library layer that writes to the process's stdio is unusable under a
/// TUI, pollutes experiment artifacts, and hides information from the
/// flight recorder — emit a `udt-trace` event instead. CLI binaries
/// (`src/bin/`) and the bench/report harnesses are exempt by scope.
pub fn println_rule(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test || t.kind != Kind::Ident {
            continue;
        }
        if matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint")
            && punct_at(tokens, i + 1, "!")
        {
            out.push(finding(
                file,
                lexed,
                t.line,
                "println",
                format!(
                    "`{}!` in library code: emit a udt-trace event (or return \
                     the text to the caller) instead of writing to stdio",
                    t.text
                ),
            ));
        }
    }
    out
}

/// Identifiers treated as authentication secret material: any `_`-separated
/// segment equal to `key`, `secret`, `psk` or `tag` (`tx_key`, `hs_key`,
/// `auth_tag`, …). Tags are MAC outputs — not secret on the wire, but an
/// accidental log of computed-vs-received tags is exactly the oracle a
/// forger wants, so they are held to the same rule.
fn is_secretish(name: &str) -> bool {
    name.split('_')
        .any(|seg| matches!(seg, "key" | "keys" | "secret" | "secrets" | "psk" | "tag" | "tags"))
}

/// Identifiers captured inline in a format-string literal: `{name}` or
/// `{name:spec}`, skipping `{{` escapes and positional/numeric captures.
fn captured_idents(lit: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = lit.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'{' {
            i += 1;
            continue;
        }
        if bytes.get(i + 1) == Some(&b'{') {
            i += 2; // escaped brace
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        if j > start
            && !bytes[start].is_ascii_digit()
            && matches!(bytes.get(j), Some(&b'}') | Some(&b':'))
        {
            out.push(&lit[start..j]);
        }
        i = j.max(start);
    }
    out
}

/// Format-style macros whose arguments end up in human-readable output
/// (directly or via a `Debug`/`Display` impl).
const FORMAT_MACROS: &[&str] = &[
    "println",
    "eprintln",
    "print",
    "eprint",
    "format",
    "write",
    "writeln",
    "panic",
    "todo",
    "unimplemented",
];

/// `secret-material`: key/secret/tag-named identifiers passed to a format
/// macro in library code. Keys must never reach logs, traces or error
/// strings; even Debug-formatting a struct that *contains* key material
/// (`{self:?}` on a context holding `tx_key`) leaks it. Flag at the
/// argument level so the finding points at the leaking identifier.
pub fn secret_material(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &lexed.tokens;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        let is_fmt = t.kind == Kind::Ident
            && !t.in_test
            && FORMAT_MACROS.contains(&t.text.as_str())
            && punct_at(tokens, i + 1, "!")
            && punct_at(tokens, i + 2, "(");
        if !is_fmt {
            i += 1;
            continue;
        }
        // Walk the macro's argument list to the matching close paren.
        let mut depth = 1usize;
        let mut k = i + 3;
        while k < tokens.len() && depth > 0 {
            let a = &tokens[k];
            if a.kind == Kind::Punct {
                match a.text.as_str() {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    _ => {}
                }
            } else if a.kind == Kind::Ident && is_secretish(&a.text) {
                out.push(finding(
                    file,
                    lexed,
                    a.line,
                    "secret-material",
                    format!(
                        "`{}` formatted via `{}!`: key/tag material must not reach \
                         logs, traces or error strings",
                        a.text, t.text
                    ),
                ));
            } else if a.kind == Kind::Literal {
                // Inline captures leak too: format!("{tx_key:?}").
                for cap in captured_idents(&a.text) {
                    if is_secretish(cap) {
                        out.push(finding(
                            file,
                            lexed,
                            a.line,
                            "secret-material",
                            format!(
                                "`{{{cap}}}` captured in a `{}!` format string: key/tag \
                                 material must not reach logs, traces or error strings",
                                t.text
                            ),
                        ));
                    }
                }
            }
            k += 1;
        }
        i = k;
    }
    out
}

/// `hot-alloc`: per-packet heap allocation (`Vec::new`, `vec![…]`,
/// `.to_vec()`) in the blessed datapath modules. The batched datapath's
/// contract is zero per-packet allocation in steady state: receive buffers
/// come from the recycling pool, send buffers from thread-local scratch,
/// and batch-granularity vectors use `Vec::with_capacity` (deliberately
/// not matched — one allocation per *batch* is amortized, one per *packet*
/// is the regression this rule exists to catch). Cold paths — connection
/// establishment, loss events, teardown — take the escape hatch with a
/// justification comment.
pub fn hot_alloc(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test || t.kind != Kind::Ident {
            continue;
        }
        if in_cold_context(tokens, i) {
            // Cold by construction: a closure handed to an error-path
            // combinator, or a `const { … }` initializer evaluated at
            // compile time — neither runs per packet.
            continue;
        }
        match t.text.as_str() {
            "Vec" if punct_at(tokens, i + 1, "::") && ident_at(tokens, i + 2) == Some("new") => {
                out.push(finding(
                    file,
                    lexed,
                    t.line,
                    "hot-alloc",
                    "`Vec::new()` in a datapath module: reuse a pooled/scratch buffer, \
                     or `with_capacity` at batch granularity (annotate cold paths)"
                        .to_string(),
                ));
            }
            "vec" if punct_at(tokens, i + 1, "!") => {
                out.push(finding(
                    file,
                    lexed,
                    t.line,
                    "hot-alloc",
                    "`vec![…]` in a datapath module: reuse a pooled/scratch buffer \
                     (annotate cold paths)"
                        .to_string(),
                ));
            }
            "to_vec"
                if punct_at(tokens, i.wrapping_sub(1), ".") && punct_at(tokens, i + 1, "(") =>
            {
                out.push(finding(
                    file,
                    lexed,
                    t.line,
                    "hot-alloc",
                    "`.to_vec()` copies into a fresh allocation: slice the pooled \
                     buffer or reuse a scratch `Vec` (annotate cold paths)"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Combinators whose closure argument only runs on the cold branch of a
/// `Result`/`Option` — an allocation there is error-path, not per-packet.
const COLD_COMBINATORS: &[&str] = &[
    "map_err",
    "unwrap_or_else",
    "ok_or_else",
    "or_else",
    "or_insert_with",
    "get_or_insert_with",
];

/// Is token `i` inside a context `hot-alloc` should not police: a closure
/// passed to a cold-branch combinator, or a `const { … }` block (e.g. a
/// `thread_local!` const initializer)? Walks outward through enclosing
/// parens/braces; stops at the first plain block (fn bodies, loops).
fn in_cold_context(tokens: &[Token], i: usize) -> bool {
    let mut pd = 0i32; // ) seen while scanning backwards
    let mut bd = 0i32; // } seen while scanning backwards
    let mut k = i;
    while k > 0 {
        k -= 1;
        let t = &tokens[k];
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text.as_str() {
            ")" => pd += 1,
            "}" => bd += 1,
            "(" if pd > 0 => pd -= 1,
            "{" if bd > 0 => bd -= 1,
            "(" => {
                // An enclosing, unclosed call paren. A cold-combinator
                // call whose argument is a closure exempts the site;
                // any other enclosing call keeps us walking outward.
                let callee = ident_at(tokens, k.wrapping_sub(1));
                let arg_is_closure = tokens
                    .get(k + 1)
                    .is_some_and(|a| a.text == "|" || a.text == "||" || a.text == "move");
                if arg_is_closure
                    && callee.is_some_and(|c| COLD_COMBINATORS.contains(&c))
                {
                    return true;
                }
            }
            "{" => {
                // An enclosing, unclosed block. `const { … }` exempts;
                // a closure body (`|e| { … }`) keeps walking outward;
                // anything else (fn body, loop, if) ends the search.
                match tokens.get(k.wrapping_sub(1)).map(|t| t.text.as_str()) {
                    Some("const") => return true,
                    Some("|" | "||" | "move") => {}
                    _ => return false,
                }
            }
            _ => {}
        }
    }
    false
}

/// One lock the order rule tracks.
#[derive(Debug, Clone)]
struct Held {
    name: String,
    /// Position in the canonical order (lower = outer).
    order: usize,
    /// Brace depth at acquisition; popped when the scope closes.
    depth: i32,
    /// `let`-bound guard variable, if any; `drop(var)` releases it early.
    var: Option<String>,
    /// Temporary guard (no binding): released at the end of the statement.
    temp: bool,
}

/// Parse the canonical lock order out of `conn.rs` doc comments: lines of
/// the form ``//! 1. `name` — …``. Returns names in order.
pub fn parse_lock_order(conn_rs_source: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in conn_rs_source.lines() {
        let line = line.trim_start();
        let Some(rest) = line.strip_prefix("//!") else {
            continue;
        };
        let rest = rest.trim_start();
        // "<n>. `name`"
        let mut chars = rest.chars();
        let digits: String = chars.by_ref().take_while(|c| c.is_ascii_digit()).collect();
        if digits.is_empty() {
            continue;
        }
        let Some(after) = rest[digits.len()..].strip_prefix(". `") else {
            continue;
        };
        let Some(end) = after.find('`') else {
            continue;
        };
        out.push(after[..end].to_string());
    }
    out
}

/// `lock-order`: intra-function analysis of `<name>.lock()` acquisitions
/// against the canonical order from the `conn.rs` module docs. Holding
/// lock A and acquiring B is legal only when A precedes B in that order;
/// re-acquiring a held lock is always flagged (parking_lot mutexes are not
/// reentrant).
pub fn lock_order(file: &str, lexed: &LexedFile, order: &[String]) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &lexed.tokens;
    let pos = |name: &str| order.iter().position(|n| n == name);
    let mut i = 0;
    while i < tokens.len() {
        // Find the next function (test code included: a deadlock in a test
        // hangs CI just as hard).
        if ident_at(tokens, i) != Some("fn") {
            i += 1;
            continue;
        }
        // Skip to the body's opening brace ( `;` = trait method, no body).
        let mut j = i + 1;
        while j < tokens.len()
            && !(tokens[j].kind == Kind::Punct && (tokens[j].text == "{" || tokens[j].text == ";"))
        {
            j += 1;
        }
        if j >= tokens.len() || tokens[j].text == ";" {
            i = j + 1;
            continue;
        }
        // Walk the body.
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 1i32;
        let mut k = j + 1;
        while k < tokens.len() && depth > 0 {
            let t = &tokens[k];
            if t.kind == Kind::Punct {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        held.retain(|h| h.depth <= depth);
                    }
                    ";" => held.retain(|h| !(h.temp && h.depth == depth)),
                    _ => {}
                }
                k += 1;
                continue;
            }
            // drop(var) releases a named guard.
            if t.kind == Kind::Ident
                && t.text == "drop"
                && punct_at(tokens, k + 1, "(")
                && tokens.get(k + 2).is_some_and(|v| v.kind == Kind::Ident)
                && punct_at(tokens, k + 3, ")")
            {
                let var = &tokens[k + 2].text;
                held.retain(|h| h.var.as_deref() != Some(var.as_str()));
                k += 4;
                continue;
            }
            // <name>.lock()
            if t.kind == Kind::Ident
                && punct_at(tokens, k + 1, ".")
                && ident_at(tokens, k + 2) == Some("lock")
                && punct_at(tokens, k + 3, "(")
                && punct_at(tokens, k + 4, ")")
            {
                if let Some(ord) = pos(&t.text) {
                    for h in &held {
                        if ord <= h.order {
                            out.push(finding(
                                file,
                                lexed,
                                t.line,
                                "lock-order",
                                if h.name == t.text {
                                    format!("`{}` re-locked while already held (deadlock)", t.text)
                                } else {
                                    format!(
                                        "`{}` locked while holding `{}`: canonical order is {}",
                                        t.text,
                                        h.name,
                                        order.join(" -> ")
                                    )
                                },
                            ));
                        }
                    }
                    // Bound or temporary? Look back for `let [mut] v = … .lock()`
                    // within the current statement.
                    let var = binding_for(tokens, k);
                    held.push(Held {
                        name: t.text.clone(),
                        order: ord,
                        depth,
                        temp: var.is_none(),
                        var,
                    });
                }
                k += 5;
                continue;
            }
            k += 1;
        }
        i = k;
    }
    out
}

/// For an acquisition at token `k` (the lock-name ident), find the `let`
/// binding that receives the guard, if any: scan back to the statement
/// start (`;`, `{`, `}`) looking for `let [mut] <var> =`.
fn binding_for(tokens: &[Token], k: usize) -> Option<String> {
    let mut j = k;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.kind == Kind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            return None;
        }
        if t.kind == Kind::Ident && t.text == "let" {
            let mut v = j + 1;
            if ident_at(tokens, v) == Some("mut") {
                v += 1;
            }
            let name = ident_at(tokens, v)?;
            return Some(name.to_string());
        }
    }
    None
}

/// Is `lit` (a string literal token, quotes included) a valid metric
/// name: `^udt_[a-z0-9_]+$`?
fn valid_metric_name_lit(lit: &str) -> bool {
    let name = lit.trim_matches('"');
    name.strip_prefix("udt_").is_some_and(|rest| {
        !rest.is_empty()
            && rest
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    })
}

/// Metric name literals at registry call sites: `.counter("…")`,
/// `.gauge("…")`, `.histogram("…")` with a literal first argument.
/// Returns `(name, line)` pairs, test regions excluded.
pub fn metrics_registrations(lexed: &LexedFile) -> Vec<(String, u32)> {
    let tokens = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let is_reg = t.kind == Kind::Ident
            && !t.in_test
            && matches!(t.text.as_str(), "counter" | "gauge" | "histogram")
            && i > 0
            && punct_at(tokens, i - 1, ".")
            && punct_at(tokens, i + 1, "(");
        if !is_reg {
            continue;
        }
        if let Some(lit) = tokens
            .get(i + 2)
            .filter(|a| a.kind == Kind::Literal && a.text.starts_with('"'))
        {
            out.push((lit.text.trim_matches('"').to_string(), lit.line));
        }
    }
    out
}

/// `metrics-name`: every metric name literal handed to
/// `Registry::counter`/`gauge`/`histogram` must match `^udt_[a-z0-9_]+$`
/// (one namespace, greppable, exporter-safe), and a name must be
/// registered from exactly one call site per file — a second site with
/// the same literal is either a copy-paste error or a kind conflict
/// waiting to happen (`analyze` extends this check across files).
/// Dynamically-built names (no literal at the call site) are out of
/// scope; the registry itself validates those at runtime.
pub fn metrics_name(file: &str, lexed: &LexedFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: Vec<(String, u32)> = Vec::new();
    for (name, line) in metrics_registrations(lexed) {
        if !valid_metric_name_lit(&format!("\"{name}\"")) {
            out.push(finding(
                file,
                lexed,
                line,
                "metrics-name",
                format!("metric name `{name}` must match ^udt_[a-z0-9_]+$"),
            ));
        }
        if let Some((_, first)) = seen.iter().find(|(n, _)| *n == name) {
            out.push(finding(
                file,
                lexed,
                line,
                "metrics-name",
                format!("metric `{name}` already registered at line {first}: one name, one call site"),
            ));
        } else {
            seen.push((name, line));
        }
    }
    out
}


/// `unused-allow`: an `udt-lint: allow(rule)` directive with no finding of
/// that rule on its line or the next. `findings` is everything the other
/// rules found (any file). An escape hatch that hides nothing is worse than
/// noise: the code it excused has moved or been fixed, and the directive is
/// now waiting to hide the next real finding that lands near it. Not itself
/// suppressible: delete the directive.
pub fn unused_allows(file: &str, lexed: &LexedFile, findings: &[Finding]) -> Vec<Finding> {
    let used = |at: u32, rule: &str| {
        findings
            .iter()
            .any(|f| f.file == file && f.rule == rule && (f.line == at || f.line == at + 1))
    };
    lexed
        .allows
        .iter()
        .filter(|(at, rule)| !used(*at, rule))
        .map(|(at, rule)| Finding {
            file: file.to_string(),
            line: *at,
            rule: "unused-allow",
            message: format!(
                "`allow({rule})` suppresses nothing: no `{rule}` finding on this line or the next"
            ),
            allowed: false,
        })
        .collect()
}

/// Which rule set applies to `path` (relative to the repo root)?
pub struct Scope {
    pub seq_cmp: bool,
    pub wall_clock: bool,
    pub unwrap: bool,
    pub as_cast: bool,
    pub lock_order: bool,
    pub println: bool,
    pub secret_material: bool,
    pub hot_alloc: bool,
    pub metrics_name: bool,
    pub guard_liveness: bool,
    pub unsafe_audit: bool,
    /// Doubles as the FFI allowlist flag: `ffi-contract` runs here, and
    /// `unsafe-audit` treats `unsafe` as structurally expected.
    pub ffi_contract: bool,
}

impl Scope {
    /// Does any rule apply to this file at all?
    pub fn any(&self) -> bool {
        self.seq_cmp
            || self.wall_clock
            || self.unwrap
            || self.as_cast
            || self.lock_order
            || self.println
            || self.secret_material
            || self.hot_alloc
            || self.metrics_name
            || self.guard_liveness
            || self.unsafe_audit
            || self.ffi_contract
    }
}

/// Compute rule applicability from the path alone. The conventions:
/// `udt-proto/src/seqno.rs` is the blessed implementation of wrap
/// arithmetic; `netsim`/`udt-algo` are the deterministic crates; binaries,
/// the bench/test harnesses and the verification tools themselves are not
/// library code.
pub fn scope_for(rel: &Path) -> Scope {
    let p = rel.to_string_lossy().replace('\\', "/");
    let is_blessed_seqno = p.ends_with("udt-proto/src/seqno.rs");
    // The TCP reference agent models sequence space as unbounded u64
    // counters — no wrap by construction, so raw comparisons are sound.
    let is_tcp_model = p.ends_with("netsim/src/agents/tcp.rs");
    let in_bin = p.contains("/src/bin/") || p.ends_with("/src/main.rs");
    let crate_name = p
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("");
    let harness = matches!(crate_name, "bench" | "testsuite" | "udt-lint" | "udt-verify");
    let lib_crate = matches!(
        crate_name,
        "udt"
            | "udt-proto"
            | "udt-algo"
            | "netsim"
            | "linkemu"
            | "udt-metrics"
            | "udt-chaos"
            | "udt-trace"
    );
    let test_file = p.ends_with("_tests.rs") || p.ends_with("/tests.rs");
    // The blessed hot-path modules of the batched datapath, and the protocol
    // event core whose handlers they call once per packet: zero per-packet
    // allocation in steady state is a contract there.
    let hot_path = p.ends_with("udt/src/mux.rs")
        || p.ends_with("udt/src/conn.rs")
        || p.ends_with("udt/src/pool.rs")
        || p.ends_with("udt/src/mmsg.rs")
        || (p.contains("udt-algo/src/conn/") && !test_file);
    let ffi = crate::unsafe_audit::is_ffi_allowlisted(&p);
    Scope {
        seq_cmp: !is_blessed_seqno && !is_tcp_model && !harness,
        wall_clock: matches!(crate_name, "netsim" | "udt-algo"),
        unwrap: lib_crate && !in_bin && !test_file,
        as_cast: !is_blessed_seqno && !is_tcp_model && !harness,
        lock_order: crate_name == "udt",
        println: lib_crate && !in_bin && !test_file,
        // Key material must not leak through format machinery anywhere in
        // library code — including `src/bin/` would be nice, but CLIs
        // legitimately echo tag *counts*; the library rule plus the CLIs
        // never holding raw keys beyond parse keeps the risk at the parse
        // site, which is library code.
        secret_material: lib_crate && !in_bin && !test_file,
        hot_alloc: hot_path,
        // Metric names share one flat namespace across every registering
        // crate; bins and tests register scratch names on private
        // registries, which is fine.
        metrics_name: (lib_crate || crate_name == "udt-multipath") && !in_bin && !test_file,
        // Locks live in the transport crates; the multipath bonding layer
        // is just as deadlock-prone as core udt even though the older
        // name-based rules never covered it.
        guard_liveness: lib_crate || crate_name == "udt-multipath",
        // `unsafe` is audited everywhere the linter walks — harness code
        // and shims included: an undocumented unsafe block is never fine.
        unsafe_audit: true,
        ffi_contract: ffi,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run<F: Fn(&str, &LexedFile) -> Vec<Finding>>(src: &str, f: F) -> Vec<Finding> {
        f("test.rs", &lex(src))
    }

    #[test]
    fn seq_cmp_catches_raw_comparison() {
        let fs = run("fn f() { if snd_una < ack { } }", seq_cmp);
        assert_eq!(fs.len(), 1);
        assert!(!fs[0].allowed);
    }

    #[test]
    fn seq_cmp_ignores_generics_and_unrelated_idents() {
        assert!(run("fn f(v: Vec<SeqNo>) { let n: Option<u32> = None; }", seq_cmp).is_empty());
        assert!(run("fn f() { if count < limit { } }", seq_cmp).is_empty());
    }

    #[test]
    fn seq_cmp_catches_wrapping_arith() {
        let fs = run("fn f() { let d = seq.raw().wrapping_sub(base_seq.raw()); }", seq_cmp);
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn seq_cmp_honours_allow() {
        let fs = run(
            "fn f() {\n // udt-lint: allow(seq-cmp)\n if snd_una < ack { }\n}",
            seq_cmp,
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].allowed);
    }

    #[test]
    fn wall_clock_catches_instant_now() {
        let fs = run("fn f() { let t = Instant::now(); }", wall_clock);
        assert_eq!(fs.len(), 1);
        let fs = run("fn f() { let t = SystemTime::now(); }", wall_clock);
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn wall_clock_skips_tests() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let x = Instant::now(); } }";
        assert!(run(src, wall_clock).is_empty());
    }

    #[test]
    fn unwrap_catches_library_panics() {
        let fs = run(
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }",
            unwrap_rule,
        );
        assert_eq!(fs.len(), 3);
    }

    #[test]
    fn unwrap_skips_tests_and_lookalikes() {
        assert!(run("#[test]\nfn t() { x.unwrap(); }", unwrap_rule).is_empty());
        assert!(run("fn f() { x.unwrap_or(0); x.unwrap_or_else(|| 1); }", unwrap_rule).is_empty());
    }

    #[test]
    fn as_cast_catches_narrowing_near_seq() {
        let fs = run("fn f() { let x = (seq.raw() + 1) as u16; }", as_cast);
        assert_eq!(fs.len(), 1);
        let fs = run("fn f() { let t = now.as_micros() as u32; }", as_cast);
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn as_cast_ignores_widening_and_unrelated() {
        assert!(run("fn f() { let x = seq.raw() as u64; }", as_cast).is_empty());
        assert!(run("fn f() { let x = count as u16; }", as_cast).is_empty());
    }

    #[test]
    fn println_catches_stdio_macros() {
        let fs = run(
            "fn f() { println!(\"x\"); eprintln!(\"y\"); print!(\"z\"); eprint!(\"w\"); }",
            println_rule,
        );
        assert_eq!(fs.len(), 4);
        assert!(!fs[0].allowed);
    }

    #[test]
    fn println_skips_tests_writeln_and_allows() {
        assert!(run("#[test]\nfn t() { println!(\"dbg\"); }", println_rule).is_empty());
        assert!(run("fn f() { writeln!(out, \"x\").ok(); }", println_rule).is_empty());
        let fs = run(
            "fn f() {\n // udt-lint: allow(println)\n println!(\"banner\");\n}",
            println_rule,
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].allowed);
    }

    #[test]
    fn println_scope_covers_lib_crates_only() {
        use std::path::Path;
        assert!(scope_for(Path::new("crates/udt/src/conn.rs")).println);
        assert!(scope_for(Path::new("crates/udt-trace/src/lib.rs")).println);
        assert!(scope_for(Path::new("crates/udt-trace/src/lib.rs")).unwrap);
        assert!(!scope_for(Path::new("crates/udt/src/bin/udtperf.rs")).println);
        assert!(!scope_for(Path::new("crates/bench/src/report.rs")).println);
        assert!(!scope_for(Path::new("crates/udt-lint/src/main.rs")).println);
    }

    #[test]
    fn secret_material_catches_direct_args_and_debug() {
        let fs = run(
            "fn f() { let msg = format!(\"k={:?}\", self.tx_key); err(msg); }",
            secret_material,
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("tx_key"));
        // panic paths leak too
        let fs = run("fn f() { panic!(\"bad tag {}\", expected_tag); }", secret_material);
        assert_eq!(fs.len(), 1);
    }

    #[test]
    fn secret_material_catches_inline_captures() {
        let fs = run(
            "fn f() { let s = format!(\"psk {auth_key:?} nonce {nonce}\"); }",
            secret_material,
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("auth_key"));
    }

    #[test]
    fn secret_material_skips_innocent_idents_tests_and_allows() {
        assert!(run(
            "fn f() { let s = format!(\"seq {} from {peer}\", seq.raw()); }",
            secret_material
        )
        .is_empty());
        assert!(run("#[test]\nfn t() { println!(\"{tag:x}\"); }", secret_material).is_empty());
        let fs = run(
            "fn f() {\n // udt-lint: allow(secret-material)\n let s = format!(\"{key_id}\");\n}",
            secret_material,
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].allowed);
    }

    #[test]
    fn secret_material_scope_matches_println_scope() {
        use std::path::Path;
        assert!(scope_for(Path::new("crates/udt-proto/src/auth.rs")).secret_material);
        assert!(scope_for(Path::new("crates/udt/src/mux.rs")).secret_material);
        assert!(!scope_for(Path::new("crates/udt/src/bin/udtcat.rs")).secret_material);
        assert!(!scope_for(Path::new("crates/bench/src/experiments/auth.rs")).secret_material);
    }

    #[test]
    fn hot_alloc_catches_per_packet_allocation() {
        let fs = run(
            "fn f(buf: &[u8]) { let v = Vec::new(); let w = vec![0u8; 64]; let c = buf.to_vec(); }",
            hot_alloc,
        );
        assert_eq!(fs.len(), 3, "{fs:?}");
        assert!(fs.iter().all(|f| !f.allowed));
    }

    #[test]
    fn hot_alloc_skips_with_capacity_tests_and_lookalikes() {
        assert!(run("fn f() { let v: Vec<u8> = Vec::with_capacity(64); }", hot_alloc).is_empty());
        assert!(run("#[test]\nfn t() { let v = Vec::new(); }", hot_alloc).is_empty());
        // `to_vec` only fires as a method call.
        assert!(run("fn f() { let n = to_vec; }", hot_alloc).is_empty());
    }

    #[test]
    fn hot_alloc_honours_allow() {
        let fs = run(
            "fn f() {\n // udt-lint: allow(hot-alloc)\n let v = Vec::new();\n}",
            hot_alloc,
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].allowed);
    }

    #[test]
    fn hot_alloc_scope_covers_only_the_blessed_datapath_modules() {
        use std::path::Path;
        assert!(scope_for(Path::new("crates/udt/src/mux.rs")).hot_alloc);
        assert!(scope_for(Path::new("crates/udt/src/conn.rs")).hot_alloc);
        assert!(scope_for(Path::new("crates/udt/src/pool.rs")).hot_alloc);
        assert!(scope_for(Path::new("crates/udt/src/mmsg.rs")).hot_alloc);
        assert!(scope_for(Path::new("crates/udt-algo/src/conn/snd.rs")).hot_alloc);
        assert!(scope_for(Path::new("crates/udt-algo/src/conn/rcv.rs")).hot_alloc);
        assert!(!scope_for(Path::new("crates/udt-algo/src/conn/tests.rs")).hot_alloc);
        assert!(!scope_for(Path::new("crates/udt-algo/src/losslist.rs")).hot_alloc);
        assert!(!scope_for(Path::new("crates/udt/src/socket.rs")).hot_alloc);
        assert!(!scope_for(Path::new("crates/udt/src/buffer.rs")).hot_alloc);
        assert!(!scope_for(Path::new("crates/bench/src/realnet.rs")).hot_alloc);
    }

    #[test]
    fn captured_idents_parses_format_strings() {
        assert_eq!(captured_idents("\"{tx_key:?} {{esc}} {0} {ok}\""), vec!["tx_key", "ok"]);
        assert!(captured_idents("\"plain text\"").is_empty());
    }

    #[test]
    fn metrics_name_catches_bad_names_and_duplicates() {
        let fs = run(
            "fn f(r: &Registry) { r.counter(\"conn_pkts\", \"h\", &[]); }",
            metrics_name,
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("must match"), "{}", fs[0].message);
        let fs = run(
            "fn f(r: &Registry) { r.gauge(\"udt_Bad_Name\", \"h\", &[]); }",
            metrics_name,
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        let fs = run(
            "fn f(r: &Registry) {\n r.histogram(\"udt_x_us\", \"h\", &[]);\n r.histogram(\"udt_x_us\", \"h\", &[]);\n}",
            metrics_name,
        );
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("already registered"), "{}", fs[0].message);
    }

    #[test]
    fn metrics_name_skips_valid_dynamic_tests_and_allows() {
        assert!(run(
            "fn f(r: &Registry) { r.counter(\"udt_conn_pkts_sent\", \"h\", &[]); }",
            metrics_name
        )
        .is_empty());
        // Dynamic name: no literal at the call site — runtime validates.
        assert!(run("fn f(r: &Registry) { r.counter(name, \"h\", &[]); }", metrics_name)
            .is_empty());
        // Unrelated .histogram() without a literal, and test regions.
        assert!(run("#[cfg(test)]\nmod tests { fn t(r: &Registry) { r.counter(\"bad\", \"h\", &[]); } }", metrics_name).is_empty());
        let fs = run(
            "fn f(r: &Registry) {\n // udt-lint: allow(metrics-name) — migration shim\n r.counter(\"legacy_name\", \"h\", &[]);\n}",
            metrics_name,
        );
        assert_eq!(fs.len(), 1);
        assert!(fs[0].allowed);
    }

    #[test]
    fn metrics_name_scope_covers_registering_crates_only() {
        assert!(scope_for(Path::new("crates/udt/src/obs.rs")).metrics_name);
        assert!(scope_for(Path::new("crates/udt-metrics/src/registry.rs")).metrics_name);
        assert!(!scope_for(Path::new("crates/udt/src/bin/udtstat.rs")).metrics_name);
        assert!(!scope_for(Path::new("crates/bench/src/experiments/metrics_overhead.rs")).metrics_name);
    }

    #[test]
    fn lock_order_doc_parse() {
        let src = "//! # Lock order\n//!\n//! 1. `conn_table` — registry.\n//! 2. `snd` — sender.\n//! 3. `rcv` — receiver.\n";
        assert_eq!(parse_lock_order(src), vec!["conn_table", "snd", "rcv"]);
    }

    #[test]
    fn lock_order_catches_inversion_and_reentry() {
        let order: Vec<String> = ["conn_table", "snd", "rcv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let bad = "fn f(sh: &S) { let r = sh.rcv.lock(); let s = sh.snd.lock(); }";
        let fs = lock_order("t.rs", &lex(bad), &order);
        assert_eq!(fs.len(), 1, "{fs:?}");
        let re = "fn f(sh: &S) { let a = sh.snd.lock(); let b = sh.snd.lock(); }";
        assert_eq!(lock_order("t.rs", &lex(re), &order).len(), 1);
    }

    #[test]
    fn lock_order_accepts_sequential_scopes_and_drop() {
        let order: Vec<String> = ["conn_table", "snd", "rcv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let seq = "fn f(sh: &S) { { let s = sh.snd.lock(); } { let r = sh.rcv.lock(); } }";
        assert!(lock_order("t.rs", &lex(seq), &order).is_empty());
        let nested_ok = "fn f(sh: &S) { let s = sh.snd.lock(); let r = sh.rcv.lock(); }";
        assert!(lock_order("t.rs", &lex(nested_ok), &order).is_empty());
        let dropped = "fn f(sh: &S) { let r = sh.rcv.lock(); drop(r); let s = sh.snd.lock(); }";
        assert!(lock_order("t.rs", &lex(dropped), &order).is_empty());
        let temp = "fn f(sh: &S) { sh.rcv.lock().x(); sh.snd.lock().y(); }";
        assert!(lock_order("t.rs", &lex(temp), &order).is_empty());
    }
}
