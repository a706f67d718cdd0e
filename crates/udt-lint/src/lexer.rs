//! A lightweight Rust lexer: just enough tokenization for the repo's lint
//! rules, with no external parser. It understands line/block comments
//! (including nesting), string/raw-string/byte-string/char literals,
//! lifetimes, compound punctuation, and it records `// udt-lint:
//! allow(<rule>)` directives and `#[cfg(test)]`/`#[test]` regions so rules
//! can scope themselves to non-test code.
//!
//! It deliberately does NOT build a syntax tree: every rule in
//! `crate::rules` is written against the token stream plus small
//! look-around windows, which is robust to code it has never seen and
//! keeps the whole tool dependency-free.


/// Token classes the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword (`fn`, `as`, `snd_una`, …).
    Ident,
    /// Punctuation, longest-match (`::`, `<=`, `->`, `<`, …).
    Punct,
    /// String, raw-string, byte-string or char literal.
    Literal,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'_`).
    Lifetime,
}

/// One token, with enough position information for diagnostics and for
/// whitespace-sensitive rules (comparison `<` vs. generics `<`).
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// True when whitespace (or start of file) immediately precedes.
    pub ws_before: bool,
    /// True when whitespace (or end of file) immediately follows.
    pub ws_after: bool,
    /// True when the token lies inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: bool,
}

/// A lexed source file.
pub struct LexedFile {
    pub tokens: Vec<Token>,
    /// Every `// udt-lint: allow(rule, …)` directive as `(line, rule)`, one
    /// entry per rule named. A directive covers its own line and the next
    /// line, so it can sit either above the offending statement or trail it.
    pub allows: Vec<(u32, String)>,
    /// Every comment, keyed by its starting line (block comments span
    /// multiple lines; the text keeps the delimiters). Rules that audit
    /// documentation — `unsafe-audit`'s `// SAFETY:` requirement — read
    /// these instead of re-scanning the source.
    pub comments: Vec<(u32, String)>,
}

impl LexedFile {
    /// Is `rule` allowed (escape-hatched) on `line`?
    pub fn is_allowed(&self, line: u32, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|(at, r)| r == rule && (*at == line || *at + 1 == line))
    }
}

const PUNCT3: &[&str] = &["..=", "...", "<<=", ">>="];
const PUNCT2: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=", "..",
];

/// Lex `src` into tokens. Never fails: unknown bytes become single-char
/// punctuation, and an unterminated literal simply ends at end-of-file —
/// a linter must keep going where a compiler would stop.
pub fn lex(src: &str) -> LexedFile {
    let b = src.as_bytes();
    let mut tokens: Vec<Token> = Vec::new();
    let mut comments: Vec<(u32, String)> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut prev_ws = true;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            prev_ws = true;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            prev_ws = true;
            continue;
        }
        // Line comment (also covers /// and //! doc comments).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let start = i;
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            comments.push((line, src[start..i].to_string()));
            prev_ws = true;
            continue;
        }
        // Block comment, nesting like Rust's.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let start = i;
            let start_line = line;
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            comments.push((start_line, src[start..i].to_string()));
            prev_ws = true;
            continue;
        }
        // Raw / byte string prefixes: r"", r#""#, b"", br"", br#""#.
        if (c == b'r' || c == b'b') && is_raw_or_byte_string(b, i) {
            let (end, nl) = scan_string_prefix(b, i);
            push(&mut tokens, Kind::Literal, &src[i..end], line, prev_ws, b, end);
            line += nl;
            i = end;
            prev_ws = false;
            continue;
        }
        if c == b'"' {
            let (end, nl) = scan_dquote(b, i + 1);
            push(&mut tokens, Kind::Literal, &src[i..end], line, prev_ws, b, end);
            line += nl;
            i = end;
            prev_ws = false;
            continue;
        }
        if c == b'\'' {
            // Char literal vs. lifetime.
            if is_char_literal(b, i) {
                let end = scan_char(b, i + 1);
                push(&mut tokens, Kind::Literal, &src[i..end], line, prev_ws, b, end);
                i = end;
            } else {
                let mut j = i + 1;
                while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                    j += 1;
                }
                push(&mut tokens, Kind::Lifetime, &src[i..j], line, prev_ws, b, j);
                i = j;
            }
            prev_ws = false;
            continue;
        }
        if c == b'_' || c.is_ascii_alphabetic() {
            let mut j = i + 1;
            while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                j += 1;
            }
            push(&mut tokens, Kind::Ident, &src[i..j], line, prev_ws, b, j);
            i = j;
            prev_ws = false;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < b.len() && (b[j] == b'_' || b[j].is_ascii_alphanumeric()) {
                j += 1;
            }
            push(&mut tokens, Kind::Num, &src[i..j], line, prev_ws, b, j);
            i = j;
            prev_ws = false;
            continue;
        }
        // Punctuation, longest match first.
        let rest = &src[i..];
        let text = PUNCT3
            .iter()
            .chain(PUNCT2.iter())
            .find(|p| rest.starts_with(**p))
            .map_or(&src[i..i + 1], |p| *p);
        let j = i + text.len();
        push(&mut tokens, Kind::Punct, text, line, prev_ws, b, j);
        i = j;
        prev_ws = false;
    }
    mark_test_regions(&mut tokens);
    let allows = collect_allows(&comments);
    LexedFile {
        tokens,
        allows,
        comments,
    }
}

fn push(tokens: &mut Vec<Token>, kind: Kind, text: &str, line: u32, ws_before: bool, b: &[u8], end: usize) {
    let ws_after = b.get(end).is_none_or(|c| c.is_ascii_whitespace());
    tokens.push(Token {
        kind,
        text: text.to_string(),
        line,
        ws_before,
        ws_after,
        in_test: false,
    });
}

fn is_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
        return j < b.len() && b[j] == b'"';
    }
    // b"..." byte string (no r).
    b[i] == b'b' && j < b.len() && b[j] == b'"'
}

/// Scan a raw/byte string starting at its prefix; returns (end, newlines).
fn scan_string_prefix(b: &[u8], i: usize) -> (usize, u32) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        let mut hashes = 0;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        j += 1; // opening quote
        let mut nl = 0;
        while j < b.len() {
            if b[j] == b'\n' {
                nl += 1;
            }
            if b[j] == b'"' {
                let mut k = j + 1;
                let mut h = 0;
                while k < b.len() && b[k] == b'#' && h < hashes {
                    h += 1;
                    k += 1;
                }
                if h == hashes {
                    return (k, nl);
                }
            }
            j += 1;
        }
        (j, nl)
    } else {
        // b"..."
        let (end, nl) = scan_dquote(b, j + 1);
        (end, nl)
    }
}

/// Scan a normal double-quoted string body starting just after the opening
/// quote; returns (index just past the closing quote, newlines crossed).
fn scan_dquote(b: &[u8], mut j: usize) -> (usize, u32) {
    let mut nl = 0;
    while j < b.len() {
        match b[j] {
            b'\\' => {
                // A line continuation (`\` then newline) is still a line.
                nl += u32::from(b.get(j + 1) == Some(&b'\n'));
                j += 2;
            }
            b'\n' => {
                nl += 1;
                j += 1;
            }
            b'"' => return (j + 1, nl),
            _ => j += 1,
        }
    }
    (j, nl)
}

fn is_char_literal(b: &[u8], i: usize) -> bool {
    // 'x' or '\x…' — a lifetime never contains a backslash and is never
    // followed by a closing quote one or two characters later.
    match b.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => b.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

fn scan_char(b: &[u8], mut j: usize) -> usize {
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Mark every token inside `#[cfg(test)] …` / `#[test] …` items. The
/// attribute is matched token-wise; the item body is the next
/// brace-balanced block (or up to `;` for `mod tests;` forms, which pull
/// in a file this lexer never sees anyway).
fn mark_test_regions(tokens: &mut [Token]) {
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            // Find the start of the item body.
            let mut j = i;
            while j < tokens.len() && !(tokens[j].kind == Kind::Punct && (tokens[j].text == "{" || tokens[j].text == ";")) {
                j += 1;
            }
            if j < tokens.len() && tokens[j].text == "{" {
                let mut depth = 0i32;
                let mut k = j;
                while k < tokens.len() {
                    if tokens[k].kind == Kind::Punct {
                        match tokens[k].text.as_str() {
                            "{" => depth += 1,
                            "}" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    k += 1;
                }
                let end = k.min(tokens.len() - 1);
                for t in &mut tokens[i..=end] {
                    t.in_test = true;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
}

/// Does `#[cfg(test)]` or `#[test]` (or `#[cfg(any(test, …))]`) start at
/// token `i`?
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    if !(tokens[i].kind == Kind::Punct && tokens[i].text == "#") {
        return false;
    }
    let Some(open) = tokens.get(i + 1) else {
        return false;
    };
    if !(open.kind == Kind::Punct && open.text == "[") {
        return false;
    }
    // Scan the attribute tokens up to the matching `]` for `test`.
    let mut depth = 0i32;
    let mut saw_test = false;
    let mut saw_cfg_or_bare = false;
    for (n, t) in tokens[i + 1..].iter().enumerate() {
        match (t.kind, t.text.as_str()) {
            (Kind::Punct, "[") => depth += 1,
            (Kind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    // `#[test]` itself is tokens `# [ test ]`.
                    if n == 2 {
                        saw_cfg_or_bare = true;
                    }
                    return saw_test && saw_cfg_or_bare;
                }
            }
            (Kind::Ident, "test") => saw_test = true,
            (Kind::Ident, "cfg") => saw_cfg_or_bare = true,
            _ => {}
        }
    }
    false
}

/// Collect `udt-lint: allow(rule, …)` directives out of comments. Each
/// directive covers the comment's own line and the following line. Doc
/// comments (`///`, `//!`) never carry directives — they *describe* the
/// directive syntax (this tool's own sources, DESIGN excerpts) and must
/// not activate it.
fn collect_allows(comments: &[(u32, String)]) -> Vec<(u32, String)> {
    let mut allows = Vec::new();
    for (line, text) in comments {
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let Some(pos) = text.find("udt-lint:") else {
            continue;
        };
        let rest = &text[pos + "udt-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let body = &rest[open + "allow(".len()..];
        let Some(close) = body.find(')') else {
            continue;
        };
        let rules = body[..close].split(',').map(str::trim);
        allows.extend(rules.filter(|r| !r.is_empty()).map(|r| (*line, r.to_string())));
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn compound_punctuation_is_one_token() {
        assert_eq!(
            texts("a::b -> c <= d << e ..= f"),
            vec!["a", "::", "b", "->", "c", "<=", "d", "<<", "e", "..=", "f"]
        );
    }

    #[test]
    fn strings_chars_and_lifetimes_do_not_confuse_the_lexer() {
        let src = concat!(
            "let s: &'a str = \"he said \\\"<\\\"\";\n",
            "let c = '<';\n",
            "let r = r#\"raw \"< \"\"#;\n",
            "let b = b\"bytes <\";\n",
        );
        let toks = texts(src);
        // No `<` punct token leaked out of the literals.
        assert!(!toks.iter().any(|t| t == "<"), "{toks:?}");
        assert!(toks.contains(&"'a".to_string()));
    }

    #[test]
    fn comments_emit_no_tokens() {
        let f = lex("let a = 1; // trailing < comment\n/* block < */ let b = 2;");
        assert!(!f.tokens.iter().any(|t| t.text == "<"));
        let names: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(names, ["let", "a", "let", "b"]);
    }

    #[test]
    fn a_string_continuation_line_counts_as_a_line() {
        let f = lex("let s = \"one \\\n two\";\nlet x = 1; // udt-lint: allow(unwrap)\n");
        assert_eq!(f.tokens.iter().find(|t| t.text == "x").unwrap().line, 3);
        assert_eq!(f.allows, vec![(3, "unwrap".to_string())]);
    }

    #[test]
    fn allow_directive_covers_its_line_and_the_next() {
        let f = lex("// udt-lint: allow(seq-cmp, unwrap)\nlet x = seq < y;\nlet z = 1;\n");
        assert!(f.is_allowed(1, "seq-cmp"));
        assert!(f.is_allowed(2, "seq-cmp"));
        assert!(f.is_allowed(2, "unwrap"));
        assert!(!f.is_allowed(3, "seq-cmp"));
        assert!(!f.is_allowed(2, "wall-clock"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn lib() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\nfn lib2() {}\n";
        let f = lex(src);
        let lib_unwrap = f.tokens.iter().find(|t| t.text == "a").unwrap();
        assert!(!lib_unwrap.in_test);
        let test_unwrap = f.tokens.iter().find(|t| t.text == "b").unwrap();
        assert!(test_unwrap.in_test);
        let lib2 = f.tokens.iter().find(|t| t.text == "lib2").unwrap();
        assert!(!lib2.in_test);
    }

    #[test]
    fn bare_test_attr_is_marked_but_other_attrs_are_not() {
        let src = "#[test]\nfn t() { x.unwrap(); }\n#[inline]\nfn lib() { y.unwrap(); }\n";
        let f = lex(src);
        assert!(f.tokens.iter().find(|t| t.text == "x").unwrap().in_test);
        assert!(!f.tokens.iter().find(|t| t.text == "y").unwrap().in_test);
    }

    #[test]
    fn comparison_spacing_is_recorded() {
        let f = lex("if a < b { let v: Vec<u8> = vec![]; }");
        let lt = f
            .tokens
            .iter()
            .filter(|t| t.text == "<")
            .collect::<Vec<_>>();
        assert_eq!(lt.len(), 2);
        assert!(lt[0].ws_before && lt[0].ws_after, "comparison is spaced");
        assert!(!lt[1].ws_before || !lt[1].ws_after, "generics are tight");
    }
}
