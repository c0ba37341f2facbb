//! The rule engine: repo-specific invariants, checked token-wise.
//!
//! Every rule here mechanizes a contract that previously lived in doc
//! comments and reviewer vigilance:
//!
//! | rule | contract it enforces |
//! |---|---|
//! | `no-fma` | float bit-identity: no fused/reassociating intrinsics |
//! | `no-hash-iter` | plan/sweep determinism: no `HashMap`/`HashSet` in bitwise-contract modules |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `no-panic-path` | the daemon's request path never panics |
//! | `dead-cancel-token` | a `CancelToken` parameter is honored, not decorative |
//! | `wire-doc-sync` | wire error codes and ops are documented in README |
//! | `orphan` | every `pub` item in `crates/*/src` has a consumer outside its own file |
//!
//! Suppression is per-site and self-documenting:
//! `// ser-lint: allow(<rule>) — <justification>` on the flagged line
//! or the line above. A bare allow without justification is itself a
//! violation (`bare-allow`), so every exemption in the tree explains
//! why it is safe.

use crate::lexer::{lex, Token, TokenKind};

// ---------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------

/// One lint rule's identity and documentation, as printed by
/// `ser-lint rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The id used in diagnostics and `allow(...)` suppressions.
    pub id: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// Why the rule exists.
    pub rationale: &'static str,
}

/// Every rule this tool knows, in the order `ser-lint rules` prints.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-fma",
        scope: "crates/core, crates/sim, crates/sp, crates/oracle",
        rationale: "FMA single-rounds a*b+c and horizontal adds reassociate; either \
                    changes f64 results in the last ulp and breaks the wire's float \
                    bit-identity contract (scalar twin, proptest oracles, cache splicing).",
    },
    RuleInfo {
        id: "no-hash-iter",
        scope: "plan.rs, sweep.rs, whatif.rs, rules.rs, crates/sp/src/*, crates/oracle/src/*",
        rationale: "HashMap/HashSet iteration order is randomized per process; an \
                    iteration feeding plan layout or float accumulation would make \
                    results differ run to run. Keyed-lookup-only uses carry a per-site \
                    allow stating they are never iterated.",
    },
    RuleInfo {
        id: "forbid-unsafe",
        scope: "crate roots: src/lib.rs, src/main.rs and src/bin/*.rs of every walked package",
        rationale: "the workspace has no unsafe code, and #![forbid(unsafe_code)] at each \
                    crate root makes the compiler refuse any; a new library or binary \
                    without the attribute would quietly opt out of that guarantee.",
    },
    RuleInfo {
        id: "no-panic-path",
        scope: "crates/service/src/{protocol,service,net,lru}.rs (non-test code)",
        rationale: "a panic on the request path kills a connection thread and poisons \
                    shared engine locks; a daemon serving millions of users answers \
                    with a structured ErrorCode frame instead. unwrap/expect/panic!/ \
                    todo!/unimplemented! are forbidden outside #[cfg(test)].",
    },
    RuleInfo {
        id: "dead-cancel-token",
        scope: "workspace",
        rationale: "a function that accepts a CancelToken but neither polls \
                    (.check/.is_cancelled) nor forwards it advertises cancellability \
                    it does not deliver — the wire's cancel latency contract silently \
                    loses a checkpoint.",
    },
    RuleInfo {
        id: "wire-doc-sync",
        scope: "crates/service/src/protocol.rs vs README.md",
        rationale: "every ErrorCode wire string and every accepted \"op\" must appear \
                    in README's wire-protocol docs, so clients never meet an \
                    undocumented code or ship an op the docs do not admit.",
    },
    RuleInfo {
        id: "orphan",
        scope: "crates/*/src pub items; users: all walked files, examples/, perfbench/src",
        rationale: "a pub fn, const, static, struct, enum, trait or type alias whose name \
                    appears in no other file has no consumer outside its own file: delete \
                    it, or narrow it to private, pub(crate) or #[cfg(test)]. A pub use line \
                    is not a reference; a type named in another pub item's declaration in \
                    its own file is exempt (callers reach it without naming it). Names are \
                    matched, not resolved, so a common name (`new`, `compute`) used anywhere \
                    hides an orphan: the rule finds a lower bound, not every orphan.",
    },
    RuleInfo {
        id: "bare-allow",
        scope: "workspace",
        rationale: "a ser-lint: allow(...) without a justification defeats the point \
                    of per-site suppression; the dash and reason are mandatory.",
    },
];

/// Intrinsics and methods that fuse or reassociate float arithmetic.
/// `mul_add` is the scalar spelling of FMA; the `hadd`/`hsub` families
/// reassociate across lanes. The kernel uses shuffle/blend epilogues
/// and separate mul-then-add precisely to avoid these.
const FMA_IDENTS: &[&str] = &[
    "_mm256_fmadd_pd",
    "_mm256_fmsub_pd",
    "_mm256_fnmadd_pd",
    "_mm256_fnmsub_pd",
    "_mm256_fmaddsub_pd",
    "_mm256_fmsubadd_pd",
    "_mm256_hadd_pd",
    "_mm256_hsub_pd",
    "_mm256_fmadd_ps",
    "_mm256_hadd_ps",
    "_mm_fmadd_pd",
    "_mm_fmadd_ps",
    "_mm_hadd_pd",
    "_mm_hadd_ps",
    "mul_add",
];

/// Crate paths under the float bit-identity contract (`no-fma`).
const FMA_SCOPE_PREFIXES: &[&str] = &[
    "crates/core/",
    "crates/sim/",
    "crates/sp/",
    "crates/oracle/",
];

/// Files feeding the bitwise plan/sweep contract (`no-hash-iter`).
const HASH_SCOPE: &[&str] = &[
    "crates/netlist/src/plan.rs",
    "crates/core/src/sweep.rs",
    "crates/core/src/whatif.rs",
    "crates/core/src/rules.rs",
];
const HASH_SCOPE_PREFIXES: &[&str] = &["crates/sp/src/", "crates/oracle/src/"];

/// The daemon's request-handling path (`no-panic-path`).
const PANIC_FREE_FILES: &[&str] = &[
    "crates/service/src/protocol.rs",
    "crates/service/src/service.rs",
    "crates/service/src/net.rs",
    "crates/service/src/lru.rs",
];

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

/// One finding: `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule's id.
    pub rule: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------

/// A parsed `// ser-lint: allow(<rule>) — <justification>` directive.
#[derive(Debug)]
struct Allow {
    rule: String,
    line: u32,
    /// Last line the allow covers: the end of its contiguous comment
    /// run plus the first code line after it — so a justification may
    /// wrap over several comment lines.
    until: u32,
    justified: bool,
}

/// Extracts allow directives from a file's comment tokens. An allow
/// suppresses its rule on its own line(s), through the rest of its
/// comment run, and on the first code line that follows (covering
/// both trailing-comment and block-above styles).
fn collect_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        let Some(at) = t.text.find("ser-lint: allow(") else {
            continue;
        };
        let rest = &t.text[at + "ser-lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        // Prose *about* the syntax (`allow(<rule>)` in docs) is not a
        // directive: real rule ids are kebab-case identifiers.
        if rule.is_empty()
            || !rule
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            continue;
        }
        // The justification is mandatory: a dash after the close-paren
        // followed by non-empty text.
        let after = rest[close + 1..].trim_start();
        let justified = ["—", "-", "–"]
            .iter()
            .any(|d| after.starts_with(d) && after.trim_start_matches(d).trim().len() >= 3);
        // Extend coverage over the contiguous comment run this
        // directive starts or sits in, then one more line for the code
        // it annotates.
        let mut until = t.end_line;
        for next in &tokens[i + 1..] {
            if next.is_comment() && next.line <= until + 1 {
                until = next.end_line;
            } else {
                break;
            }
        }
        allows.push(Allow {
            rule,
            line: t.line,
            until: until + 1,
            justified,
        });
    }
    allows
}

/// Whether `rule` is suppressed at `line` by a justified allow.
fn allowed(allows: &[Allow], rule: &str, line: u32) -> bool {
    allows
        .iter()
        .any(|a| a.justified && a.rule == rule && line >= a.line && line <= a.until)
}

// ---------------------------------------------------------------------
// Per-file engine
// ---------------------------------------------------------------------

/// Lints one file's source. `rel_path` selects which rules apply and
/// must be repo-relative with forward slashes (`crates/core/src/…`).
/// The cross-file `wire-doc-sync` rule lives in [`check_wire_doc`].
#[must_use]
pub fn lint_file(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let allows = collect_allows(&tokens);
    let mut out = Vec::new();

    // Meta-rules first: a malformed allow is a violation wherever it
    // appears, and an allow naming an unknown rule is a typo that
    // would otherwise silently suppress nothing.
    for a in &allows {
        if !a.justified {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line: a.line,
                rule: "bare-allow",
                message: format!(
                    "allow({}) without a justification — write \
                     `// ser-lint: allow({}) — <why this site is safe>`",
                    a.rule, a.rule
                ),
            });
        }
        if !RULES.iter().any(|r| r.id == a.rule) {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line: a.line,
                rule: "bare-allow",
                message: format!("allow({}) names an unknown rule", a.rule),
            });
        }
    }

    let test_spans = cfg_test_spans(&tokens);
    let in_test = |line: u32| test_spans.iter().any(|&(a, b)| line >= a && line <= b);
    let mut diag = |rule: &'static str, line: u32, message: String| {
        if !allowed(&allows, rule, line) {
            out.push(Diagnostic {
                path: rel_path.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    // --- no-fma ---------------------------------------------------
    if FMA_SCOPE_PREFIXES.iter().any(|p| rel_path.starts_with(p)) {
        for t in tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
            if FMA_IDENTS.contains(&t.text.as_str()) {
                diag(
                    "no-fma",
                    t.line,
                    format!(
                        "`{}` fuses or reassociates float arithmetic — this crate is \
                         under the bit-identity contract (use mul-then-add and \
                         shuffle/blend epilogues)",
                        t.text
                    ),
                );
            }
        }
    }

    // --- no-hash-iter ---------------------------------------------
    if HASH_SCOPE.contains(&rel_path) || HASH_SCOPE_PREFIXES.iter().any(|p| rel_path.starts_with(p))
    {
        for t in tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
            if t.text == "HashMap" || t.text == "HashSet" {
                diag(
                    "no-hash-iter",
                    t.line,
                    format!(
                        "`{}` in a bitwise-contract module: iteration order is \
                         nondeterministic — use an ordered structure, or allow the \
                         site with a justification that it is never iterated",
                        t.text
                    ),
                );
            }
        }
    }

    // --- forbid-unsafe --------------------------------------------
    if is_crate_root(rel_path) && !forbids_unsafe(&tokens) {
        diag(
            "forbid-unsafe",
            1,
            "crate root without `#![forbid(unsafe_code)]` — add the attribute so the \
             compiler refuses unsafe code in this crate"
                .to_string(),
        );
    }

    // --- no-panic-path --------------------------------------------
    if PANIC_FREE_FILES.contains(&rel_path) {
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || in_test(t.line) {
                continue;
            }
            let next_is = |text: &str| {
                tokens
                    .get(i + 1)
                    .is_some_and(|n| n.kind == TokenKind::Punct && n.text == text)
            };
            let prev_is_dot =
                i > 0 && tokens[i - 1].kind == TokenKind::Punct && tokens[i - 1].text == ".";
            let hit = match t.text.as_str() {
                "unwrap" | "expect" => prev_is_dot && next_is("("),
                "panic" | "todo" | "unimplemented" => next_is("!"),
                _ => false,
            };
            if hit {
                diag(
                    "no-panic-path",
                    t.line,
                    format!(
                        "`{}` on the daemon's request path — convert to a structured \
                         ErrorCode reply (or recover, e.g. lock poisoning)",
                        t.text
                    ),
                );
            }
        }
    }

    // --- dead-cancel-token ----------------------------------------
    for f in find_cancel_fns(&tokens) {
        if f.uses == 0 {
            diag(
                "dead-cancel-token",
                f.line,
                format!(
                    "fn `{}` takes CancelToken parameter `{}` but never polls or \
                     forwards it — a dead token is a missing cancellation checkpoint",
                    f.name, f.param
                ),
            );
        }
    }

    // Two tokens on one line can trip the same rule twice (e.g. a
    // declaration and a constructor); one diagnostic per line reads
    // better and the allow granularity is the line anyway.
    out.dedup_by(|a, b| a.line == b.line && a.rule == b.rule && a.message == b.message);

    out
}

// ---------------------------------------------------------------------
// Crate roots (forbid-unsafe)
// ---------------------------------------------------------------------

/// Whether `rel_path` is a package's crate root: its `src/lib.rs`,
/// `src/main.rs` or a `src/bin/*.rs` binary.
fn is_crate_root(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.as_slice() {
        [.., "src", "lib.rs" | "main.rs"] => true,
        [.., "src", "bin", file] => file.ends_with(".rs"),
        _ => false,
    }
}

/// Whether the token stream holds the inner attribute
/// `#![forbid(unsafe_code)]` (comments and strings cannot fake it).
fn forbids_unsafe(tokens: &[Token]) -> bool {
    const ATTR: [&str; 8] = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let code: Vec<&str> = tokens
        .iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.text.as_str())
        .collect();
    code.windows(ATTR.len()).any(|w| w == ATTR)
}

// ---------------------------------------------------------------------
// #[cfg(test)] spans
// ---------------------------------------------------------------------

/// Line spans covered by `#[cfg(test)]`-gated items (the following
/// brace-balanced block). Test modules are exempt from
/// `no-panic-path` — tests unwrap freely.
pub(crate) fn cfg_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut spans = Vec::new();
    let texts: Vec<&str> = code.iter().map(|(_, t)| t.text.as_str()).collect();
    for w in 0..texts.len().saturating_sub(6) {
        if texts[w..w + 7] != ["#", "[", "cfg", "(", "test", ")", "]"] {
            continue;
        }
        let start_line = code[w].1.line;
        // Find the gated item's opening brace, then its match.
        let mut depth = 0i64;
        let mut end_line = start_line;
        for &(_, t) in &code[w + 7..] {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.end_line;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    // A braceless gated item (`#[cfg(test)] use …;`).
                    end_line = t.end_line;
                    break;
                }
                _ => {}
            }
        }
        spans.push((start_line, end_line));
    }
    spans
}

// ---------------------------------------------------------------------
// CancelToken liveness
// ---------------------------------------------------------------------

struct CancelFn {
    name: String,
    param: String,
    line: u32,
    uses: usize,
}

/// Finds every `fn` whose parameter list mentions `CancelToken` and
/// counts uses of the binding inside the body. Forwarding the token to
/// a callee counts as a use — the checkpoint then lives downstream.
/// Over-approximation: a shadowing closure parameter of the same name
/// also counts (documented; the lint is token-shaped, not a resolver).
fn find_cancel_fns(tokens: &[Token]) -> Vec<CancelFn> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].kind == TokenKind::Ident && code[i].text == "fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = code.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokenKind::Ident {
            // `fn(...)` pointer type — not a declaration.
            i += 1;
            continue;
        }
        let name = name_tok.text.clone();
        let line = code[i].line;
        // Skip generics to the parameter list's `(`.
        let mut j = i + 2;
        if code.get(j).is_some_and(|t| t.text == "<") {
            let mut angle = 0i64;
            while j < code.len() {
                match code[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if code.get(j).is_none_or(|t| t.text != "(") {
            i += 1;
            continue;
        }
        // Collect parameters to the matching `)`, splitting at
        // top-level commas. Generic arguments nest with `<`/`>`, which
        // the token stream spells as punctuation — track them so a
        // comma inside `HashMap<K, V>` does not split the parameter
        // (and do not mistake the `>` of a `->` arrow for a closer).
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut params: Vec<Vec<&Token>> = vec![Vec::new()];
        let params_end;
        loop {
            let Some(t) = code.get(j) else {
                return out; // truncated input
            };
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        params_end = j;
                        break;
                    }
                }
                "<" => angle += 1,
                ">" if angle > 0 && !(j > 0 && code[j - 1].text == "-") => angle -= 1,
                "," if depth == 1 && angle == 0 => {
                    params.push(Vec::new());
                    j += 1;
                    continue;
                }
                _ => {}
            }
            if depth >= 1 && !(depth == 1 && t.text == "(") {
                if let Some(last) = params.last_mut() {
                    last.push(t);
                }
            }
            j += 1;
        }
        // The binding of each CancelToken-typed parameter: the first
        // identifier that is not a pattern keyword.
        let mut bindings = Vec::new();
        for p in &params {
            if !p.iter().any(|t| t.text == "CancelToken") {
                continue;
            }
            if let Some(b) = p.iter().find(|t| {
                t.kind == TokenKind::Ident && !matches!(t.text.as_str(), "mut" | "ref" | "self")
            }) {
                if b.text != "_" {
                    bindings.push(b.text.clone());
                }
            }
        }
        if bindings.is_empty() {
            i = params_end + 1;
            continue;
        }
        // Skip the return type / where clause to the body `{` (or `;`
        // for a trait method declaration, which has no body to check).
        let mut k = params_end + 1;
        let body_start;
        loop {
            let Some(t) = code.get(k) else {
                return out;
            };
            match t.text.as_str() {
                "{" => {
                    body_start = k;
                    break;
                }
                ";" => {
                    body_start = usize::MAX;
                    break;
                }
                _ => k += 1,
            }
        }
        if body_start == usize::MAX {
            i = k + 1;
            continue;
        }
        // Count body uses of each binding.
        let mut depth = 0i64;
        let mut uses = vec![0usize; bindings.len()];
        let mut b = body_start;
        while b < code.len() {
            match code[b].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if code[b].kind == TokenKind::Ident {
                        for (bi, name) in bindings.iter().enumerate() {
                            if &code[b].text == name {
                                uses[bi] += 1;
                            }
                        }
                    }
                }
            }
            b += 1;
        }
        for (bi, param) in bindings.iter().enumerate() {
            out.push(CancelFn {
                name: name.clone(),
                param: param.clone(),
                line,
                uses: uses[bi],
            });
        }
        i = body_start + 1;
    }
    out
}

// ---------------------------------------------------------------------
// orphan
// ---------------------------------------------------------------------

/// The item keywords `orphan` audits when they follow a bare `pub`.
const ORPHAN_KINDS: &[&str] = &["fn", "const", "static", "struct", "enum", "trait", "type"];

/// One `pub` item declared outside `#[cfg(test)]` code.
struct PubItem {
    kind: &'static str,
    name: String,
    line: u32,
    /// Identifiers of the declaration: a fn's signature up to its
    /// body, or any other item through its closing `}` or `;`.
    decl: Vec<String>,
}

/// Cross-file rule: flags every `pub` item in `crates/*/src` whose name
/// appears as an identifier in no other file of `files` (`(repo-relative
/// path, source)` pairs). Identifiers inside `pub use` statements do not
/// count, and a struct, enum, trait or type alias named in another `pub`
/// item's declaration in its own file is exempt. An item carrying a
/// justified `allow(orphan)` is skipped.
#[must_use]
pub fn check_orphans(files: &[(String, String)]) -> Vec<Diagnostic> {
    let lexed: Vec<Vec<Token>> = files.iter().map(|(_, src)| lex(src)).collect();
    let idents: Vec<std::collections::BTreeSet<&str>> = lexed
        .iter()
        .map(|tokens| referenced_idents(tokens))
        .collect();
    let mut out = Vec::new();
    for (fi, (path, _)) in files.iter().enumerate() {
        if !is_crate_src(path) {
            continue;
        }
        let tokens = &lexed[fi];
        let allows = collect_allows(tokens);
        let items = pub_items(tokens);
        for (ii, item) in items.iter().enumerate() {
            let used_elsewhere = idents
                .iter()
                .enumerate()
                .any(|(fj, set)| fj != fi && set.contains(item.name.as_str()));
            let is_type = matches!(item.kind, "struct" | "enum" | "trait" | "type");
            let in_surface = is_type
                && items
                    .iter()
                    .enumerate()
                    .any(|(ij, other)| ij != ii && other.decl.contains(&item.name));
            if used_elsewhere || in_surface || allowed(&allows, "orphan", item.line) {
                continue;
            }
            out.push(Diagnostic {
                path: path.clone(),
                line: item.line,
                rule: "orphan",
                message: format!(
                    "pub {} `{}` is named in no other file — delete it, narrow it to \
                     private, pub(crate) or #[cfg(test)], or allow(orphan) with a reason",
                    item.kind, item.name
                ),
            });
        }
    }
    out
}

/// Whether `path` is library or binary source of a workspace crate
/// (`crates/<name>/src/…`).
fn is_crate_src(path: &str) -> bool {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .is_some_and(|(_, rest)| rest.starts_with("src/"))
}

/// The identifiers a file references: every code identifier except
/// those inside a `pub use` (or `pub(…) use`) re-export statement.
fn referenced_idents(tokens: &[Token]) -> std::collections::BTreeSet<&str> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut set = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].text == "pub" {
            let after = skip_restriction(&code, i + 1);
            if code.get(after).is_some_and(|t| t.text == "use") {
                i = after;
                while i < code.len() && code[i].text != ";" {
                    i += 1;
                }
                continue;
            }
        }
        if code[i].kind == TokenKind::Ident {
            set.insert(code[i].text.as_str());
        }
        i += 1;
    }
    set
}

/// Index just past a `(crate)`-style visibility restriction starting at
/// `i`, or `i` itself when there is none.
fn skip_restriction(code: &[&Token], i: usize) -> usize {
    if code.get(i).is_none_or(|t| t.text != "(") {
        return i;
    }
    code[i..]
        .iter()
        .position(|t| t.text == ")")
        .map_or(code.len(), |p| i + p + 1)
}

/// Every bare-`pub` item of [`ORPHAN_KINDS`] outside `#[cfg(test)]`
/// items, with its declaration's identifiers.
fn pub_items(tokens: &[Token]) -> Vec<PubItem> {
    let test_spans = cfg_test_spans(tokens);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut items = Vec::new();
    for i in 0..code.len() {
        if code[i].text != "pub"
            || test_spans
                .iter()
                .any(|&(a, b)| (a..=b).contains(&code[i].line))
        {
            continue;
        }
        // Step over fn qualifiers (`const fn`, `unsafe extern "C" fn`)
        // to the item keyword; `const` alone is the item itself.
        let mut k = i + 1;
        let is_fn_qualifier =
            |t: &Token| matches!(t.text.as_str(), "fn" | "unsafe" | "async" | "extern");
        while let Some(t) = code.get(k) {
            let qualifier = matches!(t.text.as_str(), "unsafe" | "async" | "extern")
                || t.kind == TokenKind::Str
                || (t.text == "const" && code.get(k + 1).is_some_and(|n| is_fn_qualifier(n)));
            if !qualifier {
                break;
            }
            k += 1;
        }
        let Some(&kind) = code
            .get(k)
            .and_then(|t| ORPHAN_KINDS.iter().find(|&&kind| kind == t.text))
        else {
            continue;
        };
        let mut n = k + 1;
        if kind == "static" && code.get(n).is_some_and(|t| t.text == "mut") {
            n += 1;
        }
        let Some(name) = code
            .get(n)
            .filter(|t| t.kind == TokenKind::Ident && t.text != "_")
        else {
            continue;
        };
        items.push(PubItem {
            kind,
            name: name.text.clone(),
            line: name.line,
            decl: declaration(&code, n + 1, kind == "fn"),
        });
    }
    items
}

/// The identifiers from `start` to the end of an item's declaration: a
/// `;` or `}` that returns to bracket depth 0, or, for a fn, the `{`
/// that opens its body.
fn declaration(code: &[&Token], start: usize, is_fn: bool) -> Vec<String> {
    let mut idents = Vec::new();
    let mut depth = 0i64;
    for t in &code[start.min(code.len())..] {
        match t.text.as_str() {
            "{" if is_fn && depth == 0 => break,
            ";" if depth == 0 => break,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 && t.text == "}" {
                    break;
                }
            }
            _ if t.kind == TokenKind::Ident => idents.push(t.text.clone()),
            _ => {}
        }
    }
    idents
}

// ---------------------------------------------------------------------
// wire/doc sync
// ---------------------------------------------------------------------

/// Cross-file rule: every `ErrorCode` wire string and every entry of
/// `WIRE_OPS` in `protocol.rs` must appear in the README — codes as
/// `` `code` ``, ops as `"op": "name"` or `` `name` ``. Extraction
/// failure is itself a diagnostic so pattern drift cannot silently
/// disable the rule.
#[must_use]
pub fn check_wire_doc(protocol_src: &str, readme: &str) -> Vec<Diagnostic> {
    let path = "crates/service/src/protocol.rs";
    let tokens = lex(protocol_src);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut out = Vec::new();

    // `ErrorCode::Variant => "wire_string"` pairs (the as_str match).
    let mut codes: Vec<(&str, u32)> = Vec::new();
    for w in 0..code.len().saturating_sub(6) {
        let window = &code[w..w + 7];
        let shape = window[0].text == "ErrorCode"
            && window[1].text == ":"
            && window[2].text == ":"
            && window[3].kind == TokenKind::Ident
            && window[4].text == "="
            && window[5].text == ">"
            && window[6].kind == TokenKind::Str;
        if shape {
            codes.push((unquote(&window[6].text), window[6].line));
        }
    }
    if codes.is_empty() {
        out.push(Diagnostic {
            path: path.to_string(),
            line: 1,
            rule: "wire-doc-sync",
            message: "could not extract any `ErrorCode::… => \"…\"` wire strings — \
                      the rule's anchor pattern has drifted; update ser-lint"
                .to_string(),
        });
    }
    for (c, line) in codes {
        if !readme.contains(&format!("`{c}`")) {
            out.push(Diagnostic {
                path: path.to_string(),
                line,
                rule: "wire-doc-sync",
                message: format!(
                    "wire error code \"{c}\" is not documented in README's \
                     error-code table (expected `{c}` in backticks)"
                ),
            });
        }
    }

    // The WIRE_OPS table: every op spelling the parser accepts.
    let mut ops: Vec<(&str, u32)> = Vec::new();
    if let Some(at) = code.iter().position(|t| t.text == "WIRE_OPS") {
        for t in &code[at..] {
            if t.kind == TokenKind::Str {
                ops.push((unquote(&t.text), t.line));
            }
            if t.text == ";" {
                break;
            }
        }
    }
    if ops.is_empty() {
        out.push(Diagnostic {
            path: path.to_string(),
            line: 1,
            rule: "wire-doc-sync",
            message: "could not find the WIRE_OPS table — the rule's anchor has \
                      drifted; update ser-lint"
                .to_string(),
        });
    }
    for (op, line) in ops {
        let documented =
            readme.contains(&format!("\"op\": \"{op}\"")) || readme.contains(&format!("`{op}`"));
        if !documented {
            out.push(Diagnostic {
                path: path.to_string(),
                line,
                rule: "wire-doc-sync",
                message: format!(
                    "wire op \"{op}\" is not documented in README's wire-protocol \
                     section (expected `\"op\": \"{op}\"` or `{op}` in backticks)"
                ),
            });
        }
    }
    out
}

/// Strips the quotes from a lexed string literal's text.
fn unquote(text: &str) -> &str {
    text.trim_start_matches(['b', 'r', '#'])
        .trim_start_matches('"')
        .trim_end_matches('#')
        .trim_end_matches('"')
}
