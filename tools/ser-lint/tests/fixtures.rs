//! Self-tests: every rule must catch its seeded violation and stay
//! quiet on the corrected twin. All fixture sources live in string
//! literals, which the workspace walk lexes as `Str` tokens — the
//! fixtures are inert when `ser-lint check` lints this very file.

use ser_lint::lexer::{lex, TokenKind};
use ser_lint::{
    check_orphans, check_wire_doc, file_size, lint_file, run_check, run_size, CrateSize,
    Diagnostic, RULES,
};

/// The rule ids present in `diags`, deduplicated, in order.
fn rules_hit(diags: &[Diagnostic]) -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = diags.iter().map(|d| d.rule).collect();
    ids.dedup();
    ids
}

// -----------------------------------------------------------------
// no-fma
// -----------------------------------------------------------------

#[test]
fn fma_intrinsic_flagged_in_scope() {
    let src = r#"
fn fused(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}
"#;
    let diags = lint_file("crates/core/src/fake.rs", src);
    assert_eq!(rules_hit(&diags), ["no-fma"], "{diags:?}");
    assert_eq!(diags[0].line, 3);

    let diags = lint_file("crates/sim/src/fake.rs", src);
    assert_eq!(rules_hit(&diags), ["no-fma"]);

    let diags = lint_file("crates/oracle/src/fake.rs", src);
    assert_eq!(rules_hit(&diags), ["no-fma"]);
}

#[test]
fn fma_avx2_intrinsic_flagged() {
    let src = "unsafe { _mm256_fmadd_pd(a, b, c) }";
    let diags = lint_file("crates/sp/src/fake.rs", src);
    assert!(diags.iter().any(|d| d.rule == "no-fma"), "{diags:?}");
}

#[test]
fn fma_outside_scope_is_fine() {
    let src = "fn f(a: f64) -> f64 { a.mul_add(2.0, 1.0) }";
    assert!(lint_file("tools/fake/src/cli.rs", src).is_empty());
    assert!(lint_file("crates/bench/src/table.rs", src).is_empty());
}

#[test]
fn fma_in_string_or_comment_is_inert() {
    let src = r##"
// mul_add would break bit-identity; see _mm256_fmadd_pd docs.
const WHY: &str = "never call mul_add here";
"##;
    assert!(lint_file("crates/core/src/fake.rs", src).is_empty());
}

// -----------------------------------------------------------------
// no-hash-iter
// -----------------------------------------------------------------

#[test]
fn hashmap_flagged_in_bitwise_module() {
    let src = "use std::collections::HashMap;";
    for path in [
        "crates/netlist/src/plan.rs",
        "crates/core/src/sweep.rs",
        "crates/sp/src/anything.rs",
        "crates/oracle/src/anything.rs",
    ] {
        let diags = lint_file(path, src);
        assert_eq!(rules_hit(&diags), ["no-hash-iter"], "{path}");
    }
    // Out of scope: the service layer may hash freely.
    assert!(lint_file("crates/service/src/chaos.rs", src).is_empty());
}

#[test]
fn justified_allow_suppresses_hash_iter() {
    let src = "\
// ser-lint: allow(no-hash-iter) — keyed lookup only, never iterated.
use std::collections::HashMap;
";
    assert!(lint_file("crates/core/src/sweep.rs", src).is_empty());
}

#[test]
fn two_hits_on_one_line_dedup_to_one_diagnostic() {
    let src = "fn f(a: HashMap<u32, u32>, b: HashMap<u32, u32>) {}";
    let diags = lint_file("crates/sp/src/fake.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
}

// -----------------------------------------------------------------
// bare-allow
// -----------------------------------------------------------------

#[test]
fn bare_allow_is_itself_a_violation() {
    let src = "\
// ser-lint: allow(no-hash-iter)
use std::collections::HashMap;
";
    let diags = lint_file("crates/core/src/sweep.rs", src);
    // The unjustified allow does NOT suppress, so both fire.
    let ids = rules_hit(&diags);
    assert!(ids.contains(&"bare-allow"), "{diags:?}");
    assert!(ids.contains(&"no-hash-iter"), "{diags:?}");
}

#[test]
fn allow_naming_unknown_rule_is_flagged() {
    let src = "// ser-lint: allow(no-such-rule) — because reasons here.\n";
    let diags = lint_file("tools/fake/src/cli.rs", src);
    assert_eq!(rules_hit(&diags), ["bare-allow"], "{diags:?}");
}

#[test]
fn multiline_allow_comment_covers_following_code() {
    let src = "\
// ser-lint: allow(no-hash-iter) — a justification that wraps
// across two comment lines before the code it annotates.
use std::collections::HashMap;
";
    assert!(lint_file("crates/core/src/whatif.rs", src).is_empty());
}

// -----------------------------------------------------------------
// forbid-unsafe
// -----------------------------------------------------------------

#[test]
fn crate_root_without_forbid_unsafe_flagged() {
    let src = "//! A crate.\n\n#![warn(missing_docs)]\n\npub fn f() {}\n";
    for root in [
        "crates/fake/src/lib.rs",
        "tools/fake/src/main.rs",
        "crates/fake/src/bin/tool.rs",
        "src/bin/cli.rs",
    ] {
        let diags = lint_file(root, src);
        assert_eq!(rules_hit(&diags), ["forbid-unsafe"], "{root}: {diags:?}");
    }
}

#[test]
fn crate_root_with_forbid_unsafe_passes() {
    let src = "//! A crate.\n\n#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n";
    assert!(lint_file("crates/fake/src/lib.rs", src).is_empty());
    assert!(lint_file("src/bin/cli.rs", src).is_empty());
}

#[test]
fn forbid_unsafe_in_comment_or_string_does_not_count() {
    let src = "\
// #![forbid(unsafe_code)]
const DECOY: &str = \"#![forbid(unsafe_code)]\";
";
    let diags = lint_file("crates/fake/src/lib.rs", src);
    assert_eq!(rules_hit(&diags), ["forbid-unsafe"], "{diags:?}");
}

#[test]
fn modules_and_tests_are_not_crate_roots() {
    let src = "pub fn f() {}\n";
    for path in [
        "crates/fake/src/plan.rs",
        "crates/fake/src/bin/helpers/mod_like.rs",
        "tests/cli.rs",
    ] {
        assert!(lint_file(path, src).is_empty(), "{path}");
    }
}

// -----------------------------------------------------------------
// no-panic-path
// -----------------------------------------------------------------

#[test]
fn unwrap_on_request_path_flagged() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
    let diags = lint_file("crates/service/src/protocol.rs", src);
    assert!(diags.iter().any(|d| d.rule == "no-panic-path"), "{diags:?}");
    // The same code is fine anywhere else.
    assert!(lint_file("crates/core/src/fake.rs", src).is_empty());
}

#[test]
fn panic_macros_flagged_but_unreachable_is_not() {
    let src = "\
fn f(n: u8) {
    match n {
        0 => panic!(\"no\"),
        1 => todo!(),
        2 => unimplemented!(),
        _ => unreachable!(\"fine: proves exhaustion, not an error path\"),
    }
}
";
    let diags = lint_file("crates/service/src/net.rs", src);
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, [3, 4, 5], "{diags:?}");
}

#[test]
fn unwrap_inside_cfg_test_module_is_fine() {
    let src = "\
fn shipping(x: Option<u8>) -> Option<u8> { x }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::shipping(Some(1)).unwrap();
    }
}
";
    assert!(lint_file("crates/service/src/lru.rs", src).is_empty());
}

#[test]
fn expect_as_a_field_name_is_not_flagged() {
    // Only `.expect(` method calls count — a struct field or local
    // named `expect` is not a panic site.
    let src = "struct T { expect: u8 }\nfn f(t: T) -> u8 { t.expect }";
    assert!(lint_file("crates/service/src/service.rs", src).is_empty());
}

// -----------------------------------------------------------------
// dead-cancel-token
// -----------------------------------------------------------------

#[test]
fn unused_cancel_token_param_flagged() {
    let src = "\
fn sweep_all(sites: &[u32], cancel: &CancelToken) -> u32 {
    sites.len() as u32
}
";
    let diags = lint_file("crates/core/src/fake.rs", src);
    assert_eq!(rules_hit(&diags), ["dead-cancel-token"], "{diags:?}");
    assert!(diags[0].message.contains("sweep_all"), "{diags:?}");
}

#[test]
fn polled_or_forwarded_token_is_fine() {
    let polled = "\
fn sweep_all(sites: &[u32], cancel: &CancelToken) -> Result<u32, ()> {
    cancel.check()?;
    Ok(sites.len() as u32)
}
";
    let forwarded = "\
fn outer(cancel: Option<CancelToken>) {
    inner(cancel);
}
";
    assert!(lint_file("crates/core/src/fake.rs", polled).is_empty());
    assert!(lint_file("crates/core/src/fake.rs", forwarded).is_empty());
}

#[test]
fn generic_params_do_not_confuse_the_binding_finder() {
    // The comma inside the generic must not split the parameter list:
    // `reg` is the binding, and it IS used.
    let src = "\
fn register(reg: &Mutex<HashMap<String, Vec<CancelToken>>>, id: &str) {
    reg.lock();
}
";
    let diags = lint_file("crates/core/src/fake.rs", src);
    assert!(
        diags.iter().all(|d| d.rule != "dead-cancel-token"),
        "{diags:?}"
    );
}

#[test]
fn bodyless_trait_method_is_not_flagged() {
    let src = "trait Cancellable { fn run(&self, cancel: &CancelToken) -> u32; }";
    assert!(lint_file("crates/core/src/fake.rs", src).is_empty());
}

// -----------------------------------------------------------------
// wire-doc-sync
// -----------------------------------------------------------------

const FAKE_PROTOCOL: &str = r#"
impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "parse",
            ErrorCode::Internal => "internal",
        }
    }
}
pub const WIRE_OPS: &[&str] = &["hello", "sweep"];
"#;

#[test]
fn documented_codes_and_ops_pass() {
    let readme = "\
Codes: `parse`, `internal`.
Ops: {\"op\": \"hello\"} and {\"op\": \"sweep\"}.
";
    assert!(check_wire_doc(FAKE_PROTOCOL, readme).is_empty());
}

#[test]
fn missing_code_and_op_are_flagged() {
    let readme = "Only `parse` and {\"op\": \"hello\"} are documented.";
    let diags = check_wire_doc(FAKE_PROTOCOL, readme);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("\"internal\"")));
    assert!(diags.iter().any(|d| d.message.contains("\"sweep\"")));
}

#[test]
fn anchor_drift_is_loud_not_silent() {
    // A protocol file the extractors cannot read must fail the lint,
    // not silently report "all documented".
    let diags = check_wire_doc("fn nothing_here() {}", "");
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.rule == "wire-doc-sync"));
    assert!(diags.iter().any(|d| d.message.contains("ErrorCode")));
    assert!(diags.iter().any(|d| d.message.contains("WIRE_OPS")));
}

// -----------------------------------------------------------------
// orphan
// -----------------------------------------------------------------

/// `(path, source)` pairs as `check_orphans` takes them.
fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|&(path, src)| (path.to_string(), src.to_string()))
        .collect()
}

/// The names `check_orphans` flags, in report order.
fn orphans(files: &[(&str, &str)]) -> Vec<String> {
    check_orphans(&sources(files))
        .iter()
        .map(|d| {
            assert_eq!(d.rule, "orphan", "{d}");
            d.message.split('`').nth(1).unwrap_or_default().to_string()
        })
        .collect()
}

#[test]
fn item_used_only_in_its_own_file_is_flagged() {
    let lib = r#"
pub fn helper() -> u32 { 1 }
pub fn used() -> u32 { helper() }
pub(crate) fn narrowed() {}
fn private() {}
"#;
    let user = "fn main() { let _ = ser_x::used(); }";
    let diags = check_orphans(&sources(&[
        ("crates/x/src/lib.rs", lib),
        ("src/bin/tool.rs", user),
    ]));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(
        (diags[0].path.as_str(), diags[0].line),
        ("crates/x/src/lib.rs", 2)
    );
    assert!(diags[0].message.contains("pub fn `helper`"), "{diags:?}");
}

#[test]
fn every_audited_item_kind_is_flagged() {
    let lib = r#"
pub const fn konst_fn() {}
pub unsafe extern "C" fn ffi() {}
pub const LIMIT: usize = 1;
pub static mut COUNTER: u32 = 0;
pub struct Plain;
pub enum Choice { A }
pub trait Shape {}
pub type Alias = u32;
"#;
    assert_eq!(
        orphans(&[("crates/x/src/lib.rs", lib)]),
        ["konst_fn", "ffi", "LIMIT", "COUNTER", "Plain", "Choice", "Shape", "Alias"]
    );
}

#[test]
fn pub_use_reexport_alone_is_still_flagged() {
    let module = "pub struct Lonely;";
    let lib = "mod m;
pub use m::Lonely;
pub use m::{
    Lonely as Again,
};";
    assert_eq!(
        orphans(&[("crates/x/src/m.rs", module), ("crates/x/src/lib.rs", lib)]),
        ["Lonely"]
    );
    // A plain `use` is a real reference.
    let user = "use ser_x::Lonely;
fn f(_: Lonely) {}";
    assert!(orphans(&[("crates/x/src/m.rs", module), ("tests/it.rs", user)]).is_empty());
}

#[test]
fn strings_and_comments_are_not_references() {
    let module = "pub fn quiet() {}";
    let other = "// quiet() is documented here\nconst S: &str = \"quiet\";";
    assert_eq!(
        orphans(&[
            ("crates/x/src/m.rs", module),
            ("crates/y/src/lib.rs", other)
        ]),
        ["quiet"]
    );
}

#[test]
fn examples_and_perfbench_uses_clear_an_item() {
    let module = "pub fn demo() {}\npub fn bench() {}\n";
    assert_eq!(
        orphans(&[
            ("crates/x/src/m.rs", module),
            ("examples/tour.rs", "fn main() { ser_x::demo(); }"),
            ("perfbench/src/main.rs", "fn main() { ser_x::bench(); }"),
        ]),
        Vec::<String>::new()
    );

    // And the workspace walk reads both directories.
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ser-lint-orphan");
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, body: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, body).unwrap();
    };
    write("crates/x/src/lib.rs", module);
    let flagged = |root: &std::path::Path| -> Vec<String> {
        run_check(root)
            .into_iter()
            .filter(|d| d.rule == "orphan")
            .map(|d| d.message)
            .collect()
    };
    assert_eq!(flagged(&root).len(), 2);
    write("examples/tour.rs", "fn main() { ser_x::demo(); }");
    write("perfbench/src/main.rs", "fn main() { ser_x::bench(); }");
    assert!(flagged(&root).is_empty(), "{:?}", flagged(&root));
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn type_named_by_a_sibling_pub_item_is_exempt() {
    let lib = r#"
pub struct Outcome { pub stats: Stats }
pub struct Stats;
pub enum Op { Sweep(SweepOp) }
pub struct SweepOp;
pub struct Hidden;
pub fn run() -> Outcome {
    let _unnamed_in_signature: Hidden = Hidden;
    todo!()
}
pub struct Recursive(Box<Recursive>);
"#;
    let user = "fn main() { let _ = ser_x::run(); let _: ser_x::Op; }";
    // `Stats` (a pub field's type), `SweepOp` (a variant payload) and
    // `Outcome` (a return type) are reached without being named;
    // `Hidden` appears only in a fn body and `Recursive` only in its
    // own declaration.
    assert_eq!(
        orphans(&[("crates/x/src/lib.rs", lib), ("src/main.rs", user)]),
        ["Hidden", "Recursive"]
    );
}

#[test]
fn cfg_test_items_and_files_outside_crate_src_are_not_audited() {
    let lib = "#[cfg(test)]\nmod tests {\n    pub fn fixture() {}\n}\n";
    let tool = "pub fn tool_only() {}";
    let test = "pub fn test_helper() {}";
    assert!(orphans(&[
        ("crates/x/src/lib.rs", lib),
        ("tools/t/src/lib.rs", tool),
        ("crates/x/tests/it.rs", test),
    ])
    .is_empty());
}

#[test]
fn justified_allow_suppresses_orphan_and_bare_one_is_flagged() {
    let justified = "\
// ser-lint: allow(orphan) — FromStr::Err: callers get it from parse().
pub struct ParseError;
";
    assert!(orphans(&[("crates/x/src/parse.rs", justified)]).is_empty());
    assert!(lint_file("crates/x/src/parse.rs", justified).is_empty());

    let bare = "// ser-lint: allow(orphan)\npub struct ParseError;\n";
    assert_eq!(
        orphans(&[("crates/x/src/parse.rs", bare)]),
        ["ParseError"],
        "a bare allow suppresses nothing"
    );
    let diags = lint_file("crates/x/src/parse.rs", bare);
    assert_eq!(rules_hit(&diags), ["bare-allow"], "{diags:?}");
}

// -----------------------------------------------------------------
// Lexer edge cases
// -----------------------------------------------------------------

#[test]
fn raw_string_contents_are_inert() {
    // `unsafe` and a forbidden intrinsic inside a raw string must not
    // trip any rule.
    let src = r###"
const FIXTURE: &str = r#"unsafe { _mm256_fmadd_pd(a, b, c) }"#;
"###;
    assert!(lint_file("crates/core/src/fake.rs", src).is_empty());
}

#[test]
fn nested_block_comments_lex_as_one_comment() {
    let toks = lex("/* outer /* inner */ still comment */ fn");
    assert_eq!(toks[0].kind, TokenKind::BlockComment);
    assert!(toks[0].text.contains("inner"));
    assert_eq!(toks[1].text, "fn");
}

#[test]
fn char_literal_vs_lifetime() {
    let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; }");
    let kinds: Vec<_> = toks
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Char | TokenKind::Lifetime))
        .map(|t| (t.kind, t.text.as_str()))
        .collect();
    assert_eq!(
        kinds,
        [
            (TokenKind::Lifetime, "'a"),
            (TokenKind::Lifetime, "'a"),
            (TokenKind::Char, "'x'"),
        ]
    );
}

#[test]
fn raw_and_byte_strings_lex_as_strings() {
    for src in [
        r###"r#"has "quotes" inside"#"###,
        r###"br##"raw # bytes"##"###,
        "b\"bytes\"",
        "b'x'",
    ] {
        let toks = lex(src);
        assert_eq!(toks.len(), 1, "{src}");
        assert!(
            matches!(toks[0].kind, TokenKind::Str | TokenKind::Char),
            "{src}: {:?}",
            toks[0].kind
        );
    }
}

#[test]
fn truncated_input_never_panics() {
    for src in ["\"unterminated", "/* unterminated", "r#\"unterminated", "'"] {
        let _ = lex(src);
    }
}

#[test]
fn line_numbers_span_multiline_tokens() {
    let toks = lex("/* one\ntwo\nthree */ ident");
    assert_eq!((toks[0].line, toks[0].end_line), (1, 3));
    assert_eq!(toks[1].line, 3);
}

// -----------------------------------------------------------------
// Rule table hygiene
// -----------------------------------------------------------------

#[test]
fn rule_ids_are_unique_and_kebab_case() {
    let mut seen = std::collections::BTreeSet::new();
    for r in RULES {
        assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
        assert!(
            r.id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
            "rule id {} is not kebab-case",
            r.id
        );
        assert!(!r.rationale.is_empty() && !r.scope.is_empty());
    }
}

// -----------------------------------------------------------------
// size
// -----------------------------------------------------------------

#[test]
fn size_counts_lines_outside_cfg_test_items() {
    let src = r#"//! Docs.
pub fn kept() {}

    pub fn indented() {}
pub(crate) fn not_counted() {}
// pub fn in a comment is not a declaration
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
#[cfg(test)]
use std::fmt;
fn last() {}
"#;
    // 13 lines: the 4-line test module and the 2-line gated `use` are
    // dropped; `kept` and `indented` are the two `pub fn` lines.
    assert_eq!(file_size(src), (7, 2));
}

#[test]
fn size_walks_each_package_src_dir() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ser-lint-size");
    let _ = std::fs::remove_dir_all(&root);
    let write = |rel: &str, body: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, body).unwrap();
    };
    write(
        "Cargo.toml",
        "[workspace]\nmembers = [\"crates/a\"]\n\n[package]\nname = \"umbrella\"\n",
    );
    write("src/lib.rs", "pub fn f() {}\n");
    write(
        "crates/a/Cargo.toml",
        "[package]\nname = \"alpha\"\nversion = \"0.1.0\"\n",
    );
    write(
        "crates/a/src/lib.rs",
        "pub fn g() {}\n#[cfg(test)]\nmod tests {}\n",
    );
    write("crates/a/src/bin/tool.rs", "fn main() {}\n");
    // Outside `src/`: not production code.
    write("crates/a/tests/it.rs", "pub fn helper() {}\n");

    let sizes = run_size(&root).unwrap();
    let want = |name: &str, lines, pub_fns| CrateSize {
        name: name.to_string(),
        lines,
        pub_fns,
    };
    assert_eq!(sizes, [want("umbrella", 1, 1), want("alpha", 2, 1)]);
    std::fs::remove_dir_all(&root).unwrap();
}
