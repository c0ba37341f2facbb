//! `ser-lint` — the workspace invariant checker.
//!
//! The suite's correctness story rests on contracts no compiler
//! checks: the sweep kernel must stay **bit-identical** to its
//! reference oracle (no FMA, no reassociation, no order-nondeterministic
//! iteration in plan or sweep code), the daemon's request path must be
//! **panic-free**, every crate root must forbid `unsafe`, a threaded
//! `CancelToken` must actually be polled, the wire protocol's error
//! codes and ops must stay documented, and a `pub` item must have a
//! user outside its own file. Until this tool, those
//! contracts lived in doc comments and reviewer vigilance; a single
//! `_mm256_fmadd_pd` or an unordered `HashMap` walk in a plan path
//! would silently break the equivalence every proptest oracle and the
//! Mendo sequential-stopping accuracy contract rest on.
//!
//! Like the rest of the tree (`tools/bench-diff`, the hand-rolled JSON
//! layer), this is a vendored-offline tool: no external dependencies,
//! a strict hand-rolled lexer ([`lexer`]), and a token-shaped rule
//! engine ([`rules`]). `ser-lint check` walks every `.rs` file under
//! `crates/`, `src/`, `tools/` and `tests/`, prints `file:line`
//! diagnostics, and exits non-zero on any violation — CI runs it as a
//! gate. The cross-file `orphan` rule also reads `examples/` and
//! `perfbench/src` ([`REFERENCE_ROOTS`]) as users of the library.
//! `ser-lint rules` prints the rule table. `ser-lint size` prints each
//! crate's non-test production lines and `pub fn` count ([`size`]), a
//! report CI shows but does not gate on.
//!
//! Suppressions are inline, per-site, and self-documenting:
//!
//! ```text
//! // ser-lint: allow(no-hash-iter) — keyed lookup only, never iterated.
//! ```
//!
//! A bare allow without the justification text is itself a violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod size;

use std::path::{Path, PathBuf};

pub use rules::{check_orphans, check_wire_doc, lint_file, Diagnostic, RuleInfo, RULES};
pub use size::{file_size, run_size, CrateSize};

/// The directories `check` walks, relative to the workspace root.
/// `vendor/` is deliberately out of scope (offline stand-ins for
/// crates.io, not under the repo's contracts), as are build outputs.
pub const WALK_ROOTS: &[&str] = &["crates", "src", "tools", "tests"];

/// Directories read only as consumers for the `orphan` rule: their code
/// uses the library but is not held to the per-file rules.
pub const REFERENCE_ROOTS: &[&str] = &["examples", "perfbench/src"];

/// Runs every rule over the workspace rooted at `root`. Returns all
/// diagnostics, sorted by path then line. I/O errors (an unreadable
/// file) surface as diagnostics too — a lint that silently skips a
/// file is not a gate.
#[must_use]
pub fn run_check(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut sources = Vec::new();
    for (roots, linted) in [(WALK_ROOTS, true), (REFERENCE_ROOTS, false)] {
        let mut files = Vec::new();
        for dir in roots {
            collect_rs_files(&root.join(dir), &mut files);
        }
        files.sort();
        for file in &files {
            let rel = rel_path(root, file);
            match std::fs::read_to_string(file) {
                Ok(src) => {
                    if linted {
                        diags.extend(rules::lint_file(&rel, &src));
                    }
                    sources.push((rel, src));
                }
                Err(e) => diags.push(Diagnostic {
                    path: rel,
                    line: 0,
                    rule: "bare-allow",
                    message: format!("cannot read file: {e}"),
                }),
            }
        }
    }
    diags.extend(rules::check_orphans(&sources));

    // Cross-file: protocol wire strings vs README docs.
    let protocol = root.join("crates/service/src/protocol.rs");
    let readme = root.join("README.md");
    match (
        std::fs::read_to_string(&protocol),
        std::fs::read_to_string(&readme),
    ) {
        (Ok(p), Ok(r)) => diags.extend(rules::check_wire_doc(&p, &r)),
        (Err(e), _) => diags.push(Diagnostic {
            path: "crates/service/src/protocol.rs".to_string(),
            line: 0,
            rule: "wire-doc-sync",
            message: format!("cannot read protocol.rs: {e}"),
        }),
        (_, Err(e)) => diags.push(Diagnostic {
            path: "README.md".to_string(),
            line: 0,
            rule: "wire-doc-sync",
            message: format!("cannot read README.md: {e}"),
        }),
    }

    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    diags
}

/// Recursively collects `*.rs` files, skipping `target/` build output.
pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `root`-relative path with forward slashes (rule scopes are keyed on
/// this form on every platform).
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
