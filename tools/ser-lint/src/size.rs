//! `ser-lint size` — the simplicity count, reproducible.
//!
//! For every package whose sources live under `crates/*/src` or the
//! root `src/`, it counts the production lines: every line of every
//! `.rs` file there (blank lines and comments included) that is not
//! inside a `#[cfg(test)]` item. It also counts how many of those
//! lines start with `pub fn` once indentation is stripped. The
//! `#[cfg(test)]` spans are the ones the `no-panic-path` rule already
//! exempts, so both commands agree on what is test code.

use std::path::Path;

use crate::lexer::lex;
use crate::rules::cfg_test_spans;

/// One package's production size, as `ser-lint size` prints it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrateSize {
    /// The package name from its `Cargo.toml`.
    pub name: String,
    /// Lines of the package's `src/**/*.rs` outside `#[cfg(test)]`
    /// items.
    pub lines: usize,
    /// How many of those lines start with `pub fn`.
    pub pub_fns: usize,
}

/// `(production lines, pub fn lines)` of one source file.
#[must_use]
pub fn file_size(src: &str) -> (usize, usize) {
    let spans = cfg_test_spans(&lex(src));
    let mut lines = 0;
    let mut pub_fns = 0;
    for (n, line) in (1u32..).zip(src.lines()) {
        if spans.iter().any(|&(a, b)| n >= a && n <= b) {
            continue;
        }
        lines += 1;
        if line.trim_start().starts_with("pub fn ") {
            pub_fns += 1;
        }
    }
    (lines, pub_fns)
}

/// Sizes every package of the workspace rooted at `root`: the root
/// package first, then `crates/*` in directory order.
///
/// # Errors
///
/// Returns a message naming the file when a `Cargo.toml` or a source
/// file cannot be read, or a manifest has no `[package]` name.
pub fn run_size(root: &Path) -> Result<Vec<CrateSize>, String> {
    let mut dirs = vec![root.to_path_buf()];
    let mut members: Vec<_> = std::fs::read_dir(root.join("crates"))
        .map_err(|e| format!("{}: {e}", root.join("crates").display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    dirs.extend(members);

    let mut sizes = Vec::new();
    for dir in dirs {
        let manifest = dir.join("Cargo.toml");
        let toml = std::fs::read_to_string(&manifest)
            .map_err(|e| format!("{}: {e}", manifest.display()))?;
        let name = package_name(&toml)
            .ok_or_else(|| format!("{}: no [package] name", manifest.display()))?;
        let mut files = Vec::new();
        crate::collect_rs_files(&dir.join("src"), &mut files);
        files.sort();
        let mut size = CrateSize {
            name,
            lines: 0,
            pub_fns: 0,
        };
        for file in files {
            let src =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let (lines, pub_fns) = file_size(&src);
            size.lines += lines;
            size.pub_fns += pub_fns;
        }
        sizes.push(size);
    }
    Ok(sizes)
}

/// The `name` of a manifest's `[package]` table.
fn package_name(toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start().strip_prefix('=')?.trim();
                return Some(value.trim_matches('"').to_string());
            }
        }
    }
    None
}
