//! `ser-lint` CLI — see the library docs for what the rules enforce.
//!
//! ```text
//! ser-lint check [--root DIR]   # lint the workspace; exit 1 on violations
//! ser-lint rules                # print the rule table
//! ser-lint size [--root DIR]    # per crate: non-test lines and `pub fn` count
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ser_lint::{run_check, run_size, RULES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => match parse_root(&args[1..]) {
            Ok(root) => check(&root),
            Err(code) => code,
        },
        Some("size") => match parse_root(&args[1..]) {
            Ok(root) => size(&root),
            Err(code) => code,
        },
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!(
                "usage: ser-lint check [--root DIR] | ser-lint size [--root DIR] | ser-lint rules"
            );
            ExitCode::from(2)
        }
    }
}

/// Parses `[--root DIR]` and checks that the root is the workspace's.
fn parse_root(args: &[String]) -> Result<PathBuf, ExitCode> {
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("--root requires a directory");
                    return Err(ExitCode::from(2));
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return Err(ExitCode::from(2));
            }
        }
    }
    // Both commands are routinely run from the workspace root; walking
    // an empty tree would vacuously pass, so refuse roots that lack
    // the directories the rules are scoped to.
    if !root.join("crates").is_dir() {
        eprintln!(
            "ser-lint: `{}` does not look like the workspace root (no crates/)",
            root.display()
        );
        return Err(ExitCode::from(2));
    }
    Ok(root)
}

fn check(root: &Path) -> ExitCode {
    let diags = run_check(root);
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("ser-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("ser-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn size(root: &Path) -> ExitCode {
    let sizes = match run_size(root) {
        Ok(sizes) => sizes,
        Err(e) => {
            eprintln!("ser-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{:<20} {:>8} {:>7}", "crate", "lines", "pub fn");
    for s in &sizes {
        println!("{:<20} {:>8} {:>7}", s.name, s.lines, s.pub_fns);
    }
    let lines: usize = sizes.iter().map(|s| s.lines).sum();
    let pub_fns: usize = sizes.iter().map(|s| s.pub_fns).sum();
    println!("{:<20} {:>8} {:>7}", "total", lines, pub_fns);
    ExitCode::SUCCESS
}

fn print_rules() {
    println!("ser-lint rules — suppress per site with:");
    println!("  // ser-lint: allow(<rule>) — <justification (mandatory)>");
    println!();
    for r in RULES {
        println!("{}", r.id);
        println!("  scope:     {}", r.scope);
        println!("  rationale: {}", r.rationale);
        println!();
    }
}
