#![deny(unsafe_code)]
//! `rp-analyze`: the workspace invariant linter.
//!
//! The repository's load-bearing contracts — byte-identical
//! publications per seed, durability-relevant I/O routed through the
//! `FaultIo` facade, serving paths that degrade instead of panic,
//! canonical float formatting, a cycle-free lock-acquisition order,
//! and no exported item without a caller — are enforced here
//! mechanically instead of by reviewer vigilance. The pass is purely
//! lexical (its own lexer, no crates.io dependencies), reports
//! `file:line` diagnostics, and exits nonzero on any finding. Justified exceptions are waived in place with a
//! reasoned pragma; see [`source`] for the grammar.

pub mod lexer;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Finding, LockEdge, Suppression, RULES};
use source::SourceFile;

/// The outcome of an analysis pass over a set of files.
pub struct Report {
    /// How many files were scanned.
    pub files: usize,
    /// Surviving findings, sorted by path, line, rule.
    pub findings: Vec<Finding>,
    /// Pragma-waived findings, sorted the same way.
    pub suppressed: Vec<Suppression>,
}

impl Report {
    /// No findings survived — the tree is lint-clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-rule `(rule, findings, suppressed)` hit counts, in the
    /// canonical rule order.
    pub fn counts(&self) -> Vec<(&'static str, usize, usize)> {
        RULES
            .iter()
            .map(|r| {
                (
                    *r,
                    self.findings.iter().filter(|f| f.rule == *r).count(),
                    self.suppressed.iter().filter(|s| s.rule == *r).count(),
                )
            })
            .collect()
    }
}

/// Analyzes in-memory `(path, source)` pairs — the fixture-test entry
/// point. Paths drive rule scoping exactly as on disk, so a fixture
/// at `crates/engine/src/service.rs` is checked as the serving stack.
/// The set is taken as partial, so `dead-pub`, which needs every
/// caller in view, does not run; [`analyze_tree`] runs it.
pub fn analyze_sources(files: &[(&str, &str)]) -> Report {
    analyze(&parse(files), None)
}

/// Analyzes a whole tree: `files` are linted by every rule, and `refs`
/// (integration tests, benches, examples, the perf harness) are read
/// only for the references that keep a `pub` item alive.
pub fn analyze_tree(files: &[(&str, &str)], refs: &[(&str, &str)]) -> Report {
    analyze(&parse(files), Some(&parse(refs)))
}

fn parse(files: &[(&str, &str)]) -> Vec<SourceFile> {
    files
        .iter()
        .map(|(path, src)| SourceFile::new(path, (*src).to_string()))
        .collect()
}

fn analyze(parsed: &[SourceFile], refs: Option<&[SourceFile]>) -> Report {
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    for file in parsed {
        let (f, s, e) = rules::check_file(file);
        findings.extend(f);
        suppressed.extend(s);
        edges.extend(e);
    }
    findings.extend(rules::lock_order_findings(edges));
    if let Some(refs) = refs {
        let (f, s) = rules::dead_pub_findings(parsed, refs);
        findings.extend(f);
        suppressed.extend(s);
    }
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    suppressed
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Report {
        files: parsed.len(),
        findings,
        suppressed,
    }
}

/// Collects the workspace source set under `root`, in sorted order, as
/// `(linted, refs)`. `linted` is every `.rs` file in `crates/*/src/`
/// and the root `src/`. `refs` is every `.rs` file in the root
/// `tests/` and `examples/`, `crates/*/tests/`, `crates/*/benches/` and
/// `perfbench/harness/src/`: read only for `dead-pub`'s references.
/// Vendored dependencies are out of scope by construction.
pub fn workspace_files(root: &Path) -> io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let mut linted = Vec::new();
    let mut refs = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        members.sort();
        for member in members {
            walk(&member.join("src"), &mut linted)?;
            walk(&member.join("tests"), &mut refs)?;
            walk(&member.join("benches"), &mut refs)?;
        }
    }
    walk(&root.join("src"), &mut linted)?;
    for dir in ["tests", "examples", "perfbench/harness/src"] {
        walk(&root.join(dir), &mut refs)?;
    }
    Ok((linted, refs))
}

/// Appends every `.rs` file under `dir` (none if it does not exist).
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`).
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let (linted, refs) = workspace_files(root)?;
    Ok(analyze(
        &read_all(root, linted)?,
        Some(&read_all(root, refs)?),
    ))
}

/// Reads and parses each file under its workspace-relative path.
fn read_all(root: &Path, paths: Vec<PathBuf>) -> io::Result<Vec<SourceFile>> {
    paths
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            Ok(SourceFile::new(&rel, fs::read_to_string(&path)?))
        })
        .collect()
}
