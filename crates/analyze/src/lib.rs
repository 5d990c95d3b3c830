//! `gkap-analyze` — the workspace static analyzer.
//!
//! Parses every in-scope Rust source file in the workspace (own lexer +
//! item parser; the build environment is offline so there is no `syn`)
//! and enforces four rule families:
//!
//! * **L1 panic-freedom** — no `unwrap`/`expect`/`panic!`/raw indexing
//!   in protocol drivers, the secure session layer or the GCS engine.
//! * **L2 secret hygiene** — DH exponents, RSA private keys and group
//!   keys live in `Secret<T>` and never derive `Debug`/`Serialize`.
//! * **L3 constant-time discipline** — verification paths compare with
//!   `ct_eq`; `ct_*` kernels have no early exits or data-dependent
//!   indexing.
//! * **L4 sim determinism** — no wall-clock time, ambient RNG or
//!   hash-order iteration in event-ordering paths.
//!
//! Diagnostics are rustc-style `file:line:col: error[RULE]: message`.
//! See `DESIGN.md` §11 for the rules and §16 for the audit that chose
//! them.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod config;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use config::Config;

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule id (`"L1-PANIC"`, …).
    pub rule: String,
    /// Root-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based UTF-8 character column (1 when the finding is
    /// item-level rather than token-level).
    pub col: u32,
    /// Enclosing function name (empty for item-level findings).
    pub func: String,
    /// Human-readable explanation.
    pub msg: String,
}

impl Finding {
    /// A finding with no function assigned yet (filled by
    /// `rules::fill_funcs`).
    pub fn new(rule: &str, file: &str, line: u32, col: u32, msg: impl Into<String>) -> Self {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            col,
            func: String::new(),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.msg
        )
    }
}

/// Directories never descended into during discovery.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// The full result of an analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not suppressed by the allowlist.
    pub findings: Vec<Finding>,
    /// Allowlist entries (rendered `RULE glob [fn=name]`) that matched
    /// no current finding — stale entries fail the run.
    pub stale_allows: Vec<String>,
    /// Files analyzed.
    pub files: usize,
}

/// Recursively collects `.rs` files under `root` whose root-relative
/// path is matched by at least one scope glob. Paths come back sorted
/// so runs are deterministic.
pub fn discover_files(root: &Path, cfg: &Config) -> Result<Vec<(String, String)>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let rel = config::rel_path(root, &p);
        if !cfg.is_interesting(&rel) {
            continue;
        }
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push((rel, text));
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every finding over pre-loaded `(rel_path, contents)` pairs, before
/// the allowlist: deduplicated, sorted and attributed to their
/// functions.
fn all_findings(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let files: Vec<(String, parse::ParsedFile)> = sources
        .iter()
        .map(|(rel, text)| (rel.clone(), parse::parse(text)))
        .collect();
    let mut raw = Vec::new();
    for (path, pf) in &files {
        rules::check_file(path, pf, cfg, &mut raw);
    }
    let mut all = dedup_sort(raw);
    rules::fill_funcs(&files, &mut all);
    all
}

/// Analyzes pre-loaded `(rel_path, contents)` pairs. Split out so the
/// unit tests can drive the analyzer without touching the filesystem.
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let mut findings = all_findings(sources, cfg);
    apply_allows(cfg, &mut findings);
    findings
}

/// The full engine: discovery, the rules, function attribution, and
/// the allowlist with stale-entry tracking.
pub fn analyze_report(root: &Path, cfg: &Config) -> Result<Report, String> {
    let sources = discover_files(root, cfg)?;
    let mut findings = all_findings(&sources, cfg);
    let stale_allows = apply_allows(cfg, &mut findings);
    Ok(Report {
        findings,
        stale_allows,
        files: sources.len(),
    })
}

/// Drops allowlisted findings; returns the entries (rendered) that
/// matched none.
fn apply_allows(cfg: &Config, findings: &mut Vec<Finding>) -> Vec<String> {
    let mut used = vec![false; cfg.allows.len()];
    findings.retain(|f| !mark_allowed(cfg, f, &mut used));
    cfg.allows
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| a.render())
        .collect()
}

/// Dedups per `(rule, file, line)` and sorts by `(file, line, rule)`.
fn dedup_sort(raw: Vec<Finding>) -> Vec<Finding> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut sorted = raw;
    sorted.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    for f in sorted {
        if seen.insert((f.rule.clone(), f.file.clone(), f.line)) {
            out.push(f);
        }
    }
    out
}

/// Marks every allowlist entry matching `f` as used; returns whether
/// any matched.
fn mark_allowed(cfg: &Config, f: &Finding, used: &mut [bool]) -> bool {
    let mut hit = false;
    for (i, a) in cfg.allows.iter().enumerate() {
        if a.matches(&f.rule, &f.file, &f.func) {
            used[i] = true;
            hit = true;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_is_rustc_style() {
        let f = Finding::new(
            "L1-PANIC",
            "crates/core/src/session.rs",
            83,
            12,
            "`.expect()` in protocol path",
        );
        assert_eq!(
            f.to_string(),
            "crates/core/src/session.rs:83:12: error[L1-PANIC]: `.expect()` in protocol path"
        );
    }

    #[test]
    fn analyze_sources_end_to_end() {
        let cfg = Config::parse_conf("scope L1 src/**").unwrap();
        let sources = vec![(
            "src/driver.rs".to_string(),
            "fn step(v: Option<u8>) -> u8 { v.unwrap() }".to_string(),
        )];
        let findings = analyze_sources(&sources, &cfg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "L1-PANIC");
        assert_eq!(findings[0].file, "src/driver.rs");
        assert_eq!(findings[0].func, "step");
    }

    #[test]
    fn function_scoped_allow_entries() {
        let mut cfg = Config::parse_conf("scope L1 src/**").unwrap();
        cfg.parse_allowlist("L1-PANIC src/driver.rs fn=step # audited\n")
            .unwrap();
        let sources = vec![(
            "src/driver.rs".to_string(),
            "fn step(v: Option<u8>) -> u8 { v.unwrap() }\nfn other(v: Option<u8>) -> u8 { v.unwrap() }".to_string(),
        )];
        let findings = analyze_sources(&sources, &cfg);
        // Only `other`'s unwrap survives: the allow is pinned to `step`.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].func, "other");
    }
}
