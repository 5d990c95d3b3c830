//! CLI for the workspace static analyzer.
//!
//! ```text
//! gkap-analyze --workspace [--deny-all] [--rule PREFIX] [--quiet]
//! gkap-analyze --root DIR [--config FILE] [--allow FILE] [...]
//! ```
//!
//! Exit codes: `0` clean, `1` findings or stale allowlist entries
//! reported, `2` usage or configuration error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gkap_analyze::{analyze_report, Config, Report};

struct Args {
    root: Option<PathBuf>,
    workspace: bool,
    config: Option<PathBuf>,
    allow: Option<PathBuf>,
    rule: Option<String>,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: gkap-analyze (--workspace | --root DIR) [--config FILE] [--allow FILE] \
     [--rule PREFIX] [--deny-all] [--quiet]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        workspace: false,
        config: None,
        allow: None,
        rule: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?))
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?))
            }
            "--allow" => args.allow = Some(PathBuf::from(it.next().ok_or("--allow needs a file")?)),
            "--rule" => args.rule = Some(it.next().ok_or("--rule needs a prefix")?),
            // Findings always fail the run; the flag is accepted so CI
            // invocations read explicitly.
            "--deny-all" => {}
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !args.workspace && args.root.is_none() {
        return Err(usage().to_string());
    }
    Ok(args)
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring a `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".to_string());
        }
    }
}

/// Prints the human report. `--quiet` keeps only the failure summary.
fn emit(report: &Report, root: &Path, quiet: bool) {
    if !quiet {
        for f in &report.findings {
            println!("{f}");
        }
        for stale in &report.stale_allows {
            println!("analyze.allow: stale entry `{stale}` matches no current finding — remove it");
        }
    }
    if report.findings.is_empty() && report.stale_allows.is_empty() {
        if !quiet {
            println!(
                "gkap-analyze: clean (root {}, {} files)",
                root.display(),
                report.files
            );
        }
    } else {
        println!(
            "gkap-analyze: {} finding(s), {} stale allow entr(y/ies)",
            report.findings.len(),
            report.stale_allows.len()
        );
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = match (&args.root, args.workspace) {
        (Some(r), _) => r.clone(),
        _ => find_workspace_root()?,
    };

    let mut cfg = match &args.config {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Config::parse_conf(&text)?
        }
        None => {
            // `--root DIR` with an `analyze.conf` in DIR picks it up;
            // otherwise the embedded workspace scopes apply.
            let default = root.join("analyze.conf");
            if args.root.is_some() && default.is_file() {
                let text = std::fs::read_to_string(&default)
                    .map_err(|e| format!("{}: {e}", default.display()))?;
                Config::parse_conf(&text)?
            } else {
                Config::workspace_default()
            }
        }
    };

    // Only a regular file is loaded, so `--allow /dev/null` runs with
    // no allowlist at all.
    let allow_path = args
        .allow
        .clone()
        .unwrap_or_else(|| root.join("analyze.allow"));
    if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("{}: {e}", allow_path.display()))?;
        cfg.parse_allowlist(&text)?;
    }

    let mut report = analyze_report(&root, &cfg)?;
    if let Some(prefix) = &args.rule {
        report
            .findings
            .retain(|f| f.rule.starts_with(prefix.as_str()));
    }
    emit(&report, &root, args.quiet);
    Ok(report.findings.is_empty() && report.stale_allows.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("gkap-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}
