//! Keeps the copies of *stand up, cause, wait, compare keys* from
//! growing back, lexically: outside `member.rs` a `SecureMember` is
//! constructed at three sites, and a member's secret is read in the
//! two functions that decide agreement. `#[cfg(test)]` modules (always
//! the tail of a file here) are not looked at.

use std::fs;
use std::path::{Path, PathBuf};

/// `(crate/file name, non-test source)` of every file directly under
/// `crates/<krate>/src`.
fn sources(krate: &str) -> Vec<(String, String)> {
    let dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(krate)
        .join("src");
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".rs") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source file is readable");
        let code = text.split("#[cfg(test)]").next().unwrap_or("").to_string();
        out.push((format!("{krate}/{name}"), code));
    }
    out.sort();
    out
}

#[test]
fn secure_members_are_constructed_at_three_sites() {
    let mut sites = Vec::new();
    for (name, code) in sources("core").into_iter().chain(sources("bench")) {
        let count = code.matches("SecureMember::new(").count()
            + code.matches("SecureMember::with_protocol(").count();
        if count > 0 && name != "core/member.rs" {
            sites.push((name, count));
        }
    }
    assert_eq!(
        sites,
        [
            ("core/experiment.rs".to_string(), 1), // Group::form_with
            ("core/scale.rs".to_string(), 1),      // run_group
            ("bench/chaos.rs".to_string(), 1),     // default_factory
        ],
        "populate a world through `Group`, or through `chaos::default_factory`"
    );
}

#[test]
fn secrets_are_compared_in_two_functions() {
    let watched = |name: &str| {
        name.starts_with("bench/")
            || ["core/experiment.rs", "core/scenario.rs", "core/scale.rs"].contains(&name)
    };
    let mut readers = Vec::new();
    for (name, code) in sources("core").into_iter().chain(sources("bench")) {
        if !watched(&name) {
            continue;
        }
        // The function a line belongs to: the last `fn` item opened at
        // or before it.
        let mut current = String::new();
        for line in code.lines() {
            let item = line
                .trim_start()
                .trim_start_matches("pub ")
                .trim_start_matches("pub(crate) ");
            if let Some(rest) = item.strip_prefix("fn ") {
                let end = rest.find(['(', '<']).unwrap_or(rest.len());
                current = rest[..end].to_string();
            }
            if line.contains(".secret(") && !line.trim_start().starts_with("//") {
                readers.push(format!("{name}::{current}"));
            }
        }
    }
    assert_eq!(
        readers,
        [
            "core/experiment.rs::agreed_secret",
            "bench/chaos.rs::survivor_agreement",
        ],
        "decide agreement with `agreed_secret` (or, under faults, `survivor_agreement`)"
    );
}
