//! End-to-end analyzer tests: the seeded-violations fixture must
//! produce exactly the pinned finding set (every rule family fires at
//! the expected `file:line`), and the real workspace must analyze
//! clean under the embedded default scopes plus the checked-in
//! allowlist.

use std::path::{Path, PathBuf};

use gkap_analyze::{analyze_report, rules::RULES, Config, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/violations")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze has a workspace two levels up")
        .to_path_buf()
}

/// The complete expected finding set for the fixture, sorted the way
/// the analyzer reports: by (file, line, rule). A missing entry means
/// a rule stopped firing; an extra entry means a false positive crept
/// in. Either way the diff in the assertion message is the fix list.
const EXPECTED: &[(&str, &str, u32)] = &[
    ("L3-EQ", "src/ct.rs", 7),
    ("L3-CT", "src/ct.rs", 12),
    ("L3-CT", "src/ct.rs", 14),
    ("L3-CT", "src/ct.rs", 19),
    ("L1-PANIC", "src/protocol.rs", 4),
    ("L1-PANIC", "src/protocol.rs", 5),
    ("L1-PANIC", "src/protocol.rs", 7),
    ("L1-INDEX", "src/protocol.rs", 9),
    ("L2-RAW", "src/secrets.rs", 3),
    ("L2-DERIVE", "src/secrets.rs", 8),
    ("L2-RAW", "src/secrets.rs", 8),
    ("L4-HASH", "src/sim.rs", 3),
    ("L4-HASH", "src/sim.rs", 5),
    ("L4-TIME", "src/sim.rs", 6),
    ("L4-RNG", "src/sim.rs", 8),
];

fn fixture_config() -> Config {
    let conf = std::fs::read_to_string(fixture_root().join("analyze.conf")).expect("fixture conf");
    Config::parse_conf(&conf).expect("fixture config parses")
}

fn render(findings: &[Finding]) -> String {
    findings
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn fixture_produces_exactly_the_seeded_findings() {
    let findings = analyze_report(&fixture_root(), &fixture_config())
        .expect("fixture analyzes")
        .findings;
    let got: Vec<(String, String, u32)> = findings
        .iter()
        .map(|f| (f.rule.clone(), f.file.clone(), f.line))
        .collect();
    let want: Vec<(String, String, u32)> = EXPECTED
        .iter()
        .map(|&(r, f, l)| (r.to_string(), f.to_string(), l))
        .collect();
    assert_eq!(
        got,
        want,
        "fixture findings drifted; full report:\n{}",
        render(&findings)
    );
}

#[test]
fn every_rule_family_fires_on_the_fixture() {
    // Redundant with the exact pin above, but fails with a clearer
    // message if a rule is disabled by a scope regression, or if a
    // rule is added to `RULES` without a seeded violation.
    let seeded: std::collections::BTreeSet<&str> = EXPECTED.iter().map(|&(r, _, _)| r).collect();
    for rule in RULES {
        assert!(seeded.contains(rule), "fixture does not seed {rule}");
    }
}

#[test]
fn workspace_analyzes_clean_with_no_stale_allows() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root resolution broke: {}",
        root.display()
    );
    let mut cfg = Config::workspace_default();
    let allow = std::fs::read_to_string(root.join("analyze.allow")).expect("analyze.allow");
    cfg.parse_allowlist(&allow).expect("allowlist parses");
    let report = analyze_report(&root, &cfg).expect("workspace analyzes");
    assert!(
        report.findings.is_empty(),
        "the workspace must stay analyzer-clean; burn these down or allowlist with a reason:\n{}",
        render(&report.findings)
    );
    assert!(
        report.stale_allows.is_empty(),
        "analyze.allow has entries matching no current finding — remove them:\n{}",
        report.stale_allows.join("\n")
    );
}

#[test]
fn stale_allow_entries_are_reported() {
    let mut cfg = fixture_config();
    cfg.parse_allowlist(
        "L1-PANIC src/protocol.rs # live: seeded fixture panic\n\
         L4-RNG src/does_not_exist.rs # stale: nothing matches this\n",
    )
    .expect("allowlist parses");
    let report = analyze_report(&fixture_root(), &cfg).expect("analyzes");
    assert_eq!(
        report.stale_allows,
        vec!["L4-RNG src/does_not_exist.rs".to_string()],
        "only the unmatched entry is stale"
    );
    assert!(
        !report
            .findings
            .iter()
            .any(|f| f.rule == "L1-PANIC" && f.file == "src/protocol.rs"),
        "the live allow entry must still suppress its findings"
    );
}
