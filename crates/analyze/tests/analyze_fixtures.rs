//! End-to-end analyzer tests: the seeded-violations fixture must
//! produce exactly the pinned finding set (every rule family fires at
//! the expected `file:line`), and the real workspace must analyze
//! clean under the embedded default scopes plus the checked-in
//! allowlist.

use std::path::{Path, PathBuf};

use gkap_analyze::{analyze_report, analyze_root, fingerprint, Config, EngineOpts};

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
    ("L5-ARITH", "src/arith.rs", 6),
    ("L5-ARITH", "src/arith.rs", 7),
    ("L5-ARITH", "src/arith.rs", 8),
    ("L5-ARITH", "src/arith.rs", 9),
    ("L5-ARITH", "src/arith.rs", 14),
    ("L3-EQ", "src/ct.rs", 7),
    ("L3-CT", "src/ct.rs", 12),
    ("L3-CT", "src/ct.rs", 14),
    ("L2-FLOW", "src/laundry_b.rs", 6),
    ("L2-FLOW", "src/laundry_b.rs", 7),
    ("L6-PAR", "src/par.rs", 5),
    ("L6-PAR", "src/par.rs", 8),
    ("L6-PAR", "src/par.rs", 11),
    ("L6-PAR", "src/par.rs", 16),
    ("L6-PAR", "src/par.rs", 21),
    ("L1-PANIC", "src/protocol.rs", 4),
    ("L1-PANIC", "src/protocol.rs", 5),
    ("L1-PANIC", "src/protocol.rs", 7),
    ("L1-INDEX", "src/protocol.rs", 9),
    ("L2-RAW", "src/secrets.rs", 3),
    ("L2-DERIVE", "src/secrets.rs", 8),
    ("L2-RAW", "src/secrets.rs", 8),
    ("L2-FLOW", "src/secrets.rs", 12),
    ("L2-FLOW", "src/secrets.rs", 13),
    ("L4-HASH", "src/sim.rs", 3),
    ("L4-HASH", "src/sim.rs", 5),
    ("L4-TIME", "src/sim.rs", 6),
    ("L4-RNG", "src/sim.rs", 8),
];

#[test]
fn fixture_produces_exactly_the_seeded_findings() {
    let root = fixture_root();
    let conf = std::fs::read_to_string(root.join("analyze.conf")).expect("fixture analyze.conf");
    let cfg = Config::parse_conf(&conf).expect("fixture config parses");
    let findings = analyze_root(&root, &cfg).expect("fixture analyzes");
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
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_family_fires_on_the_fixture() {
    // Redundant with the exact pin above, but fails with a clearer
    // message if a whole family is disabled by a scope regression.
    let rules: std::collections::BTreeSet<&str> = EXPECTED.iter().map(|&(r, _, _)| r).collect();
    for family in [
        "L1-PANIC",
        "L1-INDEX",
        "L2-DERIVE",
        "L2-RAW",
        "L2-FLOW",
        "L3-EQ",
        "L3-CT",
        "L4-HASH",
        "L4-TIME",
        "L4-RNG",
        "L5-ARITH",
        "L6-PAR",
    ] {
        assert!(rules.contains(family), "fixture does not seed {family}");
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
    let report = analyze_report(&root, &cfg, &EngineOpts::default()).expect("workspace analyzes");
    assert!(
        report.findings.is_empty(),
        "the workspace must stay analyzer-clean; burn these down or allowlist with a reason:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.stale_allows.is_empty(),
        "analyze.allow has entries matching no current finding — remove them:\n{}",
        report.stale_allows.join("\n")
    );
}

/// Copies the seeded fixture into a scratch directory so tests can
/// mutate sources without touching the checked-in fixture.
fn scratch_fixture(name: &str) -> PathBuf {
    let dst = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dst);
    std::fs::create_dir_all(dst.join("src")).expect("scratch dir");
    let src = fixture_root();
    std::fs::copy(src.join("analyze.conf"), dst.join("analyze.conf")).expect("copy conf");
    for entry in std::fs::read_dir(src.join("src")).expect("fixture src") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join("src").join(entry.file_name())).expect("copy src");
    }
    dst
}

fn scratch_config(root: &Path) -> Config {
    let conf = std::fs::read_to_string(root.join("analyze.conf")).expect("scratch conf");
    Config::parse_conf(&conf).expect("scratch config parses")
}

#[test]
fn baseline_gate_fails_new_findings_but_survives_unrelated_edits() {
    let root = scratch_fixture("baseline-gate");
    let cfg = scratch_config(&root);

    // Capture the current findings as the baseline.
    let before = analyze_root(&root, &cfg).expect("baseline run");
    let baseline = fingerprint::parse_baseline(&fingerprint::render_baseline(&before));

    // Unrelated edit: insert a comment line ABOVE every seeded
    // violation in protocol.rs. Line numbers shift but fingerprints
    // (rule + path + fn + normalized line hash) must not, so the
    // baseline still swallows every old finding.
    let proto = root.join("src/protocol.rs");
    let text = std::fs::read_to_string(&proto).expect("protocol.rs");
    let shifted = format!("// churn: refactor note, no code change\n{text}");
    std::fs::write(&proto, shifted).expect("rewrite protocol.rs");

    let opts = EngineOpts {
        baseline: Some(baseline.clone()),
    };
    let report = analyze_report(&root, &cfg, &opts).expect("shifted run");
    assert!(
        report.findings.is_empty(),
        "a comment-only edit must not produce new findings under the baseline:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(
        report.baselined.len(),
        before.len(),
        "every pre-existing finding should still match its baseline fingerprint"
    );

    // A genuinely new violation must escape the baseline and fail.
    let text = std::fs::read_to_string(&proto).expect("protocol.rs");
    let with_new = format!("{text}\npub fn fresh(v: &[u8]) -> u8 {{ v[9] }}\n");
    std::fs::write(&proto, with_new).expect("append violation");
    let report = analyze_report(&root, &cfg, &opts).expect("new-violation run");
    assert_eq!(
        report.findings.len(),
        1,
        "exactly the appended violation must surface as new: {:?}",
        report.findings
    );
    assert_eq!(report.findings[0].rule, "L1-INDEX");
    assert_eq!(report.findings[0].func, "fresh");
}

#[test]
fn stale_allow_entries_are_reported() {
    let root = scratch_fixture("stale-allow");
    let mut cfg = scratch_config(&root);
    cfg.parse_allowlist(
        "L1-PANIC src/protocol.rs # live: seeded fixture panic\n\
         L4-RNG src/does_not_exist.rs # stale: nothing matches this\n",
    )
    .expect("allowlist parses");
    let report = analyze_report(&root, &cfg, &EngineOpts::default()).expect("analyzes");
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
