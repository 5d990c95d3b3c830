//! The `gkap-analyze` command-line contract: exit codes, the human
//! report, `--quiet`, `--rule`, and the usage error for flags that do
//! not exist.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn analyze(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gkap-analyze"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("gkap-analyze runs")
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture_root() -> String {
    manifest_dir()
        .join("fixtures/violations")
        .display()
        .to_string()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const SUMMARY_15: &str = "gkap-analyze: 15 finding(s), 0 stale allow entr(y/ies)";

#[test]
fn fixture_run_prints_every_finding_then_the_summary() {
    let out = analyze(&["--root", &fixture_root()], manifest_dir());
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 16, "{text}");
    assert!(
        lines[..15].iter().all(|l| l.contains(": error[L")),
        "{text}"
    );
    assert_eq!(
        lines[0],
        "src/ct.rs:7:9: error[L3-EQ]: variable-time `==` in verification path `verify_tag` — use `ct_eq`"
    );
    assert_eq!(lines[15], SUMMARY_15);
}

#[test]
fn quiet_prints_only_the_summary() {
    let out = analyze(&["--root", &fixture_root(), "--quiet"], manifest_dir());
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(stdout(&out), format!("{SUMMARY_15}\n"));
}

#[test]
fn rule_filters_by_prefix() {
    let out = analyze(&["--root", &fixture_root(), "--rule", "L4"], manifest_dir());
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert_eq!(text.matches(": error[L4-").count(), 4, "{text}");
    assert!(text.ends_with("gkap-analyze: 4 finding(s), 0 stale allow entr(y/ies)\n"));
}

#[test]
fn removed_flags_are_usage_errors() {
    for args in [
        ["--format", "sarif"],
        ["--baseline", "f"],
        ["--write-baseline", "f"],
    ] {
        let out = analyze(
            &["--root", &fixture_root(), args[0], args[1]],
            manifest_dir(),
        );
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage: gkap-analyze"), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
}

#[test]
fn a_conf_line_naming_no_rule_is_a_configuration_error() {
    let root: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-typo-conf");
    std::fs::create_dir_all(root.join("src")).expect("scratch dir");
    std::fs::write(root.join("analyze.conf"), "scope L1-PANC src/x.rs\n").expect("conf");
    std::fs::write(
        root.join("src/x.rs"),
        "fn f(v: Option<u8>) -> u8 { v.unwrap() }\n",
    )
    .expect("source");
    let out = analyze(&["--root", &root.display().to_string()], manifest_dir());
    assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("line 1: unknown rule `L1-PANC`"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn the_workspace_analyzes_clean() {
    let workspace = manifest_dir()
        .ancestors()
        .nth(2)
        .expect("crates/analyze has a workspace two levels up");
    let out = analyze(&["--workspace", "--deny-all"], workspace);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(
        stdout(&out).starts_with("gkap-analyze: clean"),
        "{}",
        stdout(&out)
    );
}
