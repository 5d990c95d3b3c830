//! The `repro` binary's exit-code and output-file contract, driven as
//! a process in a scratch working directory: usage errors exit 2,
//! runtime failures exit 1 with a one-line diagnostic, and a command
//! writes its own outputs plus one run manifest — nothing else.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn repro(cwd: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("repro runs")
}

#[test]
fn usage_errors_exit_2_and_write_nothing() {
    let cwd = scratch_dir("repro_cli_usage");
    for args in [
        &["frobnicate"][..],
        &["trace-summary", "fig99"],
        &["fig11", "--jobs", "0"],
        &["bench-diff", "only-one.json"],
        // One ring shard per job: `--jobs` is the only knob.
        &["scale", "--shards", "4"],
    ] {
        let out = repro(&cwd, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?} explains itself");
    }
    assert_eq!(std::fs::read_dir(&cwd).expect("cwd").count(), 0);
}

#[test]
fn unwritable_results_is_a_one_line_diagnostic_and_exit_1() {
    let cwd = scratch_dir("repro_cli_unwritable");
    std::fs::write(cwd.join("results"), "a regular file, not a directory").expect("blocker");
    let out = repro(&cwd, &["table1", "--quiet"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.starts_with("repro: "), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_command_writes_its_outputs_and_one_manifest_and_nothing_else() {
    // A `--protocol` filter is part of the names: a filtered sweep
    // must not overwrite the committed all-protocol CSV.
    let cases: [(&str, &[&str], [&str; 2]); 2] = [
        ("table1", &["table1"], ["RUN_table1_r3.json", "table1.txt"]),
        (
            "filtered_sweep",
            &["chaos", "--loss-sweep", "--protocol", "bd", "--quiet"],
            ["RUN_chaos_loss_s7_bd.json", "chaos_loss_s7_bd.csv"],
        ),
    ];
    for (name, args, expected) in cases {
        let cwd = scratch_dir(&format!("repro_cli_{name}"));
        let out = repro(&cwd, args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let mut written: Vec<String> = std::fs::read_dir(cwd.join("results"))
            .expect("results/ created")
            .map(|e| e.expect("entry").file_name().into_string().expect("name"))
            .collect();
        written.sort();
        assert_eq!(written, expected, "{args:?}");
        assert_eq!(std::fs::read_dir(&cwd).expect("cwd").count(), 1);
    }
}
