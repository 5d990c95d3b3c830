//! Pins the micro-benchmark tables `repro microlan` and `repro
//! microwan` print: the §6.1.1 / §6.2.1 numbers the GCS calibration
//! constants (`gkap_gcs::config`) are tuned to reproduce. Nothing
//! under `results/` holds them, so a calibration drift shows up here.

use gkap_bench::micro;

/// Compares `actual` with a checked-in golden; on a mismatch the
/// actual table is written next to the test binary's scratch files.
fn assert_golden(name: &str, actual: &str, golden: &str) {
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
        std::fs::write(&path, actual).expect("write actual");
        panic!(
            "differs from {name}.golden; actual written to {}",
            path.display()
        );
    }
}

#[test]
fn lan_micro_table_is_pinned() {
    let actual = micro::render(&micro::lan_micro());
    assert_golden("micro_lan", &actual, include_str!("micro_lan.golden"));
}

#[test]
fn wan_micro_table_is_pinned() {
    let actual = micro::render(&micro::wan_micro());
    assert_golden("micro_wan", &actual, include_str!("micro_wan.golden"));
}
