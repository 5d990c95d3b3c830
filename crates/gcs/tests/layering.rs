//! The one rule of the engine's layering, checked lexically: only
//! `engine.rs` schedules an event, calls a client handler or holds the
//! telemetry sink. Every other file of the crate decides and returns.

use std::fs;
use std::path::Path;

#[test]
fn only_the_engine_schedules_calls_handlers_or_records() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let forbidden = [
        ".schedule(",
        ".schedule_at(",
        ".on_view(",
        ".on_message(",
        ".on_cpu_complete(",
        "Telemetry",
    ];
    let mut checked = 0;
    for entry in fs::read_dir(&src).expect("crates/gcs/src is readable") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "engine.rs" || !name.ends_with(".rs") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("source file is readable");
        for needle in forbidden {
            assert!(!text.contains(needle), "{name} contains `{needle}`");
        }
        checked += 1;
    }
    assert!(checked >= 12, "only {checked} layer files found under src/");
    let engine = fs::read_to_string(src.join("engine.rs")).expect("engine.rs");
    assert!(engine.contains(".schedule(") && engine.contains(".on_view("));
}
