//! Same-seed determinism regression: two identically configured runs
//! must produce byte-identical telemetry JSONL streams.
//!
//! This is the executable counterpart of the L4 rule, which clippy's
//! `disallowed_types`/`disallowed_methods` enforce (no `HashMap`/
//! `HashSet`, wall clocks, or ambient RNG in event-ordering paths,
//! DESIGN.md §11): if any such nondeterminism creeps back into
//! the engine or the protocol drivers, the rendered event streams of
//! two same-seed runs diverge and this test fails with the first
//! differing line.

use gkap_core::experiment::{run_join_traced, run_traced, ExperimentConfig, LeaveTarget, Step};
use gkap_core::protocols::ProtocolKind;
use gkap_telemetry::jsonl::render_events;

const PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::Gdh,
    ProtocolKind::Ckd,
    ProtocolKind::Tgdh,
    ProtocolKind::Str,
    ProtocolKind::Bd,
];

/// Asserts two JSONL streams are identical, reporting the first
/// divergent line (far more readable than a giant string diff).
fn assert_same_stream(label: &str, a: &str, b: &str) {
    if a == b {
        return;
    }
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        assert_eq!(la, lb, "{label}: first divergence at JSONL line {i}");
    }
    assert_eq!(
        a.lines().count(),
        b.lines().count(),
        "{label}: streams are a prefix of one another"
    );
}

#[test]
fn same_seed_join_streams_are_identical() {
    for kind in PROTOCOLS {
        let cfg = ExperimentConfig::lan_fast(kind);
        let a = run_join_traced(&cfg, 6);
        let b = run_join_traced(&cfg, 6);
        assert_same_stream(
            &format!("{kind} join"),
            &render_events(&a.events),
            &render_events(&b.events),
        );
    }
}

#[test]
fn same_seed_leave_streams_are_identical() {
    for kind in PROTOCOLS {
        let cfg = ExperimentConfig::lan_fast(kind);
        let a = run_traced(&cfg, 6, Step::Leave(LeaveTarget::Middle));
        let b = run_traced(&cfg, 6, Step::Leave(LeaveTarget::Middle));
        assert_same_stream(
            &format!("{kind} leave"),
            &render_events(&a.events),
            &render_events(&b.events),
        );
    }
}

#[test]
fn different_runs_change_the_stream() {
    // Sanity check that the assertion has teeth: a different group
    // size must yield a different event stream (if it did not, the
    // byte-equality assertions above would be vacuous).
    let cfg = ExperimentConfig::lan_fast(ProtocolKind::Gdh);
    let a = run_join_traced(&cfg, 6);
    let b = run_join_traced(&cfg, 7);
    assert_ne!(
        render_events(&a.events),
        render_events(&b.events),
        "group size must influence the event stream"
    );
}
