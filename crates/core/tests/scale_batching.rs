//! The batching window's semantics pin to the engine's historical
//! behaviour: a window of zero must reproduce one-event-per-round
//! exactly — same injections, same views, same telemetry stream.

use gkap_core::batch::{ChurnKind, EventBatcher, MembershipBatch};
use gkap_core::experiment::SuiteKind;
use gkap_core::protocols::ProtocolKind;
use gkap_core::scale::{assemble, generate_schedule, run, run_shard, ScaleConfig};
use gkap_sim::Duration;
use gkap_telemetry::jsonl::render_events;

fn traced_cfg(protocol: ProtocolKind, groups: usize) -> ScaleConfig {
    let mut cfg = ScaleConfig::lan(protocol, groups);
    cfg.suite = SuiteKind::FastZero;
    cfg.churn = 1.5;
    cfg.telemetry = true;
    cfg
}

#[test]
fn window_zero_equals_one_event_per_round() {
    let mut cfg = traced_cfg(ProtocolKind::Bd, 10);
    cfg.window = Duration::ZERO;

    // Run A: the batcher with a zero window.
    let a = run(&cfg);

    // Run B: the historical behaviour, hand-built — every event is
    // its own membership round, injected at the event's own instant.
    let schedule = generate_schedule(&cfg);
    let manual: Vec<MembershipBatch> = schedule
        .events
        .iter()
        .map(|ev| {
            let (joined, left) = match ev.kind {
                ChurnKind::Join(c) => (vec![c], vec![]),
                ChurnKind::Leave(c) => (vec![], vec![c]),
            };
            MembershipBatch {
                group: ev.group,
                opened_at: ev.at,
                flush_at: ev.at,
                joined,
                left,
                events: 1,
                arrivals: vec![ev.at],
            }
        })
        .collect();
    let b = assemble(
        &cfg,
        &schedule,
        &manual,
        run_shard(&cfg, &schedule, &manual, 1, 0),
    );

    assert!(a.ok && b.ok);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.rekeys, b.rekeys);
    assert_eq!(a.rekey_ms, b.rekey_ms);
    // The decisive check: the full cross-layer telemetry streams are
    // identical, byte for byte, in JSONL form.
    assert_eq!(render_events(&a.events), render_events(&b.events));
    // And with a zero window nothing ever waits in the batcher.
    assert!(a.batch_wait_ms.iter().all(|&ms| ms == 0.0));
}

#[test]
fn batching_window_coalesces_cascades() {
    // A wide window must not produce more agreement rounds than
    // events, and a group hit by several events inside one window
    // runs them as a single round.
    let mut cfg = traced_cfg(ProtocolKind::Tgdh, 6);
    cfg.churn = 3.0;
    cfg.window = cfg.horizon; // everything in one window per group
    let batched = run(&cfg);
    assert!(batched.ok);
    assert!(batched.batches <= 6, "at most one batch per group");

    cfg.window = Duration::ZERO;
    let unbatched = run(&cfg);
    assert!(unbatched.ok);
    assert!(
        batched.batches <= unbatched.batches,
        "batching can only reduce agreement rounds"
    );
    assert_eq!(batched.raw_events, unbatched.raw_events);
}

#[test]
fn same_seed_runs_are_identical() {
    let cfg = traced_cfg(ProtocolKind::Str, 8);
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(render_events(&a.events), render_events(&b.events));
    assert_eq!(a.rekey_ms, b.rekey_ms);
    assert_eq!(a.transport_ms, b.transport_ms);
    assert_eq!(a.agreement_ms, b.agreement_ms);
}

#[test]
fn batcher_arrival_bookkeeping_matches_schedule() {
    let cfg = traced_cfg(ProtocolKind::Gdh, 16);
    let schedule = generate_schedule(&cfg);
    let batches = EventBatcher::new(Duration::from_millis(5)).coalesce(&schedule.events);
    let coalesced: usize = batches.iter().map(|b| b.events).sum();
    assert_eq!(coalesced, schedule.events.len());
    for b in &batches {
        assert_eq!(b.arrivals.len(), b.events);
        assert!(b.arrivals.iter().all(|&at| at <= b.flush_at));
    }
}
