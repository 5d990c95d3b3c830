//! Facade-level tests of the keyed-group harness: scripted membership
//! events replayed through `Group::form` + `Group::apply`.

use secure_spread_repro::core::experiment::{
    EventOutcome, ExperimentConfig, Group, LeaveTarget, Step, SuiteKind,
};
use secure_spread_repro::sim::stats::Summary;
use secure_spread_repro::ProtocolKind;

/// Forms `initial` members with a spare for every member `script`
/// admits, then applies `script` back to back.
fn replay(cfg: &ExperimentConfig, initial: usize, script: &[Step]) -> Vec<EventOutcome> {
    let spares = script
        .iter()
        .map(|step| match step {
            Step::Join => 1,
            Step::Merge(m) => *m,
            _ => 0,
        })
        .sum();
    let mut group = Group::form(cfg, initial, spares);
    script.iter().map(|&step| group.apply(step)).collect()
}

/// The mean event time of `events`, all of which must have agreed.
fn mean_ms(events: &[EventOutcome]) -> f64 {
    let mut summary = Summary::new();
    for event in events {
        assert!(event.ok);
        summary.add(event.elapsed_ms);
    }
    summary.mean()
}

#[test]
fn a_group_replays_a_script_through_facade() {
    let cfg = ExperimentConfig::lan_fast(ProtocolKind::Tgdh);
    let script = [
        Step::Join,
        Step::Join,
        Step::Leave(LeaveTarget::Middle),
        Step::Merge(2),
        Step::Partition(3),
    ];
    let events = replay(&cfg, 5, &script);
    assert!(events.iter().all(|e| e.ok));
    let sizes: Vec<usize> = events.iter().map(|e| e.size_after).collect();
    assert_eq!(sizes, [6, 7, 6, 8, 5]);
}

#[test]
fn tgdh_leaves_cost_less_than_joins() {
    // In TGDH, leaves are cheaper than joins (no round-1 component
    // broadcasts): a leave-only script's mean must be below a
    // join-only script's mean at the same sizes.
    let cfg = ExperimentConfig::lan(ProtocolKind::Tgdh, SuiteKind::Sim512);
    let joins = mean_ms(&replay(&cfg, 10, &[Step::Join; 5]));
    let leaves = mean_ms(&replay(&cfg, 15, &[Step::Leave(LeaveTarget::Middle); 5]));
    assert!(
        leaves < joins,
        "TGDH leaves ({leaves:.1} ms) should be cheaper than joins ({joins:.1} ms)"
    );
}

#[test]
fn tgdh_beats_gdh_on_lan_churn() {
    // §6.3's LAN pick, TGDH, must win a head-to-head churn script
    // against GDH at 24 members: joins, with every third event a leave.
    let script: Vec<Step> = (0..8)
        .map(|i| match i % 3 {
            1 => Step::Leave(LeaveTarget::Nth(i * 5 + 1)),
            _ => Step::Join,
        })
        .collect();
    let churn = |kind| {
        mean_ms(&replay(
            &ExperimentConfig::lan(kind, SuiteKind::Sim512),
            24,
            &script,
        ))
    };
    let (tgdh, gdh) = (churn(ProtocolKind::Tgdh), churn(ProtocolKind::Gdh));
    assert!(
        tgdh < gdh,
        "TGDH ({tgdh:.1} ms) must beat GDH ({gdh:.1} ms)"
    );
}
