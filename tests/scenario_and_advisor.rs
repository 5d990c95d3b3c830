//! Facade-level tests of the workload-scenario driver and the
//! protocol advisor.

use secure_spread_repro::core::advisor::{advise, EventMix, NetworkKind, Workload};
use secure_spread_repro::core::experiment::ExperimentConfig;
use secure_spread_repro::core::scenario::{LeavePick, Scenario, Step};
use secure_spread_repro::{run_scenario, ProtocolKind};

#[test]
fn scenario_through_facade() {
    let cfg = ExperimentConfig::lan_fast(ProtocolKind::Tgdh);
    let scenario = Scenario {
        initial: 5,
        steps: vec![
            Step::Join,
            Step::Join,
            Step::Leave(LeavePick::Middle),
            Step::Merge(2),
            Step::Partition(3),
        ],
    };
    let report = run_scenario(&cfg, &scenario);
    assert!(report.ok);
    assert_eq!(report.events.len(), 5);
    assert_eq!(report.events.last().unwrap().size_after, 5);
    assert_eq!(report.percentile(1.0), report.summary.max());
}

#[test]
fn scenario_distribution_reflects_event_mix() {
    // In TGDH, leaves are cheaper than joins (no round-1 component
    // broadcasts): a leave-only script's mean must be below a
    // join-only script's mean at the same sizes.
    use secure_spread_repro::core::experiment::SuiteKind;
    let cfg = ExperimentConfig::lan(ProtocolKind::Tgdh, SuiteKind::Sim512);
    let joins = Scenario {
        initial: 10,
        steps: vec![Step::Join; 5],
    };
    let leaves = Scenario {
        initial: 15,
        steps: vec![Step::Leave(LeavePick::Middle); 5],
    };
    let join_report = run_scenario(&cfg, &joins);
    let leave_report = run_scenario(&cfg, &leaves);
    assert!(join_report.ok && leave_report.ok);
    assert!(
        leave_report.summary.mean() < join_report.summary.mean(),
        "TGDH leaves ({:.1} ms) should be cheaper than joins ({:.1} ms)",
        leave_report.summary.mean(),
        join_report.summary.mean()
    );
}

#[test]
fn advisor_consistent_with_scenarios() {
    // The advisor's LAN pick must actually win a head-to-head scenario
    // against the worst LAN protocol at the same size.
    let pick = advise(&Workload {
        network: NetworkKind::Lan,
        events: EventMix::JoinLeave,
        group_size: 24,
    });
    use secure_spread_repro::core::experiment::SuiteKind;
    let scenario = Scenario::conference(24, 8);
    let t_pick = {
        let cfg = ExperimentConfig::lan(pick, SuiteKind::Sim512);
        run_scenario(&cfg, &scenario)
    };
    let t_gdh = {
        let cfg = ExperimentConfig::lan(ProtocolKind::Gdh, SuiteKind::Sim512);
        run_scenario(&cfg, &scenario)
    };
    assert!(t_pick.ok && t_gdh.ok);
    assert!(
        t_pick.summary.mean() < t_gdh.summary.mean(),
        "advised {pick} ({:.1} ms) must beat GDH ({:.1} ms)",
        t_pick.summary.mean(),
        t_gdh.summary.mean()
    );
}
