//! The keyed-group harness is the one definition of a measured rekey:
//! `agreed_secret` is what "the group agreed" means, every experiment
//! is a one-step scenario, and the traced run is the run.

use gkap_core::experiment::{
    agreed_secret, run_join, run_join_traced, run_leave, run_merge, run_partition, EventOutcome,
    ExperimentConfig, Group, LeaveTarget, Step, SuiteKind,
};
use gkap_core::protocols::ProtocolKind;
use gkap_core::scenario::{run_scenario, Scenario};
use gkap_core::SecureMember;
use gkap_gcs::{testbed, SimWorld};

/// The hole `scale`'s old "ends keyed" rule had: a group whose halves
/// bootstrap from different seeds is complete and error-free at every
/// member — and holds two keys. Only comparing the keys shows it.
#[test]
fn complete_and_error_free_is_not_agreed() {
    for kind in ProtocolKind::all() {
        let suite = SuiteKind::FastZero.shared();
        let mut world = SimWorld::new(testbed::lan());
        for i in 0..4u64 {
            let bootstrap = if i < 2 { 1 } else { 2 };
            let member = SecureMember::new(kind, suite.clone(), 100 + i, Some(bootstrap));
            world.add_client(Box::new(member));
        }
        world.install_initial_view();
        world.run_until_quiescent();
        for c in 0..4 {
            let m = world.client::<SecureMember>(c);
            assert!(m.completion(1).is_some(), "{kind}: member {c} incomplete");
            assert!(m.protocol_error().is_none(), "{kind}: member {c} errored");
        }
        let secret = |c| world.client::<SecureMember>(c).secret(1).expect("keyed");
        assert_ne!(secret(0), secret(3), "{kind}: the halves share a key");
        assert_eq!(secret(0), secret(1), "{kind}");
        assert!(agreed_secret(&world, &[0, 1, 2, 3], 1).is_none(), "{kind}");
        assert_eq!(agreed_secret(&world, &[2, 3], 1), Some(secret(3)), "{kind}");
    }
}

#[test]
fn agreed_secret_needs_every_listed_member_keyed() {
    for kind in ProtocolKind::all() {
        let group = Group::form(&ExperimentConfig::lan_fast(kind), 4, 1);
        let formed = agreed_secret(&group.world, &[0, 1, 2, 3], 1);
        assert!(formed.is_some(), "{kind}: a formed group agrees");
        assert_eq!(
            formed,
            group.world.client::<SecureMember>(2).secret(1),
            "{kind}"
        );
        // Client 4 is a spare: it has never been in a view.
        assert!(
            agreed_secret(&group.world, &[0, 1, 2, 3, 4], 1).is_none(),
            "{kind}"
        );
        assert!(agreed_secret(&group.world, &[0, 1], 2).is_none(), "{kind}");
        assert!(agreed_secret(&group.world, &[], 1).is_none(), "{kind}");
    }
}

/// Every figure driver is `Group::form` + one `apply`, so it and the
/// scenario of that single step agree bit for bit.
#[test]
fn an_experiment_is_a_one_step_scenario() {
    type Driver = fn(&ExperimentConfig) -> EventOutcome;
    // (step, initial group the driver forms, the driver).
    let table: [(Step, usize, Driver); 4] = [
        (Step::Join, 9, |cfg| run_join(cfg, 10)),
        (Step::Leave(LeaveTarget::Oldest), 10, |cfg| {
            run_leave(cfg, 10, LeaveTarget::Oldest)
        }),
        (Step::Partition(4), 10, |cfg| run_partition(cfg, 10, 4)),
        (Step::Merge(4), 10, |cfg| run_merge(cfg, 10, 4)),
    ];
    for kind in ProtocolKind::all() {
        let cfg = ExperimentConfig::lan(kind, SuiteKind::Sim512);
        for (step, initial, driver) in table {
            let outcome = driver(&cfg);
            let scenario = Scenario {
                initial,
                steps: vec![step],
            };
            let report = run_scenario(&cfg, &scenario);
            assert!(outcome.ok && report.ok, "{kind} {step:?}");
            let event = &report.events[0];
            assert_eq!(
                event.elapsed_ms.to_bits(),
                outcome.elapsed_ms.to_bits(),
                "{kind} {step:?}: {} vs {}",
                event.elapsed_ms,
                outcome.elapsed_ms
            );
            assert_eq!(event.size_after, outcome.size_after, "{kind} {step:?}");
        }
    }
}

/// The traced run is the run: forcing telemetry on moves no field of
/// the outcome.
#[test]
fn traced_join_reports_the_untraced_outcome() {
    for kind in ProtocolKind::all() {
        let cfg = ExperimentConfig::lan(kind, SuiteKind::Sim512);
        let plain = run_join(&cfg, 8);
        let traced = run_join_traced(&cfg, 8).outcome;
        assert!(plain.ok && traced.ok, "{kind}");
        assert_eq!(plain.elapsed_ms.to_bits(), traced.elapsed_ms.to_bits());
        assert_eq!(
            plain.membership_ms.to_bits(),
            traced.membership_ms.to_bits()
        );
        assert_eq!(plain.counts, traced.counts, "{kind}");
        assert_eq!(plain.size_after, traced.size_after, "{kind}");
    }
}

/// `Step::Crash` in a script: the victim's machine takes its member
/// with it, and the group keeps admitting and losing members after.
#[test]
fn a_scenario_rekeys_through_a_crash() {
    let scenario = Scenario {
        initial: 6,
        steps: vec![Step::Crash, Step::Join, Step::Leave(LeaveTarget::Nth(7))],
    };
    for kind in ProtocolKind::all() {
        let report = run_scenario(&ExperimentConfig::lan_fast(kind), &scenario);
        assert!(report.ok, "{kind}");
        let sizes: Vec<usize> = report.events.iter().map(|e| e.size_after).collect();
        assert_eq!(sizes, [5, 6, 5], "{kind}");
        // The crash step spans the detection timeout.
        assert!(report.events[0].elapsed_ms > report.events[1].elapsed_ms);
    }
}
