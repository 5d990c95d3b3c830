//! The keyed-group harness is the one definition of a measured rekey:
//! `agreed_secret` is what "the group agreed" means, every experiment
//! is one `Group::apply`, and the traced run is the run.

use gkap_core::experiment::{
    agreed_secret, run_join, run_join_traced, run_leave, run_merge, run_partition, secure_world,
    Disagreement, EventOutcome, ExperimentConfig, Group, LeaveTarget, Step, SuiteKind,
};
use gkap_core::protocols::{Component, GkaCtx, ProtocolKind, ProtocolMsg};
use gkap_core::suite::CryptoSuite;
use gkap_core::{GkaError, GkaProtocol, SecureMember};
use gkap_gcs::{testbed, ClientId, SimWorld};

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
        let why = agreed_secret(&world, &[0, 1, 2, 3], 1);
        assert_eq!(why, Err(Disagreement::Diverged(2)), "{kind}");
        assert_eq!(agreed_secret(&world, &[2, 3], 1), Ok(secret(3)), "{kind}");
    }
}

#[test]
fn agreed_secret_needs_every_listed_member_keyed() {
    for kind in ProtocolKind::all() {
        let group = Group::form(&ExperimentConfig::lan_fast(kind), 4, 1);
        let formed = agreed_secret(&group.world, &[0, 1, 2, 3], 1).ok();
        assert!(formed.is_some(), "{kind}: a formed group agrees");
        assert_eq!(
            formed,
            group.world.client::<SecureMember>(2).secret(1),
            "{kind}"
        );
        // Client 4 is a spare: it has never been in a view.
        let agreed = |members: &[ClientId], epoch| agreed_secret(&group.world, members, epoch);
        assert_eq!(
            agreed(&[0, 1, 2, 3, 4], 1),
            Err(Disagreement::Unkeyed(4)),
            "{kind}"
        );
        assert_eq!(agreed(&[1, 0], 2), Err(Disagreement::Unkeyed(1)), "{kind}");
        assert_eq!(agreed(&[], 1), Err(Disagreement::NoMembers), "{kind}");
    }
}

/// Delegates to a real protocol engine and, once it has established
/// the key, reports a protocol error all the same.
struct ErrsOnceKeyed(Box<dyn GkaProtocol>);

impl ErrsOnceKeyed {
    fn after(ctx: &GkaCtx<'_, '_>, inner: Result<(), GkaError>) -> Result<(), GkaError> {
        inner?;
        if ctx.established() {
            return Err(GkaError::Protocol("reported after keying"));
        }
        Ok(())
    }
}

impl GkaProtocol for ErrsOnceKeyed {
    fn kind(&self) -> ProtocolKind {
        self.0.kind()
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let inner = self.0.on_view(ctx);
        Self::after(ctx, inner)
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        let inner = self.0.on_msg(ctx, sender, msg);
        Self::after(ctx, inner)
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        self.0.component(suite, members, seed)
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        self.0.adopt(component, me)
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// A member that holds the group's key but recorded a protocol error
/// breaks the rule too, and is named.
#[test]
fn agreed_secret_names_a_keyed_member_that_recorded_an_error() {
    for kind in ProtocolKind::all() {
        let suite = SuiteKind::FastZero.shared();
        let member = |i: ClientId| match i {
            2 => SecureMember::with_protocol(
                Box::new(ErrsOnceKeyed(kind.create())),
                suite.clone(),
                100 + i as u64,
                Some(1),
            ),
            _ => SecureMember::new(kind, suite.clone(), 100 + i as u64, Some(1)),
        };
        let mut world = secure_world(testbed::lan(), false, 0..5, 4, member);
        world.inject_join(4);
        world.run_until_quiescent();
        for c in 0..5 {
            let key = world.client::<SecureMember>(c).secret(2);
            assert_eq!(key, world.client::<SecureMember>(0).secret(2), "{kind}");
            assert!(key.is_some(), "{kind}: member {c} is keyed");
        }
        let error = GkaError::Protocol("reported after keying");
        assert_eq!(
            agreed_secret(&world, &[0, 1, 2, 3, 4], 2),
            Err(Disagreement::ProtocolError(2, error)),
            "{kind}"
        );
        assert!(agreed_secret(&world, &[0, 1, 3, 4], 2).is_ok(), "{kind}");
    }
}

/// Every figure driver is `Group::form` + one `apply`, bit for bit.
#[test]
fn an_experiment_is_a_one_step_scenario() {
    type Driver = fn(&ExperimentConfig) -> EventOutcome;
    // (step, the group the driver forms and its spares, the driver).
    let table: [(Step, usize, usize, Driver); 4] = [
        (Step::Join, 9, 1, |cfg| run_join(cfg, 10)),
        (Step::Leave(LeaveTarget::Oldest), 10, 0, |cfg| {
            run_leave(cfg, 10, LeaveTarget::Oldest)
        }),
        (Step::Partition(4), 10, 0, |cfg| run_partition(cfg, 10, 4)),
        (Step::Merge(4), 10, 4, |cfg| run_merge(cfg, 10, 4)),
    ];
    for kind in ProtocolKind::all() {
        let cfg = ExperimentConfig::lan(kind, SuiteKind::Sim512);
        for (step, initial, spares, driver) in table {
            let outcome = driver(&cfg);
            let event = Group::form(&cfg, initial, spares).apply(step);
            assert!(outcome.ok && event.ok, "{kind} {step:?}");
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
    let script = [Step::Crash, Step::Join, Step::Leave(LeaveTarget::Nth(7))];
    for kind in ProtocolKind::all() {
        let mut group = Group::form(&ExperimentConfig::lan_fast(kind), 6, 1);
        let events = script.map(|step| group.apply(step));
        assert!(events.iter().all(|e| e.ok), "{kind}");
        let sizes: Vec<usize> = events.iter().map(|e| e.size_after).collect();
        assert_eq!(sizes, [5, 6, 5], "{kind}");
        // The crash step spans the detection timeout.
        assert!(events[0].elapsed_ms > events[1].elapsed_ms);
    }
}

/// Back-to-back steps of every kind but a crash, on one group.
#[test]
fn mixed_steps_including_merge_and_partition() {
    let mut group = Group::form(&ExperimentConfig::lan_fast(ProtocolKind::Tgdh), 6, 5);
    let script = [
        Step::Join,
        Step::Merge(3),
        Step::Partition(4),
        Step::Leave(LeaveTarget::Oldest),
        Step::Leave(LeaveTarget::Newest),
        Step::Join,
    ];
    let sizes = script.map(|step| {
        let event = group.apply(step);
        assert!(event.ok, "{step:?}");
        event.size_after
    });
    assert_eq!(sizes, [7, 10, 6, 5, 4, 5]);
}

#[test]
#[should_panic(expected = "empty the group")]
fn emptying_scenario_panics() {
    let mut group = Group::form(&ExperimentConfig::lan_fast(ProtocolKind::Bd), 1, 0);
    group.apply(Step::Leave(LeaveTarget::Oldest));
}
