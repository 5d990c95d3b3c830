//! Workspace-level integration tests: the full stack — bignum →
//! crypto → simulated GCS → protocols → secure sessions — exercised
//! through the façade crate's public API.

use std::rc::Rc;

use secure_spread_repro::core::experiment::{
    agreed_secret, run_join, run_merge, ExperimentConfig, Group,
};
use secure_spread_repro::core::member::SecureMember;
use secure_spread_repro::core::suite::CryptoSuite;
use secure_spread_repro::gcs::{testbed, ClientId, SimWorld};
use secure_spread_repro::{ProtocolKind, SecureSession};

#[test]
fn facade_reexports_work_end_to_end() {
    let outcome = run_join(&ExperimentConfig::lan_fast(ProtocolKind::Str), 8);
    assert!(outcome.ok);
}

#[test]
fn full_stack_session_data_flow() {
    // Form a group, re-key it on a join, then push application data
    // through the per-epoch secure sessions of two members.
    let suite = Rc::new(CryptoSuite::sim_512());
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..4u64 {
        world.add_client(Box::new(SecureMember::new(
            ProtocolKind::Gdh,
            Rc::clone(&suite),
            i,
            Some(11),
        )));
    }
    world.install_initial_view_of(vec![0, 1, 2]);
    world.run_until_quiescent();
    world.inject_join(3);
    world.run_until_quiescent();

    let epoch = world.view().unwrap().id;
    let k0 = world
        .client::<SecureMember>(0)
        .secret(epoch)
        .unwrap()
        .clone();
    let k3 = world
        .client::<SecureMember>(3)
        .secret(epoch)
        .unwrap()
        .clone();
    assert_eq!(k0, k3);

    let mut tx = SecureSession::new(&k0, epoch);
    let rx = SecureSession::new(&k3, epoch);
    for i in 0..5u8 {
        let wire = tx.seal(0, &[i; 100]);
        assert_eq!(rx.open(0, &wire).unwrap(), vec![i; 100]);
    }

    // A member that never joined (fresh key) cannot read the traffic.
    let wire = tx.seal(0, b"secret agenda");
    let outsider = SecureSession::new(&secure_spread_repro::bignum::Ubig::from(99u64), epoch);
    assert!(outsider.open(0, &wire).is_err());
}

#[test]
fn old_epoch_traffic_rejected_after_rekey() {
    // Forward secrecy at the session layer: after a leave, traffic
    // sealed under the old epoch's key no longer opens.
    let suite = Rc::new(CryptoSuite::fast_zero());
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..3u64 {
        world.add_client(Box::new(SecureMember::new(
            ProtocolKind::Tgdh,
            Rc::clone(&suite),
            i,
            Some(3),
        )));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    let e1 = world.view().unwrap().id;
    let k1 = world.client::<SecureMember>(0).secret(e1).unwrap().clone();

    world.inject_leave(2);
    world.run_until_quiescent();
    let e2 = world.view().unwrap().id;
    let k2 = world.client::<SecureMember>(0).secret(e2).unwrap().clone();
    assert_ne!(k1, k2, "leave must refresh the key");

    let mut old_tx = SecureSession::new(&k1, e1);
    let new_rx = SecureSession::new(&k2, e2);
    let stale = old_tx.seal(0, b"old message");
    assert!(
        new_rx.open(0, &stale).is_err(),
        "stale traffic must not open"
    );
}

#[test]
fn all_protocols_formation_via_facade() {
    for kind in ProtocolKind::all() {
        let group = Group::form(&ExperimentConfig::lan_fast(kind), 7, 0);
        let members: Vec<ClientId> = (0..7).collect();
        assert!(agreed_secret(&group.world, &members, 1).is_ok(), "{kind}");
    }
}

#[test]
fn two_groups_heal_after_partition() {
    // Partition + merge round trip through the experiment drivers.
    for kind in [ProtocolKind::Tgdh, ProtocolKind::Gdh, ProtocolKind::Str] {
        let outcome = run_merge(&ExperimentConfig::lan_fast(kind), 6, 6);
        assert!(outcome.ok, "{kind} merge of equals");
        assert_eq!(outcome.size_after, 12);
    }
}

#[test]
fn per_group_protocol_choice() {
    // The framework contribution: different groups in one system can
    // run different protocols (here sequentially; each world hosts one
    // group).
    for (kind, n) in [(ProtocolKind::Bd, 5), (ProtocolKind::Ckd, 9)] {
        let outcome = run_join(&ExperimentConfig::lan_fast(kind), n);
        assert!(outcome.ok, "{kind}");
        assert_eq!(outcome.size_after, n);
    }
}
