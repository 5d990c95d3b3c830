//! Robustness under cascaded membership events (the property the
//! authors' companion work [2] establishes): a membership change
//! injected *while the previous key agreement is still running* must
//! not wedge any protocol — the view-synchronous flush delivers the
//! old epoch's messages first, and every member converges on the final
//! view's key.

use std::rc::Rc;

use gkap_core::member::SecureMember;
use gkap_core::protocols::ProtocolKind;
use gkap_core::suite::CryptoSuite;
use gkap_gcs::{testbed, SimWorld};
use gkap_sim::Duration;

fn world_with(kind: ProtocolKind, total: usize, initial: usize) -> SimWorld {
    let suite = Rc::new(CryptoSuite::sim_512());
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..total as u64 {
        world.add_client(Box::new(SecureMember::new(
            kind,
            Rc::clone(&suite),
            900 + i,
            Some(17),
        )));
    }
    world.install_initial_view_of((0..initial).collect());
    world.run_until_quiescent();
    world
}

fn assert_converged(world: &SimWorld) {
    let view = world.view().expect("view").clone();
    let mut secret = None;
    for &m in &view.members {
        let member = world.client::<SecureMember>(m);
        assert!(
            member.protocol_error().is_none(),
            "member {m}: {:?}",
            member.protocol_error()
        );
        let s = member
            .secret(view.id)
            .unwrap_or_else(|| panic!("member {m} lacks the epoch-{} key", view.id));
        match &secret {
            None => secret = Some(s.clone()),
            Some(prev) => assert_eq!(prev, s, "member {m} diverges"),
        }
        assert!(
            member.completion(view.id).is_some(),
            "member {m} never stamped completion"
        );
    }
}

#[test]
fn join_injected_while_previous_join_rekeys() {
    for kind in ProtocolKind::all() {
        let mut world = world_with(kind, 8, 6);
        world.inject_join(6);
        // Let the membership install and the agreement *start*, then
        // inject the next join mid-protocol (the 512-bit agreement
        // takes tens of virtual ms; 6 ms lands inside it).
        let deadline = world.now() + Duration::from_millis(6);
        world.run_while(|w| w.now() < deadline);
        world.inject_join(7);
        world.run_until_quiescent();
        assert_eq!(world.view().unwrap().members.len(), 8, "{kind}");
        assert_converged(&world);
    }
}

#[test]
fn leave_injected_while_join_rekeys() {
    for kind in ProtocolKind::all() {
        let mut world = world_with(kind, 8, 7);
        world.inject_join(7);
        let deadline = world.now() + Duration::from_millis(8);
        world.run_while(|w| w.now() < deadline);
        world.inject_leave(2);
        world.run_until_quiescent();
        assert_eq!(world.view().unwrap().members.len(), 7, "{kind}");
        assert_converged(&world);
    }
}

#[test]
fn three_rapid_fire_changes() {
    for kind in ProtocolKind::all() {
        let mut world = world_with(kind, 10, 6);
        world.inject_join(6);
        let deadline = world.now() + Duration::from_millis(4);
        world.run_while(|w| w.now() < deadline);
        world.inject_leave(1);
        let deadline = world.now() + Duration::from_millis(4);
        world.run_while(|w| w.now() < deadline);
        world.inject_change(vec![7, 8], vec![]);
        world.run_until_quiescent();
        assert_eq!(world.view().unwrap().members.len(), 8, "{kind}");
        assert_converged(&world);
    }
}

#[test]
fn partition_during_merge_rekey() {
    for kind in ProtocolKind::all() {
        let mut world = world_with(kind, 12, 8);
        // A 2-member component merges in…
        for c in [8usize, 9] {
            world
                .client_mut::<SecureMember>(c)
                .preseed_component(&[8, 9], c, 0xfeed);
        }
        world.inject_change(vec![8, 9], vec![]);
        let deadline = world.now() + Duration::from_millis(6);
        world.run_while(|w| w.now() < deadline);
        // …and a partition hits before its key agreement completes.
        world.inject_change(vec![], vec![0, 3, 6]);
        world.run_until_quiescent();
        assert_eq!(world.view().unwrap().members.len(), 7, "{kind}");
        assert_converged(&world);
    }
}

#[test]
fn every_intermediate_epoch_completed_or_superseded() {
    // After a cascade, each member holds keys for every epoch whose
    // agreement finished before the next view arrived — and the final
    // epoch always completes.
    let mut world = world_with(ProtocolKind::Tgdh, 9, 5);
    world.inject_join(5);
    world.run_until_quiescent(); // epoch 2 completes
    world.inject_join(6);
    let deadline = world.now() + Duration::from_millis(5);
    world.run_while(|w| w.now() < deadline);
    world.inject_join(7);
    world.run_until_quiescent();
    let final_view = world.view().unwrap().clone();
    assert_eq!(final_view.members.len(), 8);
    for &m in &[0usize, 1, 2, 3, 4] {
        let member = world.client::<SecureMember>(m);
        assert!(member.secret(2).is_some(), "settled epoch 2 key");
        assert!(member.secret(final_view.id).is_some(), "final key");
    }
}
