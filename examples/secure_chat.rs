//! A secure group chat over the full stack: TGDH establishes the group
//! key, application messages travel as multicasts
//! encrypted by the per-epoch [`SecureSession`], and a [`ReplayGuard`]
//! rejects duplicated ciphertexts — the complete Secure Spread
//! experience, including a mid-conversation re-key when a member
//! leaves.
//!
//! Run with: `cargo run --release --example secure_chat`

use std::rc::Rc;

use secure_spread_repro::core::member::SecureMember;
use secure_spread_repro::core::session::{ReplayGuard, SecureSession, SessionError};
use secure_spread_repro::core::suite::CryptoSuite;
use secure_spread_repro::gcs::{testbed, SimWorld};
use secure_spread_repro::ProtocolKind;

fn main() {
    let suite = Rc::new(CryptoSuite::sim_512());
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..4u64 {
        world.add_client(Box::new(SecureMember::new(
            ProtocolKind::Tgdh,
            Rc::clone(&suite),
            i,
            Some(0xc4a7),
        )));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    let epoch1 = world.view().unwrap().id;
    let key1 = world
        .client::<SecureMember>(0)
        .secret(epoch1)
        .unwrap()
        .clone();
    println!("group of 4 keyed (epoch {epoch1})");

    // Chat under the epoch-1 key.
    let mut alice = SecureSession::new(&key1, epoch1);
    let bob = SecureSession::new(&key1, epoch1);
    let mut bob_guard = ReplayGuard::new();
    let lines = [
        "did everyone get the new key?",
        "yes — say something secret",
        "rendezvous at dawn",
    ];
    let mut last_wire = Vec::new();
    for line in lines {
        let wire = alice.seal(0, line.as_bytes());
        let plain = bob
            .open_checked(&mut bob_guard, 0, &wire)
            .expect("authentic");
        println!("alice -> group: {:?}", String::from_utf8_lossy(&plain));
        last_wire = wire;
    }

    // An attacker replays the last ciphertext: rejected.
    match bob.open_checked(&mut bob_guard, 0, &last_wire) {
        Err(SessionError::Replayed { seq, .. }) => {
            println!("replayed ciphertext (seq {seq}) rejected ✓")
        }
        other => panic!("replay slipped through: {other:?}"),
    }

    // Member 3 leaves; the group re-keys.
    world.inject_leave(3);
    world.run_until_quiescent();
    let epoch2 = world.view().unwrap().id;
    let key2 = world
        .client::<SecureMember>(0)
        .secret(epoch2)
        .unwrap()
        .clone();
    assert_ne!(key1, key2);
    println!("member 3 left; group re-keyed (epoch {epoch2})");

    // The departed member's old key no longer opens new traffic…
    let mut carol = SecureSession::new(&key2, epoch2);
    let wire = carol.seal(1, b"post-leave plans");
    let eve = SecureSession::new(&key1, epoch1); // what member 3 still holds
    assert!(eve.open(1, &wire).is_err());
    println!("departed member cannot read epoch-{epoch2} traffic ✓");

    // …while remaining members chat on.
    let dave = SecureSession::new(&key2, epoch2);
    let plain = dave.open(1, &wire).expect("current members decrypt");
    println!("bob -> group: {:?}", String::from_utf8_lossy(&plain));
}
