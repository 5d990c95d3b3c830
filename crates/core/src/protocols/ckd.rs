//! Centralized Key Distribution (CKD), §4.2 of the paper.
//!
//! One member — the *controller*, always the oldest member — generates
//! the group secret and distributes it to every member encrypted under
//! a pairwise Diffie–Hellman key. The controller refreshes its own DH
//! contribution at every re-key (providing key freshness/PFS), so each
//! distribution costs the controller one exponentiation per member —
//! which is why the paper finds CKD's cost "comparable to GDH" and its
//! curves scale linearly with the group size.
//!
//! * **Join/merge**: the controller invites the new members with its
//!   fresh public value (one unicast for a join, one broadcast for a
//!   merge); each new member replies with its own public value over
//!   the cheap FIFO channel (the pairwise channels that keep CKD
//!   competitive on the WAN, §6.2.2); the controller then broadcasts
//!   the new secret encrypted per member.
//! * **Leave/partition**: the controller re-keys directly (one round,
//!   one broadcast). If the controller itself left, the new controller
//!   (the next-oldest member) must first re-establish pairwise
//!   channels with everyone — the expensive case the paper weights in
//!   (§6.1.2).

use std::collections::{BTreeMap, BTreeSet};

use gkap_bignum::{RandomSource, Ubig};
use gkap_crypto::aes::ctr_xor;
use gkap_crypto::kdf;
use gkap_crypto::Secret;
use gkap_gcs::ClientId;

use crate::protocols::component::{bootstrap_exponents, Component, Shape, FOREIGN_COMPONENT};
use crate::protocols::{GkaCtx, GkaError, GkaProtocol, ProtocolKind, ProtocolMsg, SendKind};
use crate::suite::CryptoSuite;

/// What a formed CKD component holds beyond exponents and secret:
/// every member's public value `g^x`.
pub(super) struct Formed {
    pubs: BTreeMap<ClientId, Ubig>,
}

/// Least width (bytes) of the encrypted group-secret blobs: what a
/// group of up to 512 bits has always put on the wire.
const MIN_BLOB_LEN: usize = 64;

/// Width (bytes) of the encrypted group-secret blobs: the secret is
/// drawn below the modulus, so the modulus's byte length always holds
/// it.
fn blob_len(suite: &CryptoSuite) -> usize {
    suite
        .group()
        .modulus()
        .bit_len()
        .div_ceil(8)
        .max(MIN_BLOB_LEN)
}

fn blob_nonce(epoch: u64, member: ClientId) -> [u8; 12] {
    use gkap_crypto::sha::{Digest, Sha256};
    let mut h = Sha256::new();
    h.update(b"ckd-nonce");
    h.update(&epoch.to_be_bytes());
    h.update(&(member as u64).to_be_bytes());
    let mut nonce = [0u8; 12];
    for (dst, src) in nonce.iter_mut().zip(h.finalize()) {
        *dst = src;
    }
    nonce
}

fn blob_key(pairwise: &Ubig) -> [u8; 16] {
    let mut key = [0u8; 16];
    for (dst, src) in key
        .iter_mut()
        .zip(kdf::derive(pairwise, b"ckd-pairwise", 16))
    {
        *dst = src;
    }
    key
}

/// CKD protocol engine for one member.
#[derive(Default)]
pub struct Ckd {
    /// The controller of the last membership this engine saw — the
    /// current view's once its `on_view` ran.
    controller: Option<ClientId>,
    /// My long-term-ish pairwise DH exponent (refreshed when invited).
    my_exp: Option<Ubig>,
    /// Member public values known to me (complete at the controller).
    pubs: BTreeMap<ClientId, Ubig>,
    /// Members whose responses the controller is still waiting for.
    awaiting: BTreeSet<ClientId>,
    /// The controller's current private exponent (fresh per re-key).
    controller_exp: Option<Ubig>,
    /// `g^{controller_exp}` (computed once per re-key).
    controller_pub: Option<Ubig>,
}

impl Ckd {
    /// Controller-side: distribute a fresh secret to all members,
    /// assuming `pubs` covers everyone.
    fn distribute(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        ctx.mark_round(ProtocolKind::Ckd, 3);
        let me = ctx.me();
        let x = self
            .controller_exp
            .clone()
            .ok_or(GkaError::MissingState("controller has no fresh exponent"))?;
        let controller_pub = self.controller_pub.clone().ok_or(GkaError::MissingState(
            "controller public value not derived",
        ))?;
        // Fresh group secret (a random value; not contributory).
        let secret = ctx.rng.next_ubig_in_range(ctx.suite.group().modulus());
        let secret_bytes = secret.to_be_bytes_padded(blob_len(ctx.suite));
        let members = ctx.members().to_vec();
        let mut blobs = Vec::with_capacity(members.len() - 1);
        for m in members {
            if m == me {
                continue;
            }
            let their_pub = self
                .pubs
                .get(&m)
                .ok_or(GkaError::Protocol("missing member public value"))?;
            let pairwise = ctx.exp(their_pub, &x);
            ctx.charge_symmetric();
            let ct = ctr_xor(
                &blob_key(&pairwise),
                &blob_nonce(ctx.epoch, m),
                0,
                secret_bytes.clone(),
            );
            blobs.push((m, ct));
        }
        ctx.send(
            SendKind::Multicast,
            &ProtocolMsg::CkdKeyDist {
                controller_pub,
                blobs,
            },
        );
        ctx.establish(secret, self.pubs.keys().copied().chain([me]))
            .then_some(())
            .ok_or(GkaError::STALE_KEY)
    }

    /// Controller-side: begin a re-key, inviting any members whose
    /// public values we do not have.
    fn start_rekey(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        invite: Vec<ClientId>,
    ) -> Result<(), GkaError> {
        ctx.mark_round(ProtocolKind::Ckd, 1);
        let x = ctx.fresh_exponent();
        let controller_pub = ctx.exp_g(&x);
        self.controller_pub = Some(controller_pub.clone());
        self.controller_exp = Some(x);
        self.awaiting = invite.iter().copied().collect();
        if self.awaiting.is_empty() {
            return self.distribute(ctx);
        }
        let msg = ProtocolMsg::CkdInvite {
            controller_pub,
            invited: invite.clone(),
        };
        if let [only] = invite.as_slice() {
            ctx.send(SendKind::UnicastFifo(*only), &msg);
        } else {
            ctx.send(SendKind::Multicast, &msg);
        }
        Ok(())
    }
}

impl GkaProtocol for Ckd {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Ckd
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let me = ctx.me();
        let was_controller = self.controller == Some(me);
        // The controller is the oldest member, or `None` for an empty
        // membership (a cascaded view can leave a member with no group).
        self.controller = ctx.members().first().copied();
        self.pubs.retain(|m, _| ctx.members().contains(m));
        let Some(controller) = self.controller else {
            return Ok(()); // empty view: nothing to key
        };
        if me != controller {
            return Ok(()); // wait for invite / key distribution
        }

        // I am the controller for this view. A member whose public
        // value I lack is new to me, whatever the previous view was.
        let became_controller = !was_controller;
        let invite: Vec<ClientId> = ctx
            .members()
            .iter()
            .copied()
            .filter(|&m| m != me)
            .filter(|m| became_controller || !self.pubs.contains_key(m))
            .collect();
        // A brand-new controller must re-establish every channel
        // (§4.2: "the new group controller must first establish secure
        // channels with all of remaining group members").
        if became_controller {
            self.pubs.clear();
        }
        self.start_rekey(ctx, invite)
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        match msg {
            ProtocolMsg::CkdInvite { invited, .. } => {
                if Some(sender) != self.controller {
                    return Err(GkaError::UnexpectedMessage("invite from a non-controller"));
                }
                if !invited.contains(&ctx.me()) {
                    return Ok(()); // broadcast invite addressed to others
                }
                // Refresh our pairwise contribution and respond over
                // the direct channel.
                ctx.mark_round(ProtocolKind::Ckd, 2);
                let x = ctx.fresh_exponent();
                let member_pub = ctx.exp_g(&x);
                self.my_exp = Some(x);
                ctx.send(
                    SendKind::UnicastFifo(sender),
                    &ProtocolMsg::CkdResponse { member_pub },
                );
                Ok(())
            }
            ProtocolMsg::CkdResponse { member_pub } => {
                if self.controller != Some(ctx.me()) {
                    return Err(GkaError::UnexpectedMessage("response at a non-controller"));
                }
                self.pubs.insert(sender, member_pub);
                self.awaiting.remove(&sender);
                if self.awaiting.is_empty() && !ctx.established() {
                    self.distribute(ctx)?;
                }
                Ok(())
            }
            ProtocolMsg::CkdKeyDist {
                controller_pub,
                blobs,
            } => {
                if Some(sender) != self.controller {
                    return Err(GkaError::UnexpectedMessage(
                        "key dist from a non-controller",
                    ));
                }
                let me = ctx.me();
                let x = self
                    .my_exp
                    .clone()
                    .ok_or(GkaError::MissingState("no pairwise exponent"))?;
                let pairwise = ctx.exp(&controller_pub, &x);
                let (_, ct) = blobs
                    .iter()
                    .find(|(m, _)| *m == me)
                    .ok_or(GkaError::Protocol("no blob for me"))?
                    .clone();
                ctx.charge_symmetric();
                let pt = ctr_xor(&blob_key(&pairwise), &blob_nonce(ctx.epoch, me), 0, ct);
                if pt.len() != blob_len(ctx.suite) {
                    return Err(GkaError::Protocol("blob length mismatch"));
                }
                let recipients = blobs.iter().map(|(m, _)| *m).chain([sender]);
                ctx.establish(Ubig::from_be_bytes(&pt), recipients)
                    .then_some(())
                    .ok_or(GkaError::STALE_KEY)
            }
            _ => Err(GkaError::UnexpectedMessage("not a CKD message")),
        }
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        let group = suite.group();
        let exps = bootstrap_exponents(suite, members, seed);
        // Each member's public value, raised once: the formed state
        // holds it, and the world learns its exponent.
        let produced: Vec<(Ubig, Secret<Ubig>)> = exps
            .iter()
            .map(|x| (group.exp_g(x.expose()), x.clone()))
            .collect();
        let pubs = members
            .iter()
            .copied()
            .zip(produced.iter().map(|(v, _)| v.clone()))
            .collect();
        // The bootstrap controller's exponent doubles as the seed for
        // the initial group secret (derived, deterministic).
        let secret = exps.first().map(|cx| {
            let cx = cx.expose();
            group.exp_g(&cx.modmul(cx, group.order()))
        });
        Component::new(members, exps, secret, Shape::Ckd(Formed { pubs }), produced)
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        let Shape::Ckd(formed) = component.shape() else {
            return Err(FOREIGN_COMPONENT);
        };
        let x = component.exponent_of(me)?.clone();
        self.pubs = formed.pubs.clone();
        self.controller = component.members().first().copied();
        self.controller_exp = (self.controller == Some(me)).then(|| x.clone());
        self.my_exp = Some(x);
        Ok(())
    }

    fn reset(&mut self) {
        *self = Ckd::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Loopback;

    #[test]
    fn bootstrap_agrees() {
        let members = [2, 7, 9];
        let mut lb = Loopback::new(ProtocolKind::Ckd, CryptoSuite::fast_zero(), &members);
        lb.bootstrap(&members, 5);
        lb.common_secret();
    }

    /// A controller public value of 1 makes every pairwise key 1, which
    /// anyone can compute: the receiver refuses the distribution.
    #[test]
    fn a_degenerate_controller_value_is_refused() {
        let suite = CryptoSuite::fast_zero();
        let ids = [0, 1, 2];
        let mut lb = Loopback::new(ProtocolKind::Ckd, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids, 5);
        // 2 leaves; 0, the controller, re-keys in one broadcast.
        lb.install_view_interrupted(vec![0, 1], vec![], vec![2], 0);
        let dist = ProtocolMsg::CkdKeyDist {
            controller_pub: Ubig::one(),
            blobs: vec![(1, vec![0; blob_len(&suite)])],
        };
        lb.forge(&suite, 0, 1, &dist);
        assert_eq!(
            lb.member(1).protocol_error(),
            Some(&GkaError::Protocol("invalid group element"))
        );
        assert_eq!(lb.member(1).secret(1), None);
    }

    /// A distribution whose blobs name a stale set — here member 1
    /// alone, while the view is [0, 1, 2] — is not the view's key.
    #[test]
    fn a_distribution_to_a_stale_set_is_refused() {
        let suite = CryptoSuite::fast_zero();
        let ids = [0, 1, 2, 3];
        let mut lb = Loopback::new(ProtocolKind::Ckd, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids, 5);
        lb.install_view_interrupted(vec![0, 1, 2], vec![], vec![3], 0);
        let dist = ProtocolMsg::CkdKeyDist {
            controller_pub: suite.group().generator().clone(),
            blobs: vec![(1, vec![0; blob_len(&suite)])],
        };
        lb.forge(&suite, 0, 1, &dist);
        assert_eq!(lb.member(1).protocol_error(), Some(&GkaError::STALE_KEY));
        assert_eq!(lb.member(1).secret(1), None);
    }

    #[test]
    fn blob_holds_the_modulus_and_never_shrinks() {
        use crate::cost::CostModel;
        use crate::suite::SigMode;
        use gkap_crypto::dh::DhGroup;
        let suite = |group| CryptoSuite::new(group, 512, CostModel::zero(), SigMode::Modeled);
        // Up to 512 bits the blob is what it always was on the wire.
        assert_eq!(blob_len(&suite(DhGroup::test_256())), 64);
        assert_eq!(blob_len(&suite(DhGroup::modp_512())), 64);
        assert_eq!(blob_len(&suite(DhGroup::modp_1024())), 128);
    }

    #[test]
    fn blob_primitives_roundtrip() {
        let pairwise = Ubig::from(123456u64);
        let key = blob_key(&pairwise);
        let nonce = blob_nonce(4, 2);
        let secret = Ubig::from(0xDEADBEEFu64).to_be_bytes_padded(MIN_BLOB_LEN);
        let ct = ctr_xor(&key, &nonce, 0, secret.clone());
        assert_ne!(ct, secret);
        assert_eq!(ctr_xor(&key, &nonce, 0, ct), secret);
        // Nonces are domain-separated per epoch and member.
        assert_ne!(blob_nonce(4, 2), blob_nonce(5, 2));
        assert_ne!(blob_nonce(4, 2), blob_nonce(4, 3));
    }
}
