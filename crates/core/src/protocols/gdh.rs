//! Group Diffie–Hellman (Cliques GDH IKA.3), §4.1 of the paper.
//!
//! The group secret is `g^{r_1 r_2 … r_n}`. It is never transmitted;
//! instead the *group controller* (always the most recent member)
//! builds and broadcasts a list of partial keys
//! `K_j = g^{∏_{i≠j} r_i}`, from which each member computes the secret
//! with one exponentiation.
//!
//! * **Merge** (join is the 1-member case): the current controller
//!   refreshes its contribution and unicasts the accumulated token
//!   through the chain of new members; the last new member broadcasts
//!   it; every member factors its own contribution out and unicasts
//!   the result back (Agreed-ordered — the round the paper identifies
//!   as GDH's WAN bottleneck, §6.2.2); the new controller exponentiates
//!   each factor-out with its fresh contribution and broadcasts the
//!   partial-key list.
//! * **Leave / partition**: the controller refreshes its contribution,
//!   rescales every remaining partial key by `r'/r` and broadcasts the
//!   reduced list — one round, one message.
//!
//! Old and new members are read against the membership this member
//! last keyed ([`GkaCtx::keyed_members`]), not against the previous
//! view: after a view superseded an agreement, the old group is still
//! the one that holds a key. The leave phase runs when the cached
//! partial-key list names a member outside the old group, or when
//! nobody is new, even on a view that removes nobody (a refresh).

use std::collections::BTreeMap;

use gkap_bignum::Ubig;
use gkap_crypto::Secret;
use gkap_gcs::ClientId;

use crate::protocols::component::{bootstrap_exponents, Component, Shape, FOREIGN_COMPONENT};
use crate::protocols::{GkaCtx, GkaError, GkaProtocol, ProtocolKind, ProtocolMsg, SendKind};
use crate::suite::CryptoSuite;

/// What a formed GDH component holds beyond exponents and secret: the
/// controller's last partial-key list (public — it is broadcast).
pub(super) struct Formed {
    partial_keys: BTreeMap<ClientId, Ubig>,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
enum Stage {
    #[default]
    Idle,
    /// A new member waiting for the chain token (its position among
    /// the new members is implied by the view and the keyed
    /// membership).
    AwaitChain,
    /// Waiting for the last new member's token broadcast.
    AwaitBroadcast,
    /// The new controller collecting factor-out values.
    AwaitFactorOuts,
    /// Waiting for the final partial-key list.
    AwaitPartialKeys,
}

/// GDH IKA.3 protocol engine for one member.
#[derive(Default)]
pub struct Gdh {
    /// This member's secret contribution `r`: the one its cached
    /// partial-key list was built with.
    my_exp: Option<Ubig>,
    /// The fresh contribution this member put into a merge still in
    /// flight (the old controller's refresh, a chain member's share).
    /// It becomes `my_exp` only with the partial-key list built with
    /// it; a view that supersedes the merge drops it, so a leave
    /// rescales the old list by the `r` that list holds.
    merge_exp: Option<Ubig>,
    /// Latest partial-key list `member -> g^{∏_{i≠member} r_i}`
    /// (every member caches the controller's last broadcast so any
    /// member can take over as controller).
    partial_keys: BTreeMap<ClientId, Ubig>,
    stage: Stage,
    /// Collected factor-out values (new controller only).
    factor_outs: BTreeMap<ClientId, Ubig>,
    /// The broadcast token (kept by the new controller as its own
    /// partial key).
    broadcast_token: Option<Ubig>,
}

/// The view's members split into the old group, the members this
/// member last keyed with, and the new ones, each in view order. When
/// nobody in the view is keyed yet (IKA from scratch), the first member
/// stands for the old group.
fn split(ctx: &GkaCtx<'_, '_>) -> (Vec<ClientId>, Vec<ClientId>) {
    let keyed = ctx.keyed_members();
    let members = ctx.members().iter().copied();
    let (mut old, mut new): (Vec<_>, Vec<_>) = members.partition(|m| keyed.contains(m));
    if old.is_empty() && !new.is_empty() {
        old.push(new.remove(0));
    }
    (old, new)
}

impl Gdh {
    fn start_leave(&mut self, ctx: &mut GkaCtx<'_, '_>, old: &[ClientId]) -> Result<(), GkaError> {
        // Only the old members re-key: the leavers' partial keys go,
        // and a new member has none yet.
        self.partial_keys.retain(|m, _| old.contains(m));
        let controller = *old
            .last()
            .ok_or(GkaError::MissingState("no surviving members"))?;
        if ctx.me() != controller {
            self.stage = Stage::AwaitPartialKeys;
            return Ok(());
        }
        // Controller: refresh own contribution and rescale the list.
        ctx.mark_round(ProtocolKind::Gdh, 1);
        let old_r = self
            .my_exp
            .clone()
            .ok_or(GkaError::MissingState("controller lacks a contribution"))?;
        if self.partial_keys.len() != old.len() {
            return Err(GkaError::MissingState(
                "controller lacks the partial-key list",
            ));
        }
        let fresh = ctx.fresh_exponent();
        let q = ctx.suite.group().order().clone();
        let delta = ctx.invert_exponent(&old_r).modmul(&fresh, &q);
        let me = ctx.me();
        let mut new_list = BTreeMap::new();
        for (&m, k) in &self.partial_keys {
            if m == me {
                // K_me does not contain r_me; it is unaffected.
                new_list.insert(m, k.clone());
            } else {
                new_list.insert(m, ctx.exp(k, &delta));
            }
        }
        self.my_exp = Some(fresh.clone());
        self.partial_keys = new_list;
        let k_me = self
            .partial_keys
            .get(&me)
            .cloned()
            .ok_or(GkaError::MissingState("own partial key"))?;
        let key = ctx.exp(&k_me, &fresh);
        let entries: Vec<(ClientId, Ubig)> = self
            .partial_keys
            .iter()
            .map(|(&m, k)| (m, k.clone()))
            .collect();
        ctx.send(
            SendKind::Multicast,
            &ProtocolMsg::GdhPartialKeys { entries },
        );
        self.stage = Stage::Idle;
        self.finish(ctx, key)
    }

    fn start_merge(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        old: &[ClientId],
        new: &[ClientId],
    ) -> Result<(), GkaError> {
        let me = ctx.me();
        let old_controller = *old
            .last()
            .ok_or(GkaError::MissingState("merge without an existing group"))?;
        if me == old_controller {
            // Refresh contribution: token = K_me^{r'} = g^{∏ old}.
            ctx.mark_round(ProtocolKind::Gdh, 1);
            let k_me = self
                .partial_keys
                .get(&me)
                .cloned()
                .ok_or(GkaError::MissingState("controller lacks its partial key"))?;
            let first_new = *new
                .first()
                .ok_or(GkaError::MissingState("merge without new members"))?;
            let fresh = ctx.fresh_exponent();
            let token = ctx.exp(&k_me, &fresh);
            self.merge_exp = Some(fresh);
            ctx.send(
                SendKind::UnicastAgreed(first_new),
                &ProtocolMsg::GdhChainToken { token },
            );
            self.stage = Stage::AwaitBroadcast;
        } else if new.contains(&me) {
            self.stage = Stage::AwaitChain;
        } else {
            self.stage = Stage::AwaitBroadcast;
        }
        Ok(())
    }

    /// A partial-key list's `key` is the group key exactly when the
    /// list's members are the view. A leave phase's list covers only
    /// the old members: then the merge of the new ones starts, and its
    /// key will be the group's.
    fn finish(&mut self, ctx: &mut GkaCtx<'_, '_>, key: Ubig) -> Result<(), GkaError> {
        if ctx.establish(key, self.partial_keys.keys().copied()) {
            return Ok(());
        }
        let (old, new) = split(ctx);
        self.start_merge(ctx, &old, &new)
    }

    /// The new controller (last new member) finishes the protocol once
    /// every factor-out has arrived.
    fn try_finish_collection(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let expected = ctx.members().len().saturating_sub(1);
        if self.factor_outs.len() < expected {
            return Ok(());
        }
        let token = self
            .broadcast_token
            .clone()
            .ok_or(GkaError::MissingState("missing broadcast token"))?;
        ctx.mark_round(ProtocolKind::Gdh, 4);
        let fresh = ctx.fresh_exponent();
        let mut entries: Vec<(ClientId, Ubig)> = Vec::with_capacity(expected + 1);
        for (&m, f) in &self.factor_outs {
            entries.push((m, ctx.exp(f, &fresh)));
        }
        // The controller's own partial key is the token itself
        // (g^{∏ everyone else}).
        entries.push((ctx.me(), token.clone()));
        entries.sort_by_key(|(m, _)| *m);
        self.partial_keys = entries.iter().cloned().collect();
        let key = ctx.exp(&token, &fresh);
        self.my_exp = Some(fresh);
        ctx.send(
            SendKind::Multicast,
            &ProtocolMsg::GdhPartialKeys { entries },
        );
        self.factor_outs.clear();
        self.stage = Stage::Idle;
        ctx.establish(key, self.partial_keys.keys().copied())
            .then_some(())
            .ok_or(GkaError::STALE_KEY)
    }
}

impl GkaProtocol for Gdh {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Gdh
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        self.factor_outs.clear();
        self.broadcast_token = None;
        self.merge_exp = None;
        let me = ctx.me();
        let (old, new) = split(ctx);
        if new.contains(&me) {
            // A new member waits for the merge chain; a leave phase of
            // the old group is not addressed to it.
            self.stage = Stage::AwaitChain;
            return Ok(());
        }
        if old == [me] && self.my_exp.is_none() {
            // IKA from scratch: this member is a group of one, whose
            // partial "list" is K_me = g.
            self.my_exp = Some(ctx.fresh_exponent());
            let g = ctx.suite.group().generator().clone();
            self.partial_keys.insert(me, g);
        }
        // A list naming a leaver is re-keyed without it first.
        let names_a_leaver = self.partial_keys.keys().any(|m| !old.contains(m));
        if names_a_leaver || new.is_empty() {
            self.start_leave(ctx, &old)
        } else {
            self.start_merge(ctx, &old, &new)
        }
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        match msg {
            ProtocolMsg::GdhChainToken { token } => {
                if self.stage != Stage::AwaitChain {
                    return Err(GkaError::UnexpectedMessage("GDH chain token"));
                }
                let me = ctx.me();
                let (_, new) = split(ctx);
                let pos = new
                    .iter()
                    .position(|&m| m == me)
                    .ok_or(GkaError::MissingState("chain token at a non-new member"))?;
                let last = new.len() - 1;
                if pos < last {
                    // Add our contribution and forward.
                    ctx.mark_round(ProtocolKind::Gdh, 2);
                    let r = ctx.fresh_exponent();
                    let next_token = ctx.exp(&token, &r);
                    self.merge_exp = Some(r);
                    let next = new
                        .get(pos + 1)
                        .copied()
                        .ok_or(GkaError::MissingState("next member in the chain"))?;
                    ctx.send(
                        SendKind::UnicastAgreed(next),
                        &ProtocolMsg::GdhChainToken { token: next_token },
                    );
                    self.stage = Stage::AwaitBroadcast;
                } else {
                    // We are the new controller: broadcast as received.
                    ctx.mark_round(ProtocolKind::Gdh, 2);
                    self.broadcast_token = Some(token.clone());
                    ctx.send(
                        SendKind::Multicast,
                        &ProtocolMsg::GdhBroadcastToken { token },
                    );
                    self.stage = Stage::AwaitFactorOuts;
                }
                let _ = sender;
                Ok(())
            }
            ProtocolMsg::GdhBroadcastToken { token } => {
                if self.stage != Stage::AwaitBroadcast {
                    return Err(GkaError::UnexpectedMessage("GDH token broadcast"));
                }
                let r = self
                    .merge_exp
                    .as_ref()
                    .or(self.my_exp.as_ref())
                    .cloned()
                    .ok_or(GkaError::MissingState("no contribution to factor out"))?;
                ctx.mark_round(ProtocolKind::Gdh, 3);
                let r_inv = ctx.invert_exponent(&r);
                let value = ctx.exp(&token, &r_inv);
                ctx.send(
                    SendKind::UnicastAgreed(sender),
                    &ProtocolMsg::GdhFactorOut { value },
                );
                self.stage = Stage::AwaitPartialKeys;
                Ok(())
            }
            ProtocolMsg::GdhFactorOut { value } => {
                if self.stage != Stage::AwaitFactorOuts {
                    return Err(GkaError::UnexpectedMessage("GDH factor-out"));
                }
                self.factor_outs.insert(sender, value);
                self.try_finish_collection(ctx)
            }
            ProtocolMsg::GdhPartialKeys { entries } => {
                if self.stage == Stage::AwaitChain {
                    // The old group's leave-phase re-key during a
                    // combined leave+join: not addressed to us.
                    return Ok(());
                }
                if self.stage != Stage::AwaitPartialKeys {
                    return Err(GkaError::UnexpectedMessage("GDH partial keys"));
                }
                self.partial_keys = entries.into_iter().collect();
                if let Some(fresh) = self.merge_exp.take() {
                    self.my_exp = Some(fresh);
                }
                let me = ctx.me();
                let k_me = self
                    .partial_keys
                    .get(&me)
                    .cloned()
                    .ok_or(GkaError::MissingState("partial-key list misses me"))?;
                let r = self
                    .my_exp
                    .clone()
                    .ok_or(GkaError::MissingState("no contribution"))?;
                let key = ctx.exp(&k_me, &r);
                self.stage = Stage::Idle;
                self.finish(ctx, key)
            }
            _ => Err(GkaError::UnexpectedMessage("not a GDH message")),
        }
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        let group = suite.group();
        let q = group.order();
        let exps = bootstrap_exponents(suite, members, seed);
        // K_m = g^{e_m} with e_m = ∏_{j≠m} r_j (mod q), assembled from
        // the products of the exponents after m and before m.
        let mut after = Vec::with_capacity(exps.len());
        let mut product = Ubig::one();
        for r in exps.iter().rev() {
            after.push(product.clone());
            product = product.modmul(r.expose(), q);
        }
        after.reverse();
        let mut before = Ubig::one();
        let (mut partial_keys, mut produced) = (BTreeMap::new(), Vec::new());
        for ((&m, r), after_m) in members.iter().zip(&exps).zip(&after) {
            let e_m = Secret::new(before.modmul(after_m, q));
            let k_m = group.exp_g(e_m.expose());
            partial_keys.insert(m, k_m.clone());
            produced.push((k_m, e_m));
            before = before.modmul(r.expose(), q);
        }
        let secret = group.exp_g(&product);
        let shape = Shape::Gdh(Formed { partial_keys });
        Component::new(members, exps, Some(secret), shape, produced)
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        let Shape::Gdh(formed) = component.shape() else {
            return Err(FOREIGN_COMPONENT);
        };
        self.my_exp = Some(component.exponent_of(me)?.clone());
        self.partial_keys = formed.partial_keys.clone();
        self.stage = Stage::Idle;
        Ok(())
    }

    fn reset(&mut self) {
        *self = Gdh::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Loopback;

    #[test]
    fn bootstrap_agrees_across_members() {
        let members = [0, 1, 2, 3];
        let secret = |seed| {
            let mut lb = Loopback::new(ProtocolKind::Gdh, CryptoSuite::fast_zero(), &members);
            lb.bootstrap(&members, seed);
            lb.common_secret()
        };
        assert_ne!(secret(42), secret(43), "different seed, different key");
    }

    #[test]
    fn bootstrap_partial_keys_consistent() {
        // K_j^{r_j} == group secret for every j.
        let suite = CryptoSuite::fast_zero();
        let members = vec![5, 9, 11];
        let component = Gdh::default().component(&suite, &members, 1);
        let secret = component.secret().expect("a formed key");
        let mut p = Gdh::default();
        p.adopt(&component, 5).unwrap();
        for &m in &members {
            let r = crate::protocols::bootstrap_exponent(&suite, 1, m);
            let k = p.partial_keys.get(&m).unwrap();
            assert_eq!(&suite.group().exp(k, &r), secret.expose(), "member {m}");
        }
    }

    /// A controller that sends a partial key of 1 would hand the
    /// receiver the key 1: the receiver refuses the list instead.
    #[test]
    fn a_degenerate_partial_key_is_refused() {
        let suite = CryptoSuite::fast_zero();
        let mut lb = Loopback::new(ProtocolKind::Gdh, CryptoSuite::fast_zero(), &[0, 1, 2]);
        lb.bootstrap(&[0, 1, 2], 7);
        // 2 leaves; 1, the controller, has re-keyed, 0 waits for the list.
        lb.install_view_interrupted(vec![0, 1], vec![], vec![2], 0);
        let entries = vec![(0, Ubig::one()), (1, Ubig::from(4u64))];
        lb.forge(&suite, 1, 0, &ProtocolMsg::GdhPartialKeys { entries });
        assert_eq!(
            lb.member(0).protocol_error(),
            Some(&GkaError::Protocol("invalid group element"))
        );
        assert_eq!(lb.member(0).secret(1), None);
    }
}
