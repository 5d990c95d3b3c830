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

use std::collections::BTreeMap;

use gkap_bignum::Ubig;
use gkap_gcs::{ClientId, View};

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
    /// the new members is implied by the membership lists).
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
    members: Vec<ClientId>,
    new_members: Vec<ClientId>,
    /// Collected factor-out values (new controller only).
    factor_outs: BTreeMap<ClientId, Ubig>,
    /// The broadcast token (kept by the new controller as its own
    /// partial key).
    broadcast_token: Option<Ubig>,
    /// Joiners to merge after a combined leave+join view finishes its
    /// leave phase (cascaded handling).
    pending_merge: Vec<ClientId>,
}

impl Gdh {
    /// Old members (current view minus the ones being merged in).
    fn old_members(&self) -> Vec<ClientId> {
        self.members
            .iter()
            .copied()
            .filter(|m| !self.new_members.contains(m))
            .collect()
    }

    fn start_leave(&mut self, ctx: &mut GkaCtx<'_, '_>, left: &[ClientId]) -> Result<(), GkaError> {
        for l in left {
            self.partial_keys.remove(l);
        }
        // The leave phase involves only the surviving *old* members;
        // any simultaneously joining members wait for the merge phase.
        let old_members: Vec<ClientId> = self
            .members
            .iter()
            .copied()
            .filter(|m| !self.pending_merge.contains(m))
            .collect();
        let controller = *old_members
            .last()
            .ok_or(GkaError::MissingState("no surviving members"))?;
        if ctx.me() != controller {
            self.stage = Stage::AwaitPartialKeys;
            return Ok(());
        }
        // Controller: refresh own contribution and rescale the list.
        ctx.mark_round("GDH", 1);
        let old_r = self
            .my_exp
            .clone()
            .ok_or(GkaError::MissingState("controller lacks a contribution"))?;
        if self.partial_keys.len() != old_members.len() {
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

    fn start_merge(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let me = ctx.me();
        let old = self.old_members();
        let old_controller = *old
            .last()
            .ok_or(GkaError::MissingState("merge without an existing group"))?;
        if me == old_controller {
            // Refresh contribution: token = K_me^{r'} = g^{∏ old}.
            ctx.mark_round("GDH", 1);
            let k_me = self
                .partial_keys
                .get(&me)
                .cloned()
                .ok_or(GkaError::MissingState("controller lacks its partial key"))?;
            let first_new = *self
                .new_members
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
        } else if self.new_members.contains(&me) {
            self.stage = Stage::AwaitChain;
        } else {
            self.stage = Stage::AwaitBroadcast;
        }
        Ok(())
    }

    /// A partial-key list's `key` is the group key unless joiners wait
    /// to merge in after a leave phase: then the merge starts, and its
    /// key will be the group's.
    fn finish(&mut self, ctx: &mut GkaCtx<'_, '_>, key: Ubig) -> Result<(), GkaError> {
        if self.pending_merge.is_empty() {
            ctx.establish(key);
            return Ok(());
        }
        self.new_members = std::mem::take(&mut self.pending_merge);
        self.start_merge(ctx)
    }

    /// The new controller (last new member) finishes the protocol once
    /// every factor-out has arrived.
    fn try_finish_collection(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let expected = self.members.len().saturating_sub(1);
        if self.factor_outs.len() < expected {
            return Ok(());
        }
        let token = self
            .broadcast_token
            .clone()
            .ok_or(GkaError::MissingState("missing broadcast token"))?;
        ctx.mark_round("GDH", 4);
        let fresh = ctx.fresh_exponent();
        let mut entries: Vec<(ClientId, Ubig)> = Vec::with_capacity(self.members.len());
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
        ctx.establish(key);
        Ok(())
    }
}

impl GkaProtocol for Gdh {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Gdh
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>, view: &View) -> Result<(), GkaError> {
        self.members = view.members.clone();
        self.factor_outs.clear();
        self.broadcast_token = None;
        self.merge_exp = None;
        let mut joined = view.joined.clone();

        // Initial formation without bootstrap: treat the first member
        // as a pre-existing group of one (IKA from scratch).
        if joined.len() == view.members.len() {
            let first = joined.remove(0);
            if ctx.me() == first && self.my_exp.is_none() {
                // The singleton's partial "list": K_first = g.
                let r = ctx.fresh_exponent();
                self.my_exp = Some(r);
                self.partial_keys
                    .insert(first, ctx.suite.group().generator().clone());
            }
            if joined.is_empty() {
                // A group of one: the secret is g^{r}.
                let r = self
                    .my_exp
                    .clone()
                    .ok_or(GkaError::MissingState("own exponent"))?;
                let g = ctx.suite.group().generator().clone();
                let key = ctx.exp(&g, &r);
                ctx.establish(key);
                self.stage = Stage::Idle;
                return Ok(());
            }
        }

        if !view.left.is_empty() {
            if joined.contains(&ctx.me()) {
                // A simultaneously joining member skips the old
                // group's leave phase and waits for the merge chain.
                self.new_members = joined;
                self.pending_merge.clear();
                self.stage = Stage::AwaitChain;
                return Ok(());
            }
            self.pending_merge = joined;
            self.new_members.clear();
            self.start_leave(ctx, &view.left)
        } else if !joined.is_empty() {
            self.new_members = joined;
            self.start_merge(ctx)
        } else {
            Ok(())
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
                let pos = self
                    .new_members
                    .iter()
                    .position(|&m| m == me)
                    .ok_or(GkaError::MissingState("chain token at a non-new member"))?;
                let last = self.new_members.len() - 1;
                if pos < last {
                    // Add our contribution and forward.
                    ctx.mark_round("GDH", 2);
                    let r = ctx.fresh_exponent();
                    let next_token = ctx.exp(&token, &r);
                    self.merge_exp = Some(r);
                    let next = self
                        .new_members
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
                    ctx.mark_round("GDH", 2);
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
                ctx.mark_round("GDH", 3);
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
        let mut partial_keys = BTreeMap::new();
        for ((&m, r), after_m) in members.iter().zip(&exps).zip(&after) {
            partial_keys.insert(m, group.exp_g(&before.modmul(after_m, q)));
            before = before.modmul(r.expose(), q);
        }
        let secret = group.exp_g(&product);
        Component::new(
            members,
            exps,
            Some(secret),
            Shape::Gdh(Formed { partial_keys }),
        )
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        let Shape::Gdh(formed) = component.shape() else {
            return Err(FOREIGN_COMPONENT);
        };
        self.my_exp = Some(component.exponent_of(me)?.clone());
        self.partial_keys = formed.partial_keys.clone();
        self.members = component.members().to_vec();
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
