//! Burmester–Desmedt (BD), §4.5 of the paper.
//!
//! BD is fully symmetric: no controllers or sponsors, and the same two
//! all-to-all broadcast rounds handle every membership change. Each
//! member performs only three full exponentiations — plus the "hidden"
//! cost the paper analyses in §5: assembling the key from the round-2
//! values takes Θ(n) small-exponent exponentiations, and the 2n
//! broadcasts are what make BD deteriorate on larger groups.
//!
//! The key is `K = g^{r_1 r_2 + r_2 r_3 + … + r_n r_1}`:
//!
//! 1. every member broadcasts `z_i = g^{r_i}`;
//! 2. every member broadcasts `X_i = (z_{i+1} / z_{i-1})^{r_i}`;
//! 3. every member computes
//!    `K = z_{i-1}^{n·r_i} · X_i^{n-1} · X_{i+1}^{n-2} ⋯ X_{i+n-2}`.

use std::collections::BTreeMap;

use gkap_bignum::Ubig;
use gkap_gcs::ClientId;

use crate::protocols::component::{bootstrap_exponents, Component, Shape, FOREIGN_COMPONENT};
use crate::protocols::{GkaCtx, GkaError, GkaProtocol, ProtocolKind, ProtocolMsg, SendKind};
use crate::suite::CryptoSuite;

/// BD protocol engine for one member.
#[derive(Default)]
pub struct Bd {
    my_r: Option<Ubig>,
    z: BTreeMap<ClientId, Ubig>,
    x: BTreeMap<ClientId, Ubig>,
    sent_round2: bool,
}

/// Where `m` stands in the ring of `members`.
fn position(members: &[ClientId], m: ClientId) -> Result<usize, GkaError> {
    members
        .iter()
        .position(|&x| x == m)
        .ok_or(GkaError::Protocol("member not in view"))
}

/// The member `offset` places from position `pos` around the ring of
/// `members`.
fn neighbour(members: &[ClientId], pos: usize, offset: isize) -> ClientId {
    let n = members.len().max(1) as isize;
    let idx = ((pos as isize + offset) % n + n) % n;
    members.get(idx as usize).copied().unwrap_or(0)
}

impl Bd {
    /// Round 2 once all z values are present.
    fn maybe_round2(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        if self.sent_round2 || self.z.len() < ctx.members().len() {
            return Ok(());
        }
        ctx.mark_round(ProtocolKind::Bd, 2);
        let me = ctx.me();
        let pos = position(ctx.members(), me)?;
        let next = neighbour(ctx.members(), pos, 1);
        let prev = neighbour(ctx.members(), pos, -1);
        let z_next = self
            .z
            .get(&next)
            .cloned()
            .ok_or(GkaError::MissingState("neighbour z value"))?;
        let z_prev = self
            .z
            .get(&prev)
            .cloned()
            .ok_or(GkaError::MissingState("neighbour z value"))?;
        // Group-element inversion of z_prev (extended Euclid, charged
        // as an inverse, not an exponentiation).
        let z_prev_inv = ctx
            .invert_element(&z_prev)
            .ok_or(GkaError::Protocol("non-invertible z value"))?;
        let ratio = ctx.modmul(&z_next, &z_prev_inv);
        let r = self
            .my_r
            .clone()
            .ok_or(GkaError::MissingState("no session random"))?;
        let x = ctx.exp(&ratio, &r);
        self.x.insert(me, x.clone());
        self.sent_round2 = true;
        ctx.send(SendKind::Multicast, &ProtocolMsg::BdRound2 { x });
        self.maybe_finish(ctx)
    }

    /// Key assembly once all X values are present.
    fn maybe_finish(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let n = ctx.members().len();
        if self.x.len() < n || self.z.len() < n || ctx.established() {
            return Ok(());
        }
        let members = ctx.members().to_vec();
        let me = ctx.me();
        let pos = position(&members, me)?;
        let prev = neighbour(&members, pos, -1);
        let r = self
            .my_r
            .clone()
            .ok_or(GkaError::MissingState("no session random"))?;
        let q = ctx.suite.group().order();
        // A = z_{i-1}^{n * r_i}: one full exponentiation.
        let e = r.modmul(&Ubig::from(n as u64), q);
        let z_prev = self
            .z
            .get(&prev)
            .cloned()
            .ok_or(GkaError::MissingState("neighbour z value"))?;
        let mut acc = ctx.exp(&z_prev, &e);
        // Multiply X_{i+j}^{n-1-j} for j = 0..n-1 (the last factor has
        // exponent 1 — a plain multiplication).
        for j in 0..(n.saturating_sub(1)) {
            let m = neighbour(&members, pos, j as isize);
            let exp = (n - 1 - j) as u64;
            let xv = self
                .x
                .get(&m)
                .cloned()
                .ok_or(GkaError::MissingState("member X value"))?;
            let term = if exp == 1 {
                xv
            } else {
                ctx.exp_small(&xv, exp)
            };
            acc = ctx.modmul(&acc, &term);
        }
        ctx.establish(acc, self.z.keys().copied())
            .then_some(())
            .ok_or(GkaError::STALE_KEY)
    }
}

impl GkaProtocol for Bd {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Bd
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        // Identical handling for every membership event.
        self.z.clear();
        self.x.clear();
        self.sent_round2 = false;
        ctx.mark_round(ProtocolKind::Bd, 1);
        let r = ctx.fresh_exponent();
        let z = ctx.exp_g(&r);
        self.my_r = Some(r.clone());
        self.z.insert(ctx.me(), z.clone());
        if ctx.members().len() == 1 {
            // Degenerate single-member group: K = g^{r·r}.
            let q = ctx.suite.group().order();
            let e = r.modmul(&r, q);
            let g = ctx.suite.group().generator().clone();
            let key = ctx.exp(&g, &e);
            ctx.establish(key, [ctx.me()]);
            return Ok(());
        }
        ctx.send(SendKind::Multicast, &ProtocolMsg::BdRound1 { z });
        Ok(())
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        match msg {
            ProtocolMsg::BdRound1 { z } => {
                if !ctx.members().contains(&sender) {
                    return Err(GkaError::UnexpectedMessage("BD z from non-member"));
                }
                self.z.insert(sender, z);
                self.maybe_round2(ctx)
            }
            ProtocolMsg::BdRound2 { x } => {
                if !ctx.members().contains(&sender) {
                    return Err(GkaError::UnexpectedMessage("BD X from non-member"));
                }
                self.x.insert(sender, x);
                self.maybe_finish(ctx)
            }
            _ => Err(GkaError::UnexpectedMessage("not a BD message")),
        }
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        // K = g^{sum r_i r_{i+1}} computed directly in the exponent.
        let q = suite.group().order();
        let rs = bootstrap_exponents(suite, members, seed);
        let mut e = Ubig::zero();
        // Cyclic neighbour pairs (r_i, r_{i+1 mod n}).
        for (a, b) in rs.iter().zip(rs.iter().cycle().skip(1)) {
            e = e.modadd(&a.expose().modmul(b.expose(), q), q);
        }
        let secret = suite.group().exp_g(&e);
        // The round-1 values of a rekey are fresh: nothing here is raised.
        Component::new(members, rs, Some(secret), Shape::Bd, Vec::new())
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        let Shape::Bd = component.shape() else {
            return Err(FOREIGN_COMPONENT);
        };
        self.my_r = Some(component.exponent_of(me)?.clone());
        Ok(())
    }

    fn reset(&mut self) {
        *self = Bd::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Loopback;

    #[test]
    fn bootstrap_agrees_across_members() {
        let members = [0, 1, 2, 3, 4];
        let mut lb = Loopback::new(ProtocolKind::Bd, CryptoSuite::fast_zero(), &members);
        lb.bootstrap(&members, 9);
        lb.common_secret();
    }

    #[test]
    fn neighbour_wraps_around() {
        let ring = [10, 20, 30];
        assert_eq!(neighbour(&ring, 0, -1), 30);
        assert_eq!(neighbour(&ring, 2, 1), 10);
        assert_eq!(neighbour(&ring, 1, 1), 30);
    }

    /// A peer's `z` of p − 1 is refused where it enters, before it can
    /// stand in for the peer's round-1 value.
    #[test]
    fn a_degenerate_z_is_refused() {
        let suite = CryptoSuite::fast_zero();
        let ids = [0, 1, 2];
        let mut lb = Loopback::new(ProtocolKind::Bd, CryptoSuite::fast_zero(), &ids);
        lb.install_view_interrupted(ids.to_vec(), ids.to_vec(), vec![], 0);
        let z = suite.group().modulus() - &Ubig::one();
        lb.forge(&suite, 1, 0, &ProtocolMsg::BdRound1 { z });
        assert_eq!(
            lb.member(0).protocol_error(),
            Some(&GkaError::Protocol("invalid group element"))
        );
        assert_eq!(
            lb.member(0).counts().multicast,
            1,
            "no round 2 from a bad z"
        );
    }
}
