//! STR — the "skinny tree" protocol, §4.4 of the paper.
//!
//! STR is TGDH with a maximally imbalanced tree: member `M_1` sits at
//! the bottom and each further member joins one level higher. Writing
//! `k_i` for the key of the internal node covering members `1..=i`
//! (`k_1` is `M_1`'s session random):
//!
//! ```text
//! k_i = (g^{r_i})^{k_{i-1}} = (g^{k_{i-1}})^{r_i}
//! ```
//!
//! the group secret is `k_n`. Member `M_p` computes `k_p` from the
//! blinded internal key below it and then chains upward using the leaf
//! blinded keys — so cost falls with height: the top member pays O(1),
//! the bottom pays O(n).
//!
//! * **Join/merge** (two rounds, three messages): each component's top
//!   member refreshes its session random and broadcasts its tree; the
//!   components stack — larger at the bottom; the top member of the
//!   bottom component computes the new internal keys and blinded keys
//!   and broadcasts. Join costs O(1) exponentiations per member.
//! * **Leave/partition** (one round, one message): the member just
//!   below the lowest leaver becomes the sponsor, refreshes its
//!   random, recomputes keys and blinded keys up the chain, and
//!   broadcasts — everyone above the change recomputes its tail of
//!   the chain, giving the linear (and steeper than GDH/CKD) leave
//!   cost visible in Figure 12.

use std::collections::{BTreeMap, HashMap};

use gkap_bignum::Ubig;
use gkap_crypto::sha::{Digest, Sha256};
use gkap_crypto::Secret;
use gkap_gcs::{ClientId, View};

use crate::protocols::component::{bootstrap_exponents, Component, Shape, FOREIGN_COMPONENT};
use crate::protocols::{GkaCtx, GkaError, GkaProtocol, ProtocolKind, ProtocolMsg, SendKind};
use crate::suite::CryptoSuite;

/// What a formed STR component holds beyond exponents and secret.
pub(super) struct Formed {
    chain: Chain,
    /// `k_{i+1}` for every level, with the fingerprint of the chain
    /// prefix it is cached under.
    keys: Vec<([u8; 32], Secret<Ubig>)>,
}

/// A component (or full) skinny tree as exchanged on the wire.
#[derive(Clone, Debug, PartialEq)]
struct Chain {
    /// Members from the bottom upward.
    order: Vec<ClientId>,
    /// Blinded session randoms, aligned with `order`.
    leaf_bkeys: Vec<Option<Ubig>>,
    /// Blinded internal keys: `internal_bkeys[i]` blinds `k_{i+1}` —
    /// the key of the node covering `order[0..=i]`. Index 0 is the
    /// bottom leaf's "internal" slot and stays `None`.
    internal_bkeys: Vec<Option<Ubig>>,
}

impl Chain {
    fn new() -> Self {
        Chain {
            order: Vec::new(),
            leaf_bkeys: Vec::new(),
            internal_bkeys: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn position(&self, m: ClientId) -> Option<usize> {
        self.order.iter().position(|&x| x == m)
    }

    /// Fingerprint of the chain prefix `0..=i` (content identity for
    /// the key `k_{i+1}`).
    fn prefix_fingerprint(&self, i: usize) -> [u8; 32] {
        let mut h = Sha256::new();
        for j in 0..=i {
            h.update(&(self.order[j] as u64).to_be_bytes());
            match &self.leaf_bkeys[j] {
                Some(b) => h.update(&b.to_be_bytes()),
                None => h.update(b"?"),
            }
        }
        let mut fp = [0u8; 32];
        for (dst, src) in fp.iter_mut().zip(h.finalize()) {
            *dst = src;
        }
        fp
    }

    fn remove_members(&mut self, leaving: &[ClientId]) -> usize {
        let lowest = self
            .order
            .iter()
            .position(|m| leaving.contains(m))
            .unwrap_or(self.order.len());
        let keep: Vec<usize> = (0..self.order.len())
            .filter(|&i| !leaving.contains(&self.order[i]))
            .collect();
        self.order = keep.iter().map(|&i| self.order[i]).collect();
        self.leaf_bkeys = keep.iter().map(|&i| self.leaf_bkeys[i].clone()).collect();
        let mut internals = vec![None; self.order.len()];
        // Prefixes strictly below the first removal are unaffected.
        for (new_i, &old_i) in keep.iter().enumerate() {
            if old_i < lowest && new_i < internals.len() {
                internals[new_i] = self.internal_bkeys.get(old_i).cloned().flatten();
            }
        }
        self.internal_bkeys = internals;
        lowest
    }
}

/// STR protocol engine for one member.
pub struct Str {
    me: Option<ClientId>,
    view_members: Vec<ClientId>,
    my_r: Option<Ubig>,
    chain: Chain,
    /// `k_{i+1}` values this member knows (aligned with `chain.order`).
    keys: Vec<Option<Ubig>>,
    /// Whether this member publishes blinded keys this event.
    publisher: bool,
    /// Chain broadcasts this member has sent for the current
    /// membership event (telemetry round numbering).
    rounds_started: u32,
    components: BTreeMap<Vec<ClientId>, Chain>,
    merging: bool,
    cache: HashMap<[u8; 32], Ubig>,
    secret: Option<Secret<Ubig>>,
}

impl std::fmt::Debug for Str {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Str")
            .field("me", &self.me)
            .field("secret", &"<redacted>")
            .finish_non_exhaustive()
    }
}

impl Str {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Str {
            me: None,
            view_members: Vec::new(),
            my_r: None,
            chain: Chain::new(),
            keys: Vec::new(),
            publisher: false,
            rounds_started: 0,
            components: BTreeMap::new(),
            merging: false,
            cache: HashMap::new(),
            secret: None,
        }
    }

    fn wire_msg(&self) -> ProtocolMsg {
        ProtocolMsg::StrTree {
            members: self.chain.order.clone(),
            leaf_bkeys: self.chain.leaf_bkeys.clone(),
            internal_bkeys: self.chain.internal_bkeys.clone(),
        }
    }

    fn refresh_my_leaf(&mut self, ctx: &mut GkaCtx<'_>) -> Result<(), GkaError> {
        let me = ctx.me();
        let r = ctx.fresh_exponent();
        let b = ctx.exp_g(&r);
        let p = self
            .chain
            .position(me)
            .ok_or(GkaError::MissingState("own position in the STR chain"))?;
        self.chain.leaf_bkeys[p] = Some(b);
        // Everything at or above our level is stale.
        for i in p..self.chain.len() {
            self.keys[i] = None;
            self.chain.internal_bkeys[i] = None;
        }
        self.my_r = Some(r);
        Ok(())
    }

    /// Recomputes as much of the key chain as possible; publishes
    /// blinded keys if `publisher`. Returns `true` if something new
    /// was published.
    fn progress(&mut self, ctx: &mut GkaCtx<'_>) -> Result<bool, GkaError> {
        let me = ctx.me();
        let n = self.chain.len();
        let p = self
            .chain
            .position(me)
            .ok_or(GkaError::MissingState("not in the STR chain"))?;
        let r = self
            .my_r
            .clone()
            .ok_or(GkaError::MissingState("no session random"))?;
        let mut published = false;

        // Our leaf's blinded key is ours alone to regenerate; a
        // cascaded view change can cut the round that would have
        // circulated it, and an assembled merge chain then lacks it
        // everywhere else. Restoring it is news the group needs:
        // force a broadcast.
        if self.chain.leaf_bkeys[p].is_none() {
            let b = ctx.exp_g(&r);
            self.chain.leaf_bkeys[p] = Some(b);
            published = true;
        }

        // Dynamic sponsorship — the STR analog of TGDH's
        // lowest-incomplete rule: the member sitting at the lowest
        // level whose internal blinded key is missing takes over
        // publication. After a cascaded cut the statically designated
        // sponsor can sit *above* the wound, blocked on exactly those
        // keys. (In clean runs this resolves to the static sponsor.)
        if !self.publisher {
            if let Some(w) =
                (1..n.saturating_sub(1)).find(|&i| self.chain.internal_bkeys[i].is_none())
            {
                if self.chain.order[w] == me {
                    self.publisher = true;
                }
            }
        }

        // Establish k at our own level.
        if self.keys[p].is_none() {
            if p == 0 {
                self.keys[0] = Some(r.clone());
            } else {
                let fp = self.chain.prefix_fingerprint(p);
                // The node below position 1 is the bottom *leaf*, so
                // its blinded key is the leaf blinded key.
                let b_below = if p == 1 {
                    self.chain.leaf_bkeys[0].clone()
                } else {
                    self.chain.internal_bkeys[p - 1].clone()
                };
                if let Some(k) = self.cache.get(&fp) {
                    self.keys[p] = Some(k.clone());
                } else if let Some(b_below) = b_below {
                    let k = ctx.exp(&b_below, &r);
                    self.cache.insert(fp, k.clone());
                    self.keys[p] = Some(k);
                } else {
                    return Ok(false); // blocked until the sponsor publishes
                }
            }
        }

        // Chain upward.
        for i in (p + 1)..n {
            if self.keys[i].is_none() {
                let fp = self.chain.prefix_fingerprint(i);
                if let Some(k) = self.cache.get(&fp) {
                    self.keys[i] = Some(k.clone());
                } else {
                    let Some(bleaf) = self.chain.leaf_bkeys[i].clone() else {
                        return Ok(published); // blocked
                    };
                    let Some(below) = self.keys[i - 1].clone() else {
                        return Ok(published); // blocked lower down
                    };
                    let k = ctx.exp(&bleaf, &below);
                    self.cache.insert(fp, k.clone());
                    self.keys[i] = Some(k);
                }
            }
            if self.publisher && self.chain.internal_bkeys[i].is_none() && i < n - 1 {
                // Blind every internal key except the root ("up to the
                // intermediate node just below the root", §4.4).
                if let Some(k) = self.keys[i].clone() {
                    self.chain.internal_bkeys[i] = Some(ctx.exp_g(&k));
                    published = true;
                }
            }
        }
        // The publisher also blinds its own-level node (needed by the
        // member directly above); position 0's "node" is its leaf,
        // whose blinded key is already public.
        if self.publisher && p > 0 && p < n - 1 && self.chain.internal_bkeys[p].is_none() {
            if let Some(k) = self.keys[p].clone() {
                self.chain.internal_bkeys[p] = Some(ctx.exp_g(&k));
                published = true;
            }
        }

        // The top key is the group secret — but only once the chain
        // covers the whole view (not during merge round 1, when it is
        // still just our component).
        if !self.merging {
            if let Some(k) = self.keys[n - 1].clone() {
                self.secret = Some(Secret::new(k));
            }
        }
        Ok(published)
    }

    fn try_assemble(&mut self, ctx: &mut GkaCtx<'_>) -> Result<(), GkaError> {
        if !self.merging {
            return Ok(());
        }
        let mut covered: Vec<ClientId> = self.components.keys().flatten().copied().collect();
        covered.sort_unstable();
        let mut expected = self.view_members.clone();
        expected.sort_unstable();
        if covered != expected {
            return Ok(());
        }
        let mut comps: Vec<Chain> = self.components.values().cloned().collect();
        comps.sort_by_key(|c| {
            (
                std::cmp::Reverse(c.len()),
                c.order.iter().min().copied().unwrap_or(ClientId::MAX),
            )
        });
        // Stack: largest at the bottom, the rest on top (their internal
        // structure dissolves into individual levels).
        let bottom = comps.remove(0);
        let bottom_len = bottom.len();
        let mut chain = bottom;
        for c in comps {
            for (i, &m) in c.order.iter().enumerate() {
                chain.order.push(m);
                chain.leaf_bkeys.push(c.leaf_bkeys[i].clone());
                chain.internal_bkeys.push(None);
            }
        }
        self.chain = chain;
        self.keys = vec![None; self.chain.len()];
        self.merging = false;
        self.components.clear();
        // Round-2 sponsor: top member of the bottom (largest) component.
        // (Keep any publisher role acquired earlier — e.g. the leave
        // sponsor of a combined leave+join.)
        let Some(&sponsor) = self.chain.order.get(bottom_len.wrapping_sub(1)) else {
            return Err(GkaError::MissingState("empty merged STR chain"));
        };
        self.publisher = self.publisher || ctx.me() == sponsor;
        if self.progress(ctx)? {
            self.broadcast(ctx);
        }
        Ok(())
    }

    fn broadcast(&mut self, ctx: &mut GkaCtx<'_>) {
        // Each chain broadcast is one round of the event's re-keying.
        self.rounds_started += 1;
        ctx.mark_round("STR", self.rounds_started);
        let msg = self.wire_msg();
        ctx.send(SendKind::Multicast, &msg);
    }

    fn adopt(&mut self, other: &Chain) -> Result<(), GkaError> {
        if other.order != self.chain.order {
            return Err(GkaError::Protocol("STR chain order divergence"));
        }
        for i in 0..self.chain.len() {
            if self.chain.leaf_bkeys[i].is_none() {
                self.chain.leaf_bkeys[i] = other.leaf_bkeys[i].clone();
            }
            if self.chain.internal_bkeys[i].is_none() {
                self.chain.internal_bkeys[i] = other.internal_bkeys[i].clone();
            }
        }
        Ok(())
    }
}

impl Default for Str {
    fn default() -> Self {
        Str::new()
    }
}

impl GkaProtocol for Str {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Str
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_>, view: &View) -> Result<(), GkaError> {
        let me = ctx.me();
        self.me = Some(me);
        self.view_members = view.members.clone();
        self.secret = None;
        self.publisher = false;
        self.rounds_started = 0;

        if !view.left.is_empty() && self.chain.position(me).is_some() {
            let lowest = self.chain.remove_members(&view.left);
            self.keys = vec![None; self.chain.len()];
            if !view.joined.is_empty() && !self.chain.order.is_empty() {
                // Combined leave+join: the leave sponsor must publish
                // the blinded keys across the removal wound so the
                // merge sponsor can proceed past it.
                let sponsor_pos = lowest.saturating_sub(1).min(self.chain.len() - 1);
                if self.chain.order[sponsor_pos] == me {
                    self.publisher = true;
                }
            }
            // Keys strictly below the removal point survive via cache.
            if view.joined.is_empty() {
                if self.chain.len() == 1 {
                    let r = self
                        .my_r
                        .clone()
                        .ok_or(GkaError::MissingState("no session random"))?;
                    self.secret = Some(Secret::new(r));
                    return Ok(());
                }
                // Sponsor: the member just below the lowest leaver.
                let sponsor_pos = lowest.saturating_sub(1).min(self.chain.len() - 1);
                let sponsor = self.chain.order[sponsor_pos];
                if sponsor == me {
                    // The refreshed leaf blinded key must reach the
                    // group even when no internal key needs publishing
                    // (e.g. the sponsor ends up at the top).
                    self.publisher = true;
                    self.refresh_my_leaf(ctx)?;
                    let _ = self.progress(ctx)?;
                    self.broadcast(ctx);
                } else {
                    // The sponsor will refresh: its level and above are
                    // stale for us.
                    self.chain.leaf_bkeys[sponsor_pos] = None;
                    for i in sponsor_pos..self.chain.len() {
                        self.chain.internal_bkeys[i] = None;
                    }
                    if self.progress(ctx)? {
                        self.broadcast(ctx);
                    }
                }
                return Ok(());
            }
        }

        if !view.joined.is_empty() {
            self.merging = true;
            self.components.clear();
            if self.chain.position(me).is_none() {
                // Fresh singleton joiner.
                let r = ctx.fresh_exponent();
                let b = ctx.exp_g(&r);
                self.my_r = Some(r);
                self.chain = Chain {
                    order: vec![me],
                    leaf_bkeys: vec![Some(b)],
                    internal_bkeys: vec![None],
                };
                self.keys = vec![None; 1];
            }
            // Component sponsor: the top member.
            let top = *self
                .chain
                .order
                .last()
                .ok_or(GkaError::MissingState("empty STR component"))?;
            if top == me {
                self.publisher = true;
                self.refresh_my_leaf(ctx)?;
                let _ = self.progress(ctx)?;
                let mut key: Vec<ClientId> = self.chain.order.clone();
                key.sort_unstable();
                self.components.insert(key, self.chain.clone());
                self.broadcast(ctx);
            } else {
                // `top` came from the chain, so its position exists.
                if let Some(pos) = self.chain.position(top) {
                    self.chain.leaf_bkeys[pos] = None;
                    for i in pos..self.chain.len() {
                        self.chain.internal_bkeys[i] = None;
                    }
                }
            }
            return self.try_assemble(ctx);
        }
        Ok(())
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_>,
        _sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        let ProtocolMsg::StrTree {
            members,
            leaf_bkeys,
            internal_bkeys,
        } = msg
        else {
            return Err(GkaError::UnexpectedMessage("not an STR message"));
        };
        if members.len() != leaf_bkeys.len() || members.len() != internal_bkeys.len() {
            return Err(GkaError::Protocol("misaligned STR message"));
        }
        let incoming = Chain {
            order: members,
            leaf_bkeys,
            internal_bkeys,
        };
        let mut leafset = incoming.order.clone();
        leafset.sort_unstable();
        let mut view_sorted = self.view_members.clone();
        view_sorted.sort_unstable();

        if self.merging && leafset != view_sorted {
            self.components.insert(leafset, incoming);
            return self.try_assemble(ctx);
        }
        if leafset == view_sorted {
            if self.merging {
                // Full chain observed implies all components were in
                // the agreed prefix; adopt the structure.
                self.chain = incoming.clone();
                self.keys = vec![None; self.chain.len()];
                self.merging = false;
                self.components.clear();
            } else {
                self.adopt(&incoming)?;
            }
            if self.progress(ctx)? {
                self.broadcast(ctx);
            }
        }
        Ok(())
    }

    fn group_secret(&self) -> Option<&Ubig> {
        self.secret.as_ref().map(|s| s.expose())
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        let group = suite.group();
        let n = members.len();
        let exps = bootstrap_exponents(suite, members, seed);
        let mut chain = Chain::new();
        let mut level_keys: Vec<Ubig> = Vec::with_capacity(n);
        for (i, (&m, r)) in members.iter().zip(&exps).enumerate() {
            let r = r.expose();
            let leaf_bkey = group.exp_g(r);
            let k = match level_keys.last() {
                None => r.clone(),
                Some(below) => group.exp(&leaf_bkey, below),
            };
            chain.order.push(m);
            chain.leaf_bkeys.push(Some(leaf_bkey));
            chain.internal_bkeys.push(if i > 0 && i < n - 1 {
                Some(group.exp_g(&k))
            } else {
                None
            });
            level_keys.push(k);
        }
        let secret = level_keys.last().cloned();
        let keys = level_keys
            .into_iter()
            .enumerate()
            .map(|(i, k)| (chain.prefix_fingerprint(i), Secret::new(k)))
            .collect();
        let formed = Formed { chain, keys };
        Component::new(members, exps, secret, Shape::Str(formed))
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        let Shape::Str(formed) = component.shape() else {
            return Err(FOREIGN_COMPONENT);
        };
        self.my_r = Some(component.exponent_of(me)?.clone());
        self.chain = formed.chain.clone();
        self.keys = formed
            .keys
            .iter()
            .map(|(_, k)| Some(k.expose().clone()))
            .collect();
        // Seed the cache with every prefix key (level 0 is a session
        // random, never looked up).
        self.cache = formed
            .keys
            .iter()
            .skip(1)
            .map(|(fp, k)| (*fp, k.expose().clone()))
            .collect();
        self.me = Some(me);
        self.view_members = component.members().to_vec();
        self.secret = component.secret();
        self.merging = false;
        Ok(())
    }

    fn reset(&mut self) {
        *self = Str::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_agrees_across_members() {
        let suite = CryptoSuite::fast_zero();
        let members = vec![0, 1, 2, 3, 4];
        let mut secrets = Vec::new();
        for &m in &members {
            let mut p = Str::new();
            p.bootstrap(&suite, &members, m, 21).unwrap();
            secrets.push(p.group_secret().unwrap().clone());
        }
        assert!(secrets.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn chain_removal_preserves_lower_prefixes() {
        let mut c = Chain {
            order: vec![0, 1, 2, 3, 4],
            leaf_bkeys: (0..5).map(|i| Some(Ubig::from(100 + i as u64))).collect(),
            internal_bkeys: vec![
                None,
                Some(Ubig::from(1u64)),
                Some(Ubig::from(2u64)),
                Some(Ubig::from(3u64)),
                None,
            ],
        };
        let lowest = c.remove_members(&[2]);
        assert_eq!(lowest, 2);
        assert_eq!(c.order, vec![0, 1, 3, 4]);
        // Prefix below the removal kept its internal bkey.
        assert_eq!(c.internal_bkeys[1], Some(Ubig::from(1u64)));
        // At/above the removal: invalidated.
        assert_eq!(c.internal_bkeys[2], None);
        assert_eq!(c.internal_bkeys[3], None);
    }

    #[test]
    fn prefix_fingerprints_differ_with_content() {
        let c1 = Chain {
            order: vec![0, 1],
            leaf_bkeys: vec![Some(Ubig::from(5u64)), Some(Ubig::from(6u64))],
            internal_bkeys: vec![None, None],
        };
        let mut c2 = c1.clone();
        assert_eq!(c1.prefix_fingerprint(1), c2.prefix_fingerprint(1));
        c2.leaf_bkeys[1] = Some(Ubig::from(7u64));
        assert_ne!(c1.prefix_fingerprint(1), c2.prefix_fingerprint(1));
        assert_eq!(c1.prefix_fingerprint(0), c2.prefix_fingerprint(0));
    }
}
