//! Tree-based Group Diffie–Hellman (TGDH), §4.3 of the paper.
//!
//! The group secret is the key of the root of a binary key tree whose
//! leaves are the members' session randoms; every internal node key is
//! the two-party DH agreement of its children. Each member knows the
//! keys on its own path and the blinded keys of the whole tree.
//!
//! * **Join/merge**: the sponsor of each (sub)group — its rightmost
//!   member — refreshes its session random and broadcasts its tree
//!   (round 1). Everyone independently determines the merge position;
//!   the sponsor of the subtree rooted at the merge point computes the
//!   fresh keys and blinded keys and broadcasts the tree (round 2).
//! * **Leave/partition**: everyone deletes the departed leaves; a
//!   deterministic sponsor refreshes its session random; sponsors
//!   compute as far up the tree as they can and broadcast new blinded
//!   keys, iterating until every member can compute the root (the
//!   multi-round partition protocol of Figure 6).
//!
//! Computed keys are cached by subtree fingerprint, implementing the
//! optimization the paper describes in §5 (skipping recomputation of
//! already-known blinded keys).

use std::collections::{BTreeMap, HashMap};

use gkap_bignum::Ubig;
use gkap_crypto::Secret;
use gkap_gcs::{ClientId, View};

use crate::protocols::component::{bootstrap_exponents, Component, Shape, FOREIGN_COMPONENT};
use crate::protocols::{GkaCtx, GkaError, GkaProtocol, ProtocolKind, ProtocolMsg, SendKind};
use crate::suite::CryptoSuite;
use crate::tree::{KeyTree, NodeIdx};

/// What a formed TGDH component holds beyond exponents and secret.
pub(super) struct Formed {
    /// The component's tree as it goes on the wire: structure and
    /// blinded keys, no keys.
    public: KeyTree,
    /// Every node's key, with the fingerprint its subtree is cached
    /// under.
    node_keys: Vec<(NodeIdx, [u8; 32], Secret<Ubig>)>,
}

#[derive(Clone)]
struct CacheEntry {
    key: Ubig,
    bkey: Option<Ubig>,
}

impl std::fmt::Debug for CacheEntry {
    /// Redacts the cached node secret; only blinded-key presence shows.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheEntry")
            .field("key", &"<redacted>")
            .field("bkey", &self.bkey.is_some())
            .finish()
    }
}

/// How the key tree is kept in shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TreePolicy {
    /// The paper's best-effort heuristic: balance on additive events
    /// only (footnote 7).
    #[default]
    Paper,
    /// AVL-style rebalancing after every membership change (the \[23\]
    /// technique footnote 7 references): shallower trees — cheaper
    /// joins and path computations — at the price of extra re-keying
    /// rounds on leave when rotations occur.
    Avl,
}

/// TGDH protocol engine for one member.
pub struct Tgdh {
    me: Option<ClientId>,
    view_members: Vec<ClientId>,
    my_r: Option<Ubig>,
    tree: KeyTree,
    /// Round-1 component trees collected during a merge, keyed by
    /// their (sorted) leaf sets.
    components: BTreeMap<Vec<ClientId>, KeyTree>,
    merging: bool,
    /// Whether this member currently publishes blinded keys (it is the
    /// event's sponsor, or became one when the lowest incomplete node
    /// fell into its subtree during a partition round).
    publisher: bool,
    /// Tree management policy.
    policy: TreePolicy,
    /// Sponsor broadcasts this member has started for the current
    /// membership event (telemetry round numbering).
    rounds_started: u32,
    /// Subtree-fingerprint cache of previously computed keys.
    cache: HashMap<[u8; 32], CacheEntry>,
    secret: Option<Secret<Ubig>>,
}

impl std::fmt::Debug for Tgdh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tgdh")
            .field("me", &self.me)
            .field("secret", &"<redacted>")
            .finish_non_exhaustive()
    }
}

impl Tgdh {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Tgdh {
            me: None,
            view_members: Vec::new(),
            my_r: None,
            tree: KeyTree::new(),
            components: BTreeMap::new(),
            merging: false,
            publisher: false,
            policy: TreePolicy::Paper,
            rounds_started: 0,
            cache: HashMap::new(),
            secret: None,
        }
    }

    /// Creates an engine with AVL tree management (footnote 7).
    pub fn new_avl() -> Self {
        Tgdh {
            policy: TreePolicy::Avl,
            ..Tgdh::new()
        }
    }

    /// The current tree height (diagnostics/ablations).
    pub fn tree_height(&self) -> usize {
        if self.tree.is_empty() {
            0
        } else {
            self.tree.height(self.tree.root())
        }
    }

    fn refresh_my_leaf(&mut self, ctx: &mut GkaCtx<'_>) -> Result<(), GkaError> {
        let me = ctx.me();
        let r = ctx.fresh_exponent();
        let bkey = ctx.exp_g(&r);
        let leaf = self
            .tree
            .leaf_of(me)
            .ok_or(GkaError::MissingState("own leaf missing from tree"))?;
        self.tree.invalidate_to_root(leaf);
        self.tree.node_mut(leaf).key = Some(r.clone());
        self.tree.node_mut(leaf).bkey = Some(bkey);
        self.my_r = Some(r);
        Ok(())
    }

    /// Marks another member's refresh: its leaf bkey and path become
    /// unknown until its broadcast arrives.
    fn invalidate_member_path(&mut self, member: ClientId) {
        if let Some(leaf) = self.tree.leaf_of(member) {
            self.tree.invalidate_to_root(leaf);
        }
    }

    /// Walks from the own leaf to the root, computing keys where
    /// possible (cache first). Sponsors — the rightmost leaf under a
    /// node — also compute missing blinded keys. Returns `true` if any
    /// new blinded key was published (=> we must broadcast).
    fn progress(&mut self, ctx: &mut GkaCtx<'_>) -> Result<bool, GkaError> {
        let me = ctx.me();
        let Some(mut cur) = self.tree.leaf_of(me) else {
            return Err(GkaError::MissingState("own leaf missing from tree"));
        };
        // Sponsor determination: the rightmost leaf under the lowest
        // recomputable incomplete node takes over publication duties
        // ("if a sponsor could not compute the group key, the next
        // sponsor comes into play", §4.3).
        if !self.publisher {
            if let Some(v) = self.tree.lowest_incomplete() {
                let rl = self.tree.rightmost_leaf(v);
                if self.tree.node(rl).member == Some(me) {
                    self.publisher = true;
                }
            }
        }
        // Ensure the leaf carries our key (it can be lost when the
        // structure was adopted from a received broadcast).
        if self.tree.node(cur).key.is_none() {
            self.tree.node_mut(cur).key = self.my_r.clone();
        }
        let mut published = false;
        // Our leaf's blinded key is information only we can regenerate.
        // A cascaded view change can cut the round that would have
        // circulated it (everyone else invalidated our path when we
        // refreshed), leaving adopted trees without it — and our
        // sibling then has no way to compute our shared parent.
        // Restoring it is news the group needs: force a broadcast.
        if self.tree.node(cur).bkey.is_none() {
            if let Some(r) = self.my_r.clone() {
                let bkey = ctx.exp_g(&r);
                self.tree.node_mut(cur).bkey = Some(bkey);
                published = true;
            }
        }
        while let Some(parent) = self.tree.node(cur).parent {
            if self.tree.node(parent).key.is_none() {
                let fp = self.tree.fingerprint(parent);
                if let Some(entry) = self.cache.get(&fp) {
                    self.tree.node_mut(parent).key = Some(entry.key.clone());
                    if self.tree.node(parent).bkey.is_none() {
                        self.tree.node_mut(parent).bkey = entry.bkey.clone();
                    }
                } else {
                    let sib = self
                        .tree
                        .sibling(cur)
                        .ok_or(GkaError::MissingState("sibling of a path node"))?;
                    let Some(sib_bkey) = self.tree.node(sib).bkey.clone() else {
                        break; // cannot proceed past this point yet
                    };
                    let my_key = self
                        .tree
                        .node(cur)
                        .key
                        .clone()
                        .ok_or(GkaError::MissingState("missing key on own path"))?;
                    let key = ctx.exp(&sib_bkey, &my_key);
                    self.tree.node_mut(parent).key = Some(key.clone());
                    self.cache.insert(fp, CacheEntry { key, bkey: None });
                }
            }
            // The sponsor publishes every missing blinded key along
            // its path. The root's blinded key is never needed (it
            // would blind the group secret itself) and never published.
            if self.publisher
                && self.tree.node(parent).bkey.is_none()
                && self.tree.node(parent).parent.is_some()
            {
                if let Some(key) = self.tree.node(parent).key.clone() {
                    let bkey = ctx.exp_g(&key);
                    self.tree.node_mut(parent).bkey = Some(bkey.clone());
                    let fp = self.tree.fingerprint(parent);
                    self.cache.insert(
                        fp,
                        CacheEntry {
                            key,
                            bkey: Some(bkey),
                        },
                    );
                    published = true;
                }
            }
            cur = parent;
        }
        // Root reached with a key => group secret established — but
        // only once the tree covers the whole view (a component root
        // during a merge is not the group key).
        let root = self.tree.root();
        if cur == root && !self.merging {
            if let Some(k) = self.tree.node(root).key.clone() {
                self.secret = Some(Secret::new(k));
            }
        }
        Ok(published)
    }

    fn broadcast_tree(&mut self, ctx: &mut GkaCtx<'_>) {
        // Each sponsor broadcast is one round of the event's re-keying.
        self.rounds_started += 1;
        ctx.mark_round("TGDH", self.rounds_started);
        let msg = ProtocolMsg::TgdhTree {
            tree: self.strip_keys(),
        };
        ctx.send(SendKind::Multicast, &msg);
    }

    /// A copy of the tree with secret keys removed ("the keys are
    /// never broadcast", §4.3 footnote 4).
    fn strip_keys(&self) -> KeyTree {
        let mut t = self.tree.clone();
        t.clear_keys();
        t
    }

    /// Attempts to assemble the merged tree once all components are
    /// present.
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
        // Deterministic fold: components by (size desc, min member asc).
        let mut comps: Vec<KeyTree> = self.components.values().cloned().collect();
        comps.sort_by_key(|t| {
            let m = t.members();
            (
                std::cmp::Reverse(m.len()),
                m.iter().min().copied().unwrap_or(ClientId::MAX),
            )
        });
        let mut assembled = comps.remove(0);
        for c in comps {
            assembled.merge(&c);
        }
        if self.policy == TreePolicy::Avl {
            assembled.rebalance();
        }
        self.tree = assembled;
        let me = ctx.me();
        let leaf = self
            .tree
            .leaf_of(me)
            .ok_or(GkaError::MissingState("own leaf missing after merge"))?;
        self.tree.node_mut(leaf).key = self.my_r.clone();
        self.merging = false;
        self.components.clear();
        // Round-1 publication duty ends at assembly; the round-2
        // sponsor is chosen by the lowest-incomplete rule in progress.
        self.publisher = false;
        if self.progress(ctx)? {
            self.broadcast_tree(ctx);
        }
        Ok(())
    }

    /// Begins a merge: broadcast our component if we sponsor it.
    fn start_merge(&mut self, ctx: &mut GkaCtx<'_>) -> Result<(), GkaError> {
        let me = ctx.me();
        self.merging = true;
        self.components.clear();
        if self.tree.is_empty() || self.tree.leaf_of(me).is_none() {
            // Fresh singleton joiner.
            let r = ctx.fresh_exponent();
            let bkey = ctx.exp_g(&r);
            self.my_r = Some(r.clone());
            self.tree = KeyTree::singleton(me, Some(r), Some(bkey));
        }
        let sponsor_leaf = self.tree.rightmost_leaf(self.tree.root());
        if self.tree.node(sponsor_leaf).member == Some(me) {
            // We sponsor our component: refresh, recompute our path
            // (keys + blinded keys) and broadcast.
            self.publisher = true;
            self.refresh_my_leaf(ctx)?;
            let _ = self.progress(ctx)?;
            let mut key = self.tree.members();
            key.sort_unstable();
            self.components.insert(key, self.strip_keys());
            self.broadcast_tree(ctx);
        } else {
            // Our sponsor refreshed; its path is stale for us until
            // its broadcast arrives. We rely on the broadcast copy of
            // our own component, so nothing to do here.
            let sponsor = self
                .tree
                .node(sponsor_leaf)
                .member
                .ok_or(GkaError::MissingState("rightmost node is not a leaf"))?;
            self.invalidate_member_path(sponsor);
        }
        self.try_assemble(ctx)
    }
}

impl Default for Tgdh {
    fn default() -> Self {
        Tgdh::new()
    }
}

impl GkaProtocol for Tgdh {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Tgdh
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_>, view: &View) -> Result<(), GkaError> {
        let me = ctx.me();
        self.me = Some(me);
        self.view_members = view.members.clone();
        self.secret = None;
        self.publisher = false;
        self.rounds_started = 0;

        if !view.left.is_empty() && !self.tree.is_empty() {
            self.tree.remove_members(&view.left);
            if self.policy == TreePolicy::Avl && !self.tree.is_empty() {
                self.tree.rebalance();
            }
        }

        if !view.joined.is_empty() {
            return self.start_merge(ctx);
        }

        // Pure leave / partition.
        if view.members.len() == 1 {
            // Only we remain; the (never-shared) leaf key is the secret.
            let r = self
                .my_r
                .clone()
                .ok_or(GkaError::MissingState("no session random"))?;
            self.secret = Some(Secret::new(r));
            return Ok(());
        }
        // Deterministic refresher: the sponsor (rightmost leaf) of the
        // lowest recomputable wound refreshes its session random to
        // prevent old-key reuse (round 1 of Figure 6).
        let anchor = self
            .tree
            .lowest_incomplete()
            .ok_or(GkaError::MissingState("leave without an affected node"))?;
        let refresher_leaf = self.tree.rightmost_leaf(anchor);
        let refresher = self
            .tree
            .node(refresher_leaf)
            .member
            .ok_or(GkaError::MissingState("rightmost node is not a leaf"))?;
        if refresher == me {
            // Our refreshed leaf blinded key is itself news the group
            // needs: broadcast regardless of internal publications.
            self.publisher = true;
            self.refresh_my_leaf(ctx)?;
            let _ = self.progress(ctx)?;
            self.broadcast_tree(ctx);
        } else {
            self.invalidate_member_path(refresher);
            if self.progress(ctx)? {
                self.broadcast_tree(ctx);
            }
        }
        Ok(())
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_>,
        _sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        let ProtocolMsg::TgdhTree { tree } = msg else {
            return Err(GkaError::UnexpectedMessage("not a TGDH message"));
        };
        let mut leafset = tree.members();
        leafset.sort_unstable();
        let mut view_sorted = self.view_members.clone();
        view_sorted.sort_unstable();

        if self.merging && leafset != view_sorted {
            self.components.insert(leafset, tree);
            return self.try_assemble(ctx);
        }
        if leafset == view_sorted {
            if self.merging {
                // A full-tree broadcast implies every component was
                // already visible in the agreed order; adopt the
                // structure wholesale.
                self.tree = tree.clone();
                let me = ctx.me();
                let leaf = self
                    .tree
                    .leaf_of(me)
                    .ok_or(GkaError::MissingState("own leaf missing in adopted tree"))?;
                self.tree.node_mut(leaf).key = self.my_r.clone();
                self.merging = false;
                self.components.clear();
            } else {
                self.tree
                    .adopt_bkeys(&tree)
                    .map_err(|_| GkaError::Protocol("TGDH tree structure divergence"))?;
            }
            if self.progress(ctx)? {
                self.broadcast_tree(ctx);
            }
            return Ok(());
        }
        // A component tree while not merging: stale or early; ignore
        // (epoch filtering upstream makes this rare).
        Ok(())
    }

    fn group_secret(&self) -> Option<&Ubig> {
        self.secret.as_ref().map(|s| s.expose())
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        // Build the deterministic tree and compute every key directly
        // (the component knows all session randoms).
        let group = suite.group();
        let exps = bootstrap_exponents(suite, members, seed);
        let mut tree = KeyTree::new();
        for (&m, r) in members.iter().zip(&exps) {
            let r = r.expose();
            let leaf = KeyTree::singleton(m, Some(r.clone()), Some(group.exp_g(r)));
            if tree.is_empty() {
                tree = leaf;
            } else {
                tree.merge(&leaf);
            }
        }
        // Fill every internal key bottom-up. Component trees always
        // carry leaf bkeys and two children per internal node, so the
        // `None` arms are unreachable; they degrade to a missing
        // secret (surfaced as a GkaError later) instead of a panic.
        fn fill(tree: &mut KeyTree, idx: usize, group: &gkap_crypto::dh::DhGroup) -> Option<Ubig> {
            if let Some(k) = tree.node(idx).key.clone() {
                return Some(k);
            }
            let (l, r) = tree.node(idx).children?;
            let _ = fill(tree, l, group)?;
            let rk = fill(tree, r, group)?;
            let l_bk = tree.node(l).bkey.clone()?;
            let key = group.exp(&l_bk, &rk);
            let bkey = group.exp_g(&key);
            tree.node_mut(idx).key = Some(key.clone());
            tree.node_mut(idx).bkey = Some(bkey);
            Some(key)
        }
        let root = tree.root();
        let secret = fill(&mut tree, root, group);
        // Move the keys out of the tree, each with the fingerprint the
        // members cache it under so later events reuse it.
        let mut node_keys = Vec::new();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            if let Some((l, r)) = tree.node(i).children {
                stack.push(l);
                stack.push(r);
            }
            if let Some(k) = tree.node_mut(i).key.take() {
                node_keys.push((i, tree.fingerprint(i), Secret::new(k)));
            }
        }
        let formed = Formed {
            public: tree,
            node_keys,
        };
        Component::new(members, exps, secret, Shape::Tgdh(formed))
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        let Shape::Tgdh(formed) = component.shape() else {
            return Err(FOREIGN_COMPONENT);
        };
        self.my_r = Some(component.exponent_of(me)?.clone());
        // A bootstrapped member holds every key of the tree, not only
        // its own path's (`progress` walks only that path).
        self.tree = formed.public.clone();
        self.cache.clear();
        for (i, fp, key) in &formed.node_keys {
            let key = key.expose().clone();
            let bkey = self.tree.node(*i).bkey.clone();
            self.tree.node_mut(*i).key = Some(key.clone());
            self.cache.insert(*fp, CacheEntry { key, bkey });
        }
        self.me = Some(me);
        self.view_members = component.members().to_vec();
        self.secret = component.secret();
        self.merging = false;
        self.components.clear();
        Ok(())
    }

    fn reset(&mut self) {
        *self = Tgdh {
            policy: self.policy,
            ..Tgdh::new()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_agrees_across_members() {
        let suite = CryptoSuite::fast_zero();
        let members = vec![0, 1, 2, 3, 4, 5, 6];
        let mut secrets = Vec::new();
        for &m in &members {
            let mut p = Tgdh::new();
            p.bootstrap(&suite, &members, m, 77).unwrap();
            secrets.push(p.group_secret().unwrap().clone());
        }
        assert!(secrets.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn a_leaf_permuted_peer_tree_is_a_protocol_error_not_a_panic() {
        struct NoSends;
        impl crate::protocols::Transport for NoSends {
            fn my_id(&self) -> ClientId {
                0
            }
            fn send_wire(&mut self, _kind: SendKind, _wire: bytes::Bytes) {}
            fn charge(&mut self, _cost: gkap_sim::Duration) {}
        }
        let suite = CryptoSuite::fast_zero();
        let mut p = Tgdh::new();
        p.bootstrap(&suite, &[0, 1, 2], 0, 7).unwrap();
        // A peer that formed the same view in another leaf order: the
        // *sorted* leaf set passes the view check.
        let mut peer = Tgdh::new();
        peer.bootstrap(&suite, &[2, 0, 1], 2, 7).unwrap();
        let mut tree = peer.tree.clone();
        tree.clear_keys();
        let before = p.tree.clone();
        let mut ctx = GkaCtx {
            transport: &mut NoSends,
            suite: &suite,
            counts: &mut Default::default(),
            rng: &mut gkap_bignum::SplitMix64::new(1),
            epoch: 1,
            telemetry: Default::default(),
            now: gkap_sim::SimTime::ZERO,
        };
        let err = p.on_msg(&mut ctx, 2, ProtocolMsg::TgdhTree { tree });
        assert_eq!(
            err,
            Err(GkaError::Protocol("TGDH tree structure divergence"))
        );
        assert!(p.tree == before, "a rejected tree changes nothing");
    }

    #[test]
    fn bootstrap_tree_is_consistent() {
        let suite = CryptoSuite::fast_zero();
        let members = vec![10, 20, 30, 40];
        let mut p = Tgdh::new();
        p.bootstrap(&suite, &members, 10, 3).unwrap();
        assert_eq!(p.tree.members(), members);
        // Root bkey blinds the root key.
        let root = p.tree.root();
        let k = p.tree.node(root).key.clone().unwrap();
        let bk = p.tree.node(root).bkey.clone().unwrap();
        assert_eq!(suite.group().exp_g(&k), bk);
    }
}
