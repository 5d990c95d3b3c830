//! The one driver behind the two key-tree protocols: TGDH (§4.3) and
//! STR (§4.4, which the paper introduces as TGDH over a completely
//! imbalanced tree).
//!
//! The group secret is the key of the root of a binary [`KeyTree`]
//! whose leaves are the members' session randoms; every internal key
//! is the two-party DH agreement of its children. Each member knows
//! the keys on its own path and the blinded keys of the whole tree —
//! every member holds the same public tree and derives the rest from
//! it, which is all [`TreeGka`] relies on. What makes it TGDH or STR
//! is a [`TreeShape`]: where a joining component is grafted, who
//! refreshes after a leave, and how the public tree goes on the wire
//! ([`super::tgdh::TreePolicy`], [`super::str_proto::Skinny`]).
//!
//! * **Join/merge**: the sponsor of each component — its rightmost
//!   member — refreshes its session random and broadcasts its tree
//!   (round 1). Everyone grafts the components together in one agreed
//!   order; the rightmost member under the lowest node that can be
//!   recomputed publishes the fresh blinded keys (round 2).
//! * **Leave/partition**: everyone deletes the departed leaves; the
//!   shape's refresher draws a new session random; publishers compute
//!   as far up the tree as they can and broadcast new blinded keys,
//!   iterating until every member can compute the root (Figure 6; one
//!   round on a skinny tree).
//!
//! Computed keys are cached by subtree fingerprint — the optimization
//! of §5 (skipping recomputation of already-known blinded keys).
//!
//! A peer's tree is checked where it enters ([`TreeShape::from_msg`],
//! then one emptiness check): a TGDH tree is at most 64 levels deep
//! because [`KeyTree::decode`] refuses deeper ones, an STR chain is
//! refused unless it fits the view.

use std::collections::{BTreeMap, HashMap};

use gkap_bignum::Ubig;
use gkap_crypto::Secret;
use gkap_gcs::ClientId;

use crate::protocols::component::{bootstrap_exponents, Component, Shape, FOREIGN_COMPONENT};
use crate::protocols::{GkaCtx, GkaError, GkaProtocol, ProtocolKind, ProtocolMsg, SendKind};
use crate::suite::CryptoSuite;
use crate::tree::{FingerprintShare, Fingerprints, KeyTree, NodeIdx};

/// What a key-tree protocol decides for itself; [`TreeGka`] does the
/// rest. Each item is a rule some committed result depends on
/// (DESIGN.md §23 names the file).
pub trait TreeShape: Clone + Default + 'static {
    /// The protocol this shape makes of the driver.
    const KIND: ProtocolKind;
    /// Whether a formed component blinds its root key too.
    const FORMS_BLINDED_ROOT: bool;
    /// Whether a component's round-1 sponsor still publishes blinded
    /// keys once the components are assembled.
    const SPONSOR_STAYS_PUBLISHER: bool;

    /// Adds the component `other` to the non-empty `tree`.
    fn graft(&self, tree: &mut KeyTree, other: &KeyTree);

    /// Reshapes a tree whose membership just changed.
    fn settle(&self, tree: &mut KeyTree);

    /// The member that draws a new session random after `left`
    /// departed: `tree` is what remains, `before` the leaves in order
    /// as they were. `None` when no node is affected (the leaver
    /// never reached `tree`, or nobody left): the tree's rightmost
    /// member refreshes.
    fn refresher(&self, tree: &KeyTree, before: &[ClientId], left: &[ClientId])
        -> Option<ClientId>;

    /// `tree`'s structure and blinded keys — never a key — as this
    /// protocol's message.
    fn to_msg(tree: &KeyTree) -> ProtocolMsg;

    /// The tree a peer's message describes, for a member whose view
    /// is `view`.
    ///
    /// # Errors
    ///
    /// The message is another protocol's, or describes no tree a
    /// member of `view` could have sent.
    fn from_msg(msg: ProtocolMsg, view: &[ClientId]) -> Result<KeyTree, GkaError>;
}

/// What a formed component holds beyond exponents and secret.
pub(super) struct Formed {
    /// The protocol that formed the component.
    pub(super) kind: ProtocolKind,
    /// The component's tree as it goes on the wire: structure and
    /// blinded keys, no keys.
    public: KeyTree,
    /// Every internal node's key, with the fingerprint its subtree is
    /// cached under.
    node_keys: Vec<(NodeIdx, [u8; 32], Secret<Ubig>)>,
}

struct CacheEntry {
    key: Secret<Ubig>,
    bkey: Option<Ubig>,
}

/// A key-tree protocol engine for one member.
#[derive(Default)]
pub struct TreeGka<S> {
    shape: S,
    my_r: Option<Ubig>,
    tree: KeyTree,
    /// Round-1 component trees collected during a merge, keyed by
    /// their (sorted) leaf sets.
    components: BTreeMap<Vec<ClientId>, KeyTree>,
    /// Whether a received tree of the whole view replaces this
    /// member's (a merge) or lends it blinded keys; it never gates the key.
    merging: bool,
    /// Whether this member currently publishes blinded keys (it is the
    /// event's sponsor, or became one when the lowest incomplete node
    /// fell into its subtree).
    publisher: bool,
    /// Sponsor broadcasts this member has started for the current
    /// membership event (telemetry round numbering).
    rounds_started: u32,
    /// Subtree-fingerprint cache of previously computed keys.
    cache: HashMap<[u8; 32], CacheEntry>,
}

impl<S: TreeShape> TreeGka<S> {
    /// Creates an idle engine.
    pub(super) fn with_shape(shape: S) -> Self {
        Self {
            shape,
            ..Default::default()
        }
    }

    /// The tree as this member holds it.
    pub(super) fn tree(&self) -> &KeyTree {
        &self.tree
    }

    fn refresh_my_leaf(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
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

    /// Walks from the own leaf to the root, computing keys where
    /// possible (cache first). Publishers also compute missing blinded
    /// keys. Returns `true` if any new blinded key was published (=>
    /// we must broadcast).
    fn progress(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<bool, GkaError> {
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
        // Ensure the leaf carries our key (it is lost when the
        // structure is assembled or adopted from received broadcasts).
        if self.tree.node(cur).key.is_none() {
            self.tree.node_mut(cur).key = self.my_r.clone();
        }
        let mut published = false;
        // Our leaf's blinded key is information only we can regenerate.
        // A cascaded view change can cut the round that would have
        // circulated it (everyone else invalidated our path when we
        // refreshed), leaving adopted trees without it — and our
        // sibling then has no way to compute our shared parent.
        // Restoring it is news the group needs: force a broadcast,
        // whether or not we get any further ourselves.
        if self.tree.node(cur).bkey.is_none() {
            if let Some(r) = self.my_r.clone() {
                let bkey = ctx.exp_g(&r);
                self.tree.node_mut(cur).bkey = Some(bkey);
                published = true;
            }
        }
        // No leaf changes from here on, so one table serves every
        // fingerprint of the pass.
        let mut seen = Fingerprints::default();
        while let Some(parent) = self.tree.node(cur).parent {
            if self.tree.node(parent).key.is_none() {
                let fp = self
                    .tree
                    .fingerprint_once(parent, &mut seen, ctx.fingerprints());
                if let Some(entry) = self.cache.get(&fp) {
                    self.tree.node_mut(parent).key = Some(entry.key.expose().clone());
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
                    let key = Secret::new(key);
                    self.cache.insert(fp, CacheEntry { key, bkey: None });
                }
            }
            // The publisher blinds every missing key along its path.
            // The root's blinded key is never needed (it would blind
            // the group secret itself) and never published.
            if self.publisher
                && self.tree.node(parent).bkey.is_none()
                && self.tree.node(parent).parent.is_some()
            {
                if let Some(key) = self.tree.node(parent).key.clone() {
                    let bkey = Some(ctx.exp_g(&key));
                    self.tree.node_mut(parent).bkey = bkey.clone();
                    let fp = self
                        .tree
                        .fingerprint_once(parent, &mut seen, ctx.fingerprints());
                    let key = Secret::new(key);
                    self.cache.insert(fp, CacheEntry { key, bkey });
                    published = true;
                }
            }
            cur = parent;
        }
        // Root reached with a key => the group secret, if the tree's
        // leaves are the view (a component root during a merge is not).
        let root = self.tree.node(cur);
        if let (None, Some(k)) = (root.parent, root.key.clone()) {
            ctx.establish(k, self.tree.members());
        }
        Ok(published)
    }

    fn broadcast_tree(&mut self, ctx: &mut GkaCtx<'_, '_>) {
        // Each sponsor broadcast is one round of the event's re-keying.
        self.rounds_started += 1;
        ctx.mark_round(S::KIND, self.rounds_started);
        ctx.send(SendKind::Multicast, &S::to_msg(&self.tree));
    }

    /// Assembles the merged tree once all components are present.
    fn try_assemble(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        if !self.merging {
            return Ok(());
        }
        let mut covered: Vec<ClientId> = self.components.keys().flatten().copied().collect();
        covered.sort_unstable();
        let mut expected = ctx.members().to_vec();
        expected.sort_unstable();
        if covered != expected {
            return Ok(());
        }
        // Deterministic fold: components by (size desc, min member asc).
        let mut comps: Vec<(&Vec<ClientId>, &KeyTree)> = self.components.iter().collect();
        comps.sort_by_key(|(members, _)| {
            (std::cmp::Reverse(members.len()), members.first().copied())
        });
        let mut comps = comps.into_iter().map(|(_, tree)| tree);
        let mut assembled = comps
            .next()
            .ok_or(GkaError::MissingState("a merge of no components"))?
            .clone();
        for c in comps {
            self.shape.graft(&mut assembled, c);
        }
        self.shape.settle(&mut assembled);
        self.tree = assembled;
        self.merging = false;
        self.components.clear();
        // The round-2 sponsor is chosen by the lowest-incomplete rule
        // in progress.
        if !S::SPONSOR_STAYS_PUBLISHER {
            self.publisher = false;
        }
        if self.progress(ctx)? {
            self.broadcast_tree(ctx);
        }
        Ok(())
    }

    /// Begins a merge: broadcast our component if we sponsor it.
    fn start_merge(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let me = ctx.me();
        self.merging = true;
        self.components.clear();
        if self.tree.leaf_of(me).is_none() {
            // Fresh singleton joiner.
            let r = ctx.fresh_exponent();
            let bkey = ctx.exp_g(&r);
            self.my_r = Some(r.clone());
            self.tree = KeyTree::singleton(me, Some(r), Some(bkey));
        }
        let sponsor_leaf = self.tree.rightmost_leaf(self.tree.root());
        let sponsor = self
            .tree
            .node(sponsor_leaf)
            .member
            .ok_or(GkaError::MissingState("rightmost node is not a leaf"))?;
        if sponsor == me {
            // We sponsor our component: refresh, recompute our path
            // (keys + blinded keys) and broadcast.
            self.publisher = true;
            self.refresh_my_leaf(ctx)?;
            let _ = self.progress(ctx)?;
            let mut members = self.tree.members();
            members.sort_unstable();
            self.components.insert(members, self.tree.public());
            self.broadcast_tree(ctx);
        } else {
            // Our sponsor refreshed; its path is stale for us until
            // its broadcast arrives, and that broadcast is our copy of
            // our own component.
            self.tree.invalidate_to_root(sponsor_leaf);
        }
        self.try_assemble(ctx)
    }
}

impl<S: TreeShape> GkaProtocol for TreeGka<S> {
    fn kind(&self) -> ProtocolKind {
        S::KIND
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        let me = ctx.me();
        self.publisher = false;
        self.rounds_started = 0;

        // The change is read against the tree: its leaves outside the
        // view left, and the view's members outside it join.
        let before = self.tree.members();
        let mut left = before.clone();
        left.retain(|m| !ctx.members().contains(m));
        if !left.is_empty() {
            self.tree.remove_members(&left);
            self.shape.settle(&mut self.tree);
        }

        // Every remaining leaf is in the view: a longer view has a joiner.
        if ctx.members().len() > before.len() - left.len() {
            return self.start_merge(ctx);
        }

        // Pure leave / partition.
        if ctx.members().len() == 1 {
            // Only we remain; the (never-shared) leaf key is the secret.
            let r = self
                .my_r
                .clone()
                .ok_or(GkaError::MissingState("no session random"))?;
            ctx.establish(r, [me]);
            return Ok(());
        }
        // One member refreshes its session random to prevent old-key
        // reuse (round 1 of Figure 6): the shape's refresher, else the
        // tree's rightmost member.
        let refresher = self.shape.refresher(&self.tree, &before, &left);
        let leaf = refresher
            .and_then(|m| self.tree.leaf_of(m))
            .unwrap_or_else(|| self.tree.rightmost_leaf(self.tree.root()));
        if self.tree.node(leaf).member == Some(me) {
            // Our refreshed leaf blinded key is itself news the group
            // needs: broadcast regardless of internal publications.
            self.publisher = true;
            self.refresh_my_leaf(ctx)?;
            let _ = self.progress(ctx)?;
            self.broadcast_tree(ctx);
        } else {
            self.tree.invalidate_to_root(leaf);
            if self.progress(ctx)? {
                self.broadcast_tree(ctx);
            }
        }
        Ok(())
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        _sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        let tree = S::from_msg(msg, ctx.members())?;
        if tree.is_empty() {
            return Err(GkaError::Protocol("a peer's key tree is empty"));
        }
        let mut leafset = tree.members();
        leafset.sort_unstable();
        let mut view_sorted = ctx.members().to_vec();
        view_sorted.sort_unstable();
        if leafset != view_sorted {
            if self.merging {
                self.components.insert(leafset, tree);
                return self.try_assemble(ctx);
            }
            // A component tree while not merging: stale or early;
            // ignore (epoch filtering upstream makes this rare).
            return Ok(());
        }
        if self.merging {
            // A full-tree broadcast implies every component was
            // already visible in the agreed order; adopt the
            // structure wholesale.
            self.tree = tree;
            self.merging = false;
            self.components.clear();
        } else {
            self.tree
                .adopt_bkeys(&tree)
                .map_err(|_| GkaError::Protocol("key tree structure divergence"))?;
        }
        if self.progress(ctx)? {
            self.broadcast_tree(ctx);
        }
        Ok(())
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
                self.shape.graft(&mut tree, &leaf);
            }
        }
        // Fill every internal key, children before parents: the two-party
        // key g^{k_l k_r}, through g as GDH's partial keys are. Component
        // trees carry two keyed children per internal node, so the `else`
        // is unreachable; it degrades to a missing secret (surfaced as a
        // GkaError later) instead of a panic.
        let nodes: Vec<NodeIdx> = tree.preorder().collect();
        for &i in nodes.iter().rev() {
            let Some((l, r)) = tree.node(i).children else {
                continue;
            };
            let (Some(k_l), Some(k_r)) = (&tree.node(l).key, &tree.node(r).key) else {
                continue;
            };
            let key = group.exp_g(&k_l.modmul(k_r, group.order()));
            if S::FORMS_BLINDED_ROOT || tree.node(i).parent.is_some() {
                tree.node_mut(i).bkey = Some(group.exp_g(&key));
            }
            tree.node_mut(i).key = Some(key);
        }
        let secret = nodes.first().and_then(|&root| tree.node(root).key.clone());
        // Move the keys out of the tree: the internal ones each with
        // the fingerprint the members cache it under so later events
        // reuse it, the leaves' for good (a member's is its exponent).
        // Every blinded key goes with its key, as the component's
        // produced elements.
        let (mut seen, mut share) = (Fingerprints::default(), FingerprintShare::default());
        let (mut node_keys, mut produced) = (Vec::new(), Vec::new());
        for i in nodes {
            let Some(key) = tree.node_mut(i).key.take() else {
                continue;
            };
            if let Some(bkey) = &tree.node(i).bkey {
                produced.push((bkey.clone(), Secret::new(key.clone())));
            }
            if tree.node(i).children.is_some() {
                let fp = tree.fingerprint_once(i, &mut seen, &mut share);
                node_keys.push((i, fp, Secret::new(key)));
            }
        }
        let formed = Formed {
            kind: S::KIND,
            public: tree,
            node_keys,
        };
        Component::new(members, exps, secret, Shape::Tree(formed), produced)
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        let formed = match component.shape() {
            Shape::Tree(formed) if formed.kind == S::KIND => formed,
            _ => return Err(FOREIGN_COMPONENT),
        };
        self.my_r = Some(component.exponent_of(me)?.clone());
        // A bootstrapped member holds every internal key of the tree,
        // not only its own path's (`progress` walks only that path).
        self.tree = formed.public.clone();
        self.cache.clear();
        for (i, fp, key) in &formed.node_keys {
            let bkey = self.tree.node(*i).bkey.clone();
            self.tree.node_mut(*i).key = Some(key.expose().clone());
            let key = key.clone();
            self.cache.insert(*fp, CacheEntry { key, bkey });
        }
        self.merging = false;
        self.components.clear();
        Ok(())
    }

    fn reset(&mut self) {
        *self = TreeGka::with_shape(self.shape.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::str_proto::Skinny;
    use crate::protocols::tgdh::TreePolicy;
    use crate::testkit::Loopback;
    use gkap_bignum::{RandomSource, SplitMix64};

    fn tree_of<S: TreeShape>(lb: &Loopback, m: ClientId) -> &KeyTree {
        lb.member(m)
            .protocol_as::<TreeGka<S>>()
            .expect("a tree engine")
            .tree()
    }

    /// Member 0 of `[0, 1]` while 2 merges in is sent a tree of no
    /// members. Stored, it would be the component of nobody — grafted,
    /// by a panicking `merge`, when the real ones arrive.
    fn an_empty_peer_tree_is_refused_mid_merge<S: TreeShape>(shape: S) {
        let factory = || Box::new(TreeGka::with_shape(shape.clone())) as Box<dyn GkaProtocol>;
        let mut lb = Loopback::with_factory(factory, CryptoSuite::fast_zero(), &[0, 1, 2]);
        lb.bootstrap(&[0, 1], 7);
        lb.bootstrap(&[2], 7);
        // Everyone enters the merge; no sponsor's tree is out yet.
        lb.install_view_interrupted(vec![0, 1, 2], vec![2], vec![], 0);
        let suite = CryptoSuite::fast_zero();
        lb.forge(&suite, 2, 0, &S::to_msg(&KeyTree::new()));
        assert_eq!(
            lb.member(0).protocol_error(),
            Some(&GkaError::Protocol("a peer's key tree is empty"))
        );
        for sponsor in [1, 2] {
            let component = S::to_msg(tree_of::<S>(&lb, sponsor));
            lb.forge(&suite, sponsor, 0, &component);
        }
        assert_eq!(tree_of::<S>(&lb, 0).members(), [0, 1, 2], "{}", S::KIND);
    }

    #[test]
    fn an_empty_peer_tree_is_a_protocol_error_not_a_panic() {
        let decoded = ProtocolMsg::decode(&[10, 2]).unwrap();
        assert_eq!(decoded, TreePolicy::to_msg(&KeyTree::new()));
        an_empty_peer_tree_is_refused_mid_merge(TreePolicy::Paper);
        an_empty_peer_tree_is_refused_mid_merge(Skinny);
    }

    /// After 2 leaves `[0, 1, 2]`, member 1 refreshes and 0 waits for
    /// its new leaf bkey. A bkey of 1 would make 0's root key 1: the
    /// tree is refused where it enters.
    fn a_degenerate_bkey_is_refused<S: TreeShape>(shape: S) {
        let factory = || Box::new(TreeGka::with_shape(shape.clone())) as Box<dyn GkaProtocol>;
        let mut lb = Loopback::with_factory(factory, CryptoSuite::fast_zero(), &[0, 1, 2]);
        lb.bootstrap(&[0, 1, 2], 7);
        lb.install_view_interrupted(vec![0, 1], vec![], vec![2], 0);
        let mut forged = tree_of::<S>(&lb, 1).clone();
        let leaf = forged.leaf_of(1).expect("1's leaf");
        forged.node_mut(leaf).bkey = Some(Ubig::one());
        lb.forge(&CryptoSuite::fast_zero(), 1, 0, &S::to_msg(&forged));
        assert_eq!(
            lb.member(0).protocol_error(),
            Some(&GkaError::Protocol("invalid group element")),
            "{}",
            S::KIND
        );
        assert_eq!(lb.member(0).secret(1), None, "{}", S::KIND);
    }

    #[test]
    fn a_degenerate_blinded_key_is_a_protocol_error() {
        a_degenerate_bkey_is_refused(TreePolicy::Paper);
        a_degenerate_bkey_is_refused(Skinny);
    }

    /// 30 random joins, leaves, merges and partitions: after each one
    /// every member holds the same secret and the same public tree,
    /// byte for byte as it would go on the wire.
    fn random_events_keep_one_tree<S: TreeShape>(shape: S, seed: u64) {
        let ids: Vec<ClientId> = (0..100).collect();
        let factory = || Box::new(TreeGka::with_shape(shape.clone())) as Box<dyn GkaProtocol>;
        let mut lb = Loopback::with_factory(factory, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids[..6], seed);
        // Never reused: a leaver's engine keeps its stale tree.
        let mut fresh = ids[6..].iter().copied();
        let mut rng = SplitMix64::new(seed);
        for event in 0..30 {
            let view = lb.view().to_vec();
            let many = 1 + rng.next_u64() as usize % 3;
            let (joined, left) = if view.len() <= many + 1 || rng.next_u64().is_multiple_of(2) {
                let joined: Vec<ClientId> = fresh.by_ref().take(many).collect();
                // Half the arrivals of several are one component that
                // formed elsewhere, the others singletons.
                if many > 1 && rng.next_u64().is_multiple_of(2) {
                    lb.bootstrap(&joined, seed + event);
                }
                (joined, vec![])
            } else {
                let at = rng.next_u64() as usize % (view.len() - many + 1);
                (vec![], view[at..at + many].to_vec())
            };
            let mut members: Vec<ClientId> =
                view.into_iter().filter(|m| !left.contains(m)).collect();
            members.extend(&joined);
            lb.install_view(members, joined, left);
            lb.common_secret();
            let public = |m: &ClientId| S::to_msg(tree_of::<S>(&lb, *m)).encode();
            let first = public(&lb.view()[0]);
            assert!(
                lb.view().iter().all(|m| public(m) == first),
                "event {event}"
            );
            later_members_find_every_fingerprint_in_the_share::<S>(&lb, event);
        }
    }

    fn root_fingerprint(tree: &KeyTree, share: &mut FingerprintShare) -> [u8; 32] {
        tree.fingerprint_once(tree.root(), &mut Fingerprints::default(), share)
    }

    /// Each member holds its own copy of the public tree, in its own
    /// arena order. Through one share, the first member hashes it and
    /// every later one finds each node there: no miss. The loopback's
    /// members fingerprint through a share of their own each handler
    /// (a detached context's), and they cached the root key under the
    /// same fingerprint.
    fn later_members_find_every_fingerprint_in_the_share<S: TreeShape>(lb: &Loopback, event: u64) {
        let mut share = FingerprintShare::default();
        let mut first = None;
        for &m in lb.view() {
            let fp = root_fingerprint(tree_of::<S>(lb, m), &mut share);
            let (fp0, taken) = *first.get_or_insert((fp, share.len()));
            assert_eq!((fp, share.len()), (fp0, taken), "event {event}, member {m}");
            let engine = lb
                .member(m)
                .protocol_as::<TreeGka<S>>()
                .expect("a tree engine");
            assert!(engine.cache.contains_key(&fp), "event {event}, member {m}");
        }
    }

    /// Five leaves grafted by `shape`: member `m`'s blinded key is
    /// `100 + m`, but member 2's is not known yet.
    fn five_leaves<S: TreeShape>(shape: S) -> KeyTree {
        let leaf =
            |m: ClientId| KeyTree::singleton(m, None, (m != 2).then(|| Ubig::from(100 + m as u64)));
        let mut tree = leaf(0);
        for m in 1..5 {
            shape.graft(&mut tree, &leaf(m));
        }
        tree
    }

    /// The fingerprints are the key cache's keys: a change to the hash,
    /// or to what the share answers for it, moves every hit and miss.
    #[test]
    fn root_fingerprints_are_pinned() {
        let pinned = [
            (
                five_leaves(TreePolicy::Paper),
                "a8fdf92d35281fc02224ee19d73263558bca33e2e449797adb99257cef9b4ba8",
            ),
            (
                five_leaves(Skinny),
                "6c8a5acbd5bafbc78087ae149f8716f7b62cc91fcc2bd5e1e4e056f6970ed506",
            ),
        ];
        for (tree, expected) in pinned {
            let fp = root_fingerprint(&tree, &mut FingerprintShare::default());
            assert_eq!(gkap_crypto::sha::hex(&fp), expected);
        }
    }

    #[test]
    fn every_shape_keeps_one_public_tree_and_one_secret() {
        for seed in [3, 11] {
            random_events_keep_one_tree(TreePolicy::Paper, seed);
            random_events_keep_one_tree(TreePolicy::Avl, seed);
            random_events_keep_one_tree(Skinny, seed);
        }
    }
}
