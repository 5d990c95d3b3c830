//! The binary key tree behind TGDH and STR (the one driver over it is
//! [`crate::protocols::tree_gka::TreeGka`]).
//!
//! Each node carries an optional secret key and an optional blinded key
//! (`bkey = g^key`). Leaves belong to members (key = the member's
//! session random); an internal node's key is the two-party
//! Diffie–Hellman agreement of its children:
//! `key(parent) = bkey(left)^key(right) = bkey(right)^key(left)`.
//!
//! All structural operations (merge insertion point, leaf deletion with
//! sibling promotion) are deterministic, so every member derives an
//! identical tree from identical inputs — the property both protocols
//! rely on ("all members uniquely and independently determine the merge
//! position", §4.3).
//!
//! Nodes expose a structural *fingerprint* — a hash over the subtree's
//! leaf members and blinded session randoms — that the driver uses to
//! cache computed keys, mirroring the paper's observation that
//! recomputation of already-known blinded keys can be optimized away
//! (§5, "this computation can be removed for better efficiency").
//! Fingerprints hash public data only, so the members of one world
//! take each one once, through the world's [`FingerprintShare`].
//!
//! A tree decoded from the wire is at most 64 levels deep
//! ([`KeyTree::decode`]), which bounds the recursive walks (`height`,
//! `encode`); everything a skinny tree of view size goes through —
//! members, fingerprints, grafting, removal — is a loop.

use gkap_bignum::Ubig;
use gkap_crypto::sha::{Digest, Sha256};
use gkap_gcs::ClientId;

use crate::codec::{Dec, DecodeError, Enc};
use crate::memo::Table;

/// Index of a node in the tree arena.
pub type NodeIdx = usize;

/// Two key trees that must share one structure do not (see
/// [`KeyTree::adopt_bkeys`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StructureMismatch;

/// The subtree fingerprints of one tree taken so far
/// ([`KeyTree::fingerprint_once`]); valid until a leaf changes.
#[derive(Debug, Default)]
pub struct Fingerprints(Vec<Option<[u8; 32]>>);

/// The subtree fingerprints the members of one world have taken, by
/// content: a leaf's by its `(member, bkey)`, an internal node's by
/// its children's fingerprints. Every member of a world holds the same
/// public tree, so the first to fingerprint a subtree hashes it and
/// the others look it up ([`KeyTree::fingerprint_once`]). It holds
/// public data only, never a key. A world keeps its share in its memo
/// of pure results, which ages it with the memo's other tables: two
/// generations, the last two views' (DESIGN.md §36, §38).
#[derive(Default)]
pub struct FingerprintShare {
    leaves: Table<(ClientId, Option<Ubig>), [u8; 32]>,
    nodes: Table<([u8; 32], [u8; 32]), [u8; 32]>,
}

impl FingerprintShare {
    /// Starts a generation (see [`Table::retire`]).
    pub(crate) fn retire(&mut self) {
        self.leaves.retire();
        self.nodes.retire();
    }

    fn leaf(&mut self, member: ClientId, bkey: Option<&Ubig>) -> [u8; 32] {
        *self.leaves.recall((member, bkey.cloned()), || {
            let mut h = Sha256::new();
            h.update(b"leaf");
            h.update(&(member as u64).to_be_bytes());
            if let Some(bk) = bkey {
                h.update(&bk.to_be_bytes());
            }
            digest(h)
        })
    }

    fn node(&mut self, left: [u8; 32], right: [u8; 32]) -> [u8; 32] {
        *self.nodes.recall((left, right), || {
            let mut h = Sha256::new();
            h.update(b"node");
            h.update(&left);
            h.update(&right);
            digest(h)
        })
    }
}

fn digest(h: Sha256) -> [u8; 32] {
    h.finalize().try_into().expect("32 bytes")
}

/// One node of the key tree.
#[derive(Clone, PartialEq, Eq)]
pub struct Node {
    /// Parent index (`None` for the root).
    pub parent: Option<NodeIdx>,
    /// Children (`None` for leaves): `(left, right)`.
    pub children: Option<(NodeIdx, NodeIdx)>,
    /// Owning member for leaves.
    pub member: Option<ClientId>,
    /// Secret key (session random at leaves, DH agreement inside).
    /// Only present on the paths a member can actually compute.
    pub key: Option<Ubig>,
    /// Blinded key `g^key` — public information.
    pub bkey: Option<Ubig>,
}

impl std::fmt::Debug for Node {
    /// Redacts the node secret: only the topology, the owning member,
    /// and key *presence* are printed. The blinded key is public but
    /// large, so it is elided too.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("parent", &self.parent)
            .field("children", &self.children)
            .field("member", &self.member)
            .field("key", &self.key.as_ref().map(|_| "<redacted>"))
            .field("bkey", &self.bkey.is_some())
            .finish()
    }
}

/// A binary key tree (arena representation; removed nodes are left
/// unlinked and skipped by traversals).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyTree {
    nodes: Vec<Node>,
    root: Option<NodeIdx>,
}

impl KeyTree {
    /// An empty tree.
    pub fn new() -> Self {
        KeyTree::default()
    }

    /// A tree with a single leaf.
    pub fn singleton(member: ClientId, key: Option<Ubig>, bkey: Option<Ubig>) -> Self {
        KeyTree {
            nodes: vec![Node {
                parent: None,
                children: None,
                member: Some(member),
                key,
                bkey,
            }],
            root: Some(0),
        }
    }

    /// The root index.
    ///
    /// # Panics
    ///
    /// Panics on an empty tree.
    pub fn root(&self) -> NodeIdx {
        self.root.expect("empty key tree")
    }

    /// Whether the tree has any nodes.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Borrow a node.
    pub fn node(&self, idx: NodeIdx) -> &Node {
        &self.nodes[idx]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, idx: NodeIdx) -> &mut Node {
        &mut self.nodes[idx]
    }

    /// Height of the subtree at `idx` (a leaf has height 0).
    pub fn height(&self, idx: NodeIdx) -> usize {
        match self.nodes[idx].children {
            None => 0,
            Some((l, r)) => 1 + self.height(l).max(self.height(r)),
        }
    }

    /// Depth of `idx` (root has depth 0).
    pub fn depth(&self, idx: NodeIdx) -> usize {
        let mut d = 0;
        let mut cur = idx;
        while let Some(p) = self.nodes[cur].parent {
            cur = p;
            d += 1;
        }
        d
    }

    /// The members at the leaves of the subtree rooted at `idx`, in
    /// left-to-right order.
    fn members_under(&self, idx: NodeIdx) -> Vec<ClientId> {
        self.preorder_from(Some(idx))
            .filter_map(|i| self.nodes[i].member)
            .collect()
    }

    /// All members of the tree, left-to-right.
    pub fn members(&self) -> Vec<ClientId> {
        self.root.map(|r| self.members_under(r)).unwrap_or_default()
    }

    /// The rightmost leaf of the subtree rooted at `idx`.
    pub fn rightmost_leaf(&self, idx: NodeIdx) -> NodeIdx {
        let mut cur = idx;
        while let Some((_, r)) = self.nodes[cur].children {
            cur = r;
        }
        cur
    }

    /// Finds a member's leaf.
    pub fn leaf_of(&self, member: ClientId) -> Option<NodeIdx> {
        self.preorder()
            .find(|&i| self.nodes[i].member == Some(member))
    }

    /// The live (reachable) node indices in preorder: every parent
    /// before its children, left subtree before right.
    pub fn preorder(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.preorder_from(self.root)
    }

    fn preorder_from(&self, top: Option<NodeIdx>) -> impl Iterator<Item = NodeIdx> + '_ {
        let mut stack = Vec::from_iter(top);
        std::iter::from_fn(move || {
            let cur = stack.pop()?;
            if let Some((l, r)) = self.nodes[cur].children {
                stack.push(r);
                stack.push(l);
            }
            Some(cur)
        })
    }

    /// Sibling of `idx`, if it has a parent.
    pub fn sibling(&self, idx: NodeIdx) -> Option<NodeIdx> {
        let p = self.nodes[idx].parent?;
        let (l, r) = self.nodes[p].children.expect("parent is internal");
        Some(if l == idx { r } else { l })
    }

    fn push(&mut self, node: Node) -> NodeIdx {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Deterministic insertion point for merging a subtree of height
    /// `h2`: the shallowest, rightmost node `v` where a new internal
    /// node above `v` does not increase the tree height; the root if
    /// none exists (paper §4.3 footnote 5).
    pub fn insertion_point(&self, h2: usize) -> NodeIdx {
        let root = self.root();
        let h1 = self.height(root);
        // Collect candidates (depth, preorder position) — scan all live
        // nodes, pick min depth; tie-break to the rightmost, which we
        // identify by the largest left-to-right position of the
        // subtree's rightmost leaf.
        let mut best: Option<(usize, usize, NodeIdx)> = None; // (depth, rightpos, idx)
        let order: Vec<NodeIdx> = self.preorder().collect();
        let pos_of = |idx: NodeIdx| order.iter().position(|&x| x == idx).expect("live");
        for v in self.preorder() {
            let d = self.depth(v);
            if d + 1 + self.height(v).max(h2) <= h1 {
                let rp = pos_of(self.rightmost_leaf(v));
                let better = match best {
                    None => true,
                    Some((bd, brp, _)) => d < bd || (d == bd && rp > brp),
                };
                if better {
                    best = Some((d, rp, v));
                }
            }
        }
        best.map(|(_, _, v)| v).unwrap_or(root)
    }

    /// Merges `other` into `self` at the deterministic
    /// [insertion point](KeyTree::insertion_point) — TGDH's rule; see
    /// [`KeyTree::graft_at`] for what a merge does to the tree.
    ///
    /// # Panics
    ///
    /// Panics if either tree is empty.
    pub fn merge(&mut self, other: &KeyTree) -> NodeIdx {
        assert!(!other.is_empty(), "cannot merge an empty tree");
        let at = self.insertion_point(other.height(other.root()));
        self.graft_at(at, other)
    }

    /// Puts a new internal node where `at` is, with `at` as its left
    /// child and `other` as its right, and returns its index (the
    /// merge point). All keys and blinded keys on the path from the
    /// merge point to the root are invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `other` is empty or `at` is not a node of this tree.
    pub fn graft_at(&mut self, at: NodeIdx, other: &KeyTree) -> NodeIdx {
        // Import other's nodes into our arena.
        let offset = self.nodes.len();
        for n in &other.nodes {
            self.nodes.push(Node {
                parent: n.parent.map(|p| p + offset),
                children: n.children.map(|(l, r)| (l + offset, r + offset)),
                member: n.member,
                key: n.key.clone(),
                bkey: n.bkey.clone(),
            });
        }
        let other_root = other.root() + offset;

        let old_parent = self.nodes[at].parent;
        let new_internal = self.push(Node {
            parent: old_parent,
            children: Some((at, other_root)),
            member: None,
            key: None,
            bkey: None,
        });
        self.nodes[at].parent = Some(new_internal);
        self.nodes[other_root].parent = Some(new_internal);
        match old_parent {
            None => self.root = Some(new_internal),
            Some(p) => {
                let (l, r) = self.nodes[p].children.expect("internal");
                self.nodes[p].children = Some(if l == at {
                    (new_internal, r)
                } else {
                    (l, new_internal)
                });
            }
        }
        self.invalidate_to_root(new_internal);
        new_internal
    }

    /// Invalidates keys and blinded keys from `idx` up to the root.
    pub fn invalidate_to_root(&mut self, idx: NodeIdx) {
        let mut cur = Some(idx);
        while let Some(i) = cur {
            self.nodes[i].key = None;
            self.nodes[i].bkey = None;
            cur = self.nodes[i].parent;
        }
    }

    /// Removes members' leaves with sibling promotion, invalidating all
    /// affected paths. Removal proceeds in ascending member order so
    /// every member derives the same final structure.
    pub fn remove_members(&mut self, leaving: &[ClientId]) {
        let mut leavers: Vec<ClientId> = leaving.to_vec();
        leavers.sort_unstable();
        for m in leavers {
            let leaf = match self.leaf_of(m) {
                Some(l) => l,
                None => continue,
            };
            match self.nodes[leaf].parent {
                None => {
                    // Lone member left the group; tree becomes empty.
                    self.root = None;
                    return;
                }
                Some(parent) => {
                    let sib = self.sibling(leaf).expect("leaf has parent");
                    let grand = self.nodes[parent].parent;
                    self.nodes[sib].parent = grand;
                    match grand {
                        None => {
                            self.root = Some(sib);
                            self.invalidate_to_root(sib);
                        }
                        Some(g) => {
                            let (l, r) = self.nodes[g].children.expect("internal");
                            self.nodes[g].children =
                                Some(if l == parent { (sib, r) } else { (l, sib) });
                            self.invalidate_to_root(g);
                        }
                    }
                    // Unlink removed nodes defensively.
                    self.nodes[leaf].parent = None;
                    self.nodes[parent].children = None;
                    self.nodes[parent].member = None;
                }
            }
        }
    }

    /// The deepest live internal node lacking a blinded key whose
    /// children both have blinded keys (rightmost on depth ties) — the
    /// next node the partition protocol can make progress on.
    pub fn lowest_incomplete(&self) -> Option<NodeIdx> {
        let mut best: Option<(usize, usize, NodeIdx)> = None;
        for (pos, v) in self.preorder().enumerate() {
            let n = &self.nodes[v];
            let Some((l, r)) = n.children else { continue };
            if n.bkey.is_none() && self.nodes[l].bkey.is_some() && self.nodes[r].bkey.is_some() {
                let d = self.depth(v);
                let better = match best {
                    None => true,
                    Some((bd, bpos, _)) => d > bd || (d == bd && pos > bpos),
                };
                if better {
                    best = Some((d, pos, v));
                }
            }
        }
        best.map(|(_, _, v)| v)
    }

    /// Structural fingerprint of the subtree at `idx`: a hash over leaf
    /// members and blinded keys. Two members holding subtrees with the
    /// same fingerprint hold the same (sub)group state, so cached keys
    /// can be reused.
    ///
    /// `seen` hashes each node at most once — for a caller that asks
    /// about many nodes of a tree whose leaves it does not change in
    /// between. A walk up one path asks about every node on it, and
    /// from scratch each answer re-hashes everything below: quadratic
    /// in the depth, and a skinny tree is as deep as the group is
    /// large. `share` does the same across the members of a world:
    /// a node some member already hashed is looked up, not hashed.
    pub fn fingerprint_once(
        &self,
        idx: NodeIdx,
        seen: &mut Fingerprints,
        share: &mut FingerprintShare,
    ) -> [u8; 32] {
        seen.0.resize(self.nodes.len(), None);
        let mut todo = vec![idx];
        while let Some(&i) = todo.last() {
            if seen.0[i].is_none() {
                let node = &self.nodes[i];
                let fp = match node.children {
                    None => share.leaf(node.member.expect("leaf"), node.bkey.as_ref()),
                    Some((l, r)) => {
                        let (Some(left), Some(right)) = (seen.0[l], seen.0[r]) else {
                            todo.extend([l, r]);
                            continue;
                        };
                        share.node(left, right)
                    }
                };
                seen.0[i] = Some(fp);
            }
            todo.pop();
        }
        seen.0[idx].expect("the loop hashed the bottom of its stack last")
    }

    /// Serializes structure + blinded keys (never secret keys).
    pub fn encode(&self, enc: &mut Enc) {
        fn rec(tree: &KeyTree, idx: NodeIdx, enc: &mut Enc) {
            match tree.nodes[idx].children {
                None => {
                    enc.u8(0);
                    enc.u32(tree.nodes[idx].member.expect("leaf") as u32);
                    enc.opt_ubig(tree.nodes[idx].bkey.as_ref());
                }
                Some((l, r)) => {
                    enc.u8(1);
                    enc.opt_ubig(tree.nodes[idx].bkey.as_ref());
                    rec(tree, l, enc);
                    rec(tree, r, enc);
                }
            }
        }
        match self.root {
            None => {
                enc.u8(2);
            }
            Some(r) => rec(self, r, enc),
        }
    }

    /// Deserializes a tree encoded by [`KeyTree::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(dec: &mut Dec<'_>) -> Result<KeyTree, DecodeError> {
        fn parse(
            tree: &mut KeyTree,
            dec: &mut Dec<'_>,
            tag: u8,
            depth: usize,
        ) -> Result<NodeIdx, DecodeError> {
            if depth > 64 {
                return Err(DecodeError {
                    context: "tree too deep",
                });
            }
            match tag {
                0 => {
                    let member = dec.u32("leaf member")? as ClientId;
                    let bkey = dec.opt_ubig("leaf bkey")?;
                    Ok(tree.push(Node {
                        parent: None,
                        children: None,
                        member: Some(member),
                        key: None,
                        bkey,
                    }))
                }
                1 => {
                    let bkey = dec.opt_ubig("node bkey")?;
                    let lt = dec.u8("tree node tag")?;
                    let l = parse(tree, dec, lt, depth + 1)?;
                    let rt = dec.u8("tree node tag")?;
                    let r = parse(tree, dec, rt, depth + 1)?;
                    let me = tree.push(Node {
                        parent: None,
                        children: Some((l, r)),
                        member: None,
                        key: None,
                        bkey,
                    });
                    tree.nodes[l].parent = Some(me);
                    tree.nodes[r].parent = Some(me);
                    Ok(me)
                }
                _ => Err(DecodeError {
                    context: "tree node tag",
                }),
            }
        }
        let mut tree = KeyTree::new();
        let tag = dec.u8("tree tag")?;
        if tag == 2 {
            return Ok(tree);
        }
        let root = parse(&mut tree, dec, tag, 0)?;
        tree.root = Some(root);
        Ok(tree)
    }

    /// Adopts blinded keys present in `other` (same structure) that we
    /// lack. Returns how many were adopted.
    ///
    /// # Errors
    ///
    /// [`StructureMismatch`] if the two trees differ in shape or leaf
    /// order. All members derive identical structures, so a peer's
    /// tree that differs is a protocol violation — for the caller to
    /// report, not a reason to abort the process.
    pub fn adopt_bkeys(&mut self, other: &KeyTree) -> Result<usize, StructureMismatch> {
        let mine: Vec<NodeIdx> = self.preorder().collect();
        let theirs: Vec<NodeIdx> = other.preorder().collect();
        // Preorder with each node's member (`None` for an internal
        // node) determines a full binary tree.
        let same = mine.len() == theirs.len()
            && mine
                .iter()
                .zip(&theirs)
                .all(|(&m, &t)| self.nodes[m].member == other.nodes[t].member);
        if !same {
            return Err(StructureMismatch);
        }
        let mut adopted = 0;
        for (&m, &t) in mine.iter().zip(theirs.iter()) {
            if self.nodes[m].bkey.is_none() {
                if let Some(bk) = &other.nodes[t].bkey {
                    self.nodes[m].bkey = Some(bk.clone());
                    adopted += 1;
                }
            }
        }
        Ok(adopted)
    }

    /// The tree without its secret keys: what goes on the wire ("the
    /// keys are never broadcasted", §4.3). Built keyless, so no key is
    /// copied.
    pub fn public(&self) -> KeyTree {
        let nodes = self.nodes.iter().map(|n| Node {
            parent: n.parent,
            children: n.children,
            member: n.member,
            key: None,
            bkey: n.bkey.clone(),
        });
        KeyTree {
            nodes: nodes.collect(),
            root: self.root,
        }
    }

    // ------------------------------------------------------------------
    // AVL-style balancing (footnote 7 of the paper: "the tree can be
    // better balanced when using the AVL tree management technique…
    // however, this will incur a higher communication cost for a leave
    // operation"). Rotations are deterministic, so every member
    // derives the same rebalanced structure; rotated nodes lose their
    // keys and blinded keys, and the regular sponsor machinery re-keys
    // them — the extra rounds ARE the predicted higher leave cost.
    // ------------------------------------------------------------------

    fn balance_factor(&self, idx: NodeIdx) -> isize {
        match self.nodes[idx].children {
            None => 0,
            Some((l, r)) => self.height(l) as isize - self.height(r) as isize,
        }
    }

    /// Replaces `old_child` with `new_child` in the parent link of
    /// `old_child` (or the root).
    fn replace_in_parent(&mut self, old_child: NodeIdx, new_child: NodeIdx) {
        let parent = self.nodes[old_child].parent;
        self.nodes[new_child].parent = parent;
        match parent {
            None => self.root = Some(new_child),
            Some(p) => {
                let (l, r) = self.nodes[p].children.expect("internal");
                self.nodes[p].children = Some(if l == old_child {
                    (new_child, r)
                } else {
                    (l, new_child)
                });
            }
        }
    }

    /// Left rotation at `v` (right child rises). Invalidate `v` and the
    /// risen child: their subtree compositions changed.
    fn rotate_left(&mut self, v: NodeIdx) -> NodeIdx {
        let (vl, vr) = self.nodes[v].children.expect("rotate needs internal");
        let (rl, rr) = self.nodes[vr].children.expect("heavy child is internal");
        self.replace_in_parent(v, vr);
        self.nodes[vr].children = Some((v, rr));
        self.nodes[v].parent = Some(vr);
        self.nodes[v].children = Some((vl, rl));
        self.nodes[rl].parent = Some(v);
        for n in [v, vr] {
            self.nodes[n].key = None;
            self.nodes[n].bkey = None;
        }
        vr
    }

    /// Right rotation at `v` (left child rises).
    fn rotate_right(&mut self, v: NodeIdx) -> NodeIdx {
        let (vl, vr) = self.nodes[v].children.expect("rotate needs internal");
        let (ll, lr) = self.nodes[vl].children.expect("heavy child is internal");
        self.replace_in_parent(v, vl);
        self.nodes[vl].children = Some((ll, v));
        self.nodes[v].parent = Some(vl);
        self.nodes[v].children = Some((lr, vr));
        self.nodes[lr].parent = Some(v);
        for n in [v, vl] {
            self.nodes[n].key = None;
            self.nodes[n].bkey = None;
        }
        vl
    }

    /// AVL-balances the whole tree (repeated bottom-up passes until no
    /// node has |balance| > 1). Returns the number of rotations, and
    /// invalidates every rotated node's keys up to the root.
    pub fn rebalance(&mut self) -> usize {
        let mut rotations = 0;
        loop {
            // Deepest unbalanced node first (post-order style scan).
            let mut worst: Option<(usize, NodeIdx)> = None;
            let live: Vec<NodeIdx> = {
                let mut v: Vec<NodeIdx> = self.preorder().collect();
                v.reverse();
                v
            };
            for idx in live {
                if self.balance_factor(idx).abs() > 1 {
                    let d = self.depth(idx);
                    if worst.map(|(wd, _)| d > wd).unwrap_or(true) {
                        worst = Some((d, idx));
                    }
                }
            }
            let Some((_, v)) = worst else { break };
            let bf = self.balance_factor(v);
            let (l, r) = self.nodes[v].children.expect("unbalanced => internal");
            let new_top = if bf > 1 {
                // Left-heavy; double-rotate if the left child leans right.
                if self.balance_factor(l) < 0 {
                    self.rotate_left(l);
                    rotations += 1;
                }
                self.rotate_right(v)
            } else {
                if self.balance_factor(r) > 0 {
                    self.rotate_right(r);
                    rotations += 1;
                }
                self.rotate_left(v)
            };
            rotations += 1;
            self.invalidate_to_root(new_top);
            if rotations > 4 * self.nodes.len() {
                unreachable!("AVL rebalance failed to converge");
            }
        }
        rotations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::WorldMemo;

    impl FingerprintShare {
        /// The number of fingerprints of the current generation.
        pub(crate) fn len(&self) -> usize {
            self.leaves.len() + self.nodes.len()
        }
    }

    fn bk(v: u64) -> Option<Ubig> {
        Some(Ubig::from(v))
    }

    fn root_fingerprint(tree: &KeyTree) -> [u8; 32] {
        let share = &mut FingerprintShare::default();
        tree.fingerprint_once(tree.root(), &mut Fingerprints::default(), share)
    }

    fn tree_of(members: &[ClientId]) -> KeyTree {
        let mut t = KeyTree::singleton(members[0], None, bk(members[0] as u64 + 100));
        for &m in &members[1..] {
            let s = KeyTree::singleton(m, None, bk(m as u64 + 100));
            t.merge(&s);
        }
        t
    }

    #[test]
    fn singleton_and_accessors() {
        let t = KeyTree::singleton(5, None, bk(1));
        assert_eq!(t.members(), vec![5]);
        assert_eq!(t.height(t.root()), 0);
        assert_eq!(t.leaf_of(5), Some(t.root()));
        assert_eq!(t.leaf_of(6), None);
        assert!(!t.is_empty());
        assert!(KeyTree::new().is_empty());
    }

    #[test]
    fn sequential_merges_stay_balanced() {
        // Inserting singletons one at a time must keep height near
        // log2 (the shallowest-insertion heuristic).
        let t = tree_of(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(t.members().len(), 8);
        assert_eq!(t.height(t.root()), 3, "8 leaves fit a height-3 tree");
        let t = tree_of(&[0, 1, 2, 3, 4]);
        assert!(t.height(t.root()) <= 3);
    }

    #[test]
    fn merge_invalidates_path_to_root() {
        let mut t = tree_of(&[0, 1]);
        // Give the root a bkey to check invalidation.
        let r = t.root();
        t.node_mut(r).bkey = bk(9);
        t.node_mut(r).key = Some(Ubig::from(9u64));
        let mp = t.merge(&KeyTree::singleton(2, None, bk(102)));
        assert!(t.node(mp).bkey.is_none());
        let r = t.root();
        assert!(t.node(r).bkey.is_none());
        assert!(t.node(r).key.is_none());
    }

    #[test]
    fn merge_of_two_groups_appends_right() {
        let mut a = tree_of(&[0, 1, 2]);
        let b = tree_of(&[10, 11]);
        let mp = a.merge(&b);
        let members = a.members();
        assert_eq!(members.len(), 5);
        // b's members appear contiguously (as a subtree).
        let pos10 = members.iter().position(|&m| m == 10).unwrap();
        assert_eq!(&members[pos10..pos10 + 2], &[10, 11]);
        // Merge point's right child holds exactly b's members.
        let (_, r) = a.node(mp).children.unwrap();
        assert_eq!(a.members_under(r), vec![10, 11]);
    }

    #[test]
    fn remove_member_promotes_sibling() {
        let mut t = tree_of(&[0, 1, 2, 3]);
        t.remove_members(&[2]);
        assert_eq!(t.members(), vec![0, 1, 3]);
        // Root path invalidated.
        let r = t.root();
        assert!(t.node(r).bkey.is_none());
        // Remaining leaves intact with bkeys.
        for m in [0, 1, 3] {
            let leaf = t.leaf_of(m).unwrap();
            assert!(t.node(leaf).bkey.is_some());
        }
    }

    #[test]
    fn remove_multiple_members_deterministic() {
        let build = || {
            let mut t = tree_of(&[0, 1, 2, 3, 4, 5, 6, 7]);
            t.remove_members(&[1, 4, 6]);
            t
        };
        let a = build();
        let b = build();
        assert_eq!(a.members(), b.members());
        assert_eq!(a.members(), vec![0, 2, 3, 5, 7]);
        assert_eq!(root_fingerprint(&a), root_fingerprint(&b));
    }

    #[test]
    fn remove_last_member_empties_tree() {
        let mut t = KeyTree::singleton(0, None, bk(1));
        t.remove_members(&[0]);
        assert!(t.is_empty());
    }

    #[test]
    fn rightmost_leaf_and_sibling() {
        let t = tree_of(&[0, 1, 2, 3]);
        let rm = t.rightmost_leaf(t.root());
        assert_eq!(t.node(rm).member, Some(*t.members().last().unwrap()));
        let leaf0 = t.leaf_of(0).unwrap();
        let sib = t.sibling(leaf0).unwrap();
        assert_ne!(sib, leaf0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut t = tree_of(&[3, 1, 4, 1 + 4, 9]);
        // Mixed bkey presence.
        let r = t.root();
        t.node_mut(r).bkey = None;
        let mut enc = Enc::new();
        t.encode(&mut enc);
        let wire = enc.finish();
        let mut dec = Dec::new(&wire);
        let back = KeyTree::decode(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back.members(), t.members());
        assert_eq!(root_fingerprint(&back), root_fingerprint(&t));
        // Empty tree.
        let mut enc = Enc::new();
        KeyTree::new().encode(&mut enc);
        let wire = enc.finish();
        let mut dec = Dec::new(&wire);
        assert!(KeyTree::decode(&mut dec).unwrap().is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut dec = Dec::new(&[7]);
        assert!(KeyTree::decode(&mut dec).is_err());
        let mut dec = Dec::new(&[]);
        assert!(KeyTree::decode(&mut dec).is_err());
    }

    #[test]
    fn adopt_bkeys_fills_gaps() {
        let mut a = tree_of(&[0, 1, 2]);
        let b = a.clone();
        // Blank one bkey in a.
        let leaf1 = a.leaf_of(1).unwrap();
        a.node_mut(leaf1).bkey = None;
        assert_eq!(a.adopt_bkeys(&b), Ok(1));
        assert_eq!(a.node(leaf1).bkey, b.node(b.leaf_of(1).unwrap()).bkey);
    }

    #[test]
    fn adopt_bkeys_rejects_structure_mismatch() {
        let mut a = tree_of(&[0, 1, 2]);
        let before = a.clone();
        // Other leaves, the same leaves in another order, another shape.
        for other in [tree_of(&[0, 1, 3]), tree_of(&[1, 0, 2]), tree_of(&[0, 1])] {
            assert_eq!(a.adopt_bkeys(&other), Err(StructureMismatch));
        }
        // Same leaves in the same order under another shape: 0·(1·2)
        // against (0·1)·2.
        let mut skewed = tree_of(&[0]);
        skewed.merge(&tree_of(&[1, 2]));
        assert_eq!(skewed.members(), a.members());
        assert_eq!(a.adopt_bkeys(&skewed), Err(StructureMismatch));
        assert_eq!(a, before, "a rejected tree changes nothing");
    }

    #[test]
    fn lowest_incomplete_prefers_deepest() {
        let mut t = tree_of(&[0, 1, 2, 3]);
        // Invalidate everything above the leaves.
        let r = t.root();
        let (l, rr) = t.node(r).children.unwrap();
        t.node_mut(r).bkey = None;
        t.node_mut(l).bkey = None;
        t.node_mut(rr).bkey = None;
        let low = t.lowest_incomplete().unwrap();
        // Must be one of the depth-1 nodes (children have bkeys).
        assert!(low == l || low == rr);
        assert_eq!(t.depth(low), 1);
    }

    #[test]
    fn rebalance_flattens_a_chain() {
        // Build a pathological chain by always grafting at the root.
        let mut t = KeyTree::singleton(0, None, bk(100));
        for m in 1..16 {
            let s = KeyTree::singleton(m, None, bk(100 + m as u64));
            t.graft_at(t.root(), &s);
        }
        let before = t.height(t.root());
        assert_eq!(before, 15);
        let rotations = t.rebalance();
        let after = t.height(t.root());
        assert!(after <= before);
        assert!(after <= 5, "16 leaves must fit height ~4-5, got {after}");
        assert_eq!(t.members().len(), 16);
        // Idempotent once balanced.
        if rotations > 0 {
            assert_eq!(t.rebalance(), 0);
        }
    }

    #[test]
    fn rebalance_preserves_leaf_set_and_bkeys() {
        let mut t = tree_of(&[0, 1, 2, 3, 4, 5, 6]);
        t.remove_members(&[1, 2, 3]);
        let mut members_before = t.members();
        members_before.sort_unstable();
        t.rebalance();
        let mut members_after = t.members();
        members_after.sort_unstable();
        assert_eq!(members_before, members_after);
        for &m in &members_after {
            let leaf = t.leaf_of(m).unwrap();
            assert!(t.node(leaf).bkey.is_some(), "leaf bkeys survive rotation");
        }
        // Parent/child links are consistent.
        assert!(t.node(t.root()).parent.is_none());
    }

    #[test]
    fn rebalance_is_deterministic() {
        let build = || {
            let mut t = tree_of(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
            t.remove_members(&[0, 1, 2, 3]);
            t.rebalance();
            t
        };
        let a = build();
        let b = build();
        assert_eq!(a.members(), b.members());
        assert_eq!(root_fingerprint(&a), root_fingerprint(&b));
    }

    #[test]
    fn the_share_keeps_two_generations_of_fingerprints() {
        let t1 = tree_of(&[0, 1, 2, 3, 4]);
        let mut t2 = t1.clone();
        let leaf = t2.leaf_of(4).unwrap();
        t2.node_mut(leaf).bkey = bk(999);
        let take = |memo: &mut WorldMemo, view, tree: &KeyTree| {
            let seen = &mut Fingerprints::default();
            tree.fingerprint_once(tree.root(), seen, &mut memo.at_view(view).fingerprints)
        };
        let mut memo = WorldMemo::default();
        assert_eq!(take(&mut memo, 1, &t1), root_fingerprint(&t1));
        assert_eq!(memo.fingerprints.len(), 9, "five leaves, four nodes");
        // A newer view: what t2 shares with t1 carries forward, and
        // t2's changed leaf and its path are new.
        assert_eq!(take(&mut memo, 2, &t2), root_fingerprint(&t2));
        assert_eq!(memo.fingerprints.len(), 9);
        let t1_leaf = (4, bk(104));
        assert!(memo.fingerprints.leaves.holds(&t1_leaf));
        // The next one retires what only t1 was built of.
        take(&mut memo, 3, &KeyTree::singleton(7, None, bk(7)));
        assert_eq!(memo.fingerprints.len(), 1);
        assert!(!memo.fingerprints.leaves.holds(&t1_leaf));
        // An older view swaps nothing.
        take(&mut memo, 2, &t2);
        assert_eq!(memo.fingerprints.len(), 1 + 9);
    }

    #[test]
    fn the_public_tree_is_the_tree_without_its_keys() {
        let mut t = tree_of(&[0, 1, 2, 3, 4]);
        t.merge(&KeyTree::singleton(5, bk(15), bk(105)));
        let root = t.root();
        t.node_mut(root).key = bk(77);
        let mut cleared = t.clone();
        for n in &mut cleared.nodes {
            n.key = None;
        }
        let public = t.public();
        assert_eq!(public, cleared, "field for field");
        assert!(public.nodes.iter().all(|n| n.key.is_none()));
        let keyed = t.nodes.iter().filter(|n| n.key.is_some()).count();
        assert_eq!(keyed, 2, "the tree keeps its own keys");
    }

    #[test]
    fn fingerprint_tracks_bkey_changes() {
        let t1 = tree_of(&[0, 1, 2]);
        let mut t2 = t1.clone();
        let f1 = root_fingerprint(&t1);
        assert_eq!(f1, root_fingerprint(&t2));
        let leaf = t2.leaf_of(1).unwrap();
        t2.node_mut(leaf).bkey = bk(999);
        assert_ne!(f1, root_fingerprint(&t2));
    }
}
