//! Tree-based Group Diffie–Hellman (TGDH), §4.3 of the paper: the
//! [`TreeGka`] driver over a key tree that is kept balanced.
//!
//! What TGDH decides for itself is [`TreePolicy`]'s [`TreeShape`]:
//!
//! * a joining component is grafted at the shallowest, rightmost node
//!   where it does not make the tree taller
//!   ([`KeyTree::insertion_point`], footnote 5), and under
//!   [`TreePolicy::Avl`] the tree is AVL-rebalanced after every
//!   membership change (footnote 7);
//! * after a leave, the rightmost member under the lowest node the
//!   group can recompute refreshes its session random (the tree's
//!   rightmost member when no node is affected) — and if that sponsor
//!   cannot reach the root, the next one takes over, which is the
//!   multi-round partition protocol of Figure 6;
//! * the tree goes on the wire as it is ([`KeyTree::encode`]; a
//!   decoded tree is at most 64 levels deep).

use gkap_gcs::ClientId;

use crate::protocols::tree_gka::{TreeGka, TreeShape};
use crate::protocols::{GkaError, ProtocolKind, ProtocolMsg};
use crate::tree::KeyTree;

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

impl TreeShape for TreePolicy {
    const KIND: ProtocolKind = ProtocolKind::Tgdh;
    const FORMS_BLINDED_ROOT: bool = true;
    /// Round-1 publication duty ends at assembly.
    const SPONSOR_STAYS_PUBLISHER: bool = false;

    fn graft(&self, tree: &mut KeyTree, other: &KeyTree) {
        tree.merge(other);
    }

    fn settle(&self, tree: &mut KeyTree) {
        if *self == TreePolicy::Avl {
            tree.rebalance();
        }
    }

    /// The sponsor (rightmost leaf) of the lowest recomputable wound,
    /// if any.
    fn refresher(&self, tree: &KeyTree, _: &[ClientId], _: &[ClientId]) -> Option<ClientId> {
        let wound = tree.lowest_incomplete()?;
        tree.node(tree.rightmost_leaf(wound)).member
    }

    /// "The keys are never broadcast" (§4.3 footnote 4).
    fn to_msg(tree: &KeyTree) -> ProtocolMsg {
        ProtocolMsg::TgdhTree {
            tree: tree.public(),
        }
    }

    fn from_msg(msg: ProtocolMsg, _view: &[ClientId]) -> Result<KeyTree, GkaError> {
        match msg {
            ProtocolMsg::TgdhTree { tree } => Ok(tree),
            _ => Err(GkaError::UnexpectedMessage("not a TGDH message")),
        }
    }
}

/// TGDH protocol engine for one member.
pub type Tgdh = TreeGka<TreePolicy>;

impl Tgdh {
    /// Creates an engine with AVL tree management (footnote 7).
    pub fn new_avl() -> Self {
        TreeGka::with_shape(TreePolicy::Avl)
    }

    /// The current tree height (diagnostics/ablations).
    pub fn tree_height(&self) -> usize {
        if self.tree().is_empty() {
            0
        } else {
            self.tree().height(self.tree().root())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{GkaProtocol, ProtocolKind};
    use crate::suite::CryptoSuite;
    use crate::testkit::Loopback;

    #[test]
    fn bootstrap_agrees_across_members() {
        let members = [0, 1, 2, 3, 4, 5, 6];
        let mut lb = Loopback::new(ProtocolKind::Tgdh, CryptoSuite::fast_zero(), &members);
        lb.bootstrap(&members, 77);
        lb.common_secret();
    }

    #[test]
    fn a_leaf_permuted_peer_tree_is_a_protocol_error_not_a_panic() {
        let suite = CryptoSuite::fast_zero();
        let mut lb = Loopback::new(ProtocolKind::Tgdh, CryptoSuite::fast_zero(), &[0, 1, 2, 3]);
        lb.bootstrap(&[0, 1, 2, 3], 7);
        // 3 leaves; none of the re-key is delivered yet.
        lb.install_view_interrupted(vec![0, 1, 2], vec![], vec![3], 0);
        // A peer that formed the same view in another leaf order: the
        // *sorted* leaf set passes the view check.
        let mut peer = Tgdh::default();
        peer.adopt(&peer.component(&suite, &[2, 0, 1], 7), 2)
            .unwrap();
        let msg = TreePolicy::to_msg(peer.tree());
        let tree = |lb: &Loopback| lb.member(0).protocol_as::<Tgdh>().unwrap().tree().clone();
        let before = tree(&lb);
        lb.forge(&suite, 2, 0, &msg);
        assert_eq!(
            lb.member(0).protocol_error(),
            Some(&GkaError::Protocol("key tree structure divergence"))
        );
        assert!(tree(&lb) == before, "a rejected tree changes nothing");
    }

    #[test]
    fn bootstrap_tree_is_consistent() {
        let suite = CryptoSuite::fast_zero();
        let members = vec![10, 20, 30, 40];
        let mut p = Tgdh::default();
        p.adopt(&p.component(&suite, &members, 3), 10).unwrap();
        assert_eq!(p.tree().members(), members);
        // Root bkey blinds the root key.
        let root = p.tree().node(p.tree().root());
        let k = root.key.clone().unwrap();
        let bk = root.bkey.clone().unwrap();
        assert_eq!(suite.group().exp_g(&k), bk);
    }
}
