//! STR — the "skinny tree" protocol, §4.4 of the paper: the
//! [`TreeGka`] driver over a key tree that is kept completely
//! imbalanced.
//!
//! Member `M_1` sits at the bottom and each further member joins one
//! level higher: leaf `i` is the right child of the node covering
//! members `1..=i`, so **every right child is a leaf**. Writing `k_i`
//! for the key of that node (`k_1` is `M_1`'s session random):
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
//! What STR decides for itself is [`Skinny`]'s [`TreeShape`]:
//!
//! * a joining component's members are stacked one level each on top
//!   of the tree ([`KeyTree::graft_at`] the root), so a join costs
//!   O(1) exponentiations per member;
//! * after a leave the member just below the lowest leaver refreshes
//!   its session random, and one broadcast from it re-keys the group —
//!   everyone above the change recomputes its tail of the chain,
//!   giving the linear (and steeper than GDH/CKD) leave cost visible
//!   in Figure 12;
//! * the tree goes on the wire as three aligned lists, bottom member
//!   first ([`ProtocolMsg::StrTree`]).

use gkap_gcs::ClientId;

use crate::protocols::tree_gka::{TreeGka, TreeShape};
use crate::protocols::{GkaError, ProtocolKind, ProtocolMsg};
use crate::tree::KeyTree;

/// The shape of an STR key tree: every right child is a leaf.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Skinny;

impl TreeShape for Skinny {
    const KIND: ProtocolKind = ProtocolKind::Str;
    /// "Up to the intermediate node just below the root" (§4.4).
    const FORMS_BLINDED_ROOT: bool = false;
    /// Every component's top member goes on blinding what it computes
    /// after the components are stacked.
    const SPONSOR_STAYS_PUBLISHER: bool = true;

    /// Stacks `other`'s members on top of `tree`, bottom member first;
    /// `other`'s internal nodes dissolve.
    fn graft(&self, tree: &mut KeyTree, other: &KeyTree) {
        for i in other.preorder() {
            let node = other.node(i);
            if let Some(member) = node.member {
                let leaf = KeyTree::singleton(member, node.key.clone(), node.bkey.clone());
                tree.graft_at(tree.root(), &leaf);
            }
        }
    }

    fn settle(&self, _tree: &mut KeyTree) {}

    /// The member just below the lowest leaver, or the new bottom
    /// member if the bottom one left. If no leaf left (the leaver
    /// joined and left within one agreement), [`TreeGka`]'s fallback,
    /// the rightmost member, is the top one.
    fn refresher(&self, _: &KeyTree, before: &[ClientId], left: &[ClientId]) -> Option<ClientId> {
        let lowest = before.iter().position(|m| left.contains(m))?;
        let below = before.get(..lowest)?.last();
        below
            .or_else(|| before.iter().find(|m| !left.contains(m)))
            .copied()
    }

    /// Bottom member first; `internal_bkeys[i]` is the blinded key of
    /// leaf `i`'s parent, so index 0 is padding.
    fn to_msg(tree: &KeyTree) -> ProtocolMsg {
        let (mut members, mut leaf_bkeys, mut internal_bkeys) = (vec![], vec![], vec![]);
        let mut spine = (!tree.is_empty()).then(|| tree.root());
        while let Some(i) = spine {
            let (leaf, internal) = match tree.node(i).children {
                Some((l, r)) => {
                    spine = Some(l);
                    (tree.node(r), tree.node(i).bkey.clone())
                }
                None => {
                    spine = None;
                    (tree.node(i), None)
                }
            };
            let Some(member) = leaf.member else {
                break; // not a skinny tree: no shape operation builds one
            };
            members.push(member);
            leaf_bkeys.push(leaf.bkey.clone());
            internal_bkeys.push(internal);
        }
        members.reverse();
        leaf_bkeys.reverse();
        internal_bkeys.reverse();
        ProtocolMsg::StrTree {
            members,
            leaf_bkeys,
            internal_bkeys,
        }
    }

    /// A chain is bounded by the view before a tree is built from it:
    /// the message decoder admits a million members.
    fn from_msg(msg: ProtocolMsg, view: &[ClientId]) -> Result<KeyTree, GkaError> {
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
        if members.len() > view.len() {
            return Err(GkaError::Protocol("STR chain longer than the view"));
        }
        let mut distinct = members.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() != members.len() {
            return Err(GkaError::Protocol("STR chain repeats a member"));
        }
        let mut tree = KeyTree::new();
        for ((member, leaf_bkey), internal_bkey) in
            members.into_iter().zip(leaf_bkeys).zip(internal_bkeys)
        {
            let leaf = KeyTree::singleton(member, None, leaf_bkey);
            if tree.is_empty() {
                tree = leaf;
            } else {
                let parent = tree.graft_at(tree.root(), &leaf);
                tree.node_mut(parent).bkey = internal_bkey;
            }
        }
        Ok(tree)
    }
}

/// STR protocol engine for one member.
pub type Str = TreeGka<Skinny>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::CryptoSuite;
    use crate::testkit::Loopback;
    use gkap_bignum::Ubig;
    use proptest::prelude::*;

    fn bk(v: u64) -> Option<Ubig> {
        Some(Ubig::from(v))
    }

    /// The chain `members` with leaf bkey `100 + member` and internal
    /// bkey `i` at every level but the bottom (padding) and the top.
    fn chain(members: &[ClientId]) -> ProtocolMsg {
        let n = members.len();
        ProtocolMsg::StrTree {
            members: members.to_vec(),
            leaf_bkeys: members.iter().map(|&m| bk(100 + m as u64)).collect(),
            internal_bkeys: (0..n)
                .map(|i| bk(i as u64).filter(|_| i > 0 && i + 1 < n))
                .collect(),
        }
    }

    fn is_skinny(tree: &KeyTree) -> bool {
        tree.preorder().all(|i| match tree.node(i).children {
            Some((_, r)) => tree.node(r).children.is_none(),
            None => true,
        })
    }

    #[test]
    fn bootstrap_agrees_across_members() {
        let members = vec![0, 1, 2, 3, 4];
        let mut lb = Loopback::new(ProtocolKind::Str, CryptoSuite::fast_zero(), &members);
        lb.bootstrap(&members, 21);
        lb.common_secret();
        for &m in &members {
            let tree = lb
                .member(m)
                .protocol_as::<Str>()
                .expect("an STR engine")
                .tree();
            assert!(is_skinny(tree));
            assert_eq!(tree.members(), members);
        }
    }

    #[test]
    fn chain_removal_preserves_lower_prefixes() {
        let view = [0, 1, 2, 3, 4];
        let mut tree = Skinny::from_msg(chain(&view), &view).unwrap();
        tree.remove_members(&[2]);
        let expected = ProtocolMsg::StrTree {
            members: vec![0, 1, 3, 4],
            leaf_bkeys: vec![bk(100), bk(101), bk(103), bk(104)],
            // The prefix below the removal kept its internal bkey; at
            // and above the removal they are invalidated.
            internal_bkeys: vec![None, bk(1), None, None],
        };
        assert_eq!(Skinny::to_msg(&tree), expected);
    }

    #[test]
    fn the_refresher_sits_just_below_the_lowest_leaver() {
        let before = [5, 6, 7, 8, 9];
        for (left, refresher) in [
            (&[5][..], Some(6)), // the bottom member left: the new bottom
            (&[7], Some(6)),
            (&[9], Some(8)), // the top member left
            (&[8, 6, 9], Some(5)),
            (&[5, 6, 8], Some(7)),
            (&[5, 6, 7, 8, 9], None),
            (&[4], None), // never in the tree: `TreeGka` picks the top member
        ] {
            let got = Skinny.refresher(&KeyTree::new(), &before, left);
            assert_eq!(got, refresher, "{left:?} left");
        }
    }

    /// Decision (f): every component's round-1 sponsor stays a
    /// publisher after assembly. Four singletons forming at once are
    /// four sponsors; were the role dropped (TGDH's rule) members 0
    /// and 1 would blind one key fewer each. The counts are those of
    /// the hand-written STR this file replaced.
    #[test]
    fn four_singletons_forming_at_once_all_stay_publishers() {
        let ids = [0, 1, 2, 3];
        let mut lb = Loopback::new(ProtocolKind::Str, CryptoSuite::fast_zero(), &ids);
        lb.install_view(ids.to_vec(), ids.to_vec(), vec![]);
        assert_eq!(ids.map(|m| lb.member(m).counts().exp), [7, 7, 4, 3]);
        assert_eq!(ids.map(|m| lb.member(m).counts().multicast), [2, 2, 1, 1]);
    }

    /// Our leaf's blinded key is ours alone to regenerate: a member
    /// that restores it broadcasts even when it is itself blocked on
    /// the level below — otherwise everyone beneath it waits forever.
    #[test]
    fn a_blocked_member_still_circulates_its_restored_leaf_key() {
        let members = vec![0, 1, 2, 3, 4];
        let mut lb = Loopback::new(ProtocolKind::Str, CryptoSuite::fast_zero(), &members);
        lb.bootstrap(&[0, 1, 2, 3], 7);
        let sends = |lb: &Loopback| lb.member(2).counts().multicast;
        lb.install_view_interrupted(members.clone(), vec![4], vec![], 0);
        assert!(lb.member(2).protocol_error().is_none());
        assert_eq!(sends(&lb), 0);
        // The merged chain as a peer holds it after a cascade: our leaf
        // bkey cut, member 1's leaf refreshed, no internal bkey yet.
        let peer = ProtocolMsg::StrTree {
            members,
            leaf_bkeys: vec![bk(100), bk(999), None, bk(103), bk(104)],
            internal_bkeys: vec![None; 5],
        };
        lb.forge(&CryptoSuite::fast_zero(), 0, 2, &peer);
        assert!(lb.member(2).protocol_error().is_none());
        assert!(
            lb.member(2).group_secret().is_none(),
            "blocked on member 1's level"
        );
        assert_eq!(sends(&lb), 1, "the restored leaf key is news");
    }

    #[test]
    fn a_chain_no_member_of_the_view_could_send_is_refused() {
        let chain_of = |members: Vec<ClientId>, internals: usize| ProtocolMsg::StrTree {
            leaf_bkeys: vec![bk(1); members.len()],
            internal_bkeys: vec![None; internals],
            members,
        };
        // The first would be 300 000 levels of tree.
        for (msg, why) in [
            (
                chain_of((0..300_000).collect(), 300_000),
                "longer than the view",
            ),
            (chain_of(vec![1, 1], 2), "repeats a member"),
            (chain_of(vec![1, 2], 3), "misaligned"),
        ] {
            match Skinny::from_msg(msg, &[0, 1, 2]) {
                Err(GkaError::Protocol(refusal)) => assert!(refusal.contains(why), "{refusal}"),
                other => panic!("{why}: {other:?}"),
            }
        }
    }

    fn arb_bkey() -> impl Strategy<Value = Option<Ubig>> {
        (any::<bool>(), any::<u64>()).prop_map(|(some, v)| some.then(|| Ubig::from(v)))
    }

    fn arb_members() -> impl Strategy<Value = Vec<ClientId>> {
        proptest::collection::vec(0..64usize, 0..12).prop_map(|mut members| {
            members.sort_unstable();
            members.dedup();
            members
        })
    }

    proptest! {
        #[test]
        fn the_wire_form_round_trips(
            members in arb_members(),
            bkeys in proptest::collection::vec((arb_bkey(), arb_bkey()), 12),
        ) {
            let (leaf_bkeys, mut internal_bkeys): (Vec<_>, Vec<_>) =
                bkeys.into_iter().take(members.len()).unzip();
            if let Some(padding) = internal_bkeys.first_mut() {
                *padding = None;
            }
            let msg = ProtocolMsg::StrTree {
                members: members.clone(),
                leaf_bkeys,
                internal_bkeys,
            };
            let tree = Skinny::from_msg(msg.clone(), &members).unwrap();
            prop_assert!(is_skinny(&tree));
            prop_assert_eq!(tree.members(), members);
            prop_assert_eq!(Skinny::to_msg(&tree), msg);
        }

        #[test]
        fn every_right_child_stays_a_leaf(
            steps in proptest::collection::vec((arb_members(), any::<bool>()), 1..8)
        ) {
            // Member 64 is never picked, so the tree never empties.
            let mut tree = KeyTree::singleton(64, None, None);
            for (picked, graft) in steps {
                let held = tree.members();
                let (fresh, left): (Vec<_>, Vec<_>) =
                    picked.into_iter().partition(|m| !held.contains(m));
                let expected = if graft {
                    let other = Skinny::from_msg(chain(&fresh), &fresh).unwrap();
                    Skinny.graft(&mut tree, &other);
                    [held, fresh].concat()
                } else {
                    tree.remove_members(&left);
                    held.into_iter().filter(|m| !left.contains(m)).collect()
                };
                prop_assert_eq!(tree.members(), expected);
                prop_assert!(is_skinny(&tree));
            }
        }
    }
}
