//! Wire format of the protocol messages (the bodies carried inside
//! signed envelopes).

use bytes::Bytes;
use gkap_bignum::Ubig;
use gkap_gcs::ClientId;

use crate::codec::{Dec, DecodeError, Enc};
use crate::tree::KeyTree;

/// Every message any of the five protocols sends.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolMsg {
    /// GDH: the accumulating key token travelling down the chain of
    /// new members.
    GdhChainToken {
        /// `g^{(product of contributions so far)}`.
        token: Ubig,
    },
    /// GDH: the last new member's broadcast of the accumulated token.
    GdhBroadcastToken {
        /// The token every member factors its contribution out of.
        token: Ubig,
    },
    /// GDH: a member's factored-out value, unicast to the new
    /// controller (Agreed-ordered — the expensive round of §6.2.2).
    GdhFactorOut {
        /// `token^(1/r_member)`.
        value: Ubig,
    },
    /// GDH: the controller's final list of partial keys.
    GdhPartialKeys {
        /// `(member, partial key)` pairs; each member exponentiates its
        /// own entry with its contribution to obtain the group secret.
        entries: Vec<(ClientId, Ubig)>,
    },
    /// CKD: controller's invitation carrying its fresh DH public value.
    CkdInvite {
        /// `g^{x_controller}`.
        controller_pub: Ubig,
        /// Members expected to respond with their public values.
        invited: Vec<ClientId>,
    },
    /// CKD: a (new) member's DH public value, returned to the
    /// controller over the cheap FIFO channel.
    CkdResponse {
        /// `g^{x_member}`.
        member_pub: Ubig,
    },
    /// CKD: the controller's key distribution — the group secret
    /// encrypted separately under each member's pairwise key.
    CkdKeyDist {
        /// Fresh `g^{x_controller}` so members can derive the pairwise
        /// key without extra rounds.
        controller_pub: Ubig,
        /// `(member, ciphertext)` pairs.
        blobs: Vec<(ClientId, Vec<u8>)>,
    },
    /// BD round 1: `z_i = g^{r_i}`.
    BdRound1 {
        /// The member's blinded session random.
        z: Ubig,
    },
    /// BD round 2: `X_i = (z_{i+1}/z_{i-1})^{r_i}`.
    BdRound2 {
        /// The member's cross-ratio value.
        x: Ubig,
    },
    /// TGDH: a (partial) key tree with blinded keys — used for the
    /// round-1 component announcements, the sponsor's round-2 tree,
    /// and each round of the partition protocol.
    TgdhTree {
        /// Structure plus every blinded key the sender knows.
        tree: KeyTree,
    },
    /// Key confirmation (§5: "a form of key confirmation"): a hash of
    /// the established group key, broadcast after completion so any
    /// divergence is detected immediately. Handled by the member
    /// layer, not the protocols.
    KeyConfirm {
        /// `SHA-256("confirm" ‖ epoch ‖ key)`.
        digest: Vec<u8>,
    },
    /// STR: the skinny tree — ordered member list with leaf and
    /// internal blinded keys.
    StrTree {
        /// Members from the bottom of the tree upwards.
        members: Vec<ClientId>,
        /// Blinded session randoms (aligned with `members`).
        leaf_bkeys: Vec<Option<Ubig>>,
        /// Blinded internal keys (`internal_bkeys[i]` blinds the key of
        /// the internal node joining levels `i` and `i+1`; index 0 is
        /// unused padding to keep alignment).
        internal_bkeys: Vec<Option<Ubig>>,
    },
}

impl ProtocolMsg {
    fn tag(&self) -> u8 {
        match self {
            ProtocolMsg::GdhChainToken { .. } => 1,
            ProtocolMsg::GdhBroadcastToken { .. } => 2,
            ProtocolMsg::GdhFactorOut { .. } => 3,
            ProtocolMsg::GdhPartialKeys { .. } => 4,
            ProtocolMsg::CkdInvite { .. } => 5,
            ProtocolMsg::CkdResponse { .. } => 6,
            ProtocolMsg::CkdKeyDist { .. } => 7,
            ProtocolMsg::BdRound1 { .. } => 8,
            ProtocolMsg::BdRound2 { .. } => 9,
            ProtocolMsg::TgdhTree { .. } => 10,
            ProtocolMsg::StrTree { .. } => 11,
            ProtocolMsg::KeyConfirm { .. } => 12,
        }
    }

    /// Whether every group element a peer put in this message passes
    /// `valid`. BD's `X` is not checked: it is 1 when the group has two
    /// members, because both of the sender's neighbours are the same
    /// member.
    pub(crate) fn elements_pass(&self, valid: impl Fn(&Ubig) -> bool) -> bool {
        match self {
            ProtocolMsg::GdhChainToken { token } | ProtocolMsg::GdhBroadcastToken { token } => {
                valid(token)
            }
            ProtocolMsg::GdhFactorOut { value } => valid(value),
            ProtocolMsg::GdhPartialKeys { entries } => entries.iter().all(|(_, k)| valid(k)),
            ProtocolMsg::CkdInvite { controller_pub, .. }
            | ProtocolMsg::CkdKeyDist { controller_pub, .. } => valid(controller_pub),
            ProtocolMsg::CkdResponse { member_pub } => valid(member_pub),
            ProtocolMsg::BdRound1 { z } => valid(z),
            ProtocolMsg::BdRound2 { .. } | ProtocolMsg::KeyConfirm { .. } => true,
            ProtocolMsg::TgdhTree { tree } => tree
                .preorder()
                .all(|i| tree.node(i).bkey.as_ref().is_none_or(&valid)),
            ProtocolMsg::StrTree {
                leaf_bkeys,
                internal_bkeys,
                ..
            } => leaf_bkeys.iter().chain(internal_bkeys).flatten().all(valid),
        }
    }

    /// Serializes the message body.
    pub fn encode(&self) -> Bytes {
        let mut e = Enc::new();
        e.u8(self.tag());
        match self {
            ProtocolMsg::GdhChainToken { token } | ProtocolMsg::GdhBroadcastToken { token } => {
                e.ubig(token);
            }
            ProtocolMsg::GdhFactorOut { value } => {
                e.ubig(value);
            }
            ProtocolMsg::GdhPartialKeys { entries } => {
                e.u32(entries.len() as u32);
                for (m, k) in entries {
                    e.u32(*m as u32).ubig(k);
                }
            }
            ProtocolMsg::CkdInvite {
                controller_pub,
                invited,
            } => {
                e.ubig(controller_pub);
                e.u32(invited.len() as u32);
                for m in invited {
                    e.u32(*m as u32);
                }
            }
            ProtocolMsg::CkdResponse { member_pub } => {
                e.ubig(member_pub);
            }
            ProtocolMsg::CkdKeyDist {
                controller_pub,
                blobs,
            } => {
                e.ubig(controller_pub);
                e.u32(blobs.len() as u32);
                for (m, blob) in blobs {
                    e.u32(*m as u32).bytes(blob);
                }
            }
            ProtocolMsg::BdRound1 { z } => {
                e.ubig(z);
            }
            ProtocolMsg::BdRound2 { x } => {
                e.ubig(x);
            }
            ProtocolMsg::TgdhTree { tree } => {
                tree.encode(&mut e);
            }
            ProtocolMsg::KeyConfirm { digest } => {
                e.bytes(digest);
            }
            ProtocolMsg::StrTree {
                members,
                leaf_bkeys,
                internal_bkeys,
            } => {
                e.u32(members.len() as u32);
                for m in members {
                    e.u32(*m as u32);
                }
                for list in [leaf_bkeys, internal_bkeys] {
                    e.u32(list.len() as u32);
                    for bk in list {
                        e.opt_ubig(bk.as_ref());
                    }
                }
            }
        }
        e.finish()
    }

    /// Parses a message body.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input.
    pub fn decode(wire: &[u8]) -> Result<ProtocolMsg, DecodeError> {
        let mut d = Dec::new(wire);
        let tag = d.u8("message tag")?;
        let msg = match tag {
            1 => ProtocolMsg::GdhChainToken {
                token: d.ubig("token")?,
            },
            2 => ProtocolMsg::GdhBroadcastToken {
                token: d.ubig("token")?,
            },
            3 => ProtocolMsg::GdhFactorOut {
                value: d.ubig("factor-out")?,
            },
            4 => ProtocolMsg::GdhPartialKeys {
                entries: d.list("entry count", |d| {
                    Ok((d.u32("entry member")? as ClientId, d.ubig("entry key")?))
                })?,
            },
            5 => ProtocolMsg::CkdInvite {
                controller_pub: d.ubig("controller pub")?,
                invited: d.list(
                    "invited count",
                    |d| Ok(d.u32("invited member")? as ClientId),
                )?,
            },
            6 => ProtocolMsg::CkdResponse {
                member_pub: d.ubig("member pub")?,
            },
            7 => ProtocolMsg::CkdKeyDist {
                controller_pub: d.ubig("controller pub")?,
                blobs: d.list("blob count", |d| {
                    Ok((d.u32("blob member")? as ClientId, d.bytes("blob")?.to_vec()))
                })?,
            },
            8 => ProtocolMsg::BdRound1 { z: d.ubig("z")? },
            9 => ProtocolMsg::BdRound2 { x: d.ubig("x")? },
            10 => ProtocolMsg::TgdhTree {
                tree: KeyTree::decode(&mut d)?,
            },
            12 => ProtocolMsg::KeyConfirm {
                digest: d.bytes("confirm digest")?.to_vec(),
            },
            11 => ProtocolMsg::StrTree {
                members: d.list("member count", |d| Ok(d.u32("member")? as ClientId))?,
                leaf_bkeys: d.list("bkey list len", |d| d.opt_ubig("bkey"))?,
                internal_bkeys: d.list("bkey list len", |d| d.opt_ubig("bkey"))?,
            },
            _ => {
                return Err(DecodeError {
                    context: "message tag",
                })
            }
        };
        d.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Ubig {
        Ubig::from(v)
    }

    #[test]
    fn roundtrip_every_variant() {
        let mut tree = KeyTree::singleton(3, None, Some(u(7)));
        tree.merge(&KeyTree::singleton(4, None, Some(u(8))));
        let msgs = vec![
            ProtocolMsg::GdhChainToken { token: u(11) },
            ProtocolMsg::GdhBroadcastToken { token: u(12) },
            ProtocolMsg::GdhFactorOut { value: u(13) },
            ProtocolMsg::GdhPartialKeys {
                entries: vec![(1, u(14)), (2, u(15))],
            },
            ProtocolMsg::CkdInvite {
                controller_pub: u(16),
                invited: vec![2, 4],
            },
            ProtocolMsg::CkdResponse { member_pub: u(17) },
            ProtocolMsg::CkdKeyDist {
                controller_pub: u(18),
                blobs: vec![(1, vec![1, 2, 3]), (9, vec![])],
            },
            ProtocolMsg::BdRound1 { z: u(19) },
            ProtocolMsg::BdRound2 { x: u(20) },
            ProtocolMsg::KeyConfirm {
                digest: vec![9; 32],
            },
            ProtocolMsg::TgdhTree { tree },
            ProtocolMsg::StrTree {
                members: vec![5, 6, 7],
                leaf_bkeys: vec![Some(u(1)), None, Some(u(2))],
                internal_bkeys: vec![None, Some(u(3)), None],
            },
        ];
        for msg in msgs {
            let wire = msg.encode();
            let back = ProtocolMsg::decode(&wire).unwrap();
            // KeyTree equality compares arenas; compare re-encoded wire
            // instead for robustness.
            assert_eq!(back.encode(), wire);
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_truncation() {
        assert!(ProtocolMsg::decode(&[99]).is_err());
        assert!(ProtocolMsg::decode(&[]).is_err());
        let wire = ProtocolMsg::GdhChainToken { token: u(5) }.encode();
        assert!(ProtocolMsg::decode(&wire[..wire.len() - 1]).is_err());
        // Trailing garbage.
        let mut extended = wire.to_vec();
        extended.push(0);
        assert!(ProtocolMsg::decode(&extended).is_err());
    }

    #[test]
    fn absurd_counts_rejected() {
        // Every list's claimed count past the cap fails fast, naming the
        // count, instead of reading (or allocating for) its items. The
        // lists are empty; `at` is where a count sits.
        let str_tree = ProtocolMsg::StrTree {
            members: vec![],
            leaf_bkeys: vec![],
            internal_bkeys: vec![],
        };
        let invite = ProtocolMsg::CkdInvite {
            controller_pub: u(16),
            invited: vec![],
        };
        let dist = ProtocolMsg::CkdKeyDist {
            controller_pub: u(18),
            blobs: vec![],
        };
        let cases = [
            (
                ProtocolMsg::GdhPartialKeys { entries: vec![] },
                1,
                "entry count",
            ),
            (invite, 6, "invited count"),
            (dist, 6, "blob count"),
            (str_tree.clone(), 1, "member count"),
            (str_tree.clone(), 5, "bkey list len"),
            (str_tree, 9, "bkey list len"),
        ];
        for (msg, at, context) in cases {
            let wire = msg.encode();
            assert_eq!(wire[at..at + 4], [0; 4], "{context} sits at {at}");
            for count in [1_000_001u32, u32::MAX] {
                let mut claim = wire[..at].to_vec();
                claim.extend(count.to_be_bytes());
                let got = ProtocolMsg::decode(&claim);
                assert_eq!(got, Err(DecodeError { context }), "{count}");
            }
        }
    }
}
