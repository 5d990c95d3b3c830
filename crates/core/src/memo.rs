//! The pure crypto results the members of one world share.
//!
//! One process runs every member of a simulated world, and members
//! compute the same pure functions of the same inputs: every member
//! below a key-tree node raises the same sibling blinded key to the
//! same child key, and every receiver of a multicast checks the same
//! signature over the same bytes. [`GkaCtx`](crate::protocols::GkaCtx)
//! charges each member for each of these, as the paper counts them,
//! and then looks the result up here: the first member computes it,
//! the others read it. A hit is the value the computation would give,
//! so every key, count and virtual time is unchanged; only host time
//! falls.
//!
//! [`WorldMemo`] sits in a world slot ([`gkap_gcs::ClientCtx::world_slot`])
//! and is dropped with its world; a detached context starts an empty
//! one. Each of its tables is a [`Table`]: two generations, so it holds
//! what the last two views computed, not the world's history. See
//! DESIGN.md §36 and §38.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::convert::Infallible;

use bytes::Bytes;
use gkap_bignum::Ubig;
use gkap_crypto::Secret;
use gkap_gcs::ClientId;

use crate::envelope::Envelope;
use crate::suite::{CryptoSuite, Verifier};
use crate::tree::FingerprintShare;

/// A memo table kept for two generations: [`Table::retire`] starts a
/// new one and drops the one before, and a hit in the older generation
/// moves the entry forward.
pub(crate) struct Table<K, V> {
    /// Entries taken or carried forward in the current generation.
    now: BTreeMap<K, V>,
    /// Entries of the generation before; dropped at the next retire.
    before: BTreeMap<K, V>,
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table {
            now: BTreeMap::new(),
            before: BTreeMap::new(),
        }
    }
}

impl<K: Ord, V> Table<K, V> {
    /// Starts a generation: what the current one holds becomes the
    /// older, and the older is dropped.
    pub(crate) fn retire(&mut self) {
        self.before = std::mem::take(&mut self.now);
    }

    /// The value either generation holds for `key`, else `compute()`'s;
    /// the current generation holds it afterwards. A failed computation
    /// is returned and not remembered.
    pub(crate) fn try_recall<E>(
        &mut self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<&V, E> {
        match self.now.entry(key) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let value = match self.before.remove(e.key()) {
                    Some(value) => value,
                    None => compute()?,
                };
                Ok(e.insert(value))
            }
        }
    }

    /// [`Table::try_recall`] for a computation that cannot fail.
    pub(crate) fn recall(&mut self, key: K, compute: impl FnOnce() -> V) -> &V {
        match self.try_recall(key, || Ok::<V, Infallible>(compute())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// The number of entries of the current generation.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.now.len()
    }

    /// Whether either generation holds `key`.
    #[cfg(test)]
    pub(crate) fn holds(&self, key: &K) -> bool {
        self.now.contains_key(key) || self.before.contains_key(key)
    }
}

/// The inputs of one group exponentiation `base^exponent mod modulus`.
/// The exponent is a member's secret, so it sits in [`Secret`].
pub(crate) struct Power {
    modulus: Ubig,
    base: Ubig,
    exponent: Secret<Ubig>,
}

impl Power {
    pub(crate) fn new(modulus: &Ubig, base: &Ubig, exponent: &Ubig) -> Self {
        Power {
            modulus: modulus.clone(),
            base: base.clone(),
            exponent: Secret::new(exponent.clone()),
        }
    }

    /// The inputs in comparison order: the base, which tells powers
    /// apart soonest, first, and the modulus, usually the world's one
    /// group, last.
    fn inputs(&self) -> (&Ubig, &Ubig, &Ubig) {
        (&self.base, self.exponent.expose(), &self.modulus)
    }
}

impl PartialEq for Power {
    fn eq(&self, other: &Self) -> bool {
        self.inputs() == other.inputs()
    }
}

impl Eq for Power {}

impl PartialOrd for Power {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Power {
    fn cmp(&self, other: &Self) -> Ordering {
        self.inputs().cmp(&other.inputs())
    }
}

/// Every input of an envelope's signature check: every signed field
/// and who verifies (the suite's [`Verifier`]), compared in full. The
/// signature comes first, so a lookup mostly tells keys apart at its
/// first bytes.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Signed {
    sig: Vec<u8>,
    sender: ClientId,
    epoch: u64,
    body: Bytes,
    verifier: Verifier,
}

impl Signed {
    pub(crate) fn new(suite: &CryptoSuite, env: &Envelope) -> Self {
        Signed {
            sig: env.sig.clone(),
            sender: env.sender,
            epoch: env.epoch,
            body: env.body.clone(),
            verifier: suite.verifier(),
        }
    }
}

/// The pure crypto results a world's members have computed, for the
/// last two views: subtree fingerprints, exponentiations (results in
/// [`Secret`]) and the envelopes whose signature checked out.
#[derive(Default)]
pub(crate) struct WorldMemo {
    /// The newest view id a lookup brought.
    view: u64,
    /// Subtree fingerprints ([`crate::tree::KeyTree::fingerprint_once`]).
    pub(crate) fingerprints: FingerprintShare,
    /// `base^exponent mod modulus`, by its inputs.
    pub(crate) powers: Table<Power, Secret<Ubig>>,
    /// Envelopes that passed their signature check.
    pub(crate) verified: Table<Signed, ()>,
}

impl WorldMemo {
    /// The memo as of view `view`: a view newer than any before starts
    /// a generation in every table and retires the one before the
    /// current.
    pub(crate) fn at_view(&mut self, view: u64) -> &mut Self {
        if view > self.view {
            self.view = view;
            self.fingerprints.retire();
            self.powers.retire();
            self.verified.retire();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failure_is_not_remembered() {
        let mut table = Table::<u32, u32>::default();
        assert_eq!(table.try_recall(2, || Err("no")), Err("no"));
        assert!(!table.holds(&2));
        assert_eq!(table.try_recall(2, || Ok::<_, &str>(20)), Ok(&20));
        assert_eq!(*table.recall(2, || panic!("a hit")), 20);
    }

    #[test]
    fn entries_from_two_views_back_are_gone() {
        let power = || Power::new(&Ubig::from(23u64), &Ubig::from(5u64), &Ubig::from(3u64));
        let mut memo = WorldMemo::default();
        memo.at_view(1)
            .powers
            .recall(power(), || Secret::new(Ubig::from(10u64)));
        assert!(memo.at_view(2).powers.holds(&power()));
        // An older view swaps nothing.
        assert!(memo.at_view(1).powers.holds(&power()));
        memo.at_view(3);
        assert!(!memo.powers.holds(&power()), "not taken in view 2");
    }

    #[test]
    fn powers_are_keyed_by_modulus_base_and_exponent() {
        let (a, b) = (Ubig::from(2u64), Ubig::from(3u64));
        let p = Power::new(&a, &a, &a);
        assert!(p == Power::new(&a, &a, &a));
        for other in [
            Power::new(&b, &a, &a),
            Power::new(&a, &b, &a),
            Power::new(&a, &a, &b),
        ] {
            assert!(p != other);
        }
    }
}
