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
//! The same process produced every group element a member raises: a
//! sibling's blinded key, a partial key, a BD `z` was some member's
//! `g^d`, and the world remembers `d`. Raising such an element to `e`
//! is then `g^(d·e mod q)`, and inverting it is `g^(q − d)`, both of
//! which the generator's fixed-base comb computes in a fraction of a
//! ladder's or an inversion's time; a group whose generator does not
//! have prime order `q` never takes that shortcut
//! ([`DhGroup::generator_has_order_q`]).
//!
//! [`WorldMemo`] sits in a world slot ([`gkap_gcs::ClientCtx::world_slot`])
//! and is dropped with its world; a detached context starts an empty
//! one. Each of its tables is a [`Table`]: two generations, so it holds
//! what the last two views computed, not the world's history. See
//! DESIGN.md §36, §38 and §39.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::convert::Infallible;
use std::rc::Rc;

use bytes::Bytes;
use gkap_bignum::{stats, Ubig};
use gkap_crypto::dh::DhGroup;
use gkap_crypto::Secret;
use gkap_gcs::ClientId;

use crate::envelope::Envelope;
use crate::protocols::{Component, FormationShare, GkaProtocol};
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

    /// The value either generation holds for `key`; the current
    /// generation holds it afterwards.
    pub(crate) fn find(&mut self, key: &K) -> Option<&V> {
        if !self.now.contains_key(key) {
            let (key, value) = self.before.remove_entry(key)?;
            self.now.insert(key, value);
        }
        self.now.get(key)
    }

    /// Remembers `value` for `key` in the current generation, unless it
    /// holds one already.
    pub(crate) fn remember(&mut self, key: K, value: V) {
        self.now.entry(key).or_insert(value);
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

/// The group elements a world produced, each with its exponent to
/// its group's generator, reduced mod `q`. Keyed by element within one
/// table per group `(p, g)`, so no entry holds a copy of the modulus;
/// an exponent is to one generator, so two generators of one modulus
/// keep two tables.
#[derive(Default)]
pub(crate) struct Dlogs {
    /// A world's groups `(p, g)` (usually one) and their tables.
    by_group: Vec<((Ubig, Ubig), Exponents)>,
}

/// Group elements and their exponents to one generator.
type Exponents = Table<Ubig, Secret<Ubig>>;

impl Dlogs {
    /// `group`'s table, or `None` if its generator lacks prime order
    /// `q`: then an exponent to it says nothing mod `q`.
    fn of(&mut self, group: &DhGroup) -> Option<&mut Exponents> {
        if !group.generator_has_order_q() {
            return None;
        }
        let (p, g) = (group.modulus(), group.generator());
        let this = |(m, h): &(Ubig, Ubig)| m == p && h == g;
        if !self.by_group.iter().any(|(id, _)| this(id)) {
            self.by_group
                .push(((p.clone(), g.clone()), Table::default()));
        }
        let mut tables = self.by_group.iter_mut();
        tables.find(|(id, _)| this(id)).map(|(_, table)| table)
    }

    /// Remembers that `element` is `g^exponent` in `group`, unless the
    /// world knows already (each member adopting a component notes it).
    pub(crate) fn note(&mut self, group: &DhGroup, element: &Ubig, exponent: &Ubig) {
        if let Some(table) = self.of(group) {
            if table.find(element).is_none() {
                let exponent = Secret::new(exponent.rem(group.order()));
                table.remember(element.clone(), exponent);
            }
        }
    }

    /// Remembers `product = a·b`'s exponent when the world knows both
    /// factors': the sum of theirs.
    pub(crate) fn note_product(&mut self, group: &DhGroup, a: &Ubig, b: &Ubig, product: &Ubig) {
        let Some(table) = self.of(group) else {
            return;
        };
        let Some(da) = table.find(a).cloned() else {
            return;
        };
        let Some(db) = table.find(b) else {
            return;
        };
        let sum = Secret::new(da.expose().modadd(db.expose(), group.order()));
        table.remember(product.clone(), sum);
    }

    fn retire(&mut self) {
        for (_, table) in &mut self.by_group {
            table.retire();
        }
    }
}

/// The pure crypto results a world's members have computed, for the
/// last two views: subtree fingerprints, exponentiations (results in
/// [`Secret`]), the exponent of each group element the world produced,
/// and the envelopes whose signature checked out. It also holds the
/// components waiting for their members ([`FormationShare`]).
#[derive(Default)]
pub(crate) struct WorldMemo {
    /// The newest view id a lookup brought.
    view: u64,
    /// Formed components some member has still to adopt; not aged.
    formations: FormationShare,
    /// Subtree fingerprints ([`crate::tree::KeyTree::fingerprint_once`]).
    pub(crate) fingerprints: FingerprintShare,
    /// `base^exponent mod modulus`, by its inputs.
    pub(crate) powers: Table<Power, Secret<Ubig>>,
    /// Each group element's exponent to the generator.
    pub(crate) dlogs: Dlogs,
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
            self.dlogs.retire();
            self.verified.retire();
        }
        self
    }

    /// `base^e` in `group`, computed once per world: as `g^(d·e mod q)`
    /// when the world produced `base` as `g^d`, else on the ladder. The
    /// result's exponent is remembered when known.
    pub(crate) fn power(&mut self, group: &DhGroup, base: &Ubig, e: &Ubig) -> Ubig {
        let WorldMemo { powers, dlogs, .. } = self;
        let power = Power::new(group.modulus(), base, e);
        let result = powers.recall(power, || {
            let through_g = dlogs.of(group).and_then(|table| {
                let x = Secret::new(table.find(base)?.expose().modmul(e, group.order()));
                let result = group.exp_g(x.expose());
                debug_assert!(
                    stats::uncounted(|| group.exp(base, e)) == result,
                    "a remembered exponent is wrong"
                );
                table.remember(result.clone(), x);
                Some(result)
            });
            Secret::new(through_g.unwrap_or_else(|| group.exp(base, e)))
        });
        result.expose().clone()
    }

    /// `a⁻¹ mod p` in `group`, or `None` if `a` has none: as
    /// `g^(q − d)` when the world produced `a` as `g^d`, whose exponent
    /// it then remembers, else by [`Ubig::mod_inverse`].
    pub(crate) fn inverse(&mut self, group: &DhGroup, a: &Ubig) -> Option<Ubig> {
        let through_g = self.dlogs.of(group).and_then(|table| {
            let d = table.find(a)?;
            let negated = Secret::new(Ubig::zero().modsub(d.expose(), group.order()));
            let inverse = group.exp_g(negated.expose());
            debug_assert!(
                stats::uncounted(|| a.mod_inverse(group.modulus())).as_ref() == Some(&inverse),
                "a remembered exponent is wrong"
            );
            table.remember(inverse.clone(), negated);
            Some(inverse)
        });
        through_g.or_else(|| a.mod_inverse(group.modulus()))
    }

    /// The component of `members` under `seed`, formed by `protocol` on
    /// the first of them to ask and shared with the rest
    /// ([`FormationShare::form`]). The world learns the exponent of
    /// every group element it holds.
    pub(crate) fn form(
        &mut self,
        protocol: &dyn GkaProtocol,
        suite: &CryptoSuite,
        members: &[ClientId],
        seed: u64,
    ) -> Rc<Component> {
        let component = self.formations.form(protocol, suite, members, seed);
        for (element, exponent) in component.produced() {
            self.dlogs.note(suite.group(), element, exponent);
        }
        component
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

    /// An exponent noted in view 1 serves view 2 and, carried forward
    /// there, view 3; one nobody looked up in view 2 is gone in view 3,
    /// and the base goes up the ladder.
    #[test]
    fn exponents_recorded_two_views_back_are_gone() {
        let group = DhGroup::test_256();
        let d = Ubig::from(5u64);
        let base = group.exp_g(&d);
        // The value of `base^e` and the ladders raising it took.
        let raise = |memo: &mut WorldMemo, e: u64| {
            let before = stats::snapshot();
            let got = memo.power(&group, &base, &Ubig::from(e));
            let ladders = stats::snapshot().since(&before).modexp;
            assert_eq!(got, group.exp(&base, &Ubig::from(e)));
            ladders
        };
        let mut used = WorldMemo::default();
        used.at_view(1).dlogs.note(&group, &base, &d);
        assert_eq!(raise(used.at_view(2), 3), 0);
        assert_eq!(raise(used.at_view(3), 4), 0, "carried forward in view 2");
        let mut unused = WorldMemo::default();
        unused.at_view(1).dlogs.note(&group, &base, &d);
        unused.at_view(2);
        assert_eq!(raise(unused.at_view(3), 3), 1, "not looked up in view 2");
    }

    /// 4 and 9 both generate the order-`q` subgroup of the test
    /// group's `p`, with different exponents for the same element.
    #[test]
    fn each_generator_of_a_modulus_keeps_its_own_exponents() {
        let four = DhGroup::test_256();
        let (p, q) = (four.modulus().clone(), four.order().clone());
        let nine = DhGroup::from_parts("nine", p, Ubig::from(9u64), q);
        assert!(nine.generator_has_order_q());
        let (d, e) = (Ubig::from(5u64), Ubig::from(0xdead_beef_u64));
        let mut memo = WorldMemo::default();
        let base = four.exp_g(&d);
        memo.dlogs.note(&four, &base, &d);
        assert_eq!(memo.power(&nine, &base, &e), nine.exp(&base, &e));
        let e = Ubig::from(0xfeed_u64);
        assert_eq!(memo.power(&four, &base, &e), four.exp(&base, &e));
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
