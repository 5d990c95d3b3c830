//! Formed components: the pre-agreed state of a group that exists
//! before the measured event (the initial view, or a component about
//! to merge), computed once and adopted by every member.
//!
//! A component is a pure function of `(protocol, suite, members,
//! seed)`; members differ only in which exponent is theirs. So
//! [`GkaProtocol::component`] does every exponentiation once and
//! [`GkaProtocol::adopt`] installs the result in a member with no
//! kernel call, and the members of one world find the component in
//! the world's [`FormationShare`] instead of each recomputing it. See
//! DESIGN.md §18. A component also lists the group elements it
//! produced with their exponents, which forming it teaches the world's
//! memo (DESIGN.md §39).

use std::collections::BTreeMap;
use std::rc::Rc;

use gkap_bignum::Ubig;
use gkap_crypto::Secret;
use gkap_gcs::ClientId;

use crate::protocols::{
    bootstrap_exponent, ckd, gdh, tree_gka, GkaError, GkaProtocol, ProtocolKind,
};
use crate::suite::CryptoSuite;

/// The protocol-specific part of a [`Component`]: what the protocol's
/// members hold beyond their exponent and the group secret. BD members
/// hold nothing else.
pub(super) enum Shape {
    Gdh(gdh::Formed),
    /// TGDH or STR: the formed tree says which.
    Tree(tree_gka::Formed),
    Ckd(ckd::Formed),
    Bd,
}

/// The formed state of one component. It holds every member's
/// exponent and every node key, so all of them sit in [`Secret`]
/// (erased on drop) and `Debug` prints none.
pub struct Component {
    members: Vec<ClientId>,
    /// The members' bootstrap exponents, aligned with `members`.
    exponents: Vec<Secret<Ubig>>,
    secret: Option<Secret<Ubig>>,
    shape: Shape,
    /// Each public group element the component holds (blinded keys,
    /// partial keys, CKD public values) with its exponent to `g`.
    produced: Vec<(Ubig, Secret<Ubig>)>,
}

impl std::fmt::Debug for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let protocol = match &self.shape {
            Shape::Gdh(_) => ProtocolKind::Gdh,
            Shape::Tree(formed) => formed.kind,
            Shape::Ckd(_) => ProtocolKind::Ckd,
            Shape::Bd => ProtocolKind::Bd,
        };
        f.debug_struct("Component")
            .field("protocol", &protocol)
            .field("members", &self.members)
            .field("secret", &"<redacted>")
            .finish_non_exhaustive()
    }
}

/// Every member's deterministic bootstrap exponent, aligned with
/// `members`.
pub(super) fn bootstrap_exponents(
    suite: &CryptoSuite,
    members: &[ClientId],
    seed: u64,
) -> Vec<Secret<Ubig>> {
    members
        .iter()
        .map(|&m| Secret::new(bootstrap_exponent(suite, seed, m)))
        .collect()
}

impl Component {
    pub(super) fn new(
        members: &[ClientId],
        exponents: Vec<Secret<Ubig>>,
        secret: Option<Ubig>,
        shape: Shape,
        produced: Vec<(Ubig, Secret<Ubig>)>,
    ) -> Self {
        Component {
            members: members.to_vec(),
            exponents,
            secret: secret.map(Secret::new),
            shape,
            produced,
        }
    }

    /// Each public group element the component holds, with its exponent
    /// to the generator: what its first rekey raises.
    pub(crate) fn produced(&self) -> impl Iterator<Item = (&Ubig, &Ubig)> {
        self.produced.iter().map(|(e, x)| (e, x.expose()))
    }

    /// The component's members, in view order.
    pub fn members(&self) -> &[ClientId] {
        &self.members
    }

    pub(super) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The component's group secret, as a member stores it.
    pub(crate) fn secret(&self) -> Option<Secret<Ubig>> {
        self.secret.clone()
    }

    /// `me`'s exponent.
    ///
    /// # Errors
    ///
    /// `me` is not a member of this component.
    pub(super) fn exponent_of(&self, me: ClientId) -> Result<&Ubig, GkaError> {
        self.members
            .iter()
            .position(|&m| m == me)
            .and_then(|at| self.exponents.get(at))
            .map(Secret::expose)
            .ok_or(GkaError::MissingState("not a member of the component"))
    }
}

/// The error of adopting a component another protocol formed.
pub(super) const FOREIGN_COMPONENT: GkaError =
    GkaError::Protocol("component formed by another protocol");

/// The components of one simulated world, each formed by the first of
/// its members to need it and handed to the others. It lives in a
/// world slot ([`gkap_gcs::ClientCtx::world_slot`]), so a hit or a
/// miss depends only on which members of *this* world came before —
/// never on what the thread ran earlier — and host kernel counts stay
/// a function of the world alone.
///
/// Client ids are unique within a world, so `(protocol, seed,
/// members)` names a component; its members share one suite. It is a
/// field of the world's memo ([`crate::memo::WorldMemo::form`]).
#[derive(Default)]
pub(crate) struct FormationShare {
    /// The components some member has still to fetch. The last fetch
    /// removes the entry: nothing outlives its use.
    waiting: BTreeMap<(ProtocolKind, u64, Vec<ClientId>), Waiting>,
}

struct Waiting {
    component: Rc<Component>,
    /// Members that have not fetched the component yet.
    fetches_left: usize,
}

impl FormationShare {
    /// The component of `members` under `seed`: formed by `protocol`
    /// on the first call, shared on the following `members.len() - 1`.
    pub(crate) fn form(
        &mut self,
        protocol: &dyn GkaProtocol,
        suite: &CryptoSuite,
        members: &[ClientId],
        seed: u64,
    ) -> Rc<Component> {
        let key = (protocol.kind(), seed, members.to_vec());
        if let Some(waiting) = self.waiting.get_mut(&key) {
            let component = Rc::clone(&waiting.component);
            waiting.fetches_left -= 1;
            if waiting.fetches_left == 0 {
                self.waiting.remove(&key);
            }
            return component;
        }
        let component = Rc::new(protocol.component(suite, members, seed));
        if members.len() > 1 {
            let waiting = Waiting {
                component: Rc::clone(&component),
                fetches_left: members.len() - 1,
            };
            self.waiting.insert(key, waiting);
        }
        component
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_bignum::stats;

    #[test]
    fn interleaved_components_each_form_once() {
        let suite = CryptoSuite::fast_zero();
        let protocol = ProtocolKind::Tgdh.create();
        let (a, b) = ([0, 1, 2], [3, 4]);
        let mut share = FormationShare::default();
        let before = stats::snapshot();
        let first_a = share.form(protocol.as_ref(), &suite, &a, 7);
        let first_b = share.form(protocol.as_ref(), &suite, &b, 7);
        let formed = stats::snapshot().since(&before);
        assert!(formed.total() > 0);
        // a, b, a: every later fetch is the same allocation, no kernel call.
        for members in [&a[..], &b[..], &a[..]] {
            let again = share.form(protocol.as_ref(), &suite, members, 7);
            let first = if members.len() == 3 {
                &first_a
            } else {
                &first_b
            };
            assert!(Rc::ptr_eq(&again, first));
        }
        assert_eq!(stats::snapshot().since(&before), formed);
        // Everyone fetched: the share kept nothing.
        assert!(share.waiting.is_empty());
    }

    #[test]
    fn key_separates_protocol_seed_and_members() {
        let suite = CryptoSuite::fast_zero();
        let (gdh, bd) = (ProtocolKind::Gdh.create(), ProtocolKind::Bd.create());
        let mut share = FormationShare::default();
        let base = share.form(gdh.as_ref(), &suite, &[0, 1, 2], 1);
        for other in [
            share.form(bd.as_ref(), &suite, &[0, 1, 2], 1),
            share.form(gdh.as_ref(), &suite, &[0, 1, 2], 2),
            share.form(gdh.as_ref(), &suite, &[0, 1, 3], 1),
        ] {
            assert!(!Rc::ptr_eq(&base, &other));
        }
        assert_eq!(share.waiting.len(), 4);
    }

    #[test]
    fn debug_redacts_and_foreign_adoption_is_refused() {
        let suite = CryptoSuite::fast_zero();
        let component = ProtocolKind::Str.create().component(&suite, &[0, 1, 2], 9);
        let shown = format!("{component:?}");
        assert!(shown.contains("Str") && shown.contains("<redacted>"));
        for r in component.exponents.iter().map(Secret::expose) {
            assert!(!shown.contains(&format!("{r:?}")));
        }
        // TGDH forms the same kind of state, and still not this one.
        for other in [ProtocolKind::Gdh, ProtocolKind::Tgdh] {
            let mut other = other.create();
            assert_eq!(other.adopt(&component, 0), Err(FOREIGN_COMPONENT));
        }
        let mut own = ProtocolKind::Str.create();
        assert!(own.adopt(&component, 5).is_err(), "5 is not a member");
        own.adopt(&component, 1).unwrap();
    }
}
