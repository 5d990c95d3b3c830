//! The component/adopt split (DESIGN.md §18): a group that exists
//! before the measured event is formed once per world, and a member
//! that adopts the shared component is in exactly the state the
//! per-member bootstrap it replaced left it in.

use std::cell::Cell;
use std::rc::Rc;

use gkap_bignum::stats::{self, KernelOps};
use gkap_bignum::Ubig;
use gkap_core::protocols::tgdh::Tgdh;
use gkap_core::protocols::{Component, GkaCtx, ProtocolMsg};
use gkap_core::suite::CryptoSuite;
use gkap_core::testkit::Loopback;
use gkap_core::{GkaError, GkaProtocol, ProtocolKind, SecureMember};
use gkap_crypto::sha::{hex, Digest, Sha256};
use gkap_gcs::{testbed, ClientId, SimWorld};

/// Digests of the group secret after the bootstrap and after each of a
/// join, a leave, a partition and a merge, chained with the digest of
/// every wire byte the four events sent — as the per-member
/// `bootstrap` of commit 394eab4 (every member recomputing the whole
/// component) produced them. Any difference in what `adopt` installs
/// shows up in a later key or message.
const BEFORE_THE_SPLIT: [(&str, &str); 6] = [
    (
        "GDH",
        "ab8064a460020f15c1614083d8b6266410f0a9f9637c0982ecc23b6f6c3dc3b9",
    ),
    (
        "TGDH",
        "e8c89d501ca9393c6ee294d658caf698e40649159af52343f333b626f77194a1",
    ),
    (
        "STR",
        "70bb2667f311c364619588affbdc115103f90b17192d1be196a01196d6af27a6",
    ),
    (
        "BD",
        "7b25633e2be56c9030a836696770e476156e3853e99827afe853fc23fedfbd62",
    ),
    (
        "CKD",
        "22123dda8d69ed13b312b931f8100bcdf0a1693ea2a3b63926c0cb4dc304f3c0",
    ),
    (
        "TGDH-AVL",
        "104a1f4c29a39eff06dd39e9296fa7a4d458d9e5350d93e87dd56bdbcecf629f",
    ),
];

fn events_digest(mut lb: Loopback) -> String {
    let ids: Vec<ClientId> = (0..14).collect();
    let mut h = Sha256::new();
    let mut note = |lb: &Loopback| h.update(&lb.common_secret().to_be_bytes());
    lb.bootstrap(&ids[..9], 42);
    note(&lb);
    lb.install_view(ids[..10].to_vec(), vec![9], vec![]);
    note(&lb);
    lb.install_view(vec![0, 1, 3, 4, 5, 6, 7, 8, 9], vec![], vec![2]);
    note(&lb);
    // A partition that empties the left of the tree: lopsided enough
    // that the AVL policy's traffic differs from the paper's.
    lb.install_view(vec![5, 6, 7, 8, 9], vec![], vec![0, 1, 3, 4]);
    note(&lb);
    // A component that formed elsewhere merges in.
    lb.bootstrap(&ids[11..], 43);
    lb.install_view(vec![5, 6, 7, 8, 9, 11, 12, 13], ids[11..].to_vec(), vec![]);
    note(&lb);
    h.update(lb.wire_digest());
    hex(&h.finalize())
}

#[test]
fn adopted_state_is_the_state_per_member_bootstrap_left() {
    let ids: Vec<ClientId> = (0..14).collect();
    for (name, golden) in BEFORE_THE_SPLIT {
        let suite = CryptoSuite::fast_zero();
        let lb = match ProtocolKind::all().into_iter().find(|k| k.name() == name) {
            Some(kind) => Loopback::new(kind, suite, &ids),
            None => Loopback::with_factory(|| Box::new(Tgdh::new_avl()), suite, &ids),
        };
        assert_eq!(events_digest(lb), golden, "{name}");
    }
}

/// Builds an `n`-member world of `kind`, installs its initial view and
/// runs it to quiescence; returns the kernel operations that took and
/// the group key.
fn form_world(kind: ProtocolKind, n: usize, seed: u64) -> (KernelOps, Ubig) {
    let suite = Rc::new(CryptoSuite::fast_zero());
    let before = stats::snapshot();
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..n {
        let member = SecureMember::new(kind, Rc::clone(&suite), 100 + i as u64, Some(seed));
        world.add_client(Box::new(member));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    let ops = stats::snapshot().since(&before);
    let epoch = world.view().expect("initial view").id;
    let key = |c| {
        let m = world.client::<SecureMember>(c);
        assert!(m.protocol_error().is_none(), "{kind} member {c}");
        m.secret(epoch).expect("bootstrapped key").clone()
    };
    let first = key(0);
    assert!((1..n).all(|c| key(c) == first), "{kind} n={n}");
    (ops, first)
}

#[test]
fn forming_a_world_costs_one_component_whatever_ran_before() {
    let suite = CryptoSuite::fast_zero();
    for kind in ProtocolKind::all() {
        for n in [2usize, 8, 50] {
            let members: Vec<ClientId> = (0..n).collect();
            let before = stats::snapshot();
            let component = kind.create().component(&suite, &members, 7);
            let one_component = stats::snapshot().since(&before);
            assert!(one_component.total() > 0);
            drop(component);

            let (first, key) = form_world(kind, n, 7);
            assert_eq!(first, one_component, "{kind} n={n}");
            // The identical world again, then after an unrelated one
            // on the same thread: a hit or a miss is decided inside
            // the world, so nothing carries over.
            assert_eq!(form_world(kind, n, 7), (one_component, key.clone()));
            let _ = form_world(ProtocolKind::Tgdh, 5, 99);
            assert_eq!(form_world(kind, n, 7), (one_component, key));
        }
    }
}

/// Delegates to a real engine and counts the components it forms.
struct Counting {
    inner: Box<dyn GkaProtocol>,
    formed: Rc<Cell<usize>>,
}

impl GkaProtocol for Counting {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }
    fn on_view(&mut self, ctx: &mut GkaCtx<'_, '_>) -> Result<(), GkaError> {
        self.inner.on_view(ctx)
    }
    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_, '_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        self.inner.on_msg(ctx, sender, msg)
    }
    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        self.formed.set(self.formed.get() + 1);
        self.inner.component(suite, members, seed)
    }
    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        self.inner.adopt(component, me)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[test]
fn interleaved_components_of_one_world_each_form_once() {
    for kind in ProtocolKind::all() {
        let suite = Rc::new(CryptoSuite::fast_zero());
        let formed = Rc::new(Cell::new(0));
        let mut world = SimWorld::new(testbed::lan());
        for i in 0..10u64 {
            let counting = Counting {
                inner: kind.create(),
                formed: Rc::clone(&formed),
            };
            let member =
                SecureMember::with_protocol(Box::new(counting), Rc::clone(&suite), i, Some(3));
            world.add_client(Box::new(member));
        }
        // Two groups form in the same rotations of one ring…
        world.install_initial_view_in(0, vec![0, 1, 2, 3, 4]);
        world.install_initial_view_in(1, vec![5, 6, 7]);
        world.run_until_quiescent();
        assert_eq!(formed.get(), 2, "{kind}: one component per initial group");
        // …and a component that formed elsewhere merges into the first.
        for c in [8, 9] {
            world
                .client_mut::<SecureMember>(c)
                .preseed_component(&[8, 9], c, 0xfeed);
        }
        assert_eq!(formed.get(), 2, "{kind}: pre-seeding computes nothing");
        world.inject_change(vec![8, 9], vec![]);
        world.run_until_quiescent();
        assert_eq!(formed.get(), 3, "{kind}: the merging component, once");

        let epoch = world.view().expect("merged view").id;
        let key = |c| {
            let m = world.client::<SecureMember>(c);
            assert!(m.protocol_error().is_none(), "{kind} member {c}");
            m.secret(epoch).expect("merged key").clone()
        };
        let merged: Vec<ClientId> = vec![0, 1, 2, 3, 4, 8, 9];
        assert_eq!(world.view().expect("merged view").members, merged);
        assert!(merged.iter().all(|&c| key(c) == key(0)), "{kind}");
    }
}

/// A formed component lists the group elements it holds, so the first
/// rekey after formation finds every base it raises among the world's
/// elements: it raises only `g`, and only BD's small-exponent steps
/// still go up the ladder. Where no ladder runs, every squaring is the
/// generator's comb's: `bits/32 − 1` per `g^x`. Every key agrees.
#[test]
fn the_first_rekey_after_formation_raises_only_the_generator() {
    use gkap_core::experiment::{ExperimentConfig, Group, LeaveTarget, Step};
    let steps = [
        Step::Join,
        Step::Leave(LeaveTarget::Middle),
        Step::Leave(LeaveTarget::Oldest),
        Step::Partition(2),
        Step::Merge(3),
    ];
    // `lan_fast`'s suite.
    let columns = CryptoSuite::fast_zero().group().bits().div_ceil(32) as u64;
    for kind in ProtocolKind::all() {
        for step in steps {
            let cfg = ExperimentConfig::lan_fast(kind);
            let mut group = Group::form(&cfg, 7, 3);
            let before = stats::snapshot();
            let outcome = group.apply(step);
            let ops = stats::snapshot().since(&before);
            assert!(outcome.ok, "{kind} {step:?}");
            assert!(outcome.counts.exp > 0, "{kind} {step:?}");
            let ladders = outcome.counts.small_exp;
            assert_eq!(ops.modexp, ladders, "{kind} {step:?}");
            if ladders == 0 {
                let comb = ops.fixed_base_exp * (columns - 1);
                assert_eq!(ops.mont_sqr, comb, "{kind} {step:?}");
            }
        }
    }
}
