//! Cascaded membership *mid-round*: a join lands while a leave's key
//! agreement is still in flight. The view-synchronous cut discards
//! the superseded round's remaining traffic, so every protocol must
//! converge from an arbitrary partial state — and each member must
//! observe strictly increasing epochs throughout. The other order, a
//! leave landing on a cut join, does not converge everywhere yet: the
//! cut table pins what every cut leaves, so a restart fix shows up as
//! cells that turn `agreed`.

use std::rc::Rc;

use gkap_core::protocols::{GkaError, ProtocolKind};
use gkap_core::suite::CryptoSuite;
use gkap_core::testkit::Loopback;
use gkap_core::{AgreementPhase, SecureMember, MAX_RESTARTS};
use gkap_gcs::{testbed, Client, ClientCtx, ClientId, SimWorld, View};
use gkap_sim::{Duration, SimTime};

/// The cascade under test: leave of member 2 cut after `cut` message
/// deliveries, then a join of member 6 runs to completion.
fn cascade(kind: ProtocolKind, cut: usize) -> Loopback {
    let ids = [0, 1, 2, 3, 4, 5, 6];
    let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
    lb.bootstrap(&[0, 1, 2, 3, 4, 5], 42);
    lb.install_view_interrupted(vec![0, 1, 3, 4, 5], vec![], vec![2], cut);
    lb.install_view(vec![0, 1, 3, 4, 5, 6], vec![6], vec![]);
    lb
}

#[test]
fn join_lands_while_leave_agreement_is_mid_round() {
    for kind in ProtocolKind::all() {
        // Cut the leave round after every small prefix of deliveries:
        // convergence must not depend on where the cut falls.
        for cut in 0..6 {
            let lb = cascade(kind, cut);
            let secret = lb.common_secret();
            assert!(!secret.is_zero(), "{kind} cut={cut}: degenerate key");
        }
    }
}

#[test]
fn epochs_stay_strictly_monotonic_across_the_cascade() {
    for kind in ProtocolKind::all() {
        let lb = cascade(kind, 2);
        for &m in lb.view() {
            let member = lb.member(m);
            let entered: Vec<u64> = (1..=2).filter(|&e| member.view_time(e).is_some()).collect();
            // Survivors of the leave saw both views; the joiner only
            // the second. Either way the newest is the last entered.
            let want: &[u64] = if m == 6 { &[2] } else { &[1, 2] };
            assert_eq!(entered, want, "{kind}: member {m}");
            assert_eq!(member.last_view_epoch(), Some(2), "{kind}: member {m}");
        }
    }
}

/// The group `0..=6` admits `joiner`, whose merge is cut after `cut`
/// messages, then `leaver` departs and that round runs to the end.
/// Returns the harness and how many messages the join delivered.
fn join_cut_then_leave(
    kind: ProtocolKind,
    joiner: ClientId,
    leaver: ClientId,
    cut: usize,
) -> (Loopback, usize) {
    let ids: Vec<ClientId> = (0..10).collect();
    let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
    lb.bootstrap(&ids[..7], 42);
    let mut grown = ids[..7].to_vec();
    grown.push(joiner);
    let delivered = lb.install_view_interrupted(grown.clone(), vec![joiner], vec![], cut);
    let rest = grown.into_iter().filter(|&m| m != leaver).collect();
    lb.install_view_interrupted(rest, vec![], vec![leaver], usize::MAX);
    (lb, delivered)
}

/// What a cascade left: the first protocol error any member recorded
/// (members in id order), else the first member of the final view
/// without a key for it, else whether the view's keys agree.
fn outcome(lb: &Loopback) -> String {
    if let Some(e) = (0..10).find_map(|m| lb.member(m).protocol_error()) {
        return format!("error({e:?})");
    }
    let view = lb.view();
    let epoch = lb.member(view[0]).last_view_epoch().expect("a view");
    let mut keys = Vec::new();
    for &m in view {
        match lb.member(m).secret(epoch) {
            Some(key) => keys.push(key),
            None => return format!("unkeyed({m})"),
        }
    }
    let agreed = keys.windows(2).all(|w| w[0] == w[1]);
    (if agreed { "agreed" } else { "diverged" }).to_string()
}

/// Case A: 9 joins and 6, the old group's last member, leaves. Case
/// B: 7 joins and 7 itself leaves. Each cut `k` of the join, from
/// none of its messages to all of them, one line per run of equal
/// outcomes. Case A is DESIGN.md §21's open restart bug and case B
/// §23's shape: in both the join is installed first and the leave
/// lands on it. GDH case B diverged silently at cuts 0–9 until a
/// merge's fresh exponent was held apart from the partial-key list's
/// (`Gdh::merge_exp`). GDH case A failed at cuts 0–8 until GDH read
/// the leave against the membership its member last keyed; at cut 9
/// only 5, the new controller, keyed the join, so it alone reads 6's
/// leave against `0..=5` plus 9 (DESIGN.md §29). `TGDH A 0`, `STR A 0`
/// and `STR B 0-1` turned `agreed` when the tree engines read the
/// change against their tree and took its root as the key only when
/// its leaves are the view (DESIGN.md §33). `TGDH B 0-1` turned
/// `agreed` when a TGDH leave that affects no node of the tree had its
/// rightmost member refresh, as STR's does (DESIGN.md §37). Two cells
/// are still open: `GDH A 9` and `STR A 1`.
const CUT_TABLE: &str = "\
GDH  A 0-8  agreed
GDH  A 9    error(UnexpectedMessage(\"GDH partial keys\"))
GDH  A 10   agreed
GDH  B 0-10 agreed
TGDH A 0-3  agreed
TGDH B 0-3  agreed
STR  A 0    agreed
STR  A 1    unkeyed(0)
STR  A 2-3  agreed
STR  B 0-3  agreed
BD   A 0-16 agreed
BD   B 0-16 agreed
CKD  A 0-3  agreed
CKD  B 0-3  agreed
";

#[test]
fn every_cut_of_a_join_before_a_leave_is_pinned() {
    let mut table = String::new();
    for kind in ProtocolKind::all() {
        for (case, joiner, leaver) in [("A", 9, 6), ("B", 7, 7)] {
            let (_, round) = join_cut_then_leave(kind, joiner, leaver, usize::MAX);
            let cells: Vec<String> = (0..=round)
                .map(|cut| outcome(&join_cut_then_leave(kind, joiner, leaver, cut).0))
                .collect();
            let mut from = 0;
            for to in 1..=cells.len() {
                if to < cells.len() && cells[to] == cells[from] {
                    continue;
                }
                let cuts = match to - 1 {
                    last if last == from => format!("{from}"),
                    last => format!("{from}-{last}"),
                };
                let name = kind.name();
                table += &format!("{name:<4} {case} {cuts:<4} {}\n", cells[from]);
                from = to;
            }
        }
    }
    assert_eq!(table, CUT_TABLE);
}

#[test]
fn uninterrupted_budget_behaves_like_install_view() {
    // A huge budget delivers the whole round: the interrupted variant
    // degrades to the plain one and the key is already established.
    for kind in ProtocolKind::all() {
        let ids = [0, 1, 2, 3, 4];
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&[0, 1, 2, 3, 4], 7);
        lb.install_view_interrupted(vec![0, 1, 2, 3], vec![], vec![4], usize::MAX);
        let secret = lb.common_secret();
        assert!(!secret.is_zero(), "{kind}");
    }
}

#[test]
fn restart_budget_exhaustion_is_reported_not_hidden() {
    // Drive the member directly with detached contexts: every view
    // lands exactly when the test says, so the abort is forced, not a
    // timing accident.
    let suite = Rc::new(CryptoSuite::fast_zero());
    let mut m = SecureMember::new(ProtocolKind::Bd, suite, 1, None);

    // View `id` grows the group by one member: `0..=id`, `id` joining.
    let view = |id: u64| View {
        id,
        group: 0,
        members: (0..=id as usize).collect(),
        joined: if id == 1 {
            vec![0, 1]
        } else {
            vec![id as usize]
        },
        left: vec![],
    };
    let install = |m: &mut SecureMember, id: u64| {
        let mut ctx = ClientCtx::detached(0, SimTime::ZERO, id);
        Client::on_view(m, &mut ctx, &view(id));
    };
    install(&mut m, 1);
    // No peer messages are ever delivered: every agreement is stuck in
    // flight, so each further view supersedes a running one.
    let last = MAX_RESTARTS + 2;
    for id in 2..last {
        install(&mut m, id);
    }
    assert_eq!(m.phase(), AgreementPhase::Running);
    assert_eq!(m.restarts(), MAX_RESTARTS);
    assert!(m.protocol_error().is_none());

    // The `MAX_RESTARTS + 1`-st superseding view exhausts the budget:
    // the abort becomes a give-up.
    install(&mut m, last);
    assert_eq!(m.phase(), AgreementPhase::GivenUp);
    assert!(
        matches!(
            m.protocol_error(),
            Some(GkaError::Protocol("restart budget exhausted"))
        ),
        "got {:?}",
        m.protocol_error()
    );

    // Give-up is terminal — later views are still *recorded* (the
    // member observes the group) but never re-enter the protocol.
    install(&mut m, last + 1);
    assert_eq!(m.phase(), AgreementPhase::GivenUp);
    assert_eq!(m.last_view_epoch(), Some(last + 1));
}

#[test]
fn restarts_within_budget_recover_and_reset_on_convergence() {
    // A member with budget left restarts in the superseding epoch and
    // the full simulation converges it; convergence clears the
    // consecutive-restart counter.
    let suite = Rc::new(CryptoSuite::sim_512());
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..8u64 {
        world.add_client(Box::new(SecureMember::new(
            ProtocolKind::Tgdh,
            Rc::clone(&suite),
            900 + i,
            Some(17),
        )));
    }
    world.install_initial_view_of((0..6).collect());
    world.run_until_quiescent();
    world.inject_join(6);
    let deadline = world.now() + Duration::from_millis(1);
    world.run_while(|w| w.now() < deadline);
    world.inject_join(7);
    world.run_until_quiescent();
    for i in 0..8 {
        let m = world.client::<SecureMember>(i);
        assert_eq!(m.phase(), AgreementPhase::Converged, "member {i}");
        assert_eq!(m.restarts(), 0, "member {i}");
        assert!(m.protocol_error().is_none(), "member {i}");
    }
}
