//! Chaos-engine semantics at the GCS layer: daemon crashes, ring
//! reformation, loss bursts, scheduled fault plans, and gap recovery.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, FaultPlan, SimWorld, View};
use gkap_sim::Duration;

#[derive(Default)]
struct Chatty {
    got: Vec<(usize, u8)>,
    views: Vec<u64>,
    send_count: u8,
}

impl Client for Chatty {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.views.push(view.id);
        for i in 0..self.send_count {
            ctx.multicast_agreed(vec![i]);
        }
    }
    fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.got
            .push((msg.sender, msg.payload.first().copied().unwrap_or(0)));
    }
}

fn world_of(members: usize, send_count: u8) -> SimWorld {
    let mut world = SimWorld::new(testbed::lan());
    for _ in 0..members {
        world.add_client(Box::new(Chatty {
            send_count,
            ..Default::default()
        }));
    }
    world.install_initial_view();
    world
}

#[test]
fn crash_evicts_members_and_reforms_ring() {
    let mut world = world_of(6, 2);
    world.run_until_quiescent();
    // Client 2 lives on machine 2 (round-robin placement).
    world.inject_crash(2);
    world.run_until_quiescent();
    assert_eq!(world.stats().daemon_crashes, 1);
    assert_eq!(world.stats().ring_reformations, 1);
    let view = world.view().expect("view");
    assert_eq!(view.members, vec![0, 1, 3, 4, 5]);
    assert_eq!(view.left, vec![2]);
    // Survivors saw the eviction view and each other's sends in it.
    for &c in &[0usize, 1, 3, 4, 5] {
        let m = world.client::<Chatty>(c);
        assert_eq!(m.views, vec![1, 2], "member {c} views");
    }
}

#[test]
fn crash_mid_rotation_recovers_token_and_messages() {
    let mut world = world_of(8, 4);
    // Crash while the initial burst of 32 messages is mid-flight: the
    // token may be at or heading to the dead daemon.
    world.run_while(|w| w.stats().agreed_messages < 5);
    world.inject_crash(3);
    world.run_until_quiescent();
    // Everything the survivors sent is delivered to every survivor, in
    // one total order, despite the lost token and lost copies.
    let survivors: Vec<usize> = (0..8).filter(|&c| c != 3).collect();
    let reference = world.client::<Chatty>(0).got.clone();
    assert!(!reference.is_empty());
    for &c in &survivors {
        assert_eq!(
            world.client::<Chatty>(c).got,
            reference,
            "member {c} diverged"
        );
    }
    assert_eq!(world.view().expect("view").members, survivors);
}

#[test]
fn crashing_every_daemon_is_a_graceful_noop() {
    // Regression for the old `.expect("at least one daemon")` in the
    // token aru computation: with every machine crashed the ring is
    // empty, the token is gone, and the world winds down without
    // panicking instead of insisting on a minimum over nothing.
    let mut world = world_of(4, 3);
    world.run_while(|w| w.stats().agreed_messages < 2);
    for d in 0..13 {
        world.inject_crash(d);
    }
    world.run_until_quiescent();
    assert_eq!(world.stats().daemon_crashes, 13);
    assert_eq!(world.stats().ring_reformations, 13);
}

/// Opens a gap of at least `gap` messages at every surviving daemon by
/// sending through a total blackout, then lets retransmission heal it.
fn run_gap_recovery(gap: u8) -> SimWorld {
    let mut world = SimWorld::new(testbed::lan());
    for _ in 0..2 {
        world.add_client(Box::new(Chatty {
            send_count: gap,
            ..Default::default()
        }));
    }
    // Nothing daemon-to-daemon survives the burst window, so every
    // copy of the `2 * gap` view-triggered sends is lost in transit.
    world.set_loss_burst(1.0, Duration::from_millis(50));
    world.install_initial_view();
    world.run_until_quiescent();
    world
}

#[test]
fn sixty_four_message_gap_fully_recovers() {
    let world = run_gap_recovery(32); // 64 messages in flight
    assert!(world.stats().messages_lost >= 64, "burst must drop copies");
    for c in 0..2 {
        let m = world.client::<Chatty>(c);
        assert_eq!(m.got.len(), 64, "member {c} missing deliveries");
    }
    // A 64-wide gap cannot be healed in one visit at
    // `RECOVERY_BATCH` = 32.
    assert!(
        world.stats().retransmission_rounds >= 2,
        "expected multiple recovery rounds, got {}",
        world.stats().retransmission_rounds
    );
    assert!(world.stats().retransmissions >= 64);
}

#[test]
fn fault_plans_are_deterministic() {
    let run = || {
        let mut world = world_of(6, 2);
        world.apply_fault_plan(
            FaultPlan::new()
                .loss_burst(Duration::from_millis(1), 0.8, Duration::from_millis(3))
                .crash(Duration::from_millis(2), 4)
                .partition(Duration::from_millis(6), vec![0, 1])
                .heal(Duration::from_millis(30), vec![0, 1]),
        );
        world.run_until_quiescent();
        world
    };
    let a = run();
    let b = run();
    assert_eq!(a.now(), b.now());
    assert_eq!(a.stats().messages_lost, b.stats().messages_lost);
    assert_eq!(a.stats().retransmissions, b.stats().retransmissions);
    assert_eq!(a.stats().views_installed, b.stats().views_installed);
    assert_eq!(
        a.view().expect("view").members,
        b.view().expect("view").members
    );
    // The plan ran: daemon 4 died (evicting its resident, client 4),
    // clients 0 and 1 left and came back.
    assert!(!a.client_alive(4));
    let members = &a.view().expect("view").members;
    assert!(members.contains(&0) && members.contains(&1));
    assert!(!members.contains(&4));
}

/// Four silent clients, with only clients 0 and 1 in the first view.
fn pair_of_four() -> SimWorld {
    let mut world = SimWorld::new(testbed::lan());
    for _ in 0..4 {
        world.add_client(Box::new(Chatty::default()));
    }
    world.install_initial_view_of(vec![0, 1]);
    world
}

#[test]
#[should_panic(expected = "client 3 named twice")]
fn a_client_named_twice_in_one_join_is_rejected() {
    // A repeated joiner used to enter the view twice (`[0, 1, 3, 3]`)
    // and receive it twice.
    pair_of_four().inject_change(vec![3, 3], vec![]);
}

#[test]
fn a_heal_naming_a_client_twice_admits_it_once() {
    let mut world = pair_of_four();
    world.apply_fault_plan(FaultPlan::new().heal(Duration::from_millis(1), vec![3, 3]));
    world.run_until_quiescent();
    assert_eq!(world.view().expect("view").members, vec![0, 1, 3]);
    assert_eq!(world.client::<Chatty>(3).views, vec![2]);
}

#[test]
fn heal_skips_members_on_crashed_machines() {
    let mut world = world_of(5, 1);
    world.run_until_quiescent();
    // Partition clients 1 and 2 out, then crash client 2's machine.
    world.inject_change(vec![], vec![1, 2]);
    world.run_until_quiescent();
    world.inject_crash(2);
    world.run_until_quiescent();
    // Healing both only brings back client 1 — client 2's machine is
    // gone and a member that can never speak would wedge the group.
    world.apply_fault_plan(FaultPlan::new().heal(Duration::from_millis(1), vec![1, 2]));
    world.run_until_quiescent();
    let members = &world.view().expect("view").members;
    assert!(members.contains(&1));
    assert!(!members.contains(&2));
}

/// A fault that changes no membership delivers no view: a crash of a
/// daemon that hosts no member, a heal of a member already present and
/// a partition of a non-member are all skipped, so every view after
/// the initial one has a joiner or a leaver. A key agreement engine
/// relies on it: it re-keys on `joined` and `left`, and has nothing to
/// do on a view that names neither.
#[test]
fn a_fault_that_changes_no_membership_delivers_no_view() {
    let at = Duration::from_millis;
    let mut world = SimWorld::new(testbed::lan());
    for _ in 0..12 {
        world.add_client(Box::new(Chatty::default()));
    }
    // Clients 6..12 sit on their own machines, outside the group.
    world.install_initial_view_of((0..6).collect());
    world.run_until_quiescent();
    world.apply_fault_plan(
        FaultPlan::new()
            .crash(at(1), 9)
            .heal(at(2), vec![2])
            .partition(at(3), vec![10])
            .partition(at(40), vec![3])
            .heal(at(80), vec![3]),
    );
    world.run_until_quiescent();
    assert_eq!(world.stats().daemon_crashes, 1);
    let changes: Vec<(Vec<usize>, Vec<usize>)> = world.views_of(0)[1..]
        .iter()
        .map(|v| (v.joined.clone(), v.left.clone()))
        .collect();
    assert_eq!(changes, [(vec![], vec![3]), (vec![3], vec![])]);
    assert_eq!(world.client::<Chatty>(0).views, vec![1, 2, 3]);
}
