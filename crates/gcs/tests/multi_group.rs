//! Multi-group engine semantics: one daemon ring carrying several
//! independent groups with per-group view state over the shared token
//! and link model.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, SimWorld, View};
use gkap_sim::Duration;

/// Records views and deliveries; multicasts a tagged payload on every
/// view install so cross-group isolation can be checked end to end.
#[derive(Default)]
struct Member {
    tag: u8,
    views: Vec<View>,
    deliveries: Vec<(usize, u8)>,
}

impl Client for Member {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.views.push(view.clone());
        ctx.multicast_agreed(vec![self.tag]);
    }

    fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.deliveries
            .push((msg.sender, msg.payload.first().copied().unwrap_or(0)));
    }
}

/// A world with `groups * size` members, members of group g tagged
/// `g as u8`, laid out contiguously: group g owns ids
/// `[g*size, (g+1)*size)`.
fn multi_world(groups: usize, size: usize) -> SimWorld {
    let mut world = SimWorld::new(testbed::lan());
    for g in 0..groups {
        for _ in 0..size {
            world.add_client(Box::new(Member {
                tag: g as u8,
                ..Member::default()
            }));
        }
    }
    for g in 0..groups {
        world.install_initial_view_in(g, (g * size..(g + 1) * size).collect());
    }
    world
}

#[test]
fn groups_are_isolated_on_a_shared_ring() {
    let (groups, size) = (4, 3);
    let mut world = multi_world(groups, size);
    world.run_until_quiescent();
    for g in 0..groups {
        let view = world.view_of(g).expect("group view installed");
        assert_eq!(view.group, g);
        assert_eq!(view.members, (g * size..(g + 1) * size).collect::<Vec<_>>());
        for m in view.members.clone() {
            let member = world.client::<Member>(m);
            // Views of other groups never reach this member.
            assert!(member.views.iter().all(|v| v.group == g));
            // Exactly the group's own multicasts arrive, nothing from
            // the other groups sharing the ring.
            assert_eq!(member.deliveries.len(), size);
            assert!(member.deliveries.iter().all(|&(_, tag)| tag == g as u8));
        }
    }
}

#[test]
fn concurrent_membership_changes_in_different_groups() {
    let (groups, size) = (3, 3);
    let mut world = multi_world(groups, size);
    // One spare client for group 1 to admit.
    let spare = world.add_client(Box::new(Member {
        tag: 1,
        ..Member::default()
    }));
    world.run_until_quiescent();

    // Concurrently: group 0 loses a member, group 1 gains one; group 2
    // stays untouched.
    world.inject_change_in(0, vec![], vec![1]);
    world.inject_change_in(1, vec![spare], vec![]);
    world.run_until_quiescent();

    let v0 = world.view_of(0).expect("group 0 view");
    assert_eq!(v0.members, vec![0, 2]);
    let v1 = world.view_of(1).expect("group 1 view");
    assert_eq!(v1.members, vec![3, 4, 5, spare]);
    let v2 = world.view_of(2).expect("group 2 view");
    assert_eq!(v2.members, vec![6, 7, 8]);

    // Group 2 saw exactly one view (its bootstrap): the other groups'
    // changes did not generate installs for it.
    assert_eq!(world.views_of(2).len(), 1);
    assert_eq!(world.views_of(0).len(), 2);
    assert_eq!(world.views_of(1).len(), 2);
    for m in [6, 7, 8] {
        assert_eq!(world.client::<Member>(m).views.len(), 1);
    }
}

#[test]
fn run_until_advances_idle_time_deterministically() {
    let mut world = multi_world(2, 3);
    world.run_until_quiescent();
    let t0 = world.now();
    // Advance through pure idle token circulation to a future instant.
    let target = t0 + Duration::from_millis(50);
    world.run_until(target);
    assert!(world.now() >= t0 + Duration::from_millis(49));
    assert!(world.now() <= target);
    // An injection at the advanced instant still works per group.
    world.inject_change_in(1, vec![], vec![4]);
    world.run_until_quiescent();
    assert_eq!(world.view_of(1).expect("view").members, vec![3, 5]);
}

#[test]
fn single_group_api_is_group_zero() {
    let mut world = SimWorld::new(testbed::lan());
    for _ in 0..3 {
        world.add_client(Box::new(Member::default()));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    assert_eq!(world.view().map(|v| v.id), world.view_of(0).map(|v| v.id));
    assert_eq!(world.view().expect("view").group, 0);
}
