//! View-synchronous membership: which view every group is in, and how
//! the changes that arrive while one installs become the next view.
//!
//! [`Membership`] owns every group's installed view, the history of
//! all views, the world-wide view-id counter and, per group, the
//! running change plus the membership the group is to reach after it.
//! Changes fold into that target, and the next view is its diff with
//! the running change's view (none if they agree): a Spread
//! configuration lists the members connected when the membership
//! protocol completes, not every component on the way. It is handed
//! what the ring knows — the token passed the ring head, the old
//! view's traffic is flushed, the token is at this daemon, these
//! daemons are alive — and returns the views to install. It never
//! sees the event queue, a message store or a client.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing, clippy::string_slice)]

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use crate::config::MEMBERSHIP_ROUNDS;
use crate::message::{View, ViewId};
use crate::{ClientId, DaemonId, GroupId};

struct ActiveChange {
    new_view: Rc<View>,
    /// Ring-head passes remaining before daemons may install.
    rounds_left: u32,
    /// Set once `rounds_left` hits zero on a flushed ring: daemons
    /// install on their next token visit.
    installing: bool,
    installed: BTreeSet<DaemonId>,
}

/// Per-group view state of one ring.
pub(crate) struct Membership {
    /// Current installed view of every group.
    views: BTreeMap<GroupId, Rc<View>>,
    history: BTreeMap<ViewId, Rc<View>>,
    next_view_id: ViewId,
    /// The members a group is to reach once its running change
    /// installs; present only while one runs.
    pending: BTreeMap<GroupId, Vec<ClientId>>,
    /// In-progress membership protocol per group.
    active: BTreeMap<GroupId, ActiveChange>,
}

impl Membership {
    /// No groups yet; every change runs for [`MEMBERSHIP_ROUNDS`] head
    /// passes.
    pub(crate) fn new() -> Self {
        Membership {
            views: BTreeMap::new(),
            history: BTreeMap::new(),
            next_view_id: 1,
            pending: BTreeMap::new(),
            active: BTreeMap::new(),
        }
    }

    fn next_view(
        &mut self,
        group: GroupId,
        members: Vec<ClientId>,
        joined: Vec<ClientId>,
        left: Vec<ClientId>,
    ) -> Rc<View> {
        let view = Rc::new(View {
            id: self.next_view_id,
            group,
            members,
            joined,
            left,
        });
        self.next_view_id += 1;
        self.history.insert(view.id, Rc::clone(&view));
        view
    }

    /// Installs a group's first view, free of protocol rounds.
    pub(crate) fn install_initial(&mut self, group: GroupId, members: Vec<ClientId>) -> Rc<View> {
        let view = self.next_view(group, members.clone(), members, Vec::new());
        self.views.insert(group, Rc::clone(&view));
        view
    }

    /// The installed view of a group.
    pub(crate) fn view(&self, group: GroupId) -> Option<&Rc<View>> {
        self.views.get(&group)
    }

    /// Any view ever begun, by id.
    pub(crate) fn view_by_id(&self, id: ViewId) -> Option<&Rc<View>> {
        self.history.get(&id)
    }

    /// Every view a group has installed or begun, in id order.
    pub(crate) fn views_of(&self, group: GroupId) -> Vec<Rc<View>> {
        self.history
            .values()
            .filter(|v| v.group == group)
            .cloned()
            .collect()
    }

    /// Every group with an installed view, ascending. (A change can
    /// only run or pend in a group that has one.)
    pub(crate) fn group_ids(&self) -> Vec<GroupId> {
        self.views.keys().copied().collect()
    }

    /// Whether a change is running in any group (a target only pends
    /// behind one).
    pub(crate) fn busy(&self) -> bool {
        !self.active.is_empty()
    }

    /// A group's membership as it will stand once every change so far
    /// has installed: its target, else the running change's view, else
    /// the installed view (empty for an unknown group).
    pub(crate) fn projected_members_of(&self, group: GroupId) -> Vec<ClientId> {
        self.pending
            .get(&group)
            .or_else(|| self.active.get(&group).map(|a| &a.new_view.members))
            .or_else(|| self.views.get(&group).map(|v| &v.members))
            .cloned()
            .unwrap_or_default()
    }

    /// Folds a change into the group's target membership and starts it
    /// if the group is idle.
    pub(crate) fn queue_change(
        &mut self,
        group: GroupId,
        joined: Vec<ClientId>,
        left: Vec<ClientId>,
    ) {
        let mut target = self.projected_members_of(group);
        target.retain(|m| !left.contains(m));
        target.extend(joined);
        self.pending.insert(group, target);
        self.start_next(group);
    }

    /// Starts the change from the installed view to the group's target
    /// unless one is running: the members that stay, in view order,
    /// then the newcomers, in target order. A target equal to the view
    /// starts nothing.
    fn start_next(&mut self, group: GroupId) {
        if self.active.contains_key(&group) {
            return;
        }
        let Some(view) = self.views.get(&group).cloned() else {
            return;
        };
        let Some(target) = self.pending.remove(&group) else {
            return;
        };
        let (mut members, left): (Vec<ClientId>, Vec<ClientId>) =
            view.members.iter().partition(|m| target.contains(m));
        let joined: Vec<ClientId> = target
            .into_iter()
            .filter(|m| !view.members.contains(m))
            .collect();
        if joined.is_empty() && left.is_empty() {
            return;
        }
        members.extend_from_slice(&joined);
        let new_view = self.next_view(group, members, joined, left);
        self.active.insert(
            group,
            ActiveChange {
                new_view,
                rounds_left: MEMBERSHIP_ROUNDS,
                installing: false,
                installed: BTreeSet::new(),
            },
        );
    }

    /// The token passed the ring head: every running change spends one
    /// round, and one whose rounds are spent may begin installing —
    /// but only on a `flushed` ring. View synchrony: the new view may
    /// only install once every message sent in the old one has been
    /// delivered everywhere (Spread flushes before installing a view);
    /// otherwise a message of epoch E could arrive after a member
    /// entered epoch E+1 and be discarded, breaking cascaded changes.
    /// Every group advances on the same pass: the rounds are shared
    /// token rotations, and the flush condition is global because the
    /// sequencer (and therefore stability) is shared across groups.
    pub(crate) fn on_head_pass(&mut self, flushed: bool) {
        for active in self.active.values_mut() {
            if !active.installing {
                active.rounds_left = active.rounds_left.saturating_sub(1);
                active.installing = active.rounds_left == 0 && flushed;
            }
        }
    }

    /// The views `daemon` must install on this token visit (ascending
    /// group order, so the install sequence is deterministic); each is
    /// reported to a daemon once.
    pub(crate) fn installs_due(&mut self, daemon: DaemonId) -> Vec<Rc<View>> {
        self.active
            .values_mut()
            .filter_map(|a| {
                (a.installing && a.installed.insert(daemon)).then(|| Rc::clone(&a.new_view))
            })
            .collect()
    }

    /// Cluster-wide completion for one group: once every daemon of
    /// `alive` has installed the running change's view (a crashed
    /// daemon never will, and the reformed ring does not wait on it)
    /// it becomes the group's current view and the change to the
    /// group's target starts. Returns whether a view was adopted.
    pub(crate) fn complete_if_installed(
        &mut self,
        group: GroupId,
        mut alive: impl Iterator<Item = DaemonId>,
    ) -> bool {
        let done = self
            .active
            .get(&group)
            .is_some_and(|a| alive.all(|d| a.installed.contains(&d)));
        if !done {
            return false;
        }
        if let Some(active) = self.active.remove(&group) {
            self.views.insert(group, active.new_view);
        }
        self.start_next(group);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAEMONS: usize = 3;

    /// One token rotation as the engine drives it: a head pass, then
    /// each daemon installs what is due and completion is checked.
    /// Returns `(daemon, view id)` per install, in order.
    fn rotate(m: &mut Membership, flushed: bool) -> Vec<(DaemonId, ViewId)> {
        m.on_head_pass(flushed);
        let mut installed = Vec::new();
        for d in 0..DAEMONS {
            for view in m.installs_due(d) {
                installed.push((d, view.id));
                m.complete_if_installed(view.group, 0..DAEMONS);
            }
        }
        installed
    }

    #[test]
    fn a_change_installs_only_when_rounds_are_spent_and_flushed() {
        let mut m = Membership::new();
        m.install_initial(0, vec![0, 1]);
        m.queue_change(0, vec![2], vec![]);
        m.queue_change(0, vec![], vec![0]);
        // Both are projected; only the running one has a view id yet.
        assert_eq!(m.projected_members_of(0), vec![1, 2]);
        assert_eq!(m.views_of(0).len(), 2);
        for _ in 1..MEMBERSHIP_ROUNDS {
            assert!(rotate(&mut m, true).is_empty(), "flushed, a round is owed");
        }
        assert!(
            rotate(&mut m, false).is_empty(),
            "rounds spent, not flushed"
        );
        assert_eq!(rotate(&mut m, true), vec![(0, 2), (1, 2), (2, 2)]);
        assert!(
            m.installs_due(0).is_empty(),
            "a daemon installs a view once"
        );
        assert_eq!(m.view(0).map(|v| v.members.clone()), Some(vec![0, 1, 2]));
        // Completion started the pending leave; it owes its own rounds.
        for _ in 1..MEMBERSHIP_ROUNDS {
            assert!(rotate(&mut m, true).is_empty() && m.busy());
        }
        assert_eq!(rotate(&mut m, true).len(), DAEMONS);
        let v3 = m.view(0).expect("installed");
        assert_eq!((v3.id, &v3.members, &v3.left), (3, &vec![1, 2], &vec![0]));
        assert!(!m.busy());
    }

    /// Runs every change to completion; returns the views installed.
    fn drain(m: &mut Membership) -> Vec<Rc<View>> {
        let mut views = Vec::new();
        while m.busy() {
            for (d, id) in rotate(m, true) {
                if d == 0 {
                    views.extend(m.view_by_id(id).cloned());
                }
            }
        }
        views
    }

    #[test]
    fn a_join_then_leave_behind_a_running_change_installs_no_view() {
        let mut m = Membership::new();
        m.install_initial(0, vec![0, 1]);
        m.queue_change(0, vec![2], vec![]);
        m.queue_change(0, vec![3], vec![]);
        m.queue_change(0, vec![], vec![3]);
        assert_eq!(m.projected_members_of(0), vec![0, 1, 2]);
        let ids: Vec<ViewId> = drain(&mut m).iter().map(|v| v.id).collect();
        assert_eq!(ids, [2], "only the running change installs");
        assert_eq!(m.views_of(0).len(), 2);
        assert!(!m.busy());
    }

    #[test]
    fn a_leave_then_rejoin_installs_no_view_and_keeps_the_members_place() {
        let mut m = Membership::new();
        m.install_initial(0, vec![0, 1, 2]);
        m.queue_change(0, vec![3], vec![]);
        m.queue_change(0, vec![], vec![1]);
        m.queue_change(0, vec![1], vec![]);
        assert_eq!(m.projected_members_of(0), vec![0, 2, 3, 1]);
        assert_eq!(drain(&mut m).len(), 1);
        assert_eq!(m.view(0).map(|v| v.members.clone()), Some(vec![0, 1, 2, 3]));
        assert!(!m.busy());
    }

    #[test]
    fn two_queued_leaves_install_as_one_view() {
        let mut m = Membership::new();
        m.install_initial(0, vec![0, 1, 2, 3]);
        m.queue_change(0, vec![4], vec![]);
        m.queue_change(0, vec![], vec![3]);
        m.queue_change(0, vec![], vec![1]);
        let views = drain(&mut m);
        assert_eq!(views.len(), 2);
        let v = &views[1];
        assert_eq!(
            (&v.members, &v.joined, &v.left),
            (&vec![0, 2, 4], &vec![], &vec![1, 3])
        );
    }

    #[test]
    fn groups_run_concurrently_and_dead_daemons_are_not_waited_on() {
        let mut m = Membership::new();
        m.install_initial(0, vec![0]);
        m.install_initial(5, vec![1]);
        m.queue_change(5, vec![3], vec![]);
        m.queue_change(0, vec![2], vec![]);
        assert_eq!(m.group_ids(), vec![0, 5]);
        // The same head passes serve both; a daemon installs in
        // ascending group order, view ids were handed out in queue
        // order.
        for _ in 0..MEMBERSHIP_ROUNDS {
            m.on_head_pass(true);
        }
        let ids = |views: Vec<Rc<View>>| views.iter().map(|v| v.id).collect::<Vec<_>>();
        assert_eq!(ids(m.installs_due(0)), [4, 3]);
        assert!(!m.complete_if_installed(5, 0..DAEMONS), "1 and 2 still owe");
        assert_eq!(ids(m.installs_due(2)), [4, 3]);
        // Daemon 1 crashed: only 0 and 2 are asked.
        assert!(m.complete_if_installed(5, [0, 2].into_iter()));
        assert_eq!(m.view(5).map(|v| v.id), Some(3));
        assert_eq!(m.view(0).map(|v| v.id), Some(1), "group 0 still installing");
        assert!(m.projected_members_of(9).is_empty(), "unknown group");
    }
}
