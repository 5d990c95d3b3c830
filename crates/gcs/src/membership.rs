//! View-synchronous membership: which view every group is in, and how
//! a queued change becomes the next one.
//!
//! [`Membership`] owns every group's installed view, the history of
//! all views, the world-wide view-id counter and, per group, a FIFO of
//! queued changes plus the one whose protocol is running. It is handed
//! what the ring knows — the token passed the ring head, the old
//! view's traffic is flushed, the token is at this daemon, these
//! daemons are alive — and returns the views to install. It never
//! sees the event queue, a message store or a client.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;

use crate::config::MEMBERSHIP_ROUNDS;
use crate::message::{View, ViewId};
use crate::{ClientId, DaemonId, GroupId};

struct PendingChange {
    joined: Vec<ClientId>,
    left: Vec<ClientId>,
}

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
    /// Queued changes, per group.
    pending: BTreeMap<GroupId, VecDeque<PendingChange>>,
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
    /// only run or queue in a group that has one.)
    pub(crate) fn group_ids(&self) -> Vec<GroupId> {
        self.views.keys().copied().collect()
    }

    /// Whether a change is in progress or queued in any group.
    pub(crate) fn busy(&self) -> bool {
        !self.active.is_empty() || self.pending.values().any(|q| !q.is_empty())
    }

    /// A group's membership as it will stand once the active and every
    /// queued change has installed (empty for an unknown group).
    pub(crate) fn projected_members_of(&self, group: GroupId) -> Vec<ClientId> {
        let mut members: Vec<ClientId> = match self.active.get(&group) {
            Some(active) => active.new_view.members.clone(),
            None => self
                .views
                .get(&group)
                .map(|v| v.members.clone())
                .unwrap_or_default(),
        };
        if let Some(queue) = self.pending.get(&group) {
            for ch in queue {
                members.retain(|m| !ch.left.contains(m));
                members.extend_from_slice(&ch.joined);
            }
        }
        members
    }

    /// Queues a change behind the group's earlier ones and starts it
    /// if the group is idle.
    pub(crate) fn queue_change(
        &mut self,
        group: GroupId,
        joined: Vec<ClientId>,
        left: Vec<ClientId>,
    ) {
        self.pending
            .entry(group)
            .or_default()
            .push_back(PendingChange { joined, left });
        self.start_next(group);
    }

    /// Starts the group's oldest queued change unless one is running.
    fn start_next(&mut self, group: GroupId) {
        if self.active.contains_key(&group) {
            return;
        }
        let Some(view) = self.views.get(&group).cloned() else {
            return;
        };
        let Some(change) = self.pending.get_mut(&group).and_then(VecDeque::pop_front) else {
            return;
        };
        let mut members: Vec<ClientId> = view
            .members
            .iter()
            .copied()
            .filter(|m| !change.left.contains(m))
            .collect();
        members.extend_from_slice(&change.joined);
        let new_view = self.next_view(group, members, change.joined, change.left);
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
    /// it becomes the group's current view and the next queued change
    /// starts. Returns whether a view was adopted.
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
    fn a_group_is_fifo_and_installs_only_when_rounds_are_spent_and_flushed() {
        let mut m = Membership::new();
        m.install_initial(0, vec![0, 1]);
        m.queue_change(0, vec![2], vec![]);
        m.queue_change(0, vec![], vec![0]);
        // Both are projected; only the first has a view id yet.
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
        // Completion started the leave; it owes its own rounds.
        for _ in 1..MEMBERSHIP_ROUNDS {
            assert!(rotate(&mut m, true).is_empty() && m.busy());
        }
        assert_eq!(rotate(&mut m, true).len(), DAEMONS);
        let v3 = m.view(0).expect("installed");
        assert_eq!((v3.id, &v3.members, &v3.left), (3, &vec![1, 2], &vec![0]));
        assert!(!m.busy());
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
