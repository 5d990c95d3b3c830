//! Sharded execution: groups partitioned across independent token
//! rings.
//!
//! The single-ring engine couples every group through one shared
//! sequencer: the flush condition that gates a view install waits on
//! *all* in-flight messages, so a membership cascade in one group
//! delays installs in every other group on the ring. Sharding breaks
//! that coupling by partitioning `GroupId`s round-robin across `S`
//! independent rings (group `g` lives on ring `g % S`), each a full
//! [`SimWorld`] replica of the testbed with its own token sequencer,
//! `pending_changes`, and flush condition. Groups on different shards
//! interact with nothing, so a cascade in shard 0 cannot move a single
//! event in shard 1.
//!
//! [`ShardedWorld`] keeps the single-ring API: clients get *global*
//! ids, views are reported with global member ids, and `S = 1`
//! degenerates to exactly one [`SimWorld`] carrying every group — the
//! existing engine is the one-shard case.
//!
//! Each shard advances its own virtual clock. [`ShardedWorld::now`]
//! reports the latest of them (a plain `max`, so shard order never
//! matters): every shard has simulated *at least* to its own local
//! time, and no cross-shard event exists that could invalidate
//! another shard's past — the classic conservative-parallel-simulation
//! argument, degenerate here because the interaction graph across
//! shards is empty.

use gkap_sim::SimTime;

use crate::client::Client;
use crate::config::GcsConfig;
use crate::engine::SimWorld;
use crate::message::View;
use crate::stats::WorldStats;
use crate::{ClientId, GroupId};

/// Where a global client lives: its shard and its id inside that
/// shard's world.
#[derive(Clone, Copy, Debug)]
struct ClientHome {
    shard: usize,
    local: ClientId,
}

/// `S` independent token rings behind the single-ring API.
///
/// Every ring is a complete replica of the configured topology (the
/// paper's 13-machine LAN, say); group `g` is pinned to ring
/// `g % shards` and never shares a sequencer, CPU scheduler, or flush
/// condition across rings.
pub struct ShardedWorld {
    worlds: Vec<SimWorld>,
    /// Global client id → home shard and local id.
    clients: Vec<ClientHome>,
    /// Per shard: local client id → global id (inverse of `clients`).
    locals: Vec<Vec<ClientId>>,
}

impl std::fmt::Debug for ShardedWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedWorld")
            .field("shards", &self.worlds.len())
            .field("clients", &self.clients.len())
            .field("now", &self.now())
            .finish()
    }
}

impl ShardedWorld {
    /// Creates `shards` independent ring replicas of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the configuration is invalid.
    pub fn new(cfg: GcsConfig, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard required");
        let worlds = (0..shards).map(|_| SimWorld::new(cfg.clone())).collect();
        ShardedWorld {
            worlds,
            clients: Vec::new(),
            locals: vec![Vec::new(); shards],
        }
    }

    /// The shard a group lives on: round-robin by group id, a pure
    /// function of `(group, shards)`, so a workload's group→shard
    /// assignment never depends on scheduling or iteration order.
    fn shard_of(&self, group: GroupId) -> usize {
        group % self.worlds.len()
    }

    /// Borrows one shard's world (read-only introspection).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &SimWorld {
        &self.worlds[shard]
    }

    /// Adds a client that will belong to `group`, on that group's
    /// shard, assigned to a machine round-robin *within the shard*.
    /// Returns the client's global id.
    pub fn add_client_in(&mut self, group: GroupId, handler: Box<dyn Client>) -> ClientId {
        let shard = self.shard_of(group);
        let machine = self.clients.len() % self.worlds[shard].config().topology.machine_count();
        self.add_client_on_in(group, handler, machine)
    }

    /// Adds a client for `group` on a specific machine of the group's
    /// shard ring. Returns the client's global id.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn add_client_on_in(
        &mut self,
        group: GroupId,
        handler: Box<dyn Client>,
        machine: usize,
    ) -> ClientId {
        let shard = self.shard_of(group);
        let local = self.worlds[shard].add_client_on(handler, machine);
        let global = self.clients.len();
        self.clients.push(ClientHome { shard, local });
        self.locals[shard].push(global);
        global
    }

    /// Translates global client ids to one shard's local ids.
    ///
    /// # Panics
    ///
    /// Panics if a client is unknown or lives on a different shard.
    fn to_local(&self, shard: usize, members: &[ClientId]) -> Vec<ClientId> {
        members
            .iter()
            .map(|&c| {
                let home = self.clients.get(c).unwrap_or_else(|| {
                    panic!("unknown client {c}");
                });
                assert!(
                    home.shard == shard,
                    "client {c} lives on shard {}, not {shard}",
                    home.shard
                );
                home.local
            })
            .collect()
    }

    /// Translates one shard's local client ids back to global ids.
    fn to_global(&self, shard: usize, members: &[ClientId]) -> Vec<ClientId> {
        members
            .iter()
            .filter_map(|&l| self.locals[shard].get(l).copied())
            .collect()
    }

    /// Installs the initial view of `group` over global client ids, on
    /// the group's shard.
    ///
    /// # Panics
    ///
    /// Panics if the group already has a view, `members` is empty, or
    /// a member was not added for this group's shard.
    pub fn install_initial_view_in(&mut self, group: GroupId, members: Vec<ClientId>) {
        let shard = self.shard_of(group);
        let local = self.to_local(shard, &members);
        self.worlds[shard].install_initial_view_in(group, local);
    }

    /// Injects a membership change into `group` (global client ids).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`SimWorld::inject_change_in`].
    pub fn inject_change_in(&mut self, group: GroupId, joined: Vec<ClientId>, left: Vec<ClientId>) {
        let shard = self.shard_of(group);
        let joined = self.to_local(shard, &joined);
        let left = self.to_local(shard, &left);
        self.worlds[shard].inject_change_in(group, joined, left);
    }

    /// Advances every shard's clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        for w in &mut self.worlds {
            w.run_until(t);
        }
    }

    /// Runs every shard until no work remains on any ring.
    pub fn run_until_quiescent(&mut self) {
        for w in &mut self.worlds {
            w.run_until_quiescent();
        }
    }

    /// The conservative virtual-time frontier: the latest per-shard
    /// clock. Safe to report because shards share no events — no shard
    /// can schedule into another shard's past.
    pub fn now(&self) -> SimTime {
        self.worlds
            .iter()
            .map(SimWorld::now)
            .max()
            .unwrap_or_default()
    }

    /// `true` when every shard is quiescent.
    pub fn quiescent(&self) -> bool {
        self.worlds.iter().all(SimWorld::quiescent)
    }

    /// The installed view of `group`, with members reported as global
    /// client ids.
    pub fn view_of(&self, group: GroupId) -> Option<View> {
        let shard = self.shard_of(group);
        self.worlds[shard]
            .view_of(group)
            .map(|v| self.globalize(shard, v))
    }

    /// Every view `group` has installed, in installation order, with
    /// global member ids.
    pub fn views_of(&self, group: GroupId) -> Vec<View> {
        let shard = self.shard_of(group);
        self.worlds[shard]
            .views_of(group)
            .into_iter()
            .map(|v| self.globalize(shard, &v))
            .collect()
    }

    fn globalize(&self, shard: usize, view: &View) -> View {
        View {
            id: view.id,
            group: view.group,
            members: self.to_global(shard, &view.members),
            joined: self.to_global(shard, &view.joined),
            left: self.to_global(shard, &view.left),
        }
    }

    /// Engine counters summed over every shard.
    pub fn stats(&self) -> WorldStats {
        let mut total = WorldStats::default();
        for w in &self.worlds {
            total.merge(w.stats());
        }
        total
    }

    /// Borrows a client handler by global id, downcast to its concrete
    /// type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    pub fn client<T: Client>(&self, id: ClientId) -> &T {
        let home = self.clients[id];
        self.worlds[home.shard].client::<T>(home.local)
    }

    /// Mutably borrows a client handler by global id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    pub fn client_mut<T: Client>(&mut self, id: ClientId) -> &mut T {
        let home = self.clients[id];
        self.worlds[home.shard].client_mut::<T>(home.local)
    }
}
