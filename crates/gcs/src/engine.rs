//! The discrete-event engine: the event queue, the client and machine
//! arenas, client scheduling and the world's public API.
//!
//! This file is the scheduler. It is the **only** file of the crate
//! that schedules an event, calls a [`Client`] handler or holds the
//! telemetry sink. Every *decision* lives in a module that owns its
//! state privately and never sees any of the three — it is handed what
//! it needs and returns a value this file acts on:
//!
//! ```text
//!                 engine  (Ev, dispatch, quiet skip, handlers, API)
//!      ┌─────────────┬──┴──────────┬─────────────────┐
//!    ring        membership     recovery ──▶ ring   loss
//!  sequencing,   views, FIFO    windows, EWMA,      base × chain ×
//!  flow control, changes,       backoff, FEC        burst, the loss
//!  aru, daemon   flush gate     buffers + codec     RNG stream
//!  stores
//! ```
//!
//! [`crate::ring`] describes the Agreed total order a token visit
//! implements, [`crate::membership`] how a view change runs.
//!
//! # Fan-outs are runs
//!
//! The copies of one fan-out — a sequenced message or a parity shard
//! to the other daemons, a stable message to a daemon's local clients
//! — are scheduled back to back: those due at one instant hold
//! consecutive queue positions, so nothing can ever be dispatched
//! between them. Each such group is therefore *one* queue entry, a
//! **run**: the targets in sending order plus one shared payload. A
//! step still dispatches exactly one target: the world keeps the
//! popped run open and consumes it before it pops again, and
//! `outstanding` counts targets, not entries. Step counts, predicate
//! granularity, the dispatch counters, RNG draws and the order of
//! every handler call are what one entry per copy gave; only the heap
//! traffic is not.
//!
//! # A quiet rotation is not an event
//!
//! Most of a run the ring has nothing to do: the group is idle, or its
//! members are computing (a 512-bit exponentiation is milliseconds, a
//! LAN rotation 0.65 ms). A token visit then forwards the token and —
//! at the ring head — counts a rotation; nothing else in the world can
//! change before the next *other* event is due. There is one rule for
//! such a stretch, applied where the token is popped
//! (`SimWorld::skip_quiet_rotations`): the whole rotations that fit
//! before that event (or the caller's `t`) are replayed in O(ring) —
//! the rotation counters, and with a sink attached the dispatch
//! counters, the rotation-interval samples and **one**
//! [`EventKind::IdleRotations`] — the token is re-queued after them,
//! and the partial rotation that remains is stepped. The rule does not
//! ask whether telemetry is on, whether anything is in flight or how
//! long the stretch is. It runs in [`SimWorld::run_until`] and
//! [`SimWorld::run_until_quiescent`], whose callers cannot observe a
//! hop; [`SimWorld::step`] and [`SimWorld::run_while`] dispatch every
//! hop, so a predicate or a step count sees each one.
//! [`SimWorld::set_idle_fast_forward`] turns it off: the stepping
//! reference that `tests/quiet_skip.rs` and `tests/fast_forward.rs`
//! hold it to, state for state.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::string_slice)]
#![expect(
    clippy::indexing_slicing,
    reason = "owns the client and machine arenas: ClientId and MachineId are engine-issued indices; a run is never scheduled empty and keep_open holds its cursor below the target count"
)]

use std::any::Any;
use std::rc::Rc;

use bytes::Bytes;
use gkap_sim::{CpuScheduler, Duration, EventQueue, SimTime};
use gkap_telemetry::metrics::{Key, Layer};
use gkap_telemetry::{fault, Actor, Event, EventKind, Label, Telemetry};

use crate::client::{Client, WorldSlots};
use crate::config::{
    GcsConfig, CLIENT_DAEMON_DELAY, MEMBERSHIP_PER_MEMBER, PER_MESSAGE_PROCESSING, RECOVERY_BATCH,
    TOKEN_PROCESSING,
};
use crate::fault::{Fault, FaultPlan};
use crate::loss::LossProcess;
use crate::membership::Membership;
use crate::message::{Delivery, Dest, Service, View};
use crate::recovery::{self, GapAction, ParityShard, Recovery};
use crate::ring::{Ring, Submission, WireMsg};
use crate::stats::WorldStats;
use crate::{ClientId, DaemonId, GroupId, MachineId};

/// Which mechanism closed a loss-recovery window (drives the split
/// attribution in [`WorldStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RecoveryPath {
    FecRepair,
    Retransmission,
}

#[derive(Debug)]
enum Ev {
    /// The token of generation `gen` arrives at `daemon`. Stale
    /// generations (superseded by a ring reformation) are ignored.
    Token { daemon: DaemonId, gen: u64 },
    /// A sequenced Agreed message reaches `targets`, in this order and
    /// all at this instant: one run of a fan-out (a re-sent copy is a
    /// run of one).
    DaemonRecv {
        targets: Vec<DaemonId>,
        msg: Rc<WireMsg>,
    },
    /// A client's send reaches its local daemon.
    ClientSubmit { out: Delivery },
    /// A FIFO message reaches the destination daemon, ready for local
    /// delivery.
    FifoArrive {
        daemon: DaemonId,
        delivery: Rc<Delivery>,
    },
    /// A message is handed to `targets`, its addressees among one
    /// daemon's local clients, in this order and all at this instant.
    ClientDeliver {
        targets: Vec<ClientId>,
        parcel: Parcel,
    },
    /// A view change is handed to a client.
    ViewDeliver { client: ClientId, view: Rc<View> },
    /// A retransmission request for `msg` reaches `from` (an alive
    /// daemon holding the message), which re-sends it to `to`. The
    /// request carries the message, as `DaemonRecv` does: a late
    /// request whose requester has delivered the message meanwhile
    /// still re-sends it (DESIGN.md §21), and by then the floor may
    /// have pruned it from the retransmission buffer.
    Retransmit {
        msg: Rc<WireMsg>,
        to: DaemonId,
        from: DaemonId,
    },
    /// A parity shard of a FEC-coded fan-out generation reaches
    /// `targets`, in this order and all at this instant.
    ParityRecv {
        targets: Vec<DaemonId>,
        shard: Rc<ParityShard>,
    },
    /// The surviving daemons detect that `daemon` crashed: the ring
    /// reforms, the token regenerates, the dead machine's members are
    /// evicted via a view change.
    CrashDetect { daemon: DaemonId },
    /// A scheduled fault from a [`FaultPlan`] fires.
    Fault { fault: Fault },
}

impl Ev {
    /// Stable metric name of an event variant (the sim event loop's
    /// per-kind dispatch counters).
    fn metric_name(&self) -> &'static str {
        match self {
            Ev::Token { .. } => "ev_token",
            Ev::DaemonRecv { .. } => "ev_daemon_recv",
            Ev::ClientSubmit { .. } => "ev_client_submit",
            Ev::FifoArrive { .. } => "ev_fifo_arrive",
            Ev::ClientDeliver { .. } => "ev_client_deliver",
            Ev::ViewDeliver { .. } => "ev_view_deliver",
            Ev::Retransmit { .. } => "ev_retransmit",
            Ev::ParityRecv { .. } => "ev_parity_recv",
            Ev::CrashDetect { .. } => "ev_crash_detect",
            Ev::Fault { .. } => "ev_fault",
        }
    }

    /// How many dispatches this queue entry stands for: one per target
    /// of a run, one for everything else.
    fn copies(&self) -> usize {
        match self {
            Ev::DaemonRecv { targets, .. }
            | Ev::ParityRecv { targets, .. }
            | Ev::ClientDeliver { targets, .. } => targets.len(),
            _ => 1,
        }
    }
}

/// What a [`Ev::ClientDeliver`] run hands to its targets. An Agreed
/// message is lent straight out of the daemon's copy of the sequenced
/// record; a FIFO message never had one.
#[derive(Debug)]
enum Parcel {
    Agreed(Rc<WireMsg>),
    Fifo(Rc<Delivery>),
}

impl Parcel {
    fn delivery(&self) -> &Delivery {
        match self {
            Parcel::Agreed(msg) => &msg.delivery,
            Parcel::Fifo(delivery) => delivery,
        }
    }
}

/// A run popped from the queue with targets still to dispatch. Nothing
/// can come between two targets of a run — they share one instant and
/// one queue position — so the world consumes `next..` before it pops
/// again, one target per step.
#[derive(Debug)]
struct OpenRun {
    ev: Ev,
    next: usize,
}

struct ClientSlot {
    machine: MachineId,
    handler: Option<Box<dyn Client>>,
    busy_until: SimTime,
    alive: bool,
}

/// The simulated world: topology, daemons, clients, token and clock.
pub struct SimWorld {
    cfg: GcsConfig,
    queue: EventQueue<Ev>,
    /// The run being consumed, if the last step left one unfinished.
    open: Option<OpenRun>,
    machines: Vec<CpuScheduler>,
    clients: Vec<ClientSlot>,
    ring: Ring,
    membership: Membership,
    loss: LossProcess,
    recovery: Recovery,
    /// Non-token events in flight (quiescence detection).
    outstanding: u64,
    stats: WorldStats,
    token_started: bool,
    /// Virtual instant of the previous completed token rotation, for
    /// the rotation-interval histogram.
    last_rotation_at: Option<SimTime>,
    /// When `true` (the default), [`SimWorld::run_until`] and
    /// [`SimWorld::run_until_quiescent`] replay the whole rotations of
    /// a quiet stretch instead of dispatching each hop; see
    /// [`SimWorld::set_idle_fast_forward`].
    idle_fast_forward: bool,
    /// State this world's clients share through
    /// [`ClientCtx::world_slot`]; opaque to the engine.
    slots: WorldSlots,
    /// Telemetry sink (disabled by default; recording never advances
    /// virtual time, so enabling it cannot change simulation results).
    telemetry: Telemetry,
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("now", &self.now())
            .field("clients", &self.clients.len())
            .field("daemons", &self.ring.daemon_count())
            .field("groups", &self.membership.group_ids().len())
            .field("view", &self.membership.view(0).map(|v| v.id))
            .finish()
    }
}

impl SimWorld {
    /// Creates a world over the given configuration with no clients.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`GcsConfig::validate`]).
    pub fn new(cfg: GcsConfig) -> Self {
        cfg.validate();
        let machine_count = cfg.topology.machine_count();
        SimWorld {
            queue: EventQueue::new(),
            open: None,
            machines: (0..machine_count)
                .map(|m| CpuScheduler::new(cfg.topology.machine(m).cores))
                .collect(),
            clients: Vec::new(),
            ring: Ring::new(machine_count),
            membership: Membership::new(),
            loss: LossProcess::new(&cfg),
            recovery: Recovery::new(&cfg),
            outstanding: 0,
            stats: WorldStats::default(),
            token_started: false,
            last_rotation_at: None,
            idle_fast_forward: true,
            slots: WorldSlots::default(),
            telemetry: Telemetry::disabled(),
            cfg,
        }
    }

    /// Attaches a telemetry sink: the engine records into it, and so
    /// does every client handler, through [`ClientCtx::telemetry`], so
    /// all events land in one stream.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry sink (disabled unless [`SimWorld::set_telemetry`]
    /// was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    // ------------------------------------------------------------------
    // Setup and injection API
    // ------------------------------------------------------------------

    /// Adds a client process, assigning it to a machine round-robin
    /// (the paper distributes members uniformly over the 13 machines).
    /// The client is not yet a member of any view.
    pub fn add_client(&mut self, handler: Box<dyn Client>) -> ClientId {
        let machine = self.clients.len() % self.cfg.topology.machine_count();
        self.add_client_on(handler, machine)
    }

    /// Adds a client on a specific machine.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn add_client_on(&mut self, handler: Box<dyn Client>, machine: MachineId) -> ClientId {
        assert!(
            machine < self.cfg.topology.machine_count(),
            "unknown machine"
        );
        let id = self.clients.len();
        self.clients.push(ClientSlot {
            machine,
            handler: Some(handler),
            busy_until: SimTime::ZERO,
            alive: true,
        });
        id
    }

    /// Installs the initial view containing every added client, at the
    /// current instant and free of membership cost (the group's
    /// bootstrap, which no experiment measures), and starts the token.
    pub fn install_initial_view(&mut self) {
        let members: Vec<ClientId> = (0..self.clients.len()).collect();
        self.install_initial_view_of(members);
    }

    /// Installs an initial view over a subset of clients (group `0`).
    ///
    /// # Panics
    ///
    /// Panics where [`SimWorld::install_initial_view_in`] does.
    pub fn install_initial_view_of(&mut self, members: Vec<ClientId>) {
        self.install_initial_view_in(0, members);
    }

    /// Installs the initial view of one group over a subset of
    /// clients. Many groups can share the ring; each carries its own
    /// view state while token, links and CPU contention are shared.
    ///
    /// # Panics
    ///
    /// Panics if the group already has a view, `members` is empty, a
    /// member is an unknown client or a client is named twice.
    pub fn install_initial_view_in(&mut self, group: GroupId, members: Vec<ClientId>) {
        assert!(
            self.membership.view(group).is_none(),
            "initial view already installed for group {group}"
        );
        assert!(!members.is_empty(), "initial view cannot be empty");
        for (i, &j) in members.iter().enumerate() {
            assert!(j < self.clients.len(), "unknown client {j}");
            assert!(!members[..i].contains(&j), "client {j} named twice");
        }
        let view = self.membership.install_initial(group, members);
        self.stats.views_installed += 1;
        for &c in &view.members {
            self.schedule(
                CLIENT_DAEMON_DELAY,
                Ev::ViewDeliver {
                    client: c,
                    view: Rc::clone(&view),
                },
            );
        }
        if !self.token_started {
            self.token_started = true;
            self.launch_token();
        }
    }

    /// Injects a membership change into group `0`: `joined` clients
    /// enter the view, `left` members leave it. The new view installs
    /// after the membership protocol completes (several token
    /// rotations).
    ///
    /// # Panics
    ///
    /// Panics if no initial view exists, a joining client is unknown or
    /// already a member, a leaving client is not a member, or a client
    /// is named twice.
    pub fn inject_change(&mut self, joined: Vec<ClientId>, left: Vec<ClientId>) {
        self.inject_change_in(0, joined, left);
    }

    /// Injects a membership change into a specific group. Changes for
    /// different groups proceed concurrently; within one group, the
    /// changes injected while a view installs fold into one next view
    /// (none if they cancel out).
    ///
    /// # Panics
    ///
    /// Panics if the group has no initial view, a joining client is
    /// unknown or already a member, a leaving client is not a member
    /// of that group, or a client is named twice.
    pub fn inject_change_in(&mut self, group: GroupId, joined: Vec<ClientId>, left: Vec<ClientId>) {
        // Validate against the group membership as it will stand once
        // every change so far has installed.
        assert!(
            self.membership.view(group).is_some(),
            "no initial view installed for group {group}"
        );
        let members = self.membership.projected_members_of(group);
        for (i, &j) in joined.iter().enumerate() {
            assert!(j < self.clients.len(), "unknown client {j}");
            assert!(!members.contains(&j), "client {j} already a member");
            assert!(!joined[..i].contains(&j), "client {j} named twice");
        }
        for (i, &l) in left.iter().enumerate() {
            assert!(members.contains(&l), "client {l} is not a member");
            assert!(!left[..i].contains(&l), "client {l} named twice");
        }
        self.membership.queue_change(group, joined, left);
    }

    /// Convenience: one client joins.
    pub fn inject_join(&mut self, client: ClientId) {
        self.inject_change(vec![client], vec![]);
    }

    /// Convenience: one member leaves.
    pub fn inject_leave(&mut self, client: ClientId) {
        self.inject_change(vec![], vec![client]);
    }

    /// The membership of `group` as it will stand once every change
    /// so far has installed (empty before any initial view). Fault
    /// injectors consult this to aim joins/leaves at clients whose
    /// membership status is already settled in-flight.
    pub fn projected_members_of(&self, group: GroupId) -> Vec<ClientId> {
        self.membership.projected_members_of(group)
    }

    /// Crashes a daemon mid-token-rotation: it stops sequencing and
    /// delivering instantly (pending submissions die with it, and a
    /// token in flight towards it is lost), and its local clients die
    /// with the machine. After
    /// [`GcsConfig::crash_detection_timeout`] the surviving daemons
    /// reform the ring, regenerate the token, and evict the dead
    /// machine's members via a membership change — in-flight messages
    /// that only the dead daemon held are recovered from the
    /// retransmission buffers during subsequent token rotations.
    ///
    /// # Panics
    ///
    /// Panics if `daemon` is out of range or has already crashed.
    pub fn inject_crash(&mut self, daemon: DaemonId) {
        assert!(daemon < self.ring.daemon_count(), "unknown daemon {daemon}");
        assert!(
            self.ring.is_alive(daemon),
            "daemon {daemon} already crashed"
        );
        self.ring.crash(daemon);
        self.recovery.forget(daemon);
        self.stats.daemon_crashes += 1;
        self.note_fault(Actor::daemon(daemon), fault::CRASH, daemon);
        // The machine died: its client processes die with it.
        for slot in self.clients.iter_mut().filter(|c| c.machine == daemon) {
            slot.alive = false;
        }
        self.schedule(self.cfg.crash_detection_timeout, Ev::CrashDetect { daemon });
    }

    /// Overrides the copy-loss probability with `rate` for `duration`
    /// of virtual time (the configured `loss_rate` resumes afterwards).
    /// Gaps opened by the burst are recovered by token-driven
    /// retransmission once it ends.
    ///
    /// The burst window is half-open: copies sent in `[now, now +
    /// duration)` see `max(loss_rate, rate)`; a copy sent at exactly
    /// `now + duration` is already back on the base rate. The
    /// effective rate is the *maximum* of burst and base rate, so a
    /// `rate` of `0.0` cannot suppress a configured base loss rate.
    /// Bursts do not stack: setting a new burst while one is active
    /// replaces it entirely — last writer wins, including a shorter or
    /// milder burst cutting a longer one short.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn set_loss_burst(&mut self, rate: f64, duration: Duration) {
        self.loss.set_burst(rate, self.queue.now() + duration);
        self.note_fault(Actor::World, fault::LOSS_BURST, (rate * 100.0) as usize);
    }

    /// Schedules every fault in `plan` as a simulation event at its
    /// virtual-time offset from now. Deterministic: the same plan
    /// applied to the same world yields the same run.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        for planned in plan.faults {
            self.schedule(
                planned.after,
                Ev::Fault {
                    fault: planned.fault,
                },
            );
        }
    }

    /// Whether a client process is still alive (its machine has not
    /// crashed).
    pub fn client_alive(&self, client: ClientId) -> bool {
        self.clients.get(client).is_some_and(|c| c.alive)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The currently installed view of group `0`, if any.
    pub fn view(&self) -> Option<&View> {
        self.view_of(0)
    }

    /// The currently installed view of a specific group, if any.
    pub fn view_of(&self, group: GroupId) -> Option<&View> {
        self.membership.view(group).map(Rc::as_ref)
    }

    /// Every view a group has installed or begun installing, in id
    /// (installation) order — index 0 is the initial view, index `k`
    /// the view produced by the group's `k`-th membership change.
    pub fn views_of(&self, group: GroupId) -> Vec<Rc<View>> {
        self.membership.views_of(group)
    }

    /// Engine counters.
    pub fn stats(&self) -> &WorldStats {
        &self.stats
    }

    /// The machine a client runs on.
    pub fn client_machine(&self, c: ClientId) -> MachineId {
        self.clients[c].machine
    }

    /// The configuration in use.
    pub fn config(&self) -> &GcsConfig {
        &self.cfg
    }

    /// Borrows a client handler, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    #[expect(clippy::expect_used, reason = "a documented `# Panics` accessor")]
    pub fn client<T: Client>(&self, id: ClientId) -> &T {
        let handler = self.clients[id]
            .handler
            .as_ref()
            .expect("client handler taken (re-entrant access?)");
        (handler.as_ref() as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("client type mismatch")
    }

    /// Mutably borrows a client handler, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    #[expect(clippy::expect_used, reason = "a documented `# Panics` accessor")]
    pub fn client_mut<T: Client>(&mut self, id: ClientId) -> &mut T {
        let handler = self.clients[id]
            .handler
            .as_mut()
            .expect("client handler taken (re-entrant access?)");
        (handler.as_mut() as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .expect("client type mismatch")
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Processes one event — of a fan-out, one copy: a message reaching
    /// one daemon, or being handed to one client. Returns `false` when
    /// the world is quiescent (only the idle token remains). Every
    /// token hop is a step: nothing is skipped here.
    pub fn step(&mut self) -> bool {
        !self.quiescent() && self.advance()
    }

    /// What is dispatched next: the next target of the open run or,
    /// without one, the next queue entry. `None` when the queue is
    /// empty.
    fn take_next(&mut self) -> Option<(Ev, usize)> {
        match self.open.take() {
            Some(run) => Some((run.ev, run.next)),
            None => self.queue.pop().map(|(_, ev)| (ev, 0)),
        }
    }

    /// Dispatches the next target or queue entry, whatever it is.
    /// `false` when the queue is empty.
    fn advance(&mut self) -> bool {
        let Some((ev, at)) = self.take_next() else {
            return false;
        };
        self.dispatch(ev, at);
        true
    }

    /// [`SimWorld::advance`] for the loops whose callers cannot observe
    /// a token hop: when what comes next is the token entering a quiet
    /// stretch, the stretch's whole rotations — up to the caller's
    /// `limit`, if it has one — are replayed instead of dispatched
    /// (see [`SimWorld::skip_quiet_rotations`]).
    fn advance_skipping(&mut self, limit: Option<SimTime>) -> bool {
        let Some((ev, at)) = self.take_next() else {
            return false;
        };
        if !self.skip_quiet_rotations(&ev, limit) {
            self.dispatch(ev, at);
        }
        true
    }

    /// The instant of the next dispatch: now while a run is open.
    fn next_at(&self) -> Option<SimTime> {
        match self.open {
            Some(_) => Some(self.queue.now()),
            None => self.queue.peek_time(),
        }
    }

    /// Runs until no work remains (the token keeps circulating but
    /// nothing else is pending). While the members compute, the token
    /// is not stepped round the ring hop by hop: see
    /// [`SimWorld::set_idle_fast_forward`].
    pub fn run_until_quiescent(&mut self) {
        while !self.quiescent() && self.advance_skipping(None) {}
    }

    /// Advances virtual time to `t`, processing every event scheduled
    /// at or before it — including idle token circulation, which
    /// [`SimWorld::step`] skips once the world is quiescent. Used by
    /// workload drivers to reach a scheduled injection instant. A `t`
    /// in the past is a no-op.
    pub fn run_until(&mut self, t: SimTime) {
        while self.next_at().is_some_and(|pt| pt <= t) && self.advance_skipping(Some(t)) {}
    }

    /// Enables or disables the quiet-stretch skip of
    /// [`SimWorld::run_until`] and [`SimWorld::run_until_quiescent`]
    /// (on by default).
    ///
    /// A token visit on a *quiet* ring — nothing to sequence, deliver,
    /// recover or install, no membership change running, every ring
    /// member alive — does ring-head bookkeeping and forwards the
    /// token. Until the next other event is due (or the caller's `t`),
    /// nothing but such visits can run, so the two loops whose callers
    /// cannot observe a hop replay the whole rotations that fit
    /// analytically and step only the partial rotation after them. The
    /// stretch may be a long idle or the milliseconds a member spends
    /// computing; telemetry may be attached or not (an attached sink
    /// receives one [`EventKind::IdleRotations`] per stretch and the
    /// counters and histogram samples of every skipped hop). The
    /// clock, [`WorldStats`], every later event instant and tie-break,
    /// and the metrics hub are those of the stepped execution.
    /// [`SimWorld::step`] and [`SimWorld::run_while`] dispatch every
    /// hop regardless, so a predicate sees each one.
    ///
    /// Turn it off to force stepping — the reference the equivalence
    /// tests compare against.
    pub fn set_idle_fast_forward(&mut self, on: bool) {
        self.idle_fast_forward = on;
    }

    /// The quiet-stretch rule, applied to the event just popped.
    /// Returns `true` if `ev` was the token and has been re-queued
    /// `k ≥ 1` whole rotations later with their effects replayed;
    /// `false` leaves everything untouched and `ev` to be dispatched.
    ///
    /// The stretch is quiet when `ev` is the live token and
    ///
    /// * no membership change is active or pending — a head pass spends
    ///   a round of each running change;
    /// * the ring is flushed — nothing is pending and every alive
    ///   daemon has delivered everything sequenced, hence no daemon
    ///   has a gap, no report moves the aru, nothing stable waits and
    ///   no install is due;
    /// * every daemon of the ring order is alive — a crashed daemon
    ///   the survivors have not detected yet swallows the token.
    ///
    /// No run is open (`ev` came off the queue, and the token is never
    /// part of one). The token is out of the heap here, so
    /// `peek_time` is the earliest *other* event: until the earlier of
    /// it and the caller's bound only token visits run, each of which
    /// schedules nothing but the next hop. Re-queued, the token sits
    /// behind every event already queued for its new instant — where
    /// the last of the skipped hops would have put it.
    fn skip_quiet_rotations(&mut self, ev: &Ev, limit: Option<SimTime>) -> bool {
        let &Ev::Token { daemon, gen } = ev else {
            return false;
        };
        let quiet = self.idle_fast_forward
            && self.ring.token_live_at(daemon, gen)
            && self.ring.flushed()
            && !self.membership.busy()
            && self.ring.order().iter().all(|&d| self.ring.is_alive(d));
        if !quiet {
            return false;
        }
        let a0 = self.queue.now();
        // The stretch ends at the caller's limit or the next other
        // event, whichever is first; with neither, nothing bounds it.
        let Some(bound) = limit.into_iter().chain(self.queue.peek_time()).min() else {
            return false;
        };
        let Some((count, period, offset)) = self.idle_rotations_before(daemon, a0, bound) else {
            return false;
        };
        let k = u64::from(count);
        let visits = k * self.ring.order().len() as u64;

        // What `dispatch` counts per visit.
        self.telemetry
            .metric_inc(Key::new(Layer::Sim, "events_dispatched"), visits);
        self.telemetry
            .metric_inc(Key::new(Layer::Sim, "ev_token"), visits);
        let outstanding = self.outstanding;
        self.telemetry
            .gauge_max(Key::new(Layer::Sim, "outstanding_peak"), || {
                outstanding as f64
            });

        // What `on_rotation` does per head arrival: exactly `k` in
        // `[a0, a0 + k * period)`, at `first_at + j * period`.
        let first_at = a0 + offset;
        let first = self.stats.token_rotations + 1;
        self.stats.token_rotations += k;
        if let Some(&head) = self.ring.order().first() {
            self.telemetry.record(|| Event {
                at: first_at,
                dur: period * k,
                actor: Actor::daemon(head),
                kind: EventKind::IdleRotations { first, count },
            });
        }
        let interval = Key::new(Layer::Gcs, "token_rotation_ms");
        if let Some(prev) = self.last_rotation_at {
            self.telemetry
                .metric_observe(interval, || first_at.since(prev).as_millis_f64());
        }
        self.telemetry
            .metric_observe_n(interval, k - 1, || period.as_millis_f64());
        self.last_rotation_at = Some(first_at + period * (k - 1));

        // What `on_token` does per visit besides forwarding: the loss
        // estimator sees a gap-free visit.
        if self.cfg.fec_adaptive {
            for &d in self.ring.order() {
                self.recovery.observe_clean_visits(d, k);
            }
        }

        self.queue
            .schedule_at(a0 + period * k, Ev::Token { daemon, gen });
        true
    }

    /// How many whole quiet rotations (at least one, at most
    /// `u32::MAX` — the most one [`EventKind::IdleRotations`] counts)
    /// fit between the token's arrival at `daemon` at `a0` and `t`:
    /// `(count, period, delay from a0 to the ring head's first
    /// arrival)`. A longer quiet run is skipped as several stretches.
    fn idle_rotations_before(
        &self,
        daemon: DaemonId,
        a0: SimTime,
        t: SimTime,
    ) -> Option<(u32, Duration, Duration)> {
        let ring = self.ring.order();
        let pos0 = ring.iter().position(|&d| d == daemon)?;
        // One quiet rotation starting from `pos0`: per hop the token is
        // held for `TOKEN_PROCESSING` (nothing is sequenced) and then
        // travels the inter-machine latency. `offset` is the delay
        // from `a0` until the ring head's arrival (zero when the token
        // is already at the head: that arrival is `a0` itself).
        let n = ring.len();
        let mut period = Duration::ZERO;
        let mut offset = Duration::ZERO;
        for i in 0..n {
            let hop = self
                .cfg
                .topology
                .machine_latency(ring[(pos0 + i) % n], ring[(pos0 + i + 1) % n]);
            period = period + hop + TOKEN_PROCESSING;
            if (pos0 + i + 1) % n == 0 && pos0 != 0 {
                offset = period;
            }
        }
        let k = t.since(a0).as_nanos().checked_div(period.as_nanos())?;
        let k = u32::try_from(k).unwrap_or(u32::MAX);
        (k > 0).then_some((k, period, offset))
    }

    /// Runs while `pred` returns `true` and work remains. Returns
    /// `true` if the run stopped because the predicate turned false
    /// (as opposed to quiescence).
    pub fn run_while(&mut self, mut pred: impl FnMut(&SimWorld) -> bool) -> bool {
        loop {
            if !pred(self) {
                return true;
            }
            if !self.step() {
                return false;
            }
        }
    }

    /// `true` when nothing but the idle token remains. Crashed daemons
    /// are excluded: they will never deliver again, and the reformed
    /// ring no longer waits on them.
    pub fn quiescent(&self) -> bool {
        self.outstanding == 0 && !self.membership.busy() && self.ring.flushed()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, delay: Duration, ev: Ev) {
        if !matches!(ev, Ev::Token { .. }) {
            self.outstanding += ev.copies() as u64;
        }
        self.queue.schedule(delay, ev);
    }

    /// Schedules one fan-out from `origin` to `peers` (the copies that
    /// survived the loss process, in sending order): one run per
    /// maximal group of adjacent peers at equal delay, so each run's
    /// copies are exactly those that would have held consecutive queue
    /// positions at one instant.
    fn fan_out(
        &mut self,
        origin: DaemonId,
        len: usize,
        peers: &[DaemonId],
        run: impl Fn(Vec<DaemonId>) -> Ev,
    ) {
        let mut rest = peers;
        while let Some(&first) = rest.first() {
            let delay = self.cfg.hop_delay(origin, first, len);
            let same = |&&peer: &&DaemonId| self.cfg.hop_delay(origin, peer, len) == delay;
            let (group, tail) = rest.split_at(rest.iter().take_while(same).count());
            self.schedule(delay, run(group.to_vec()));
            rest = tail;
        }
    }

    /// Starts a token of the current generation at the ring head.
    fn launch_token(&mut self) {
        if let Some(&daemon) = self.ring.order().first() {
            let gen = self.ring.gen();
            self.queue
                .schedule(Duration::ZERO, Ev::Token { daemon, gen });
        }
    }

    /// Records a point event at the current instant.
    fn note(&self, actor: Actor, kind: EventKind) {
        let at = self.queue.now();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor,
            kind,
        });
    }

    fn note_fault(&self, actor: Actor, action: Label, target: usize) {
        self.note(actor, EventKind::fault(action, target));
    }

    /// Dispatches `ev` — of a run, target `at` only, leaving the rest
    /// open. No handler looks at `open`, so it is set afterwards and
    /// the payload is lent, not cloned.
    fn dispatch(&mut self, ev: Ev, at: usize) {
        if !matches!(ev, Ev::Token { .. }) {
            self.outstanding -= 1;
        }
        // Sim-layer event-loop metrics: total dispatches, per-kind
        // dispatches, and the peak of in-flight (non-token) events.
        self.telemetry
            .metric_inc(Key::new(Layer::Sim, "events_dispatched"), 1);
        self.telemetry
            .metric_inc(Key::new(Layer::Sim, ev.metric_name()), 1);
        let outstanding = self.outstanding;
        self.telemetry
            .gauge_max(Key::new(Layer::Sim, "outstanding_peak"), || {
                outstanding as f64
            });
        match ev {
            Ev::Token { daemon, gen } => self.on_token(daemon, gen),
            Ev::DaemonRecv {
                ref targets,
                ref msg,
            } => {
                self.on_daemon_recv(targets[at], Rc::clone(msg));
                self.keep_open(ev, at + 1);
            }
            Ev::ClientSubmit { out } => self.on_client_submit(out),
            Ev::FifoArrive { daemon, delivery } => {
                self.deliver_locally(daemon, Parcel::Fifo(delivery))
            }
            Ev::ClientDeliver {
                ref targets,
                ref parcel,
            } => {
                self.deliver_to_client(targets[at], parcel.delivery());
                self.keep_open(ev, at + 1);
            }
            Ev::ViewDeliver { client, view } => self.deliver_view_to_client(client, &view),
            Ev::Retransmit { msg, to, from } => self.on_retransmit(msg, to, from),
            Ev::ParityRecv {
                ref targets,
                ref shard,
            } => {
                self.on_parity_recv(targets[at], Rc::clone(shard));
                self.keep_open(ev, at + 1);
            }
            Ev::CrashDetect { daemon } => self.on_crash_detect(daemon),
            Ev::Fault { fault } => self.on_fault(fault),
        }
    }

    /// Leaves the targets of the run `ev` from `next` on, if any, to
    /// the following steps.
    fn keep_open(&mut self, ev: Ev, next: usize) {
        if next < ev.copies() {
            self.open = Some(OpenRun { ev, next });
        }
    }

    /// Ring reformation, `crash_detection_timeout` after a crash: the
    /// dead daemon leaves the ring, the token regenerates at the ring
    /// head (invalidating any token still in flight), and the dead
    /// machine's members are evicted via a membership change.
    fn on_crash_detect(&mut self, daemon: DaemonId) {
        self.ring.reform_without(daemon);
        self.stats.ring_reformations += 1;
        self.note_fault(Actor::daemon(daemon), fault::CRASH_DETECTED, daemon);
        self.launch_token();
        // The dead daemon can never install a pending view; any
        // membership waiting only on it completes now.
        for group in self.membership.group_ids() {
            self.check_membership_complete(group);
        }
        // Its members leave via a view change, per group (if any view
        // exists yet).
        for group in self.membership.group_ids() {
            let lost: Vec<ClientId> = self
                .membership
                .projected_members_of(group)
                .into_iter()
                .filter(|&c| self.clients[c].machine == daemon)
                .collect();
            if !lost.is_empty() {
                self.inject_change_in(group, vec![], lost);
            }
        }
    }

    /// Executes one scheduled fault from a [`FaultPlan`]. Faults
    /// that no longer apply (daemon already dead, members already
    /// gone/present) degrade to no-ops so randomized plans stay valid.
    fn on_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Crash { daemon } => {
                if self.ring.is_alive(daemon) {
                    self.inject_crash(daemon);
                }
            }
            Fault::LossBurst { rate, duration } => self.set_loss_burst(rate, duration),
            Fault::Partition { members } => {
                let current = self.projected_members_of(0);
                let leaving: Vec<ClientId> = distinct(members)
                    .into_iter()
                    .filter(|m| current.contains(m))
                    .collect();
                if !leaving.is_empty() {
                    self.note_fault(Actor::World, fault::PARTITION, leaving.len());
                    self.inject_change(vec![], leaving);
                }
            }
            Fault::Heal { members } => {
                let current = self.projected_members_of(0);
                let joining: Vec<ClientId> = distinct(members)
                    .into_iter()
                    .filter(|&m| {
                        m < self.clients.len()
                            && !current.contains(&m)
                            && self.ring.is_alive(self.clients[m].machine)
                    })
                    .collect();
                if !joining.is_empty() {
                    self.note_fault(Actor::World, fault::HEAL, joining.len());
                    self.inject_change(joining, vec![]);
                }
            }
        }
    }

    fn on_token(&mut self, daemon: DaemonId, gen: u64) {
        // A stale token or one reaching a crashed daemon vanishes;
        // crash detection regenerates exactly one replacement.
        if !self.ring.token_live_at(daemon, gen) {
            return;
        }
        if self.ring.order().first() == Some(&daemon) {
            self.on_rotation(daemon);
        }

        // 1. Sequence and broadcast pending submissions (flow control).
        //    The messages sequenced in one visit form one FEC
        //    generation (step 1a fans out its parity shards).
        let generation = self.ring.sequence(daemon, self.cfg.flow_control_max_msgs);
        let sent = generation.len();
        self.stats.agreed_messages += sent as u64;
        for msg in &generation {
            self.note(
                Actor::daemon(daemon),
                EventKind::sequenced(msg.seq, msg.delivery.sender),
            );
        }
        let at = self.queue.now();
        let mut reached = Vec::new();
        for msg in &generation {
            reached.clear();
            for peer in 0..self.ring.daemon_count() {
                if peer == daemon || !self.ring.is_alive(peer) {
                    continue;
                }
                if self.loss.lose_copy(at, true) {
                    self.stats.messages_lost += 1;
                    self.recovery.lost(peer, msg.seq, at);
                    continue;
                }
                reached.push(peer);
            }
            self.fan_out(daemon, msg.delivery.payload.len(), &reached, |targets| {
                let msg = Rc::clone(msg);
                Ev::DaemonRecv { targets, msg }
            });
        }

        // 1a. FEC parity fan-out over this visit's generation: with a
        //     parity budget of `r`, every peer can reconstruct up to
        //     `r` lost data messages locally instead of waiting whole
        //     token rotations for retransmission. Skipped entirely at
        //     budget 0 (no extra RNG draws, no extra events — the
        //     `r = 0` engine is byte-identical to the pre-FEC one).
        if sent > 0 {
            let ring = &self.ring;
            let r = self
                .recovery
                .parity_budget(&self.cfg, sent, |d| ring.is_alive(d));
            if r > 0 {
                self.fan_out_parity(daemon, &generation, r);
            }
            // Flow-control metrics: how much this token visit
            // sequenced, and how much the budget deferred to the next
            // rotation (the paper's footnote-10 wait is exactly this
            // backlog).
            self.telemetry
                .metric_inc(Key::new(Layer::Gcs, "flow_sequenced"), sent as u64);
            self.telemetry
                .metric_observe(Key::new(Layer::Gcs, "flow_sent_per_visit"), || sent as f64);
        }
        let backlog = self.ring.backlog(daemon);
        if backlog > 0 {
            self.telemetry
                .metric_inc(Key::new(Layer::Gcs, "flow_deferred"), backlog as u64);
            self.telemetry
                .gauge_max(Key::new(Layer::Gcs, "flow_backlog_peak"), || backlog as f64);
        }

        // 1b. Request retransmission of any gap this daemon observes
        //     (the token reveals that higher sequence numbers exist —
        //     Totem-style negative acknowledgement), once a data copy
        //     has actually been dropped or a crash may have eaten some.
        if self.cfg.fec_adaptive {
            let sample = self.ring.gap_fraction(daemon);
            self.recovery.observe_gap(daemon, sample);
        }
        let lossy = self.loss.losses_observed() || self.stats.daemon_crashes > 0;
        if lossy && self.ring.has_gap(daemon) {
            self.recover_gap(daemon);
        }

        // 2. Report our contiguous mark into the token's aru.
        self.ring.report(daemon);

        // 3. Deliver stable messages to local clients, then forget what
        //    every alive daemon has delivered, but for one generation.
        while let Some(msg) = self.ring.pop_stable(daemon) {
            self.deliver_locally(daemon, Parcel::Agreed(msg));
        }
        self.ring.prune(self.cfg.flow_control_max_msgs);

        // 4. Install pending views whose membership protocols are done.
        for view in self.membership.installs_due(daemon) {
            self.install_view_at_daemon(daemon, &view);
        }

        // 5. Forward the token to the ring successor. (A daemon that
        //    crashed between dispatch and here has already returned
        //    above; one removed from the ring at detection no longer
        //    receives tokens of the current generation.)
        let Some(next) = self.ring.successor(daemon) else {
            return;
        };
        let hop = self.cfg.topology.machine_latency(daemon, next);
        let hold = TOKEN_PROCESSING + PER_MESSAGE_PROCESSING * sent as u64;
        self.queue
            .schedule(hop + hold, Ev::Token { daemon: next, gen });
    }

    /// Rotation boundary bookkeeping at the ring head: the rotation
    /// counters, and one round of every running membership protocol.
    fn on_rotation(&mut self, head: DaemonId) {
        self.stats.token_rotations += 1;
        let rotation = self.stats.token_rotations;
        self.note(Actor::daemon(head), EventKind::TokenRotation { rotation });
        let at = self.queue.now();
        if let Some(prev) = self.last_rotation_at {
            self.telemetry
                .metric_observe(Key::new(Layer::Gcs, "token_rotation_ms"), || {
                    at.since(prev).as_millis_f64()
                });
        }
        self.last_rotation_at = Some(at);
        let flushed = self.outstanding == 0 && self.ring.flushed();
        self.membership.on_head_pass(flushed);
    }

    /// Applies the backoff policy to the gap `daemon` observes.
    fn recover_gap(&mut self, daemon: DaemonId) {
        let (now, contiguous) = (self.queue.now(), self.ring.contiguous(daemon));
        if self.recovery.on_gap(&self.cfg, daemon, now, contiguous) == GapAction::Request {
            self.request_missing(daemon);
        }
    }

    /// Ask retransmission sources to re-send up to
    /// [`RECOVERY_BATCH`] messages this daemon is missing
    /// below the global high-water mark. Wider gaps recover over
    /// several token visits; each visit that issues at least one
    /// request counts as one retransmission round.
    fn request_missing(&mut self, daemon: DaemonId) {
        let plan = self.ring.retransmit_plan(daemon, RECOVERY_BATCH);
        if !plan.is_empty() {
            self.stats.retransmission_rounds += 1;
        }
        for (msg, source) in plan {
            match source {
                // Request travels to the source; it re-sends from there.
                Some(from) => self.schedule(
                    self.cfg.hop_delay(daemon, from, 0),
                    Ev::Retransmit {
                        msg,
                        to: daemon,
                        from,
                    },
                ),
                // Sole survivor: nobody is left to recover from, so
                // synthesize the copy from the global buffer (in a
                // real deployment the reformation would drop the
                // message from the order; the simulation keeps the
                // order intact for determinism).
                None => {
                    self.settle_recovery(daemon, msg.seq, RecoveryPath::Retransmission);
                    self.ring.store(daemon, msg);
                }
            }
        }
    }

    fn on_retransmit(&mut self, msg: Rc<WireMsg>, to: DaemonId, from: DaemonId) {
        let seq = msg.seq;
        if self.ring.awaits_delivery(to, seq) {
            return; // already recovered meanwhile
        }
        if !self.ring.is_alive(to) {
            return; // requester crashed while the request was in flight
        }
        if !self.ring.is_alive(from) {
            return; // source crashed; the next token visit re-requests
        }
        self.stats.retransmissions += 1;
        self.note(Actor::daemon(to), EventKind::Retransmit { seq });
        // The re-sent copy can be lost as well; the next token visit
        // re-requests it. The original loss instant stays: the
        // recovery window runs from the *first* loss of the copy.
        if self.loss.lose_copy(self.queue.now(), true) {
            self.stats.messages_lost += 1;
            return;
        }
        let targets = vec![to];
        self.schedule(
            self.cfg.hop_delay(from, to, msg.delivery.payload.len()),
            Ev::DaemonRecv { targets, msg },
        );
    }

    /// Closes the open loss-recovery window of `(daemon, seq)` — if
    /// one is open — attributing the elapsed virtual time to `path`.
    /// Every lost copy's window is closed by exactly one path, so the
    /// two attribution buckets sum exactly to the total recovery time
    /// ([`WorldStats::recovery_ns`]).
    fn settle_recovery(&mut self, daemon: DaemonId, seq: u64, path: RecoveryPath) {
        let Some(dt) = self.recovery.settle(daemon, seq, self.queue.now()) else {
            return;
        };
        let (bucket, metric) = match path {
            RecoveryPath::FecRepair => (&mut self.stats.fec_repair_recovery_ns, "fec_repair_ms"),
            RecoveryPath::Retransmission => (
                &mut self.stats.retransmission_recovery_ns,
                "retransmission_ms",
            ),
        };
        *bucket += dt.as_nanos();
        self.telemetry
            .metric_observe(Key::new(Layer::Gcs, metric), || dt.as_millis_f64());
    }

    /// Broadcasts the `r` parity shards of this token visit's
    /// generation to every other alive daemon. Parity copies ride the
    /// same loss process as data copies, but a lost parity shard is
    /// simply gone: parity is never retransmitted and never opens a
    /// recovery window (the data it protects still recovers via
    /// retransmission).
    fn fan_out_parity(&mut self, origin: DaemonId, generation: &[Rc<WireMsg>], r: usize) {
        let at = self.queue.now();
        let mut reached = Vec::new();
        for shard in recovery::encode_parity(generation, r) {
            let shard = Rc::new(shard);
            let len = shard.body.len();
            reached.clear();
            for peer in 0..self.ring.daemon_count() {
                if peer == origin || !self.ring.is_alive(peer) {
                    continue;
                }
                self.stats.parity_shards_sent += 1;
                self.stats.parity_bytes_sent += len as u64;
                self.telemetry
                    .metric_inc(Key::new(Layer::Gcs, "parity_bytes_sent"), len as u64);
                if !self.loss.lose_copy(at, false) {
                    reached.push(peer);
                }
            }
            self.fan_out(origin, len, &reached, |targets| {
                let shard = Rc::clone(&shard);
                Ev::ParityRecv { targets, shard }
            });
        }
    }

    fn on_parity_recv(&mut self, daemon: DaemonId, shard: Rc<ParityShard>) {
        if !self.ring.is_alive(daemon) {
            return; // the shard arrived at a crashed daemon
        }
        let first = shard.first_seq;
        if (first..first + shard.k as u64).all(|s| self.ring.holds(daemon, s)) {
            return; // nothing to repair; drop the shard
        }
        self.recovery.buffer_shard(daemon, shard);
        self.try_fec_repair(daemon, first);
    }

    /// Stores whatever generation `first` now lets `daemon`
    /// reconstruct, attributing each recovery window to FEC repair.
    fn try_fec_repair(&mut self, daemon: DaemonId, first: u64) {
        for msg in self.recovery.try_repair(daemon, first, &self.ring) {
            let seq = msg.seq;
            self.stats.fec_repairs += 1;
            self.note(Actor::daemon(daemon), EventKind::FecRepair { seq });
            self.settle_recovery(daemon, seq, RecoveryPath::FecRepair);
            self.ring.store(daemon, Rc::new(msg));
        }
    }

    fn on_daemon_recv(&mut self, daemon: DaemonId, msg: Rc<WireMsg>) {
        if !self.ring.is_alive(daemon) {
            return; // the copy arrived at a crashed daemon
        }
        let seq = msg.seq;
        // A copy whose first transmission was lost arrives here only
        // via retransmission — close the recovery window into the
        // retransmission bucket.
        self.settle_recovery(daemon, seq, RecoveryPath::Retransmission);
        self.ring.store(daemon, msg);
        // A late-arriving data copy can complete a generation that
        // already buffered parity: re-try the repair so the buffer
        // drains as soon as it becomes decodable.
        if let Some(first) = self.recovery.buffered_generation_of(daemon, seq) {
            self.try_fec_repair(daemon, first);
        }
    }

    /// Hands `delivery` to its addressees among `daemon`'s alive local
    /// clients: the members of the view it was sent in — narrowed to
    /// the target of a unicast — or, for a FIFO unicast, the target
    /// whether or not it is (still) a member.
    fn deliver_locally(&mut self, daemon: DaemonId, parcel: Parcel) {
        let delivery = parcel.delivery();
        let candidates: &[ClientId] = match (delivery.service, &delivery.dest) {
            (Service::Fifo, Dest::One(target)) => std::slice::from_ref(target),
            _ => match self.membership.view_by_id(delivery.view_id) {
                Some(view) => &view.members,
                None => &[],
            },
        };
        let targets: Vec<ClientId> = candidates
            .iter()
            .copied()
            .filter(|&c| {
                let local = self.clients[c].machine == daemon && self.clients[c].alive;
                local && !matches!(delivery.dest, Dest::One(t) if t != c)
            })
            .collect();
        if !targets.is_empty() {
            let delay = CLIENT_DAEMON_DELAY;
            self.schedule(delay, Ev::ClientDeliver { targets, parcel });
        }
    }

    fn on_client_submit(&mut self, out: Delivery) {
        let client = out.sender;
        let machine = self.clients[client].machine;
        if !self.clients[client].alive || !self.ring.is_alive(machine) {
            return; // the client or its daemon died while this was in flight
        }
        // View-synchrony: the message belongs to the view its sender
        // had installed at send time (`out.view_id`, not the engine's
        // global view, which flips only once every daemon has
        // installed).
        self.stats.payload_bytes += out.payload.len() as u64;
        match out.service {
            Service::Agreed => self.ring.submit(
                machine,
                Submission {
                    sender: client,
                    dest: out.dest,
                    view_id: out.view_id,
                    payload: out.payload,
                },
            ),
            Service::Fifo => {
                self.stats.fifo_messages += 1;
                let len = out.payload.len();
                let dest = out.dest;
                let delivery = Rc::new(out);
                let targets = match dest {
                    Dest::One(target) => {
                        let td = self.clients[target].machine;
                        td..td + 1
                    }
                    Dest::All => 0..self.ring.daemon_count(),
                };
                for daemon in targets {
                    let delivery = Rc::clone(&delivery);
                    self.schedule(
                        self.cfg.hop_delay(machine, daemon, len),
                        Ev::FifoArrive { daemon, delivery },
                    );
                }
            }
        }
    }

    fn install_view_at_daemon(&mut self, daemon: DaemonId, view: &Rc<View>) {
        self.note(
            Actor::daemon(daemon),
            EventKind::ViewInstalled { view_id: view.id },
        );
        // Per-member installation processing at the daemon.
        let install_cost = MEMBERSHIP_PER_MEMBER * view.members.len() as u64;
        // Members on this machine receive the view.
        for &c in &view.members {
            if self.clients[c].machine != daemon {
                continue;
            }
            self.clients[c].alive = true;
            self.schedule(
                install_cost + CLIENT_DAEMON_DELAY,
                Ev::ViewDeliver {
                    client: c,
                    view: Rc::clone(view),
                },
            );
        }
        // Members that left and live on this machine go silent.
        for &l in &view.left {
            if self.clients[l].machine == daemon {
                self.clients[l].alive = false;
            }
        }
        self.check_membership_complete(view.group);
    }

    /// Cluster-wide membership completion for one group: the new view
    /// is adopted once every *alive* daemon has installed it.
    fn check_membership_complete(&mut self, group: GroupId) {
        if self
            .membership
            .complete_if_installed(group, self.ring.alive())
        {
            self.stats.views_installed += 1;
        }
    }

    fn deliver_view_to_client(&mut self, client: ClientId, view: &Rc<View>) {
        if !self.clients[client].alive {
            return;
        }
        self.run_handler(client, view.id, |handler, ctx| handler.on_view(ctx, view));
    }

    fn deliver_to_client(&mut self, client: ClientId, delivery: &Delivery) {
        if !self.clients[client].alive {
            return;
        }
        self.note(
            Actor::client(client),
            EventKind::delivered(delivery.sender, delivery.service.label()),
        );
        self.run_handler(client, delivery.view_id, |handler, ctx| {
            handler.on_message(ctx, delivery)
        });
    }

    /// Runs one handler of a client in virtual time: applies
    /// its CPU charge on the client's machine, reports the true
    /// completion instant back to the client, and schedules its sends.
    fn run_handler(
        &mut self,
        client: ClientId,
        view_id: u64,
        call: impl FnOnce(&mut dyn Client, &mut ClientCtx<'_>),
    ) {
        let Some(mut handler) = self.clients[client].handler.take() else {
            return;
        };
        let machine = self.clients[client].machine;
        let start = self.queue.now().max(self.clients[client].busy_until);
        let speed = self.cfg.topology.machine(machine).speed;
        let lent = Lent::World(&mut self.slots, &self.telemetry);
        let mut ctx = ClientCtx::new(client, start, view_id, speed, lent);
        call(handler.as_mut(), &mut ctx);
        let charged = ctx.charged();
        let outgoing = ctx.into_sent();
        let run = self.machines[machine].run_detailed(start, charged);
        let end = run.end;
        if charged > Duration::ZERO {
            self.telemetry.record(|| Event {
                at: run.begin,
                dur: run.end.since(run.begin),
                actor: Actor::client(client),
                kind: EventKind::HandlerSpan {
                    wait: run.begin.since(start),
                },
            });
        }
        self.clients[client].busy_until = end;
        handler.on_cpu_complete(end);
        self.clients[client].handler = Some(handler);
        let submit_delay = end.since(self.queue.now()) + CLIENT_DAEMON_DELAY;
        for out in outgoing {
            self.schedule(submit_delay, Ev::ClientSubmit { out });
        }
    }
}

/// What a handler context lends its client — the world's slots and
/// sink — borrowed from the world that runs the handler, or owned by
/// the context when there is no world.
#[derive(Debug)]
enum Lent<'a> {
    World(&'a mut WorldSlots, &'a Telemetry),
    Detached(WorldSlots, Telemetry),
}

/// Handler context: lets a client read the clock, charge CPU, send
/// messages, reach the state its world's clients share and record
/// into its world's telemetry sink.
#[derive(Debug)]
pub struct ClientCtx<'a> {
    id: ClientId,
    now: SimTime,
    view_id: u64,
    charged: Duration,
    /// Sends, in order, as their addressees will receive them (tagged
    /// with the view the sender was in: view synchrony).
    outgoing: Vec<Delivery>,
    speed: f64,
    lent: Lent<'a>,
}

impl<'a> ClientCtx<'a> {
    fn new(id: ClientId, now: SimTime, view_id: u64, speed: f64, lent: Lent<'a>) -> Self {
        ClientCtx {
            id,
            now,
            view_id,
            charged: Duration::ZERO,
            outgoing: Vec::new(),
            speed,
            lent,
        }
    }

    /// A detached context for driving a [`Client`] outside the
    /// simulator — a harness that delivers views and messages itself
    /// (`gkap_core::testkit::Loopback`) or a unit test that needs
    /// precise control over view delivery. Messages sent through it
    /// are collected for [`ClientCtx::into_sent`] and go nowhere else,
    /// its world slots start empty and end with it, and its telemetry
    /// sink is disabled.
    pub fn detached(id: ClientId, now: SimTime, view_id: u64) -> Self {
        ClientCtx::detached_into(id, now, view_id, Telemetry::disabled())
    }

    /// [`ClientCtx::detached`] recording into `telemetry`: the sink a
    /// harness without a world holds for its clients.
    pub fn detached_into(id: ClientId, now: SimTime, view_id: u64, telemetry: Telemetry) -> Self {
        let lent = Lent::Detached(WorldSlots::default(), telemetry);
        ClientCtx::new(id, now, view_id, 1.0, lent)
    }

    /// The world's shared value of type `T`, default-constructed the
    /// first time any client of this world asks for it and dropped
    /// with the world.
    pub fn world_slot<T: Any + Default>(&mut self) -> &mut T {
        match &mut self.lent {
            Lent::World(slots, _) => slots.get(),
            Lent::Detached(slots, _) => slots.get(),
        }
    }

    /// The telemetry sink of the world running this handler (or of the
    /// harness that made a detached context): a client records into
    /// it with itself as the actor. Disabled sinks record nothing.
    pub fn telemetry(&self) -> &Telemetry {
        match &self.lent {
            Lent::World(_, telemetry) => telemetry,
            Lent::Detached(_, telemetry) => telemetry,
        }
    }

    /// The messages the handler sent, in order, as their addressees
    /// will receive them (ends the borrow of the world): what the
    /// engine schedules, or a harness without a world moves itself.
    pub fn into_sent(self) -> Vec<Delivery> {
        self.outgoing
    }

    /// This client's identifier.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Current virtual time (start of this handler invocation).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Identifier of the view this handler runs in.
    pub fn view_id(&self) -> u64 {
        self.view_id
    }

    /// Charges `cost` of CPU time (at the paper's baseline machine
    /// speed) to this member. The machine's speed factor and core
    /// contention are applied by the engine.
    pub fn charge_cpu(&mut self, cost: Duration) {
        let scaled = Duration::from_millis_f64(cost.as_millis_f64() / self.speed);
        self.charged += scaled;
    }

    /// Total CPU charged so far in this handler.
    pub fn charged(&self) -> Duration {
        self.charged
    }

    fn send(&mut self, service: Service, dest: Dest, payload: Bytes) {
        self.outgoing.push(Delivery {
            sender: self.id,
            service,
            dest,
            view_id: self.view_id,
            payload,
        });
    }

    /// Sends a totally-ordered multicast to the whole view.
    pub fn multicast_agreed(&mut self, payload: impl Into<Bytes>) {
        self.send(Service::Agreed, Dest::All, payload.into());
    }

    /// Sends a totally-ordered message addressed to one member. Costs
    /// as much as a broadcast (it traverses the token ring) — see
    /// §6.2.2 of the paper.
    pub fn unicast_agreed(&mut self, to: ClientId, payload: impl Into<Bytes>) {
        self.send(Service::Agreed, Dest::One(to), payload.into());
    }

    /// Sends a cheap FIFO point-to-point message that bypasses the
    /// token ring (CKD's pairwise channels).
    pub fn unicast_fifo(&mut self, to: ClientId, payload: impl Into<Bytes>) {
        self.send(Service::Fifo, Dest::One(to), payload.into());
    }
}

/// `members` with every repeat dropped, first occurrences in order: a
/// fault that names a client twice means it once.
fn distinct(members: Vec<ClientId>) -> Vec<ClientId> {
    let mut seen = Vec::with_capacity(members.len());
    for m in members {
        if !seen.contains(&m) {
            seen.push(m);
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    //! Which copies share a queue entry is not observable from outside
    //! the engine — that is the point of a run — so the grouping rule
    //! is checked here, on the queue itself; so is the token ring's
    //! own state after a crash. Everything a caller *can* observe
    //! about runs is in `tests/engine_semantics.rs`.

    use super::*;
    use crate::message::Delivery;
    use crate::testbed;
    use crate::topology::{MachineCfg, SiteCfg, Topology};

    #[test]
    fn charge_scales_with_machine_speed() {
        let world = |speed| {
            let lent = Lent::Detached(WorldSlots::default(), Telemetry::disabled());
            ClientCtx::new(0, SimTime::ZERO, 1, speed, lent)
        };
        let mut ctx = world(2.0);
        ctx.charge_cpu(Duration::from_millis(10));
        assert_eq!(ctx.charged(), Duration::from_millis(5));
        let mut slow = world(0.5);
        slow.charge_cpu(Duration::from_millis(10));
        assert_eq!(slow.charged(), Duration::from_millis(20));
    }

    #[test]
    fn sends_accumulate_in_order() {
        let mut ctx = ClientCtx::detached(7, SimTime::ZERO, 2);
        ctx.multicast_agreed(vec![1]);
        ctx.unicast_fifo(3, vec![2]);
        ctx.unicast_agreed(4, vec![3]);
        assert_eq!(ctx.outgoing.len(), 3);
        assert_eq!(ctx.outgoing[0].service, Service::Agreed);
        assert_eq!(ctx.outgoing[0].dest, Dest::All);
        assert_eq!(ctx.outgoing[1].service, Service::Fifo);
        assert_eq!(ctx.outgoing[1].dest, Dest::One(3));
        assert_eq!(ctx.outgoing[2].dest, Dest::One(4));
        assert_eq!(ctx.id(), 7);
        assert_eq!(ctx.view_id(), 2);
        let sent = ctx.into_sent();
        assert!(sent.iter().all(|d| d.sender == 7 && d.view_id == 2));
        assert_eq!(sent[2].payload.as_ref(), [3]);
    }

    #[test]
    fn world_slots_outlive_contexts_and_are_per_type() {
        let mut slots = WorldSlots::default();
        let telemetry = Telemetry::disabled();
        fn lend<'a>(slots: &'a mut WorldSlots, telemetry: &'a Telemetry) -> ClientCtx<'a> {
            ClientCtx::new(0, SimTime::ZERO, 1, 1.0, Lent::World(slots, telemetry))
        }
        *lend(&mut slots, &telemetry).world_slot::<u32>() += 5;
        let mut later = lend(&mut slots, &telemetry);
        assert_eq!(*later.world_slot::<u32>(), 5, "same world, same value");
        assert_eq!(*later.world_slot::<u64>(), 0, "another type, another slot");
        // A detached context has no world: it starts empty.
        let mut lone = ClientCtx::detached(0, SimTime::ZERO, 1);
        assert_eq!(*lone.world_slot::<u32>(), 0);
    }

    /// Multicasts once on the first view.
    struct Sender;
    impl Client for Sender {
        fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
            ctx.multicast_agreed(vec![7; 40]);
        }
        fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
    }

    /// The copy runs of the first message sequenced in a world whose
    /// only client sits on `origin`, as `(delay from sequencing,
    /// targets)` in queue order.
    fn first_fan_out(
        cfg: GcsConfig,
        origin: MachineId,
    ) -> (SimWorld, Vec<(Duration, Vec<DaemonId>)>) {
        let mut world = SimWorld::new(cfg);
        world.add_client_on(Box::new(Sender), origin);
        world.install_initial_view();
        while world.stats.agreed_messages == 0 {
            assert!(world.step(), "quiescent before anything was sequenced");
        }
        let sequenced_at = world.now();
        let mut runs = Vec::new();
        while let Some((at, ev)) = world.queue.pop() {
            if let Ev::DaemonRecv { targets, .. } = ev {
                runs.push((at.since(sequenced_at), targets));
            }
        }
        (world, runs)
    }

    /// What crashes do to the ring itself; what the members see is in
    /// `tests/faults.rs`.
    #[test]
    fn a_crashed_daemon_leaves_the_ring() {
        let mut world = SimWorld::new(testbed::lan());
        for _ in 0..6 {
            world.add_client(Box::new(Sender));
        }
        world.install_initial_view();
        world.run_until_quiescent();
        assert_eq!(world.ring.order().len(), 13);
        // Planned crashes of a daemon that hosts a member and of one
        // that hosts none.
        let at = Duration::from_millis;
        world.apply_fault_plan(FaultPlan::new().crash(at(1), 4).crash(at(2), 9));
        world.run_until_quiescent();
        assert!(!world.ring.is_alive(4) && !world.ring.is_alive(9));
        assert_eq!(world.ring.alive().count(), 11);
        assert_eq!(world.ring.order(), [0, 1, 2, 3, 5, 6, 7, 8, 10, 11, 12]);
        // With every daemon crashed the ring is empty.
        for d in world.ring.order().to_vec() {
            world.inject_crash(d);
        }
        world.run_until_quiescent();
        assert_eq!(world.ring.alive().count(), 0);
        assert!(world.ring.order().is_empty());
    }

    #[test]
    fn a_skip_replays_what_its_hops_would_have_done() {
        // One client that computes for 3 ms before it multicasts
        // twice: from its view hand-over on, the ring is quiet and two
        // submissions are in flight. The next `advance` pops the token.
        struct Thinker;
        impl Client for Thinker {
            fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
                ctx.charge_cpu(Duration::from_millis(3));
                ctx.multicast_agreed(vec![7; 40]);
                ctx.multicast_agreed(vec![8; 40]);
            }
            fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
        }
        let thinking = || {
            let mut world = SimWorld::new(testbed::lan());
            world.set_telemetry(Telemetry::enabled());
            world.add_client_on(Box::new(Thinker), 4);
            world.install_initial_view();
            while world.clients[0].busy_until == SimTime::ZERO {
                assert!(world.step());
            }
            assert_eq!(world.outstanding, 2, "the submissions");
            world
        };
        let state = |world: &SimWorld| {
            (
                format!("{:?}", world.stats),
                world.last_rotation_at,
                world.queue.peek_time(),
                world.queue.len(),
                world.telemetry.hub_snapshot(),
            )
        };

        let mut skipped = thinking();
        let rotations = skipped.stats.token_rotations;
        assert!(skipped.advance_skipping(None));
        let k = skipped.stats.token_rotations - rotations;
        assert_eq!(k, 4, "3 ms and a bit, at 0.65 ms a rotation");
        // The hops it stands for, one dispatch each: the hub (the
        // peak of in-flight events only a token dispatch can see
        // here, the first rotation interval measured from the last
        // stepped head arrival), the counters, and a token queued for
        // the same instant.
        let mut stepped = thinking();
        for _ in 0..k * 13 {
            assert!(stepped.advance());
        }
        assert_eq!(state(&skipped), state(&stepped));
        let peak = Key::new(Layer::Sim, "outstanding_peak");
        assert_eq!(skipped.telemetry.hub_snapshot().gauge(peak), Some(2.0));
        // One event for the four.
        let events = skipped.telemetry.take_events();
        let stepped_events = stepped.telemetry.take_events();
        assert_eq!(events.len() + 3, stepped_events.len());
        let head_at = stepped_events[events.len() - 1].at;
        assert_eq!(
            events.last(),
            Some(&Event {
                at: head_at,
                dur: Duration::from_micros(4 * 650),
                actor: Actor::Daemon(0),
                kind: EventKind::IdleRotations {
                    first: rotations + 1,
                    count: 4
                },
            })
        );
        // A caller's `t` before the next event ends the stretch
        // there; a `step()` takes one hop.
        let mut bounded = thinking();
        let t = bounded.now() + Duration::from_micros(1_400);
        assert!(bounded.advance_skipping(Some(t)));
        assert_eq!(bounded.stats.token_rotations, rotations + 2);
        let mut one_hop = thinking();
        assert!(one_hop.step());
        assert_eq!(
            one_hop.queue.peek_time(),
            Some(one_hop.now() + Duration::from_micros(50))
        );
    }

    #[test]
    fn a_quiet_run_beyond_u32_max_rotations_is_two_stretches() {
        struct Idle;
        impl Client for Idle {
            fn on_view(&mut self, _ctx: &mut ClientCtx<'_>, _view: &View) {}
            fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
        }
        let mut world = SimWorld::new(testbed::lan());
        world.set_telemetry(Telemetry::enabled());
        world.add_client_on(Box::new(Idle), 4);
        world.install_initial_view();
        world.run_until_quiescent();
        let rotations = world.stats.token_rotations;
        world.telemetry.take_events();
        // Five rotations (0.65 ms each) past the most one event counts.
        let period = Duration::from_micros(650);
        world.run_until(world.now() + period * (u64::from(u32::MAX) + 5));

        let events = world.telemetry.take_events();
        let stretches: Vec<(&Event, u64, u32)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::IdleRotations { first, count } => Some((e, first, count)),
                _ => None,
            })
            .collect();
        let [(a, first_a, count_a), (b, first_b, count_b)] = stretches[..] else {
            panic!("expected two stretches, got {stretches:?}");
        };
        assert_eq!(count_a, u32::MAX, "the first stretch is capped");
        assert!((1..=5).contains(&count_b), "{count_b}");
        assert_eq!(first_a, rotations + 1);
        assert_eq!(first_b, first_a + u64::from(u32::MAX));
        assert_eq!(a.dur, period * u64::from(count_a));
        assert_eq!(b.at, a.at + a.dur, "back to back");
        // The stretches and the stepped tail account for every rotation.
        let stepped = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::TokenRotation { .. }))
            .count() as u64;
        assert_eq!(
            world.stats.token_rotations - rotations,
            u64::from(count_a) + u64::from(count_b) + stepped
        );
    }

    /// Multicasts a 200-byte Agreed message per round and starts the
    /// next round once it has every member's message of this one.
    struct Rounds {
        left: u64,
        got: usize,
        size: usize,
    }
    impl Client for Rounds {
        fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
            self.size = view.size();
            self.got = 0;
            ctx.multicast_agreed(vec![7; 200]);
        }
        fn on_message(&mut self, ctx: &mut ClientCtx<'_>, _msg: &Delivery) {
            self.got += 1;
            if self.got == self.size && self.left > 1 {
                self.got = 0;
                self.left -= 1;
                ctx.multicast_agreed(vec![7; 200]);
            }
        }
    }

    /// A ring of 50 members running `rounds` all-to-all rounds, with
    /// `daemon` crashed `after` the first view if asked, at quiescence.
    fn rounds_world(cfg: GcsConfig, rounds: u64, crash: Option<(DaemonId, Duration)>) -> SimWorld {
        let mut world = SimWorld::new(cfg);
        for _ in 0..50 {
            let member = Rounds {
                left: rounds,
                got: 0,
                size: 0,
            };
            world.add_client(Box::new(member));
        }
        world.install_initial_view();
        if let Some((daemon, after)) = crash {
            world.run_until(world.now() + after);
            assert!(world.ring.window_len(daemon) > 0, "it dies holding copies");
            world.inject_crash(daemon);
            assert_eq!(world.ring.window_len(daemon), 0, "and they die with it");
        }
        world.run_until_quiescent();
        world
    }

    #[test]
    fn a_quiescent_ring_retains_one_generation_of_what_it_sequenced() {
        let lossy = |fec_parity| {
            let mut cfg = testbed::lan();
            cfg.loss_rate = 0.05;
            cfg.loss_seed = 7 ^ 0x1055;
            cfg.fec_parity = fec_parity;
            cfg.fec_parity_max = 16;
            cfg
        };
        let clean = WorldStats {
            agreed_messages: 10_000,
            token_rotations: 570,
            views_installed: 1,
            payload_bytes: 2_000_000,
            ..WorldStats::default()
        };
        let retrans = WorldStats {
            agreed_messages: 5_000,
            token_rotations: 406,
            views_installed: 1,
            payload_bytes: 1_000_000,
            messages_lost: 3_209,
            retransmissions: 3_209,
            retransmission_rounds: 1_689,
            retransmission_recovery_ns: 2_977_050_000,
            ..WorldStats::default()
        };
        let fec = WorldStats {
            agreed_messages: 5_000,
            token_rotations: 285,
            views_installed: 1,
            payload_bytes: 1_000_000,
            messages_lost: 3_066,
            parity_shards_sent: 62_400,
            fec_repairs: 3_066,
            fec_repair_recovery_ns: 245_280_000,
            parity_bytes_sent: 15_537_600,
            ..WorldStats::default()
        };
        let crashed = WorldStats {
            agreed_messages: 9_468,
            token_rotations: 574,
            views_installed: 2,
            payload_bytes: 1_893_600,
            daemon_crashes: 1,
            ring_reformations: 1,
            ..WorldStats::default()
        };
        let crash_12 = Some((12, Duration::from_millis(20)));
        let worlds = [
            (rounds_world(testbed::lan(), 200, None), clean),
            (rounds_world(lossy(0), 100, None), retrans),
            (rounds_world(lossy(4), 100, None), fec),
            (rounds_world(testbed::lan(), 200, crash_12), crashed),
        ];
        for (world, stats) in &worlds {
            // The traffic is the unpruned ring's, counter for counter.
            assert_eq!(format!("{:?}", world.stats), format!("{stats:?}"));
            // Of what it sequenced the ring keeps the last generation's
            // worth: everything lies at or below the floor, and the
            // margin below it is `flow_control_max_msgs`.
            assert_eq!(world.cfg.flow_control_max_msgs, 20);
            assert_eq!(world.ring.retained(), 20, "{stats:?}");
            // Every alive daemon has delivered all, and the dead one
            // holds nothing.
            let daemons = 0..world.ring.daemon_count();
            assert!(daemons.into_iter().all(|d| world.ring.window_len(d) == 0));
        }
    }

    #[test]
    fn a_wan_fan_out_is_one_run_per_site() {
        // JHU is machines 0..=10, UCI 11, ICU 12.
        let (_, runs) = first_fan_out(testbed::wan(), 0);
        let targets: Vec<_> = runs.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(targets, [(1..=10).collect(), vec![11], vec![12]]);
        assert!(runs[0].0 < runs[1].0 && runs[1].0 < runs[2].0);

        let (_, runs) = first_fan_out(testbed::wan(), 11);
        let targets: Vec<_> = runs.into_iter().map(|(_, t)| t).collect();
        assert_eq!(targets, [(0..=10).collect(), vec![12]]);
    }

    #[test]
    fn only_adjacent_equal_delay_peers_share_a_run() {
        // Sites interleaved over the machine order: 0 1 0 1 0. From
        // machine 0, peers 2 and 4 are equally near, 1 and 3 equally
        // far — but no two of them are neighbours in sending order.
        let mut cfg = testbed::wan();
        let machine = |site| MachineCfg {
            site,
            cores: 1,
            speed: 1.0,
        };
        let far = Duration::from_millis(20);
        cfg.topology = Topology::new(
            vec![SiteCfg { name: "a".into() }, SiteCfg { name: "b".into() }],
            [0, 1, 0, 1, 0].map(machine).to_vec(),
            vec![vec![Duration::ZERO, far], vec![far, Duration::ZERO]],
            Duration::from_micros(40),
        );
        let (_, runs) = first_fan_out(cfg, 0);
        let targets: Vec<_> = runs.iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(targets, [[2], [4], [1], [3]], "four entries, by arrival");
        assert_eq!(runs[0].0, runs[1].0);
        assert_eq!(runs[2].0, runs[3].0);
    }

    #[test]
    fn a_lost_copy_is_absent_from_its_run() {
        let mut cfg = testbed::wan();
        cfg.loss_rate = 0.4;
        let (world, runs) = first_fan_out(cfg, 0);
        let reached: Vec<DaemonId> = runs.iter().flat_map(|(_, t)| t.clone()).collect();
        let lost = world.stats.messages_lost as usize;
        assert!(lost > 0 && lost < 12, "{lost} of 12 copies lost");
        assert_eq!(reached.len() + lost, 12);
        assert!(reached.windows(2).all(|w| w[0] < w[1]), "{reached:?}");
        // Still one run per site reached, and `outstanding` counted
        // the copies, not the entries.
        let site = |d: &DaemonId| world.cfg.topology.machine(*d).site;
        let mut reached_sites: Vec<_> = reached.iter().map(site).collect();
        reached_sites.dedup();
        assert_eq!(runs.len(), reached_sites.len());
        assert_eq!(world.outstanding, reached.len() as u64);
    }
}
