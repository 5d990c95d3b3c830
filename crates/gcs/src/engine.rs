//! The discrete-event engine: daemons, the token ring, membership, and
//! client scheduling.
//!
//! ## Total order (Agreed service)
//!
//! Daemons form a logical ring ordered by site. A token circulates
//! permanently. On each visit a daemon:
//!
//! 1. sequences and broadcasts up to `flow_control_max_msgs` of its
//!    clients' pending Agreed messages,
//! 2. delivers to its local clients every message proven *stable* —
//!    sequence numbers at or below the all-received-up-to (aru) bound
//!    the token carries from the previous full rotation,
//! 3. folds its own contiguously-received high-water mark into the
//!    token's running minimum, and
//! 4. forwards the token.
//!
//! A message therefore becomes deliverable roughly one-and-a-half token
//! rotations after submission — about 1.3 ms on the paper's LAN and
//! about 310 ms on its WAN, matching §6.1.1/§6.2.1. A sender that just
//! misses the token waits a full rotation (footnote 10 of the paper).
//!
//! ## Membership
//!
//! A membership change (join/leave/partition/merge) runs for
//! `membership_rounds` full token rotations (gathering + agreement);
//! during the following rotation each daemon installs the new view as
//! the token passes it and notifies its local clients. Changes queue
//! FIFO if injected while another is in progress.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use gkap_sim::{CpuScheduler, Duration, EventQueue, SimTime};
use gkap_sim::{RandomSource, SplitMix64};
use gkap_telemetry::metrics::{Key, Layer};
use gkap_telemetry::{Actor, Event, EventKind, Telemetry};

use crate::client::{Client, ClientCtx, Outgoing, WorldSlots};
use crate::config::{GcsConfig, WireGranularity};
use crate::message::{Delivery, Dest, Service, View, ViewId};
use crate::{ClientId, DaemonId, GroupId, MachineId};

/// Counters the engine accumulates across a run.
#[derive(Clone, Debug, Default)]
pub struct WorldStats {
    /// Agreed messages sequenced through the token ring.
    pub agreed_messages: u64,
    /// FIFO messages sent outside the ring.
    pub fifo_messages: u64,
    /// Completed token rotations.
    pub token_rotations: u64,
    /// Views installed (cluster-wide installs, not per daemon).
    pub views_installed: u64,
    /// Total payload bytes submitted.
    pub payload_bytes: u64,
    /// Daemon-to-daemon message copies lost in transit.
    pub messages_lost: u64,
    /// Retransmissions performed to recover losses.
    pub retransmissions: u64,
    /// Token visits on which a daemon issued at least one
    /// retransmission request (a gap wider than
    /// [`GcsConfig::recovery_batch`] needs several rounds).
    pub retransmission_rounds: u64,
    /// Daemons crashed via fault injection.
    pub daemon_crashes: u64,
    /// Ring reformations performed after crash detection.
    pub ring_reformations: u64,
    /// Parity shard copies dispatched by FEC-coded fan-out generations
    /// (`per-shard × per-peer`, counted whether or not the copy
    /// survives the loss process).
    pub parity_shards_sent: u64,
    /// Data messages reconstructed locally from parity shards by the
    /// FEC layer, without a retransmission round trip.
    pub fec_repairs: u64,
    /// Virtual nanoseconds of completed loss-recovery windows closed
    /// by FEC repair: for every lost copy later reconstructed from
    /// parity, the span from the loss instant to the reconstruction.
    pub fec_repair_recovery_ns: u64,
    /// Virtual nanoseconds of completed loss-recovery windows closed
    /// by retransmission: for every lost copy later recovered by a
    /// re-sent copy, the span from the loss instant to the arrival.
    pub retransmission_recovery_ns: u64,
    /// Parity payload bytes dispatched by FEC-coded fan-out
    /// (`per-shard body × per-peer`, counted whether or not the copy
    /// survives the loss process): the FEC layer's bandwidth overhead,
    /// distinct from the shard *count* in
    /// [`WorldStats::parity_shards_sent`].
    pub parity_bytes_sent: u64,
}

impl WorldStats {
    /// Total completed loss-recovery time in virtual nanoseconds. By
    /// construction exactly the sum of the FEC-repair and
    /// retransmission attributions: every lost copy's recovery window
    /// is closed by exactly one of the two mechanisms.
    pub fn recovery_ns(&self) -> u64 {
        self.fec_repair_recovery_ns + self.retransmission_recovery_ns
    }
}

/// One observability record (enabled via [`SimWorld::enable_trace`]).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A daemon sequenced an Agreed message.
    Sequenced {
        /// Global sequence number.
        seq: u64,
        /// Sending client.
        sender: ClientId,
        /// Instant of sequencing.
        at: SimTime,
    },
    /// A message was handed to a client.
    Delivered {
        /// Receiving client.
        client: ClientId,
        /// Sending client.
        sender: ClientId,
        /// Service class.
        service: Service,
        /// Instant of delivery.
        at: SimTime,
    },
    /// A daemon installed a view.
    ViewInstalled {
        /// Installing daemon.
        daemon: DaemonId,
        /// The view id.
        view_id: ViewId,
        /// Instant of installation.
        at: SimTime,
    },
    /// A lost message copy was re-sent to a daemon that missed it.
    Retransmit {
        /// The daemon receiving the retransmission.
        daemon: DaemonId,
        /// Sequence number recovered.
        seq: u64,
        /// Instant the retransmission was issued.
        at: SimTime,
    },
    /// A daemon reconstructed a missing message from FEC parity.
    FecRepaired {
        /// The repairing daemon.
        daemon: DaemonId,
        /// Sequence number reconstructed.
        seq: u64,
        /// Instant of the reconstruction.
        at: SimTime,
    },
}

/// A sequenced Agreed message in flight between daemons.
#[derive(Debug)]
struct WireMsg {
    seq: u64,
    sender: ClientId,
    dest: Dest,
    view_id: ViewId,
    payload: Bytes,
    /// The daemon that sequenced the message (retransmission source).
    origin: DaemonId,
}

/// A causally-stamped multicast in flight.
#[derive(Clone, Debug)]
struct CausalMsg {
    sender: ClientId,
    view_id: ViewId,
    payload: Bytes,
    /// The sender's vector clock at send time (own entry already
    /// incremented).
    vc: Vec<u64>,
}

/// A client submission waiting at its daemon for the token.
#[derive(Debug)]
struct Submission {
    sender: ClientId,
    dest: Dest,
    view_id: ViewId,
    payload: Bytes,
}

/// One parity shard of a FEC-coded fan-out generation in flight
/// between daemons (the messages a daemon sequences within one token
/// visit form one erasure-coding generation; see [`crate::fec`]).
#[derive(Debug)]
struct ParityShard {
    /// First sequence number of the generation.
    first_seq: u64,
    /// Number of data messages in the generation.
    k: usize,
    /// Global shard index within the generation (`k..k + r` for the
    /// parity rows, as [`crate::fec::encode`] numbers them).
    index: usize,
    /// Coded bytes (the generation's maximum record length).
    body: Vec<u8>,
}

/// Parity shards a daemon has buffered for one generation it has not
/// yet fully received.
struct FecGenBuf {
    k: usize,
    shards: BTreeMap<usize, Rc<ParityShard>>,
}

/// Per-daemon adaptive retransmission state (exponential backoff with
/// jitter; only consulted when [`GcsConfig::retrans_backoff`] is
/// nonzero).
struct RetransState {
    /// Earliest instant the next request round may fire.
    next_at: SimTime,
    /// Backoff exponent: consecutive request rounds without progress.
    level: u32,
    /// Consecutive no-progress rounds towards the give-up escalation.
    strikes: u32,
    /// `contiguous` as of the last request round (`None` when no round
    /// is outstanding); progress past it resets the backoff.
    awaiting_since: Option<u64>,
}

impl RetransState {
    fn new() -> Self {
        RetransState {
            next_at: SimTime::ZERO,
            level: 0,
            strikes: 0,
            awaiting_since: None,
        }
    }
}

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
    /// A sequenced Agreed message reaches a daemon.
    DaemonRecv { daemon: DaemonId, msg: Rc<WireMsg> },
    /// A client's send reaches its local daemon.
    ClientSubmit { client: ClientId, out: Outgoing },
    /// A FIFO message reaches the destination daemon, ready for local
    /// delivery.
    FifoArrive {
        daemon: DaemonId,
        delivery: Delivery,
    },
    /// A message is handed to a client.
    ClientDeliver {
        client: ClientId,
        delivery: Delivery,
    },
    /// A view change is handed to a client.
    ViewDeliver { client: ClientId, view: Rc<View> },
    /// A retransmission request for `seq` reaches `from` (an alive
    /// daemon holding the message), which re-sends it to `to`.
    Retransmit {
        seq: u64,
        to: DaemonId,
        from: DaemonId,
    },
    /// A parity shard of a FEC-coded fan-out generation reaches a
    /// daemon.
    ParityRecv {
        daemon: DaemonId,
        shard: Rc<ParityShard>,
    },
    /// A causal multicast arrives at a client's daemon for causal
    /// delivery filtering.
    CausalArrive { client: ClientId, msg: CausalMsg },
    /// The surviving daemons detect that `daemon` crashed: the ring
    /// reforms, the token regenerates, the dead machine's members are
    /// evicted via a view change.
    CrashDetect { daemon: DaemonId },
    /// A scheduled fault from a [`FaultPlan`] fires.
    Fault { fault: crate::fault::Fault },
}

struct DaemonState {
    machine: MachineId,
    /// False once the daemon has crashed: it stops sequencing,
    /// delivering and forwarding the token, and the ring reforms
    /// without it after the detection timeout.
    alive: bool,
    pending: VecDeque<Submission>,
    received: BTreeMap<u64, Rc<WireMsg>>,
    /// Highest seq such that this daemon holds all messages `1..=seq`.
    contiguous: u64,
    /// `contiguous` as of this daemon's most recent token visit (the
    /// value it last reported into the token's aru computation).
    reported: u64,
    /// Highest seq delivered to local clients.
    delivered: u64,
    /// Last view id this daemon has installed.
    installed_view: ViewId,
    /// Buffered parity shards per incomplete fan-out generation, keyed
    /// by the generation's first sequence number. Empty whenever FEC
    /// is disabled.
    fec_buf: BTreeMap<u64, FecGenBuf>,
    /// Adaptive retransmission backoff state.
    retrans: RetransState,
}

struct ClientSlot {
    machine: MachineId,
    handler: Option<Box<dyn Client>>,
    busy_until: SimTime,
    alive: bool,
    /// Vector clock over causal messages (index = sending client).
    vclock: Vec<u64>,
    /// How many causal messages this client has sent (its own clock
    /// entry advances on *delivery*, including the loop-back copy).
    causal_sent: u64,
    /// Causal messages awaiting their happens-before predecessors.
    causal_buffer: Vec<CausalMsg>,
}

struct PendingChange {
    joined: Vec<ClientId>,
    left: Vec<ClientId>,
}

struct ActiveMembership {
    new_view: Rc<View>,
    /// Ring-head passes remaining before daemons may install.
    rounds_left: u32,
    /// Set once `rounds_left` hits zero: daemons install on token visit.
    installing: bool,
    installed: Vec<bool>,
}

/// The simulated world: topology, daemons, clients, token and clock.
pub struct SimWorld {
    cfg: GcsConfig,
    queue: EventQueue<Ev>,
    daemons: Vec<DaemonState>,
    machines: Vec<CpuScheduler>,
    clients: Vec<ClientSlot>,
    ring: Vec<DaemonId>,
    next_seq: u64,
    /// aru carried by the token: the minimum, over all daemons, of the
    /// contiguous high-water mark each reported at its latest token
    /// visit. Messages at or below it are held by every daemon.
    token_aru: u64,
    /// Current installed view of every group carried by this ring.
    views: BTreeMap<GroupId, Rc<View>>,
    view_history: BTreeMap<ViewId, Rc<View>>,
    next_view_id: ViewId,
    /// Queued membership changes, per group (FIFO within a group;
    /// different groups run their membership protocols concurrently).
    pending_changes: BTreeMap<GroupId, VecDeque<PendingChange>>,
    /// In-progress membership protocol per group.
    active: BTreeMap<GroupId, ActiveMembership>,
    /// Non-token events in flight (quiescence detection).
    outstanding: u64,
    stats: WorldStats,
    token_started: bool,
    /// Every sequenced message (the origin daemons' retransmission
    /// buffers, kept globally for simulation convenience).
    sent_msgs: BTreeMap<u64, Rc<WireMsg>>,
    /// Deterministic loss process.
    loss_rng: SplitMix64,
    /// Separate deterministic stream for retransmission-backoff jitter
    /// (its own stream so enabling backoff never perturbs the loss
    /// draws).
    retrans_rng: SplitMix64,
    /// Sticky flag: set the first time any data copy is lost, and the
    /// arming condition for gap-retransmission requests. A token-visit
    /// gap with no loss ever observed is merely in-flight traffic and
    /// must not trigger spurious requests; a gap after a loss burst
    /// has *ended* must still be recovered.
    losses_observed: bool,
    /// Per-origin EWMA loss estimates over the gaps each daemon
    /// observes at its token visits (updated only when
    /// [`GcsConfig::fec_adaptive`] is set). The adaptive parity budget
    /// follows the *worst* estimate among live daemons: parity fans
    /// out to every peer, so one lossy link must raise the budget even
    /// when seven clean peers observe nothing (a single global scalar
    /// diluted that signal 8×).
    loss_ewma: BTreeMap<DaemonId, f64>,
    /// Gilbert–Elliott burst chain (populated iff
    /// [`GcsConfig::gilbert`] is set).
    ge_chain: Option<crate::loss::GeChain>,
    /// Loss instants of copies not yet recovered, keyed by
    /// `(destination daemon, seq)`. First loss wins (a re-lost
    /// retransmission keeps the original instant); the entry is
    /// removed — and the elapsed window attributed to FEC repair or
    /// retransmission — when the daemon finally obtains the message.
    lost_at: BTreeMap<(DaemonId, u64), SimTime>,
    /// Token generation: bumped on every ring reformation so tokens
    /// already in flight at crash detection are invalidated (exactly
    /// one token survives a reformation).
    token_gen: u64,
    /// Temporary loss-rate override from a fault plan: `(rate, until)`.
    loss_burst: Option<(f64, SimTime)>,
    /// Virtual instant of the previous completed token rotation, for
    /// the rotation-interval histogram.
    last_rotation_at: Option<SimTime>,
    /// When `true` (the default), [`SimWorld::run_until`] skips whole
    /// idle token rotations analytically instead of dispatching each
    /// hop as an event. Observable state is identical either way; see
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
            .field("daemons", &self.daemons.len())
            .field("groups", &self.views.len())
            .field("view", &self.views.get(&0).map(|v| v.id))
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
        let daemons = (0..machine_count)
            .map(|m| DaemonState {
                machine: m,
                alive: true,
                pending: VecDeque::new(),
                received: BTreeMap::new(),
                contiguous: 0,
                reported: 0,
                delivered: 0,
                installed_view: 0,
                fec_buf: BTreeMap::new(),
                retrans: RetransState::new(),
            })
            .collect();
        let machines = (0..machine_count)
            .map(|m| CpuScheduler::new(cfg.topology.machine(m).cores))
            .collect();
        SimWorld {
            ring: (0..machine_count).collect(),
            queue: EventQueue::new(),
            daemons,
            machines,
            clients: Vec::new(),
            next_seq: 1,
            token_aru: 0,
            views: BTreeMap::new(),
            view_history: BTreeMap::new(),
            next_view_id: 1,
            pending_changes: BTreeMap::new(),
            active: BTreeMap::new(),
            outstanding: 0,
            stats: WorldStats::default(),
            token_started: false,
            sent_msgs: BTreeMap::new(),
            loss_rng: SplitMix64::new(cfg.loss_seed),
            // Golden-ratio tweak: a fixed, documented offset giving the
            // jitter stream its own deterministic seed.
            retrans_rng: SplitMix64::new(cfg.loss_seed ^ 0x9E37_79B9_7F4A_7C15),
            losses_observed: false,
            loss_ewma: BTreeMap::new(),
            ge_chain: cfg.gilbert.as_ref().map(crate::loss::GeChain::new),
            lost_at: BTreeMap::new(),
            token_gen: 0,
            last_rotation_at: None,
            idle_fast_forward: true,
            loss_burst: None,
            slots: WorldSlots::default(),
            telemetry: Telemetry::disabled(),
            cfg,
        }
    }

    /// Turns on event tracing (an enabled [`Telemetry`] sink); records
    /// are retrievable via [`SimWorld::trace`] or, in full structured
    /// form, via [`SimWorld::telemetry`].
    pub fn enable_trace(&mut self) {
        if !self.telemetry.is_enabled() {
            self.telemetry = Telemetry::enabled();
        }
    }

    /// Attaches an externally-owned telemetry sink (shared with other
    /// layers, e.g. the protocol drivers) so all events land in one
    /// stream.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry sink (disabled unless [`SimWorld::enable_trace`]
    /// or [`SimWorld::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The recorded GCS-level trace, reconstructed from the telemetry
    /// stream (empty when tracing is disabled). Protocol- and
    /// crypto-level events are available via [`SimWorld::telemetry`].
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.telemetry
            .events()
            .into_iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Sequenced { seq, sender } => Some(TraceEvent::Sequenced {
                    seq,
                    sender,
                    at: ev.at,
                }),
                EventKind::Delivered { sender, service } => Some(TraceEvent::Delivered {
                    client: match ev.actor {
                        Actor::Client(c) => c,
                        _ => return None,
                    },
                    sender,
                    service: Service::from_str_label(service)?,
                    at: ev.at,
                }),
                EventKind::ViewInstalled { view_id } => Some(TraceEvent::ViewInstalled {
                    daemon: match ev.actor {
                        Actor::Daemon(d) => d,
                        _ => return None,
                    },
                    view_id,
                    at: ev.at,
                }),
                EventKind::Retransmit { seq } => Some(TraceEvent::Retransmit {
                    daemon: match ev.actor {
                        Actor::Daemon(d) => d,
                        _ => return None,
                    },
                    seq,
                    at: ev.at,
                }),
                EventKind::FecRepair { seq } => Some(TraceEvent::FecRepaired {
                    daemon: match ev.actor {
                        Actor::Daemon(d) => d,
                        _ => return None,
                    },
                    seq,
                    at: ev.at,
                }),
                _ => None,
            })
            .collect()
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
            vclock: Vec::new(),
            causal_sent: 0,
            causal_buffer: Vec::new(),
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
    /// Panics if a view is already installed or `members` is empty.
    pub fn install_initial_view_of(&mut self, members: Vec<ClientId>) {
        self.install_initial_view_in(0, members);
    }

    /// Installs the initial view of one group over a subset of
    /// clients. Many groups can share the ring; each carries its own
    /// view state while token, links and CPU contention are shared.
    ///
    /// # Panics
    ///
    /// Panics if the group already has a view or `members` is empty.
    pub fn install_initial_view_in(&mut self, group: GroupId, members: Vec<ClientId>) {
        assert!(
            !self.views.contains_key(&group),
            "initial view already installed for group {group}"
        );
        assert!(!members.is_empty(), "initial view cannot be empty");
        let view = Rc::new(View {
            id: self.next_view_id,
            group,
            joined: members.clone(),
            members,
            left: Vec::new(),
        });
        self.next_view_id += 1;
        self.adopt_view(&view);
        for &c in &view.members {
            self.schedule(
                self.cfg.client_daemon_delay,
                Ev::ViewDeliver {
                    client: c,
                    view: Rc::clone(&view),
                },
            );
        }
        self.start_token_if_needed();
    }

    /// Injects a membership change into group `0`: `joined` clients
    /// enter the view, `left` members leave it. The new view installs
    /// after the membership protocol completes (several token
    /// rotations).
    ///
    /// # Panics
    ///
    /// Panics if no initial view exists, a joining client is unknown or
    /// already a member, or a leaving client is not a member.
    pub fn inject_change(&mut self, joined: Vec<ClientId>, left: Vec<ClientId>) {
        self.inject_change_in(0, joined, left);
    }

    /// Injects a membership change into a specific group. Changes for
    /// different groups proceed concurrently; changes within one group
    /// queue FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the group has no initial view, a joining client is
    /// unknown or already a member, or a leaving client is not a
    /// member of that group.
    pub fn inject_change_in(&mut self, group: GroupId, joined: Vec<ClientId>, left: Vec<ClientId>) {
        // Validate against the group membership as it will stand once
        // every queued change has installed.
        assert!(
            self.active.contains_key(&group) || self.views.contains_key(&group),
            "no initial view installed for group {group}"
        );
        let members = self.projected_members_of(group);
        for &j in &joined {
            assert!(j < self.clients.len(), "unknown client {j}");
            assert!(!members.contains(&j), "client {j} already a member");
        }
        for &l in &left {
            assert!(members.contains(&l), "client {l} is not a member");
        }
        self.pending_changes
            .entry(group)
            .or_default()
            .push_back(PendingChange { joined, left });
        self.maybe_start_membership(group);
    }

    /// Convenience: one client joins.
    pub fn inject_join(&mut self, client: ClientId) {
        self.inject_change(vec![client], vec![]);
    }

    /// Convenience: one member leaves.
    pub fn inject_leave(&mut self, client: ClientId) {
        self.inject_change(vec![], vec![client]);
    }

    /// Convenience: a partition removes several members at once.
    pub fn inject_partition(&mut self, leaving: Vec<ClientId>) {
        self.inject_change(vec![], leaving);
    }

    /// Convenience: a merge adds several members at once.
    pub fn inject_merge(&mut self, joining: Vec<ClientId>) {
        self.inject_change(joining, vec![]);
    }

    /// The group-`0` membership as it will stand once the active and
    /// every queued change has installed (empty before any initial
    /// view). Fault injectors consult this to aim joins/leaves at
    /// clients whose membership status is already settled in-flight.
    pub fn projected_members(&self) -> Vec<ClientId> {
        self.projected_members_of(0)
    }

    /// Per-group variant of [`SimWorld::projected_members`].
    pub fn projected_members_of(&self, group: GroupId) -> Vec<ClientId> {
        let mut members: Vec<ClientId> = match self.active.get(&group) {
            Some(active) => active.new_view.members.clone(),
            None => self
                .views
                .get(&group)
                .map(|v| v.members.clone())
                .unwrap_or_default(),
        };
        if let Some(queue) = self.pending_changes.get(&group) {
            for ch in queue {
                members.retain(|m| !ch.left.contains(m));
                members.extend_from_slice(&ch.joined);
            }
        }
        members
    }

    /// Every group id known to the world (installed, installing, or
    /// with queued changes), in ascending order.
    fn group_ids(&self) -> Vec<GroupId> {
        let mut ids: Vec<GroupId> = self.views.keys().copied().collect();
        for g in self.active.keys().chain(self.pending_changes.keys()) {
            if !ids.contains(g) {
                ids.push(*g);
            }
        }
        ids.sort_unstable();
        ids
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
        assert!(daemon < self.daemons.len(), "unknown daemon {daemon}");
        assert!(
            self.daemons[daemon].alive,
            "daemon {daemon} already crashed"
        );
        self.daemons[daemon].alive = false;
        self.daemons[daemon].pending.clear();
        self.daemons[daemon].fec_buf.clear();
        // Loss-recovery windows owed to the dead daemon will never
        // close; only completed recoveries are attributed.
        self.lost_at.retain(|&(d, _), _| d != daemon);
        self.stats.daemon_crashes += 1;
        let at = self.queue.now();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Daemon(daemon),
            kind: EventKind::Fault {
                action: "crash",
                target: daemon,
            },
        });
        // The machine died: its client processes die with it.
        let machine = self.daemons[daemon].machine;
        for c in 0..self.clients.len() {
            if self.clients[c].machine == machine {
                self.clients[c].alive = false;
            }
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
        assert!(
            (0.0..=1.0).contains(&rate),
            "burst loss rate must be in [0, 1]"
        );
        let until = self.queue.now() + duration;
        self.loss_burst = Some((rate, until));
        let at = self.queue.now();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::World,
            kind: EventKind::Fault {
                action: "loss_burst",
                target: (rate * 100.0) as usize,
            },
        });
    }

    /// Schedules every fault in `plan` as a simulation event at its
    /// virtual-time offset from now. Deterministic: the same plan
    /// applied to the same world yields the same run.
    pub fn apply_fault_plan(&mut self, plan: crate::fault::FaultPlan) {
        for planned in plan.faults {
            self.schedule(
                planned.after,
                Ev::Fault {
                    fault: planned.fault,
                },
            );
        }
    }

    /// Whether a daemon is still alive (has not crashed).
    pub fn daemon_alive(&self, daemon: DaemonId) -> bool {
        daemon < self.daemons.len() && self.daemons[daemon].alive
    }

    /// Whether a client process is still alive (its machine has not
    /// crashed).
    pub fn client_alive(&self, client: ClientId) -> bool {
        client < self.clients.len() && self.clients[client].alive
    }

    /// Number of daemons that have not crashed.
    pub fn alive_daemon_count(&self) -> usize {
        self.daemons.iter().filter(|d| d.alive).count()
    }

    /// Current size of the token ring (shrinks on reformation).
    pub fn ring_len(&self) -> usize {
        self.ring.len()
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
        self.views.get(&0).map(Rc::as_ref)
    }

    /// The currently installed view of a specific group, if any.
    pub fn view_of(&self, group: GroupId) -> Option<&View> {
        self.views.get(&group).map(Rc::as_ref)
    }

    /// Every view a group has installed or begun installing, in id
    /// (installation) order — index 0 is the initial view, index `k`
    /// the view produced by the group's `k`-th membership change.
    pub fn views_of(&self, group: GroupId) -> Vec<Rc<View>> {
        self.view_history
            .values()
            .filter(|v| v.group == group)
            .cloned()
            .collect()
    }

    /// Number of groups with an installed view.
    pub fn group_count(&self) -> usize {
        self.views.len()
    }

    /// Whether a membership change is in progress or queued (any
    /// group).
    pub fn membership_busy(&self) -> bool {
        !self.active.is_empty() || self.pending_changes.values().any(|q| !q.is_empty())
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

    /// Processes one event. Returns `false` when the world is
    /// quiescent (only the idle token remains).
    pub fn step(&mut self) -> bool {
        if self.quiescent() {
            return false;
        }
        let Some((_, ev)) = self.queue.pop() else {
            return false;
        };
        if !matches!(ev, Ev::Token { .. }) {
            self.outstanding -= 1;
        }
        self.dispatch(ev);
        true
    }

    /// Runs until no work remains (the token keeps circulating but
    /// nothing else is pending).
    pub fn run_until_quiescent(&mut self) {
        while self.step() {}
    }

    /// Advances virtual time to `t`, processing every event scheduled
    /// at or before it — including idle token circulation, which
    /// [`SimWorld::step`] skips once the world is quiescent. Used by
    /// workload drivers to reach a scheduled injection instant. A `t`
    /// in the past is a no-op.
    pub fn run_until(&mut self, t: SimTime) {
        self.try_fast_forward_idle(t);
        while self.queue.peek_time().is_some_and(|pt| pt <= t) {
            let Some((_, ev)) = self.queue.pop() else {
                break;
            };
            if !matches!(ev, Ev::Token { .. }) {
                self.outstanding -= 1;
            }
            self.dispatch(ev);
        }
    }

    /// Enables or disables the idle-token fast-forward (on by
    /// default). When the world is quiescent, an idle token visit only
    /// performs ring-head bookkeeping and forwards itself, so
    /// [`SimWorld::run_until`] can skip whole rotations analytically —
    /// the final partial rotation is always stepped, which makes the
    /// clock, stats, and every future event instant identical to the
    /// fully stepped execution. Disable to force stepping (e.g. when
    /// comparing the two paths).
    pub fn set_idle_fast_forward(&mut self, on: bool) {
        self.idle_fast_forward = on;
    }

    /// Skips whole idle token rotations up to (but never beyond) `t`.
    ///
    /// Applies only in the strictly idle regime: the world is
    /// quiescent, telemetry is off (an enabled sink counts per-event
    /// dispatches, which skipping would under-report), and the queue
    /// holds exactly the one live token. A full rotation then costs
    /// `sum(hop + token_processing)` around the ring and its only
    /// effects are `token_rotations` and `last_rotation_at`, which are
    /// replayed analytically; the token event is moved forward by a
    /// whole number of periods so the stepped tail reproduces the
    /// exact event instants of a fully stepped run.
    fn try_fast_forward_idle(&mut self, t: SimTime) {
        if !self.idle_fast_forward || self.telemetry.is_enabled() {
            return;
        }
        if self.queue.len() != 1 || !self.quiescent() {
            return;
        }
        if self.queue.peek_time().is_none_or(|pt| pt > t) {
            return;
        }
        let Some((a0, ev)) = self.queue.pop() else {
            return;
        };
        let Ev::Token { daemon, gen } = ev else {
            self.queue.schedule_at(a0, ev);
            return;
        };
        let put_back = Ev::Token { daemon, gen };
        if gen != self.token_gen || !self.daemons[daemon].alive {
            self.queue.schedule_at(a0, put_back);
            return;
        }
        let Some(pos0) = self.ring.iter().position(|&d| d == daemon) else {
            self.queue.schedule_at(a0, put_back);
            return;
        };
        // One idle rotation starting from `pos0`: per hop the token is
        // held for `token_processing` (nothing is sequenced) and then
        // travels the inter-machine latency. `offset` is the delay
        // from `a0` until the ring head's arrival (zero when the token
        // is already at the head: that arrival is `a0` itself).
        let n = self.ring.len();
        let mut period = Duration::ZERO;
        let mut offset = Duration::ZERO;
        for i in 0..n {
            let p = self.ring[(pos0 + i) % n];
            let q = self.ring[(pos0 + i + 1) % n];
            let hop = self
                .cfg
                .topology
                .machine_latency(self.daemons[p].machine, self.daemons[q].machine);
            period = period + hop + self.cfg.token_processing;
            if (pos0 + i + 1) % n == 0 && pos0 != 0 {
                offset = period;
            }
        }
        if period.as_nanos() == 0 {
            self.queue.schedule_at(a0, put_back);
            return;
        }
        let k = t.since(a0).as_nanos() / period.as_nanos();
        if k == 0 {
            self.queue.schedule_at(a0, put_back);
            return;
        }
        // Head arrivals in `[a0, a0 + k*period)`: exactly `k` of them,
        // at `a0 + offset + j*period` for `j` in `0..k`.
        self.stats.token_rotations += k;
        self.last_rotation_at =
            Some(a0 + offset + Duration::from_nanos((k - 1) * period.as_nanos()));
        self.queue
            .schedule_at(a0 + Duration::from_nanos(k * period.as_nanos()), put_back);
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
        self.outstanding == 0
            && self.active.is_empty()
            && self.pending_changes.values().all(VecDeque::is_empty)
            && self
                .daemons
                .iter()
                .filter(|d| d.alive)
                .all(|d| d.pending.is_empty() && d.delivered == self.next_seq - 1)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn schedule(&mut self, delay: Duration, ev: Ev) {
        if !matches!(ev, Ev::Token { .. }) {
            self.outstanding += 1;
        }
        self.queue.schedule(delay, ev);
    }

    fn start_token_if_needed(&mut self) {
        if !self.token_started {
            self.token_started = true;
            let gen = self.token_gen;
            self.queue.schedule(
                Duration::ZERO,
                Ev::Token {
                    daemon: self.ring[0],
                    gen,
                },
            );
        }
    }

    fn adopt_view(&mut self, view: &Rc<View>) {
        self.views.insert(view.group, Rc::clone(view));
        self.view_history.insert(view.id, Rc::clone(view));
        self.stats.views_installed += 1;
    }

    fn maybe_start_membership(&mut self, group: GroupId) {
        if self.active.contains_key(&group) {
            return;
        }
        let Some(view) = self.views.get(&group).cloned() else {
            return;
        };
        let Some(change) = self
            .pending_changes
            .get_mut(&group)
            .and_then(VecDeque::pop_front)
        else {
            return;
        };
        let mut members: Vec<ClientId> = view
            .members
            .iter()
            .copied()
            .filter(|m| !change.left.contains(m))
            .collect();
        members.extend_from_slice(&change.joined);
        let new_view = Rc::new(View {
            id: self.next_view_id,
            group,
            members,
            joined: change.joined,
            left: change.left,
        });
        self.next_view_id += 1;
        self.view_history.insert(new_view.id, Rc::clone(&new_view));
        self.active.insert(
            group,
            ActiveMembership {
                new_view,
                rounds_left: self.cfg.membership_rounds,
                installing: false,
                installed: vec![false; self.daemons.len()],
            },
        );
    }

    /// Stable metric name of an event variant (the sim event loop's
    /// per-kind dispatch counters).
    fn ev_metric_name(ev: &Ev) -> &'static str {
        match ev {
            Ev::Token { .. } => "ev_token",
            Ev::DaemonRecv { .. } => "ev_daemon_recv",
            Ev::ClientSubmit { .. } => "ev_client_submit",
            Ev::FifoArrive { .. } => "ev_fifo_arrive",
            Ev::ClientDeliver { .. } => "ev_client_deliver",
            Ev::ViewDeliver { .. } => "ev_view_deliver",
            Ev::Retransmit { .. } => "ev_retransmit",
            Ev::ParityRecv { .. } => "ev_parity_recv",
            Ev::CausalArrive { .. } => "ev_causal_arrive",
            Ev::CrashDetect { .. } => "ev_crash_detect",
            Ev::Fault { .. } => "ev_fault",
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        // Sim-layer event-loop metrics: total dispatches, per-kind
        // dispatches, and the peak of in-flight (non-token) events.
        self.telemetry
            .metric_inc(Key::new(Layer::Sim, "events_dispatched"), 1);
        self.telemetry
            .metric_inc(Key::new(Layer::Sim, Self::ev_metric_name(&ev)), 1);
        let outstanding = self.outstanding;
        self.telemetry
            .gauge_max(Key::new(Layer::Sim, "outstanding_peak"), || {
                outstanding as f64
            });
        match ev {
            Ev::Token { daemon, gen } => self.on_token(daemon, gen),
            Ev::DaemonRecv { daemon, msg } => self.on_daemon_recv(daemon, msg),
            Ev::ClientSubmit { client, out } => self.on_client_submit(client, out),
            Ev::FifoArrive { daemon, delivery } => self.on_fifo_arrive(daemon, delivery),
            Ev::ClientDeliver { client, delivery } => self.deliver_to_client(client, delivery),
            Ev::ViewDeliver { client, view } => self.deliver_view_to_client(client, &view),
            Ev::Retransmit { seq, to, from } => self.on_retransmit(seq, to, from),
            Ev::ParityRecv { daemon, shard } => self.on_parity_recv(daemon, shard),
            Ev::CausalArrive { client, msg } => self.on_causal_arrive(client, msg),
            Ev::CrashDetect { daemon } => self.on_crash_detect(daemon),
            Ev::Fault { fault } => self.on_fault(fault),
        }
    }

    /// Ring reformation, `crash_detection_timeout` after a crash: the
    /// dead daemon leaves the ring, the token regenerates at the ring
    /// head (invalidating any token still in flight), and the dead
    /// machine's members are evicted via a membership change.
    fn on_crash_detect(&mut self, daemon: DaemonId) {
        self.ring.retain(|&d| d != daemon);
        self.stats.ring_reformations += 1;
        let at = self.queue.now();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Daemon(daemon),
            kind: EventKind::Fault {
                action: "crash_detected",
                target: daemon,
            },
        });
        self.token_gen += 1;
        if let Some(&head) = self.ring.first() {
            let gen = self.token_gen;
            self.queue
                .schedule(Duration::ZERO, Ev::Token { daemon: head, gen });
        }
        // The dead daemon can never install a pending view; any
        // membership waiting only on it completes now.
        for group in self.group_ids() {
            self.check_membership_complete(group);
        }
        // Its members leave via a view change, per group (if any view
        // exists yet).
        let machine = self.daemons[daemon].machine;
        for group in self.group_ids() {
            let lost: Vec<ClientId> = self
                .projected_members_of(group)
                .into_iter()
                .filter(|&c| self.clients[c].machine == machine)
                .collect();
            if !lost.is_empty() {
                self.inject_change_in(group, vec![], lost);
            }
        }
    }

    /// Executes one scheduled fault from a [`crate::FaultPlan`]. Faults
    /// that no longer apply (daemon already dead, members already
    /// gone/present) degrade to no-ops so randomized plans stay valid.
    fn on_fault(&mut self, fault: crate::fault::Fault) {
        use crate::fault::Fault;
        match fault {
            Fault::Crash { daemon } => {
                if daemon < self.daemons.len() && self.daemons[daemon].alive {
                    self.inject_crash(daemon);
                }
            }
            Fault::LossBurst { rate, duration } => self.set_loss_burst(rate, duration),
            Fault::Partition { members } => {
                let current = self.projected_members();
                let leaving: Vec<ClientId> = members
                    .into_iter()
                    .filter(|m| current.contains(m))
                    .collect();
                if !leaving.is_empty() {
                    let at = self.queue.now();
                    let count = leaving.len();
                    self.telemetry.record(|| Event {
                        at,
                        dur: Duration::ZERO,
                        actor: Actor::World,
                        kind: EventKind::Fault {
                            action: "partition",
                            target: count,
                        },
                    });
                    self.inject_partition(leaving);
                }
            }
            Fault::Heal { members } => {
                let current = self.projected_members();
                let joining: Vec<ClientId> = members
                    .into_iter()
                    .filter(|&m| {
                        m < self.clients.len()
                            && !current.contains(&m)
                            && self.daemons[self.clients[m].machine].alive
                    })
                    .collect();
                if !joining.is_empty() {
                    let at = self.queue.now();
                    let count = joining.len();
                    self.telemetry.record(|| Event {
                        at,
                        dur: Duration::ZERO,
                        actor: Actor::World,
                        kind: EventKind::Fault {
                            action: "heal",
                            target: count,
                        },
                    });
                    self.inject_merge(joining);
                }
            }
        }
    }

    fn on_token(&mut self, daemon_id: DaemonId, gen: u64) {
        // A stale token (superseded by a ring reformation) or a token
        // reaching a crashed daemon vanishes; crash detection
        // regenerates exactly one replacement.
        if gen != self.token_gen || !self.daemons[daemon_id].alive {
            return;
        }

        // Rotation boundary bookkeeping at the ring head.
        if self.ring.first() == Some(&daemon_id) {
            self.stats.token_rotations += 1;
            let rotation = self.stats.token_rotations;
            let at = self.queue.now();
            self.telemetry.record(|| Event {
                at,
                dur: Duration::ZERO,
                actor: Actor::Daemon(daemon_id),
                kind: EventKind::TokenRotation { rotation },
            });
            if let Some(prev) = self.last_rotation_at {
                self.telemetry
                    .metric_observe(Key::new(Layer::Gcs, "token_rotation_ms"), || {
                        at.since(prev).as_millis_f64()
                    });
            }
            self.last_rotation_at = Some(at);
            // View-synchrony flush: the new view may only install once
            // every message sent in the old view has been delivered
            // everywhere (Spread flushes before installing a view).
            // Without this, a message of epoch E could arrive after a
            // member entered epoch E+1 and be discarded — breaking
            // cascaded membership changes.
            let flushed = self.outstanding == 0
                && self
                    .daemons
                    .iter()
                    .filter(|d| d.alive)
                    .all(|d| d.pending.is_empty() && d.delivered == self.next_seq - 1);
            // Every group's membership protocol advances on the same
            // ring-head pass: the rounds are shared token rotations,
            // and the flush condition is global because the sequencer
            // (and therefore stability) is shared across groups.
            for active in self.active.values_mut() {
                if !active.installing {
                    if active.rounds_left > 0 {
                        active.rounds_left -= 1;
                    }
                    if active.rounds_left == 0 && flushed {
                        active.installing = true;
                    }
                }
            }
        }

        // 1. Sequence and broadcast pending submissions (flow control).
        //    The messages sequenced in one visit form one FEC
        //    generation (step 1a fans out its parity shards).
        let mut sent = 0usize;
        let mut generation: Vec<Rc<WireMsg>> = Vec::new();
        while sent < self.cfg.flow_control_max_msgs {
            let Some(sub) = self.daemons[daemon_id].pending.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let msg = Rc::new(WireMsg {
                seq,
                sender: sub.sender,
                dest: sub.dest,
                view_id: sub.view_id,
                payload: sub.payload,
                origin: daemon_id,
            });
            self.stats.agreed_messages += 1;
            let at = self.queue.now();
            let sender = msg.sender;
            self.telemetry.record(|| Event {
                at,
                dur: Duration::ZERO,
                actor: Actor::Daemon(daemon_id),
                kind: EventKind::Sequenced { seq, sender },
            });
            self.sent_msgs.insert(seq, Rc::clone(&msg));
            // The sender's daemon holds its own message instantly.
            self.store_at_daemon(daemon_id, Rc::clone(&msg));
            let size_cost = self.wire_cost(msg.payload.len());
            for peer in 0..self.daemons.len() {
                if peer == daemon_id || !self.daemons[peer].alive {
                    continue;
                }
                if self.lose_copy() {
                    self.stats.messages_lost += 1;
                    self.losses_observed = true;
                    self.lost_at.entry((peer, seq)).or_insert(at);
                    continue;
                }
                let latency = self
                    .cfg
                    .topology
                    .machine_latency(self.daemons[daemon_id].machine, self.daemons[peer].machine);
                let delay = latency + size_cost + self.cfg.per_message_processing;
                self.schedule(
                    delay,
                    Ev::DaemonRecv {
                        daemon: peer,
                        msg: Rc::clone(&msg),
                    },
                );
            }
            generation.push(msg);
            sent += 1;
        }

        // 1a. FEC parity fan-out over this visit's generation: with a
        //     parity budget of `r`, every peer can reconstruct up to
        //     `r` lost data messages locally instead of waiting whole
        //     token rotations for retransmission. Skipped entirely at
        //     budget 0 (no extra RNG draws, no extra events — the
        //     `r = 0` engine is byte-identical to the pre-FEC one).
        if !generation.is_empty() {
            let r = self.parity_budget(generation.len());
            if r > 0 {
                self.fan_out_parity(daemon_id, &generation, r);
            }
        }
        // Flow-control metrics: how much this token visit sequenced,
        // and how much the budget deferred to the next rotation (the
        // paper's footnote-10 wait is exactly this backlog).
        if sent > 0 {
            self.telemetry
                .metric_inc(Key::new(Layer::Gcs, "flow_sequenced"), sent as u64);
            self.telemetry
                .metric_observe(Key::new(Layer::Gcs, "flow_sent_per_visit"), || sent as f64);
        }
        let backlog = self.daemons[daemon_id].pending.len();
        if backlog > 0 {
            self.telemetry
                .metric_inc(Key::new(Layer::Gcs, "flow_deferred"), backlog as u64);
            self.telemetry
                .gauge_max(Key::new(Layer::Gcs, "flow_backlog_peak"), || backlog as f64);
        }

        // 1b. Request retransmission of any gap this daemon observes
        //     (the token reveals that higher sequence numbers exist —
        //     Totem-style negative acknowledgement). Armed only once a
        //     data copy has actually been dropped (sticky
        //     `losses_observed`) or a crash may have eaten copies —
        //     never by the mere *possibility* of loss, so runs where
        //     every copy happens to arrive issue no spurious requests
        //     for messages that are merely in flight.
        if self.cfg.fec_adaptive {
            self.update_loss_ewma(daemon_id);
        }
        let lossy = self.losses_observed || self.stats.daemon_crashes > 0;
        if lossy && self.daemons[daemon_id].contiguous < self.next_seq - 1 {
            self.maybe_request_missing(daemon_id);
        }

        // 2. Report our contiguous mark and recompute the aru (the
        //    minimum over every alive daemon's latest report).
        self.daemons[daemon_id].reported = self.daemons[daemon_id].contiguous;
        self.recompute_aru();

        // 3. Deliver stable messages to local clients.
        self.deliver_stable(daemon_id);

        // 4. Install pending views whose membership protocols are done
        //    (ascending group order — BTreeMap iteration — so the
        //    install sequence is deterministic).
        let mut installs: Vec<Rc<View>> = Vec::new();
        for active in self.active.values_mut() {
            if active.installing && !active.installed[daemon_id] {
                active.installed[daemon_id] = true;
                installs.push(Rc::clone(&active.new_view));
            }
        }
        for view in installs {
            self.install_view_at_daemon(daemon_id, &view);
        }

        // 5. Forward the token to the ring successor. (A daemon that
        //    crashed between dispatch and here has already returned
        //    above; one removed from the ring at detection no longer
        //    receives tokens of the current generation.)
        let Some(pos) = self.ring.iter().position(|&d| d == daemon_id) else {
            return;
        };
        let next = self.ring[(pos + 1) % self.ring.len()];
        let hop = self
            .cfg
            .topology
            .machine_latency(self.daemons[daemon_id].machine, self.daemons[next].machine);
        let hold = self.cfg.token_processing + self.cfg.per_message_processing * sent as u64;
        self.queue
            .schedule(hop + hold, Ev::Token { daemon: next, gen });
    }

    /// Recomputes the token's aru over the alive daemons. When every
    /// daemon has crashed there is no ring left to agree on stability:
    /// the aru is left untouched — a graceful no-op instead of a panic
    /// on the empty minimum.
    fn recompute_aru(&mut self) {
        if let Some(min) = self
            .daemons
            .iter()
            .filter(|d| d.alive)
            .map(|d| d.reported)
            .min()
        {
            self.token_aru = min;
        }
    }

    /// The loss probability in force at instant `now`.
    ///
    /// Three processes combine via `max`: the Bernoulli base rate, the
    /// Gilbert–Elliott chain's per-state rate (when configured), and a
    /// fault-plan burst while its half-open window
    /// `[start, start + duration)` lasts — at the exact expiry instant
    /// the burst no longer applies. An expired burst is cleared here
    /// (lazily, on the first draw at or past its boundary) so
    /// `loss_burst` never reports a stale window. The chain advances
    /// on its own RNG stream, so configuring it never perturbs the
    /// per-copy loss draws.
    fn effective_loss_rate_at(&mut self, now: SimTime) -> f64 {
        let mut rate = self.cfg.loss_rate;
        if let Some(ge) = &mut self.ge_chain {
            rate = rate.max(ge.rate_at(now));
        }
        match self.loss_burst {
            Some((burst, until)) if now < until => rate.max(burst),
            Some(_) => {
                self.loss_burst = None;
                rate
            }
            None => rate,
        }
    }

    /// Deterministic Bernoulli draw for one message copy.
    fn lose_copy(&mut self) -> bool {
        let rate = self.effective_loss_rate_at(self.queue.now());
        if rate <= 0.0 {
            return false;
        }
        let x = (self.loss_rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        x < rate
    }

    /// An alive daemon able to re-send `seq` to `requester`: the origin
    /// if it survives, otherwise any other surviving ring member (the
    /// retransmission buffers are global — every daemon that received
    /// the message can source it).
    fn retransmit_source(&self, origin: DaemonId, requester: DaemonId) -> Option<DaemonId> {
        if self.daemons[origin].alive {
            return Some(origin);
        }
        self.ring
            .iter()
            .copied()
            .find(|&d| d != requester && self.daemons[d].alive)
    }

    /// Ask retransmission sources to re-send up to
    /// [`GcsConfig::recovery_batch`] messages this daemon is missing
    /// below the global high-water mark. Wider gaps recover over
    /// several token visits; each visit that issues at least one
    /// request counts as one retransmission round.
    fn request_missing(&mut self, daemon: DaemonId) {
        let have_upto = self.daemons[daemon].contiguous;
        let missing: Vec<u64> = ((have_upto + 1)..self.next_seq)
            .filter(|seq| !self.daemons[daemon].received.contains_key(seq))
            .take(self.cfg.recovery_batch)
            .collect();
        let mut requested = 0u64;
        for seq in missing {
            let Some(msg) = self.sent_msgs.get(&seq) else {
                continue;
            };
            if msg.origin == daemon {
                continue;
            }
            let Some(source) = self.retransmit_source(msg.origin, daemon) else {
                // Sole survivor: nobody is left to recover from, so
                // synthesize the copy from the global buffer (in a
                // real deployment the reformation would drop the
                // message from the order; the simulation keeps the
                // order intact for determinism).
                let Some(msg) = self.sent_msgs.get(&seq).map(Rc::clone) else {
                    continue;
                };
                self.settle_recovery(daemon, seq, RecoveryPath::Retransmission);
                self.store_at_daemon(daemon, msg);
                requested += 1;
                continue;
            };
            // Request travels to the source; it re-sends from there.
            let latency = self
                .cfg
                .topology
                .machine_latency(self.daemons[daemon].machine, self.daemons[source].machine);
            self.schedule(
                latency + self.cfg.per_message_processing,
                Ev::Retransmit {
                    seq,
                    to: daemon,
                    from: source,
                },
            );
            requested += 1;
        }
        if requested > 0 {
            self.stats.retransmission_rounds += 1;
        }
    }

    fn on_retransmit(&mut self, seq: u64, to: DaemonId, from: DaemonId) {
        if self.daemons[to].received.contains_key(&seq) {
            return; // already recovered meanwhile
        }
        if !self.daemons[to].alive {
            return; // requester crashed while the request was in flight
        }
        if !self.daemons[from].alive {
            return; // source crashed; the next token visit re-requests
        }
        let Some(msg) = self.sent_msgs.get(&seq).cloned() else {
            return;
        };
        self.stats.retransmissions += 1;
        let at = self.queue.now();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Daemon(to),
            kind: EventKind::Retransmit { seq },
        });
        // The re-sent copy can be lost as well; the next token visit
        // re-requests it. The original `lost_at` instant stays: the
        // recovery window runs from the *first* loss of the copy.
        if self.lose_copy() {
            self.stats.messages_lost += 1;
            self.losses_observed = true;
            return;
        }
        let latency = self
            .cfg
            .topology
            .machine_latency(self.daemons[from].machine, self.daemons[to].machine);
        let size_cost = self.wire_cost(msg.payload.len());
        self.schedule(
            latency + size_cost + self.cfg.per_message_processing,
            Ev::DaemonRecv { daemon: to, msg },
        );
    }

    /// Wire time for `len` bytes of payload on any hop. Shared by
    /// data, parity and FIFO paths so coded and plain traffic are
    /// charged identically. At the default
    /// [`WireGranularity::WholeKb`] every payload rounds up to a whole
    /// kilobyte (the historical model, pinned by the engine goldens);
    /// [`WireGranularity::Byte`] charges `per_kb · len / 1024` rounded
    /// up to a nanosecond, so a 40-byte parity shard costs ~4% of a
    /// 1 KB data message instead of 100%.
    fn wire_cost(&self, len: usize) -> Duration {
        match self.cfg.wire_granularity {
            WireGranularity::WholeKb => {
                let kb = (len as u64).div_ceil(1024);
                self.cfg.per_kb * kb
            }
            WireGranularity::Byte => {
                let ns = self
                    .cfg
                    .per_kb
                    .as_nanos()
                    .saturating_mul(len as u64)
                    .div_ceil(1024);
                Duration::from_nanos(ns)
            }
        }
    }

    /// Closes the open loss-recovery window of `(daemon, seq)` — if
    /// one is open — attributing the elapsed virtual time to `path`.
    /// Every lost copy's window is closed by exactly one path, so the
    /// two attribution buckets sum exactly to the total recovery time
    /// ([`WorldStats::recovery_ns`]).
    fn settle_recovery(&mut self, daemon: DaemonId, seq: u64, path: RecoveryPath) {
        let Some(t0) = self.lost_at.remove(&(daemon, seq)) else {
            return;
        };
        let dt = self.queue.now().since(t0);
        match path {
            RecoveryPath::FecRepair => {
                self.stats.fec_repair_recovery_ns += dt.as_nanos();
                self.telemetry
                    .metric_observe(Key::new(Layer::Gcs, "fec_repair_ms"), || dt.as_millis_f64());
            }
            RecoveryPath::Retransmission => {
                self.stats.retransmission_recovery_ns += dt.as_nanos();
                self.telemetry
                    .metric_observe(Key::new(Layer::Gcs, "retransmission_ms"), || {
                        dt.as_millis_f64()
                    });
            }
        }
    }

    /// Parity shards to append to a generation of `k` data messages:
    /// the configured floor, or — under the adaptive controller — the
    /// worst per-origin EWMA loss estimate among live daemons, scaled
    /// to the expected losses per generation (doubled for headroom)
    /// and clamped to `[fec_parity, fec_parity_max]`. The worst origin
    /// governs because parity fans out to every peer: covering the
    /// lossiest link covers them all. Always capped so `k + r` fits
    /// the code's field.
    fn parity_budget(&self, k: usize) -> usize {
        let r = if self.cfg.fec_adaptive {
            let worst = self
                .loss_ewma
                .iter()
                .filter(|(d, _)| self.daemons[**d].alive)
                .map(|(_, e)| *e)
                .fold(0.0_f64, f64::max);
            let want = (worst * 2.0 * k as f64).ceil() as usize;
            // `validate()` guarantees floor <= ceiling; `max` keeps the
            // clamp well-ordered even against a hand-mutated config.
            want.clamp(
                self.cfg.fec_parity,
                self.cfg.fec_parity_max.max(self.cfg.fec_parity),
            )
        } else {
            self.cfg.fec_parity
        };
        r.min(crate::fec::MAX_SHARDS.saturating_sub(k))
    }

    /// Encodes this token visit's generation and broadcasts its `r`
    /// parity shards to every other alive daemon. Parity copies ride
    /// the same loss process as data copies, but a lost parity shard
    /// is simply gone: parity is never retransmitted and never opens a
    /// recovery window (the data it protects still recovers via
    /// retransmission).
    fn fan_out_parity(&mut self, origin: DaemonId, generation: &[Rc<WireMsg>], r: usize) {
        let records: Vec<Vec<u8>> = generation.iter().map(|m| encode_record(m)).collect();
        let Some(parity) = crate::fec::encode(&records, r) else {
            return;
        };
        let k = generation.len();
        let Some(first_seq) = generation.first().map(|m| m.seq) else {
            return;
        };
        for (j, body) in parity.into_iter().enumerate() {
            let shard = Rc::new(ParityShard {
                first_seq,
                k,
                index: k + j,
                body,
            });
            let size_cost = self.wire_cost(shard.body.len());
            for peer in 0..self.daemons.len() {
                if peer == origin || !self.daemons[peer].alive {
                    continue;
                }
                self.stats.parity_shards_sent += 1;
                self.stats.parity_bytes_sent += shard.body.len() as u64;
                self.telemetry.metric_inc(
                    Key::new(Layer::Gcs, "parity_bytes_sent"),
                    shard.body.len() as u64,
                );
                if self.lose_copy() {
                    continue;
                }
                let latency = self
                    .cfg
                    .topology
                    .machine_latency(self.daemons[origin].machine, self.daemons[peer].machine);
                self.schedule(
                    latency + size_cost + self.cfg.per_message_processing,
                    Ev::ParityRecv {
                        daemon: peer,
                        shard: Rc::clone(&shard),
                    },
                );
            }
        }
    }

    /// Folds the gap this daemon observes at a token visit into *its
    /// own* EWMA loss estimate (the adaptive parity budget follows the
    /// worst estimate; see [`SimWorld::parity_budget`]). The per-visit
    /// sample is the missing fraction of the sequence span the token
    /// proves to exist (zero over an empty span). In-flight messages
    /// count as missing, which makes the estimator conservative — it
    /// over-provisions parity rather than under.
    ///
    /// With [`GcsConfig::fec_fast_attack`] set, a sample that *raises*
    /// the estimate replaces it outright instead of blending: the very
    /// first token visit inside a burst pushes the estimate to the
    /// observed loss fraction, so the parity budget reacts within one
    /// rotation. Decay back down still follows the EWMA, keeping
    /// parity raised across the quiet gaps inside a burst.
    fn update_loss_ewma(&mut self, daemon: DaemonId) {
        let d = &self.daemons[daemon];
        let span = (self.next_seq - 1).saturating_sub(d.contiguous);
        let sample = if span == 0 {
            0.0
        } else {
            let missing = ((d.contiguous + 1)..self.next_seq)
                .filter(|s| !d.received.contains_key(s))
                .count();
            missing as f64 / span as f64
        };
        let a = self.cfg.loss_ewma_alpha;
        let prev = self.loss_ewma.get(&daemon).copied().unwrap_or(0.0);
        let blended = a * sample + (1.0 - a) * prev;
        let next = if self.cfg.fec_fast_attack {
            blended.max(sample)
        } else {
            blended
        };
        self.loss_ewma.insert(daemon, next);
    }

    /// Applies the adaptive backoff policy in front of
    /// [`SimWorld::request_missing`]. With a zero backoff base the
    /// legacy policy holds — a daemon with a gap requests on every
    /// token visit — and this function adds no RNG draws or state
    /// changes, keeping the engine byte-identical to the pre-backoff
    /// one.
    ///
    /// With a non-zero base a *fresh* gap first arms one backoff
    /// window without requesting: in-flight parity shards (or late
    /// copies) get that window to close the gap locally, so a run
    /// whose parity budget covers its losses spends **zero** request
    /// rounds. Only a gap that survives the window costs a round, and
    /// every further no-progress round doubles the window (capped)
    /// and counts a strike toward the give-up escalation.
    fn maybe_request_missing(&mut self, daemon: DaemonId) {
        if self.cfg.retrans_backoff == Duration::ZERO {
            self.request_missing(daemon);
            return;
        }
        let now = self.queue.now();
        let contiguous = self.daemons[daemon].contiguous;
        if let Some(prev) = self.daemons[daemon].retrans.awaiting_since {
            if contiguous > prev {
                // Progress since the last arm/request: that episode is
                // over. The still-open gap (residual or newly lost) is
                // a fresh episode and re-arms below.
                let st = &mut self.daemons[daemon].retrans;
                st.level = 0;
                st.strikes = 0;
                st.awaiting_since = None;
            }
        }
        if self.daemons[daemon].retrans.awaiting_since.is_none() {
            // Fresh gap: arm the window, don't spend a round yet.
            let delay = self.jittered_backoff(0);
            let st = &mut self.daemons[daemon].retrans;
            st.awaiting_since = Some(contiguous);
            st.next_at = now + delay;
            return;
        }
        if now < self.daemons[daemon].retrans.next_at {
            return;
        }
        // A full window elapsed with no progress: spend a round.
        {
            let st = &mut self.daemons[daemon].retrans;
            st.strikes += 1;
            st.level = (st.level + 1).min(16);
        }
        self.request_missing(daemon);
        let delay = self.jittered_backoff(self.daemons[daemon].retrans.level);
        let st = &mut self.daemons[daemon].retrans;
        st.awaiting_since = Some(contiguous);
        st.next_at = now + delay;
        if self.cfg.retrans_give_up > 0
            && self.daemons[daemon].retrans.strikes >= self.cfg.retrans_give_up
        {
            self.escalate_give_up(daemon);
        }
    }

    /// One backoff window at the given exponential level: the full
    /// window is `base << level` capped at the configured maximum,
    /// then deterministic jitter into `[full/2, full]` from the
    /// dedicated stream (decorrelates the ring's request rounds
    /// without touching the loss draws).
    fn jittered_backoff(&mut self, level: u32) -> Duration {
        let full = self
            .cfg
            .retrans_backoff
            .as_nanos()
            .saturating_mul(1u64 << level.min(63))
            .min(self.cfg.retrans_backoff_max.as_nanos())
            .max(1);
        let u = (self.retrans_rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let half = full / 2;
        Duration::from_nanos(half + ((full - half) as f64 * u) as u64)
    }

    /// Give-up escalation: after [`GcsConfig::retrans_give_up`]
    /// consecutive no-progress request rounds the requester declares
    /// the origin of its oldest missing message unreachable and
    /// escalates to the crash machinery — the ring reforms without the
    /// origin and the surviving buffers source the recovery (exactly
    /// the PR 3 crash-detection path).
    fn escalate_give_up(&mut self, daemon: DaemonId) {
        let st = &mut self.daemons[daemon].retrans;
        st.strikes = 0;
        st.level = 0;
        st.awaiting_since = None;
        let first_missing = self.daemons[daemon].contiguous + 1;
        let Some(origin) = self.sent_msgs.get(&first_missing).map(|m| m.origin) else {
            return;
        };
        if origin == daemon || !self.daemons[origin].alive || self.ring.len() <= 1 {
            return;
        }
        let at = self.queue.now();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Daemon(daemon),
            kind: EventKind::Fault {
                action: "give_up",
                target: origin,
            },
        });
        self.inject_crash(origin);
    }

    fn on_parity_recv(&mut self, daemon: DaemonId, shard: Rc<ParityShard>) {
        if !self.daemons[daemon].alive {
            return; // the shard arrived at a crashed daemon
        }
        let first = shard.first_seq;
        let k = shard.k;
        let complete = {
            let d = &self.daemons[daemon];
            (first..first + k as u64).all(|s| s <= d.contiguous || d.received.contains_key(&s))
        };
        if complete {
            return; // nothing to repair; drop the shard
        }
        self.daemons[daemon]
            .fec_buf
            .entry(first)
            .or_insert_with(|| FecGenBuf {
                k,
                shards: BTreeMap::new(),
            })
            .shards
            .insert(shard.index, shard);
        self.try_fec_repair(daemon, first);
    }

    /// Attempts to decode generation `first` at `daemon` from the data
    /// messages it holds plus its buffered parity shards. On success
    /// every missing message of the generation is reconstructed
    /// locally, its recovery window attributed to FEC repair, and the
    /// buffer entry dropped.
    fn try_fec_repair(&mut self, daemon: DaemonId, first: u64) {
        let repaired: Vec<(u64, WireMsg)> = {
            let d = &self.daemons[daemon];
            let Some(buf) = d.fec_buf.get(&first) else {
                return;
            };
            let k = buf.k;
            let held = |s: u64| s <= d.contiguous || d.received.contains_key(&s);
            let missing: Vec<u64> = (first..first + k as u64).filter(|&s| !held(s)).collect();
            if missing.is_empty() {
                Vec::new() // generation complete: drop the buffer below
            } else if buf.shards.len() < missing.len() {
                return; // not yet decodable; keep buffering
            } else {
                // Re-serialize the data records the daemon holds (their
                // content is identical to the origin's encoding input),
                // pad to the generation's record length, add the parity
                // rows, and interpolate the missing points.
                let body_len = buf.shards.values().map(|s| s.body.len()).max().unwrap_or(0);
                let mut have: Vec<(usize, Vec<u8>)> = Vec::new();
                for (i, s) in (first..first + k as u64).enumerate() {
                    if !held(s) {
                        continue;
                    }
                    let Some(msg) = self.sent_msgs.get(&s) else {
                        continue;
                    };
                    let mut rec = encode_record(msg);
                    if rec.len() < body_len {
                        rec.resize(body_len, 0);
                    }
                    have.push((i, rec));
                }
                for (&idx, shard) in &buf.shards {
                    have.push((idx, shard.body.clone()));
                }
                let refs: Vec<(usize, &[u8])> =
                    have.iter().map(|(i, b)| (*i, b.as_slice())).collect();
                let Some(data) = crate::fec::decode(k, &refs) else {
                    return;
                };
                let mut out = Vec::new();
                for &s in &missing {
                    let idx = (s - first) as usize;
                    let Some(msg) = decode_record(&data[idx]) else {
                        return; // malformed record: leave the buffer for retransmission
                    };
                    if msg.seq != s {
                        return;
                    }
                    out.push((s, msg));
                }
                out
            }
        };
        self.daemons[daemon].fec_buf.remove(&first);
        let at = self.queue.now();
        for (s, msg) in repaired {
            self.stats.fec_repairs += 1;
            self.telemetry.record(|| Event {
                at,
                dur: Duration::ZERO,
                actor: Actor::Daemon(daemon),
                kind: EventKind::FecRepair { seq: s },
            });
            self.settle_recovery(daemon, s, RecoveryPath::FecRepair);
            self.store_at_daemon(daemon, Rc::new(msg));
        }
    }

    fn store_at_daemon(&mut self, daemon: DaemonId, msg: Rc<WireMsg>) {
        let d = &mut self.daemons[daemon];
        d.received.insert(msg.seq, msg);
        while d.received.contains_key(&(d.contiguous + 1)) {
            d.contiguous += 1;
        }
    }

    fn on_daemon_recv(&mut self, daemon: DaemonId, msg: Rc<WireMsg>) {
        if !self.daemons[daemon].alive {
            return; // the copy arrived at a crashed daemon
        }
        let seq = msg.seq;
        // A copy whose first transmission was lost arrives here only
        // via retransmission — close the recovery window into the
        // retransmission bucket.
        self.settle_recovery(daemon, seq, RecoveryPath::Retransmission);
        self.store_at_daemon(daemon, msg);
        // A late-arriving data copy can complete a generation that
        // already buffered parity: re-try the repair so the buffer
        // drains as soon as it becomes decodable.
        if !self.daemons[daemon].fec_buf.is_empty() {
            let generation = self.daemons[daemon]
                .fec_buf
                .iter()
                .find(|(&first, buf)| first <= seq && seq < first + buf.k as u64)
                .map(|(&first, _)| first);
            if let Some(first) = generation {
                self.try_fec_repair(daemon, first);
            }
        }
    }

    /// Delivers every received message with `seq <= token_aru` to this
    /// daemon's local clients.
    fn deliver_stable(&mut self, daemon: DaemonId) {
        let upto = self.token_aru.min(self.daemons[daemon].contiguous);
        while self.daemons[daemon].delivered < upto {
            let seq = self.daemons[daemon].delivered + 1;
            let Some(msg) = self.daemons[daemon].received.remove(&seq) else {
                break;
            };
            self.daemons[daemon].delivered = seq;
            self.deliver_wire_msg(daemon, &msg);
        }
    }

    fn deliver_wire_msg(&mut self, daemon: DaemonId, msg: &WireMsg) {
        let Some(view) = self.view_history.get(&msg.view_id) else {
            return;
        };
        let members = view.members.clone();
        let machine = self.daemons[daemon].machine;
        let targets: Vec<ClientId> = members
            .into_iter()
            .filter(|&c| self.clients[c].machine == machine && self.clients[c].alive)
            .filter(|&c| match msg.dest {
                Dest::All => true,
                Dest::One(t) => t == c,
            })
            .collect();
        for c in targets {
            let delivery = Delivery {
                sender: msg.sender,
                service: Service::Agreed,
                dest: msg.dest,
                view_id: msg.view_id,
                payload: msg.payload.clone(),
            };
            self.schedule(
                self.cfg.client_daemon_delay,
                Ev::ClientDeliver {
                    client: c,
                    delivery,
                },
            );
        }
    }

    fn on_client_submit(&mut self, client: ClientId, out: Outgoing) {
        let machine = self.clients[client].machine;
        if !self.clients[client].alive || !self.daemons[machine].alive {
            return; // the client or its daemon died while this was in flight
        }
        // View-synchrony: the message belongs to the view its sender
        // had installed at send time (not the engine's global view,
        // which flips only once every daemon has installed).
        let view_id = out.view_id;
        self.stats.payload_bytes += out.payload.len() as u64;
        match out.service {
            Service::Agreed => {
                self.daemons[machine].pending.push_back(Submission {
                    sender: client,
                    dest: out.dest,
                    view_id,
                    payload: out.payload,
                });
            }
            Service::Causal => {
                self.stats.fifo_messages += 1;
                // Stamp with the sender's vector clock; the own entry
                // carries the per-sender send sequence (the clock
                // itself advances when the loop-back copy delivers).
                self.grow_vclock(client);
                let seq = self.clients[client].causal_sent + 1;
                self.clients[client].causal_sent = seq;
                let mut vc = self.clients[client].vclock.clone();
                vc[client] = seq;
                let msg = CausalMsg {
                    sender: client,
                    view_id,
                    payload: out.payload,
                    vc,
                };
                let size_cost = self.wire_cost(msg.payload.len());
                let members = self
                    .view_history
                    .get(&view_id)
                    .map(|v| v.members.clone())
                    .unwrap_or_default();
                for target in members {
                    if target == client {
                        // Local delivery is immediate (own messages are
                        // already in causal order).
                        self.on_causal_arrive(client, msg.clone());
                        continue;
                    }
                    let latency = self
                        .cfg
                        .topology
                        .machine_latency(machine, self.clients[target].machine)
                        + size_cost
                        + self.cfg.per_message_processing
                        + self.cfg.client_daemon_delay;
                    self.schedule(
                        latency,
                        Ev::CausalArrive {
                            client: target,
                            msg: msg.clone(),
                        },
                    );
                }
            }
            Service::Fifo => {
                self.stats.fifo_messages += 1;
                let size_cost = self.wire_cost(out.payload.len());
                let delivery = Delivery {
                    sender: client,
                    service: Service::Fifo,
                    dest: out.dest,
                    view_id,
                    payload: out.payload,
                };
                match out.dest {
                    Dest::One(target) => {
                        let td = self.clients[target].machine;
                        let latency = self.cfg.topology.machine_latency(machine, td)
                            + size_cost
                            + self.cfg.per_message_processing;
                        self.schedule(
                            latency,
                            Ev::FifoArrive {
                                daemon: td,
                                delivery,
                            },
                        );
                    }
                    Dest::All => {
                        for td in 0..self.daemons.len() {
                            let latency = self.cfg.topology.machine_latency(machine, td)
                                + size_cost
                                + self.cfg.per_message_processing;
                            self.schedule(
                                latency,
                                Ev::FifoArrive {
                                    daemon: td,
                                    delivery: delivery.clone(),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    fn on_fifo_arrive(&mut self, daemon: DaemonId, delivery: Delivery) {
        let machine = self.daemons[daemon].machine;
        let targets: Vec<ClientId> = match delivery.dest {
            Dest::One(t) => vec![t],
            Dest::All => self
                .view_history
                .get(&delivery.view_id)
                .map(|v| v.members.clone())
                .unwrap_or_default(),
        };
        for c in targets {
            if c < self.clients.len() && self.clients[c].machine == machine && self.clients[c].alive
            {
                self.schedule(
                    self.cfg.client_daemon_delay,
                    Ev::ClientDeliver {
                        client: c,
                        delivery: delivery.clone(),
                    },
                );
            }
        }
    }

    fn install_view_at_daemon(&mut self, daemon: DaemonId, view: &Rc<View>) {
        self.daemons[daemon].installed_view = view.id;
        let at = self.queue.now();
        let view_id = view.id;
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Daemon(daemon),
            kind: EventKind::ViewInstalled { view_id },
        });
        // Per-member installation processing at the daemon.
        let install_cost = self.cfg.membership_per_member * view.members.len() as u64;
        let machine = self.daemons[daemon].machine;
        // Members on this machine receive the view.
        let locals: Vec<ClientId> = view
            .members
            .iter()
            .copied()
            .filter(|&c| self.clients[c].machine == machine)
            .collect();
        for c in locals {
            self.clients[c].alive = true;
            self.schedule(
                install_cost + self.cfg.client_daemon_delay,
                Ev::ViewDeliver {
                    client: c,
                    view: Rc::clone(view),
                },
            );
        }
        // Members that left and live on this machine go silent.
        for &l in &view.left {
            if self.clients[l].machine == machine {
                self.clients[l].alive = false;
            }
        }
        self.check_membership_complete(view.group);
    }

    /// Cluster-wide membership completion for one group: the new view
    /// is adopted once every *alive* daemon has installed it (a
    /// crashed daemon never will, and the reformed ring does not wait
    /// on it).
    fn check_membership_complete(&mut self, group: GroupId) {
        let done = self
            .active
            .get(&group)
            .map(|a| {
                a.installed
                    .iter()
                    .zip(&self.daemons)
                    .all(|(&installed, d)| installed || !d.alive)
            })
            .unwrap_or(false);
        if done {
            let Some(active) = self.active.remove(&group) else {
                return;
            };
            self.adopt_view(&active.new_view);
            self.maybe_start_membership(group);
        }
    }

    fn grow_vclock(&mut self, client: ClientId) {
        let n = self.clients.len();
        if self.clients[client].vclock.len() < n {
            self.clients[client].vclock.resize(n, 0);
        }
    }

    /// True if `msg` is the next causal message from its sender and
    /// every message it causally depends on has been delivered here.
    fn causally_deliverable(&self, client: ClientId, msg: &CausalMsg) -> bool {
        let vc = &self.clients[client].vclock;
        let get = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        for k in 0..msg.vc.len() {
            if k == msg.sender {
                continue;
            }
            if get(vc, k) < msg.vc[k] {
                return false; // a causal predecessor is still missing
            }
        }
        // Exactly the next message from this sender.
        get(vc, msg.sender) + 1 == msg.vc[msg.sender]
    }

    fn on_causal_arrive(&mut self, client: ClientId, msg: CausalMsg) {
        if !self.clients[client].alive {
            return;
        }
        self.grow_vclock(client);
        self.clients[client].causal_buffer.push(msg);
        // Deliver everything that has become deliverable, repeatedly
        // (one delivery can unblock others).
        loop {
            let idx = {
                let slot = &self.clients[client];
                slot.causal_buffer
                    .iter()
                    .position(|m| self.causally_deliverable(client, m))
            };
            let Some(i) = idx else { break };
            let msg = self.clients[client].causal_buffer.remove(i);
            // Merge the clock.
            self.grow_vclock(client);
            let slot = &mut self.clients[client];
            if slot.vclock.len() < msg.vc.len() {
                slot.vclock.resize(msg.vc.len(), 0);
            }
            for k in 0..msg.vc.len() {
                slot.vclock[k] = slot.vclock[k].max(msg.vc[k]);
            }
            let delivery = Delivery {
                sender: msg.sender,
                service: Service::Causal,
                dest: Dest::All,
                view_id: msg.view_id,
                payload: msg.payload,
            };
            self.deliver_to_client(client, delivery);
        }
    }

    fn deliver_view_to_client(&mut self, client: ClientId, view: &Rc<View>) {
        if !self.clients[client].alive {
            return;
        }
        let Some(mut handler) = self.clients[client].handler.take() else {
            return;
        };
        let start = self.queue.now().max(self.clients[client].busy_until);
        let speed = self
            .cfg
            .topology
            .machine(self.clients[client].machine)
            .speed;
        let mut ctx = ClientCtx::new(client, start, view.id, speed, &mut self.slots);
        handler.on_view(&mut ctx, view);
        let (charged, outgoing) = ctx.finish();
        self.finish_handler(client, handler, start, charged, outgoing);
    }

    fn deliver_to_client(&mut self, client: ClientId, delivery: Delivery) {
        if !self.clients[client].alive {
            return;
        }
        let at = self.queue.now();
        let sender = delivery.sender;
        let service = delivery.service.as_str();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Client(client),
            kind: EventKind::Delivered { sender, service },
        });
        let Some(mut handler) = self.clients[client].handler.take() else {
            return;
        };
        let start = self.queue.now().max(self.clients[client].busy_until);
        let speed = self
            .cfg
            .topology
            .machine(self.clients[client].machine)
            .speed;
        let mut ctx = ClientCtx::new(client, start, delivery.view_id, speed, &mut self.slots);
        handler.on_message(&mut ctx, &delivery);
        let (charged, outgoing) = ctx.finish();
        self.finish_handler(client, handler, start, charged, outgoing);
    }

    /// Applies a handler's CPU charge, reports the true completion
    /// instant back to the client, and schedules its sends.
    fn finish_handler(
        &mut self,
        client: ClientId,
        mut handler: Box<dyn Client>,
        start: SimTime,
        charged: Duration,
        outgoing: Vec<Outgoing>,
    ) {
        let machine = self.clients[client].machine;
        let run = self.machines[machine].run_detailed(start, charged);
        let end = run.end;
        if charged > Duration::ZERO {
            self.telemetry.record(|| Event {
                at: run.begin,
                dur: run.end.since(run.begin),
                actor: Actor::Client(client),
                kind: EventKind::HandlerSpan {
                    wait: run.begin.since(start),
                },
            });
        }
        self.clients[client].busy_until = end;
        handler.on_cpu_complete(end);
        self.clients[client].handler = Some(handler);
        let submit_delay = end.since(self.queue.now()) + self.cfg.client_daemon_delay;
        for out in outgoing {
            self.schedule(submit_delay, Ev::ClientSubmit { client, out });
        }
    }
}

/// Serializes a sequenced message into a FEC record. The layout is
/// fixed little-endian so encoding is a pure, deterministic function
/// of the message: seq (8) | sender (8) | view_id (8) | origin (8) |
/// dest tag (1) | dest target (8) | payload_len (8) | payload.
/// Trailing zero-padding (from the erasure code's common shard
/// length) is ignored by [`decode_record`] via the embedded
/// `payload_len`.
fn encode_record(msg: &WireMsg) -> Vec<u8> {
    let mut rec = Vec::with_capacity(49 + msg.payload.len());
    rec.extend_from_slice(&msg.seq.to_le_bytes());
    rec.extend_from_slice(&(msg.sender as u64).to_le_bytes());
    rec.extend_from_slice(&msg.view_id.to_le_bytes());
    rec.extend_from_slice(&(msg.origin as u64).to_le_bytes());
    let (tag, target) = msg.dest.to_wire();
    rec.push(tag);
    rec.extend_from_slice(&target.to_le_bytes());
    rec.extend_from_slice(&(msg.payload.len() as u64).to_le_bytes());
    rec.extend_from_slice(&msg.payload);
    rec
}

/// Reverses [`encode_record`]. `None` on any malformed or truncated
/// record (an interpolation fed bad shards) — the caller falls back
/// to retransmission rather than panicking.
fn decode_record(rec: &[u8]) -> Option<WireMsg> {
    let u64_at = |off: usize| -> Option<u64> {
        rec.get(off..off + 8)?
            .try_into()
            .ok()
            .map(u64::from_le_bytes)
    };
    let seq = u64_at(0)?;
    let sender = u64_at(8)? as ClientId;
    let view_id = u64_at(16)?;
    let origin = u64_at(24)? as DaemonId;
    let tag = *rec.get(32)?;
    let target = u64_at(33)?;
    let dest = Dest::from_wire(tag, target)?;
    let payload_len = u64_at(41)? as usize;
    let payload = rec.get(49..49 + payload_len)?;
    Some(WireMsg {
        seq,
        sender,
        dest,
        view_id,
        payload: Bytes::copy_from_slice(payload),
        origin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;

    #[test]
    fn record_codec_roundtrip() {
        for dest in [Dest::All, Dest::One(5)] {
            let msg = WireMsg {
                seq: 42,
                sender: 3,
                dest,
                view_id: 7,
                payload: Bytes::from(vec![9u8, 8, 7, 6, 5]),
                origin: 11,
            };
            let mut rec = encode_record(&msg);
            // Erasure-coded records carry trailing zero-padding up to
            // the generation's common shard length; the codec must see
            // through it.
            rec.resize(rec.len() + 13, 0);
            let back = decode_record(&rec).expect("roundtrip");
            assert_eq!(back.seq, msg.seq);
            assert_eq!(back.sender, msg.sender);
            assert_eq!(back.dest, msg.dest);
            assert_eq!(back.view_id, msg.view_id);
            assert_eq!(back.payload, msg.payload);
            assert_eq!(back.origin, msg.origin);
        }
        assert!(decode_record(&[1, 2, 3]).is_none(), "truncated record");
    }

    #[test]
    fn burst_window_is_half_open_and_clears_on_expiry() {
        let mut cfg = testbed::lan();
        cfg.loss_rate = 0.0;
        let mut w = SimWorld::new(cfg);
        w.set_loss_burst(0.5, Duration::from_millis(10));
        let until = SimTime::ZERO + Duration::from_millis(10);
        // One nanosecond before expiry the burst rate applies...
        let just_before = SimTime::from_nanos(until.as_nanos() - 1);
        assert_eq!(w.effective_loss_rate_at(just_before), 0.5);
        assert!(w.loss_burst.is_some(), "burst still active");
        // ...at the exact expiry instant it no longer does (half-open
        // window), and the expired burst is cleared.
        assert_eq!(w.effective_loss_rate_at(until), 0.0);
        assert!(w.loss_burst.is_none(), "expired burst must be cleared");
        // Cleared state is stable: later draws stay on the base rate.
        assert_eq!(
            w.effective_loss_rate_at(until + Duration::from_millis(1)),
            0.0
        );
    }

    #[test]
    fn burst_combines_with_base_rate_via_max() {
        let mut cfg = testbed::lan();
        cfg.loss_rate = 0.3;
        let mut w = SimWorld::new(cfg);
        // A 0.0-rate burst cannot suppress the configured base rate.
        w.set_loss_burst(0.0, Duration::from_millis(5));
        assert_eq!(w.effective_loss_rate_at(SimTime::ZERO), 0.3);
        // A burst above the base rate overrides it while it lasts.
        w.set_loss_burst(0.9, Duration::from_millis(5));
        assert_eq!(w.effective_loss_rate_at(SimTime::ZERO), 0.9);
        assert_eq!(
            w.effective_loss_rate_at(SimTime::ZERO + Duration::from_millis(5)),
            0.3
        );
    }

    #[test]
    fn overlapping_bursts_last_writer_wins() {
        let mut w = SimWorld::new(testbed::lan());
        w.set_loss_burst(0.8, Duration::from_millis(100));
        // A shorter, milder burst set while the first is active
        // replaces it entirely — including cutting the window short.
        w.set_loss_burst(0.2, Duration::from_millis(1));
        assert_eq!(w.effective_loss_rate_at(SimTime::ZERO), 0.2);
        assert_eq!(
            w.effective_loss_rate_at(SimTime::ZERO + Duration::from_millis(2)),
            0.0,
            "the replaced burst's longer window must not survive"
        );
    }

    #[test]
    fn edge_burst_rates_are_accepted() {
        let mut w = SimWorld::new(testbed::lan());
        w.set_loss_burst(0.0, Duration::from_millis(1));
        assert_eq!(w.effective_loss_rate_at(SimTime::ZERO), 0.0);
        w.set_loss_burst(1.0, Duration::from_millis(1));
        assert_eq!(w.effective_loss_rate_at(SimTime::ZERO), 1.0);
    }

    #[test]
    #[should_panic(expected = "burst loss rate")]
    fn out_of_range_burst_rate_rejected() {
        let mut w = SimWorld::new(testbed::lan());
        w.set_loss_burst(1.5, Duration::from_millis(1));
    }

    #[test]
    fn parity_budget_respects_floor_ceiling_and_field() {
        let mut cfg = testbed::lan();
        cfg.fec_parity = 2;
        cfg.fec_parity_max = 6;
        cfg.fec_adaptive = true;
        let mut w = SimWorld::new(cfg);
        // No losses observed yet: the floor applies.
        assert_eq!(w.parity_budget(10), 2);
        // A high loss estimate pushes the budget up to the ceiling.
        w.loss_ewma.insert(3, 0.9);
        assert_eq!(w.parity_budget(10), 6);
        // A moderate estimate lands between floor and ceiling:
        // ceil(0.2 * 2 * 10) = 4.
        w.loss_ewma.insert(3, 0.2);
        assert_eq!(w.parity_budget(10), 4);
        // The field size always caps the total shard count.
        assert_eq!(w.parity_budget(255), 1);
    }

    #[test]
    fn parity_budget_follows_worst_live_origin_not_the_average() {
        // Regression: the estimator used to be one global scalar, so a
        // single lossy link among clean peers diluted the sample 8×
        // and starved the budget. The worst live origin must govern.
        let mut cfg = testbed::lan();
        cfg.fec_parity = 0;
        cfg.fec_parity_max = 8;
        cfg.fec_adaptive = true;
        let mut w = SimWorld::new(cfg);
        for clean in 0..7 {
            w.loss_ewma.insert(clean, 0.0);
        }
        w.loss_ewma.insert(7, 0.4);
        // ceil(0.4 * 2 * 10) = 8 — the lossy origin alone sets the
        // budget; the seven clean estimates must not average it down
        // (the old global-scalar fold would have seen ~0.05).
        assert_eq!(w.parity_budget(10), 8);
        // A dead daemon's estimate is no longer relevant.
        w.daemons[7].alive = false;
        assert_eq!(w.parity_budget(10), 0);
    }

    #[test]
    fn parity_budget_survives_inverted_clamp_range() {
        // Regression for the clamp panic: `validate()` now rejects
        // floor > ceiling, but a hand-mutated config must still not
        // panic inside the budget math.
        let mut cfg = testbed::lan();
        cfg.fec_parity = 2;
        cfg.fec_parity_max = 6;
        cfg.fec_adaptive = true;
        let mut w = SimWorld::new(cfg);
        w.cfg.fec_parity = 6;
        w.cfg.fec_parity_max = 2;
        w.loss_ewma.insert(0, 0.9);
        // The floor wins over an inverted ceiling; no panic.
        assert_eq!(w.parity_budget(10), 6);
    }

    #[test]
    fn fast_attack_jumps_to_the_sample_within_one_update() {
        // One token visit inside a burst must push the estimate to the
        // observed loss fraction — not alpha-blend its way up.
        let mut cfg = testbed::lan();
        cfg.fec_adaptive = true;
        cfg.fec_fast_attack = true;
        cfg.loss_ewma_alpha = 0.2;
        cfg.fec_parity = 0;
        cfg.fec_parity_max = 16;
        let mut w = SimWorld::new(cfg);
        // Daemon 3 has seen nothing of a 10-message span.
        w.next_seq = 11;
        w.update_loss_ewma(3);
        assert_eq!(w.loss_ewma.get(&3).copied(), Some(1.0));
        // The very next parity budget reflects the burst: one visit,
        // full reaction (ceil(1.0 * 2 * 5) = 10, inside the ceiling).
        assert_eq!(w.parity_budget(5), 10);
        // Decay back down is still gradual (slow-decay EWMA): a clean
        // visit after recovery blends, it does not snap to zero.
        w.daemons[3].contiguous = 10;
        w.update_loss_ewma(3);
        let decayed = w.loss_ewma.get(&3).copied().unwrap();
        assert!(
            (decayed - 0.8).abs() < 1e-12,
            "slow decay expected, got {decayed}"
        );
    }

    #[test]
    fn without_fast_attack_the_estimate_blends() {
        let mut cfg = testbed::lan();
        cfg.fec_adaptive = true;
        cfg.loss_ewma_alpha = 0.2;
        let mut w = SimWorld::new(cfg);
        w.next_seq = 11;
        w.update_loss_ewma(3);
        let e = w.loss_ewma.get(&3).copied().unwrap();
        assert!(
            (e - 0.2).abs() < 1e-12,
            "plain EWMA first sample is alpha * 1.0, got {e}"
        );
    }

    #[test]
    fn gilbert_chain_combines_with_burst_window_via_max() {
        // Satellite interaction test: a fault-plan `set_loss_burst`
        // window layered over an active Gilbert–Elliott chain must
        // max-combine while it lasts and, on expiry, fall back to the
        // *chain's* rate at that instant — not to the Bernoulli base.
        let mut cfg = testbed::lan();
        cfg.loss_rate = 0.0;
        cfg.gilbert = Some(crate::GilbertElliott {
            good_loss: 0.05,
            bad_loss: 0.9,
            // Dwells far longer than the probe horizon: the chain is
            // pinned in its good state for the whole test.
            good_dwell: Duration::from_millis(100_000),
            bad_dwell: Duration::from_millis(1),
            seed: 7,
        });
        let mut w = SimWorld::new(cfg);
        assert_eq!(w.effective_loss_rate_at(SimTime::ZERO), 0.05);
        w.set_loss_burst(0.5, Duration::from_millis(10));
        // Inside the window the burst dominates the good-state rate.
        assert_eq!(w.effective_loss_rate_at(SimTime::ZERO), 0.5);
        // A burst below the chain's rate cannot suppress it.
        w.set_loss_burst(0.01, Duration::from_millis(10));
        assert_eq!(w.effective_loss_rate_at(SimTime::ZERO), 0.05);
        // At expiry the window clears and the chain's rate remains.
        w.set_loss_burst(0.5, Duration::from_millis(10));
        let at_expiry = SimTime::ZERO + Duration::from_millis(10);
        assert_eq!(w.effective_loss_rate_at(at_expiry), 0.05);
        assert!(w.loss_burst.is_none(), "expired burst must be cleared");
    }

    #[test]
    fn byte_granularity_charges_exact_sizes() {
        let mut cfg = testbed::lan();
        assert_eq!(cfg.per_kb, Duration::from_micros(15));
        let w = SimWorld::new(cfg.clone());
        // Historical default: everything rounds up to a whole KB.
        assert_eq!(w.wire_cost(40), Duration::from_micros(15));
        assert_eq!(w.wire_cost(1024), Duration::from_micros(15));
        assert_eq!(w.wire_cost(1025), Duration::from_micros(30));
        cfg.wire_granularity = WireGranularity::Byte;
        let w = SimWorld::new(cfg);
        // Byte mode: proportional, rounded up to a nanosecond.
        assert_eq!(
            w.wire_cost(40),
            Duration::from_nanos((15_000u64 * 40).div_ceil(1024))
        );
        assert_eq!(w.wire_cost(1024), Duration::from_micros(15));
        assert_eq!(w.wire_cost(0), Duration::ZERO);
        // 2048 bytes costs exactly two KB worth in both modes.
        assert_eq!(w.wire_cost(2048), Duration::from_micros(30));
    }
}
