//! Cross-layer telemetry for the simulated group key agreement stack.
//!
//! Every quantity in this crate is keyed by **virtual** time
//! ([`gkap_sim::SimTime`]): recording an event never advances the
//! simulation clock, so an instrumented run produces bit-identical
//! results to an uninstrumented one. The paper's analysis (§6)
//! repeatedly decomposes total join/leave latency into membership
//! time, key-agreement rounds and cryptographic compute; the
//! [`Event`] stream captured here is exactly the evidence needed to
//! reproduce that decomposition for any simulated run.
//!
//! # Architecture
//!
//! * [`Telemetry`] is a cheaply-cloneable handle that is **disabled by
//!   default**. When disabled, every record call is a single `Option`
//!   check on a `None` — no event is constructed (all recording APIs
//!   take closures), no allocation happens, and virtual time is
//!   untouched.
//! * When enabled, the handle shares a [`Recorder`] holding the event
//!   log and a typed [`metrics::MetricsHub`] (counters, gauges and
//!   histograms keyed by layer).
//! * [`jsonl`] renders the captured stream as one JSON object per line
//!   — the schema is documented on [`jsonl::event_to_json`].
//!
//! # Event layout
//!
//! A traced run holds every event it records, so an [`Event`] is kept
//! to 40 bytes: [`Actor`] ids and the id/count payloads are `u32`
//! (narrowed, checked, by the constructors such as [`Actor::client`]
//! and [`EventKind::membership`]), and every string payload is a
//! [`Label`] — one thin pointer to a `&'static str`. The membership
//! and fault vocabularies are the [`Label`] consts of [`membership`]
//! and [`fault`].
//!
//! The simulation is single-threaded (a discrete-event loop), so the
//! shared state is `Rc<RefCell<…>>`, not a lock.
//!
//! # Span taxonomy
//!
//! | kind | layer | meaning |
//! |------|-------|---------|
//! | `MembershipEvent` | harness | membership change injected / completed |
//! | `ProtocolRound` | protocol driver | a numbered round of a GKA protocol started by a member |
//! | `CryptoOp` | crypto suite | one charged primitive (modexp, sign, …) with its virtual duration |
//! | `TokenRotation` | GCS engine | the ring token completed a full rotation |
//! | `IdleRotations` | GCS engine | `count` consecutive rotations of a quiet ring, skipped by the engine and recorded as one event (`dur` spans them all) |
//! | `Retransmit` | GCS engine | a daemon answered a missed-sequence retransmission request |
//! | `FecRepair` | GCS engine | a daemon reconstructed a missing message from FEC parity shards |
//! | `Sequenced` | GCS engine | a message obtained its Agreed-order sequence number |
//! | `Delivered` | GCS engine | a payload was delivered to a client |
//! | `ViewInstalled` | GCS engine | a daemon installed a membership view |
//! | `HandlerSpan` | CPU model | a client handler occupied a core (`dur`), after queueing (`wait`) |
//! | `MessageSend` | protocol driver | a protocol message entered the transport |
//! | `Fault` | chaos layer | a fault-injection or recovery action (crash, heal, restart, abort) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use gkap_sim::{Duration, SimTime};

pub mod jsonl;
pub mod metrics;

use metrics::{Key, Layer, MetricsHub};

/// Narrows an id or count to the `u32` an event stores — the one
/// `usize → u32` conversion of the event types.
///
/// # Panics
///
/// Panics if `n` exceeds `u32::MAX`: no simulated world holds four
/// billion clients, daemons or members.
#[inline]
fn narrow(n: usize) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("telemetry id or count {n} exceeds u32::MAX"))
}

/// A stable snake_case (or protocol-name) label an event carries: a
/// thin pointer to a `&'static str`, so it costs 8 bytes where a
/// `&'static str` costs 16. Labels compare by their text.
#[derive(Clone, Copy, Debug)]
pub struct Label(&'static &'static str);

impl Label {
    /// The label for `text`; `Label::new(&"crash")` in a const.
    pub const fn new(text: &'static &'static str) -> Self {
        Label(text)
    }

    /// The label's text.
    #[inline]
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Label {}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// The `action`s of [`EventKind::MembershipEvent`].
pub mod membership {
    use super::Label;

    /// The harness injected a membership change (`group_size`: the
    /// members that must key it).
    pub const INJECT: Label = Label::new(&"inject");
    /// The last of those members established the new key.
    pub const KEY_ESTABLISHED: Label = Label::new(&"key_established");
    /// A member received a view (`group_size`: the view's size).
    pub const VIEW_DELIVERED: Label = Label::new(&"view_delivered");
    /// A scale batch's membership service span, from injection to the
    /// last member's view (`dur`).
    pub const TRANSPORT: Label = Label::new(&"transport");
    /// A scale batch's key agreement span, from the last view to the
    /// last key (`dur`).
    pub const AGREEMENT: Label = Label::new(&"agreement");
    /// A scale batch's wait from opening to flush (`dur`;
    /// `group_size`: the events it batched).
    pub const BATCH_WAIT: Label = Label::new(&"batch_wait");
}

/// The `action`s of [`EventKind::Fault`].
pub mod fault {
    use super::Label;

    /// A daemon died (`target`: the daemon).
    pub const CRASH: Label = Label::new(&"crash");
    /// The survivors detected a crash: ring reformed, token regenerated
    /// (`target`: the daemon).
    pub const CRASH_DETECTED: Label = Label::new(&"crash_detected");
    /// A temporary loss-rate override began (`target`: the rate in
    /// percent).
    pub const LOSS_BURST: Label = Label::new(&"loss_burst");
    /// Members were partitioned away (`target`: how many).
    pub const PARTITION: Label = Label::new(&"partition");
    /// Partitioned members rejoined (`target`: how many).
    pub const HEAL: Label = Label::new(&"heal");
    /// A view superseded a member's in-flight agreement (`target`: the
    /// member).
    pub const ABORT: Label = Label::new(&"abort");
    /// The member restarted the aborted agreement (`target`: the
    /// member).
    pub const RESTART: Label = Label::new(&"restart");
    /// The member's restart budget was exhausted (`target`: the
    /// member).
    pub const GIVE_UP: Label = Label::new(&"give_up");
}

/// Which component produced an event. Plain `u32` indices (not the
/// `gkap-gcs` id aliases) so this crate stays at the bottom of the
/// dependency stack; [`Actor::client`] and [`Actor::daemon`] build
/// them from those ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Actor {
    /// The experiment harness itself.
    World,
    /// A client (group member process), by client id.
    Client(u32),
    /// A GCS daemon, by daemon id.
    Daemon(u32),
    /// A machine (CPU model), by machine id.
    Machine(u32),
}

impl Actor {
    /// The client with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds `u32::MAX`.
    #[inline]
    pub fn client(id: usize) -> Self {
        Actor::Client(narrow(id))
    }

    /// The daemon with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds `u32::MAX`.
    #[inline]
    pub fn daemon(id: usize) -> Self {
        Actor::Daemon(narrow(id))
    }
}

/// The cryptographic primitive charged by the cost model.
/// `OpCounts::bump` in `gkap-core` maps each kind onto its counter
/// (`ModMul` and `RecvOverhead` have none), so telemetry tallies can be
/// reconciled against the paper's Table 1 operation counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CryptoOpKind {
    /// Full-width modular exponentiation.
    Exp,
    /// Short-exponent modular exponentiation (e.g. RSA verify).
    SmallExp,
    /// Modular multiplication.
    ModMul,
    /// Modular inversion of an exponent.
    Inverse,
    /// Digital signature generation.
    Sign,
    /// Signature verification.
    Verify,
    /// Symmetric crypto / hashing work, per block.
    Symmetric,
    /// Per-message receive bookkeeping charged by the session layer.
    RecvOverhead,
}

impl CryptoOpKind {
    /// Stable lowercase name used in JSONL output and metric keys.
    pub fn as_str(self) -> &'static str {
        match self {
            CryptoOpKind::Exp => "exp",
            CryptoOpKind::SmallExp => "small_exp",
            CryptoOpKind::ModMul => "modmul",
            CryptoOpKind::Inverse => "inverse",
            CryptoOpKind::Sign => "sign",
            CryptoOpKind::Verify => "verify",
            CryptoOpKind::Symmetric => "symmetric",
            CryptoOpKind::RecvOverhead => "recv_overhead",
        }
    }
}

/// Transport class of a protocol message send (reconciles against the
/// `multicast`/`unicast` message counts of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendClass {
    /// Agreed- or FIFO-ordered multicast to the group.
    Multicast,
    /// Point-to-point message.
    Unicast,
}

impl SendClass {
    /// Stable lowercase name used in JSONL output and metric keys.
    pub fn as_str(self) -> &'static str {
        match self {
            SendClass::Multicast => "multicast",
            SendClass::Unicast => "unicast",
        }
    }
}

/// Structured payload of one telemetry event. See the module docs for
/// the taxonomy table.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A membership change or a span of one. `action` is one of the
    /// [`membership`] consts: `inject`, `key_established`,
    /// `view_delivered`, `transport`, `agreement`, `batch_wait`.
    MembershipEvent {
        /// What happened.
        action: Label,
        /// Group size after the change.
        group_size: u32,
    },
    /// A member started round `round` of `protocol`.
    ProtocolRound {
        /// Protocol name (`"GDH"`, `"TGDH"`, …).
        protocol: Label,
        /// 1-based round number within the current membership event.
        round: u32,
    },
    /// A charged cryptographic primitive; the event's `dur` is the
    /// virtual CPU time the cost model charged for it.
    CryptoOp {
        /// Which primitive.
        op: CryptoOpKind,
        /// Modulus size in bits (0 where not applicable).
        bits: u32,
    },
    /// The ring token completed a full rotation.
    TokenRotation {
        /// Rotation ordinal since simulation start.
        rotation: u64,
    },
    /// `count` consecutive full rotations of a quiet ring — nothing to
    /// sequence, deliver, recover or install, every daemon alive —
    /// which the engine replayed instead of stepping. Stands for the
    /// `count` [`EventKind::TokenRotation`]s with ordinals `first..`
    /// that stepping records at the same actor, evenly spaced over
    /// the event's `dur` from its `at`: rotation `first + i` at
    /// `at + i * dur / count`.
    IdleRotations {
        /// Ordinal of the first rotation of the stretch.
        first: u64,
        /// Number of rotations (at least one). A quiet run longer than
        /// `u32::MAX` rotations is recorded as consecutive stretches.
        count: u32,
    },
    /// A retransmission of sequence `seq` was sent to a daemon that
    /// missed it.
    Retransmit {
        /// The Agreed sequence number being retransmitted.
        seq: u64,
    },
    /// A daemon reconstructed a missing message locally from the
    /// parity shards of its FEC-coded fan-out generation, without a
    /// retransmission round trip.
    FecRepair {
        /// The Agreed sequence number reconstructed.
        seq: u64,
    },
    /// A message obtained Agreed sequence number `seq`.
    Sequenced {
        /// The assigned sequence number.
        seq: u64,
        /// The sending client.
        sender: u32,
    },
    /// A payload was delivered to the actor client.
    Delivered {
        /// The original sender.
        sender: u32,
        /// Service class name (`"agreed"`, `"fifo"`, …).
        service: Label,
    },
    /// A daemon installed a view.
    ViewInstalled {
        /// Monotonic view identifier.
        view_id: u64,
    },
    /// A client handler occupied a CPU core for `dur`, having waited
    /// `wait` in the scheduler queue after becoming ready.
    HandlerSpan {
        /// Time spent queued behind other work on the machine.
        wait: Duration,
    },
    /// A protocol message entered the transport.
    MessageSend {
        /// Multicast or unicast.
        class: SendClass,
    },
    /// A fault-injection or recovery action from the chaos layer.
    ///
    /// `action` is one of the [`fault`] consts: `crash`,
    /// `crash_detected`, `loss_burst`, `partition`, `heal`, `abort`,
    /// `restart`, `give_up`.
    Fault {
        /// What happened.
        action: Label,
        /// The affected entity (daemon id, client id, a count or a
        /// percentage — whichever the action concerns).
        target: u32,
    },
}

impl EventKind {
    /// A [`EventKind::MembershipEvent`].
    ///
    /// # Panics
    ///
    /// Panics if `group_size` exceeds `u32::MAX`.
    #[inline]
    pub fn membership(action: Label, group_size: usize) -> Self {
        EventKind::MembershipEvent {
            action,
            group_size: narrow(group_size),
        }
    }

    /// A [`EventKind::Sequenced`].
    ///
    /// # Panics
    ///
    /// Panics if `sender` exceeds `u32::MAX`.
    #[inline]
    pub fn sequenced(seq: u64, sender: usize) -> Self {
        EventKind::Sequenced {
            seq,
            sender: narrow(sender),
        }
    }

    /// A [`EventKind::Delivered`].
    ///
    /// # Panics
    ///
    /// Panics if `sender` exceeds `u32::MAX`.
    #[inline]
    pub fn delivered(sender: usize, service: Label) -> Self {
        EventKind::Delivered {
            sender: narrow(sender),
            service,
        }
    }

    /// A [`EventKind::Fault`].
    ///
    /// # Panics
    ///
    /// Panics if `target` exceeds `u32::MAX`.
    #[inline]
    pub fn fault(action: Label, target: usize) -> Self {
        EventKind::Fault {
            action,
            target: narrow(target),
        }
    }

    /// Stable snake_case discriminant name (JSONL `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MembershipEvent { .. } => "membership",
            EventKind::ProtocolRound { .. } => "protocol_round",
            EventKind::CryptoOp { .. } => "crypto_op",
            EventKind::TokenRotation { .. } => "token_rotation",
            EventKind::IdleRotations { .. } => "idle_rotations",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::FecRepair { .. } => "fec_repair",
            EventKind::Sequenced { .. } => "sequenced",
            EventKind::Delivered { .. } => "delivered",
            EventKind::ViewInstalled { .. } => "view_installed",
            EventKind::HandlerSpan { .. } => "handler_span",
            EventKind::MessageSend { .. } => "message_send",
            EventKind::Fault { .. } => "fault",
        }
    }
}

/// One recorded event/span. `dur` is zero for instantaneous events; for
/// spans (`CryptoOp`, `HandlerSpan`) `at` is the span start and
/// `at + dur` the end, all in virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Virtual start time.
    pub at: SimTime,
    /// Virtual duration (zero for point events).
    pub dur: Duration,
    /// Producing component.
    pub actor: Actor,
    /// Structured payload.
    pub kind: EventKind,
}

/// Owner of the captured event log and metrics. Usually accessed
/// through a [`Telemetry`] handle.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    events: Vec<Event>,
    hub: MetricsHub,
}

impl Recorder {
    /// Appends an event and bumps the per-kind counters that every
    /// event maintains automatically in the typed
    /// [`metrics::MetricsHub`] (run manifests, `bench-diff`).
    pub fn push(&mut self, ev: Event) {
        match &ev.kind {
            EventKind::CryptoOp { op, .. } => {
                let key = Key::new(Layer::Crypto, op.as_str());
                self.hub.inc(key, 1);
                self.hub.observe(key, ev.dur.as_millis_f64());
            }
            EventKind::MessageSend { class } => {
                self.hub.inc(Key::new(Layer::Protocol, class.as_str()), 1);
            }
            EventKind::ProtocolRound { protocol, .. } => {
                let key = Key::new(Layer::Protocol, "rounds").protocol(protocol.as_str());
                self.hub.inc(key, 1);
            }
            EventKind::TokenRotation { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "token_rotation"), 1);
            }
            EventKind::IdleRotations { count, .. } => {
                self.hub
                    .inc(Key::new(Layer::Gcs, "token_rotation"), u64::from(*count));
            }
            EventKind::Retransmit { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "retransmit"), 1);
            }
            EventKind::FecRepair { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "fec_repair"), 1);
            }
            EventKind::Sequenced { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "sequenced"), 1);
            }
            EventKind::Delivered { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "delivered"), 1);
            }
            EventKind::ViewInstalled { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "view_installed"), 1);
            }
            EventKind::HandlerSpan { wait } => {
                self.hub
                    .observe(Key::new(Layer::Sim, "busy_ms"), ev.dur.as_millis_f64());
                self.hub
                    .observe(Key::new(Layer::Sim, "wait_ms"), wait.as_millis_f64());
            }
            EventKind::MembershipEvent { action, .. } => {
                let key = Key::new(Layer::Harness, action.as_str());
                self.hub.inc(key, 1);
                if ev.dur > Duration::ZERO {
                    self.hub.observe(key, ev.dur.as_millis_f64());
                }
            }
            EventKind::Fault { action, .. } => {
                self.hub.inc(Key::new(Layer::Gcs, action.as_str()), 1);
            }
        }
        self.events.push(ev);
    }

    /// The captured events, in recording order (which is nondecreasing
    /// in `at` because the simulation processes events in time order).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The typed metrics hub.
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }
}

/// Cheap handle to a shared [`Recorder`]; `None` means disabled.
///
/// All recording goes through closures so that a disabled handle does
/// no work beyond one branch:
///
/// ```
/// use gkap_telemetry::{Actor, Event, EventKind, Telemetry};
/// use gkap_sim::{Duration, SimTime};
///
/// let off = Telemetry::disabled();
/// off.record(|| unreachable!("closure never runs when disabled"));
///
/// let on = Telemetry::enabled();
/// on.record(|| Event {
///     at: SimTime::ZERO,
///     dur: Duration::ZERO,
///     actor: Actor::World,
///     kind: EventKind::TokenRotation { rotation: 1 },
/// });
/// assert_eq!(on.with(|r| r.events().len()), Some(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Telemetry {
    /// A disabled handle (the default): recording is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh enabled handle with an empty recorder.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Recorder::default()))),
        }
    }

    /// Whether events are being captured.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the event produced by `f` — `f` only runs when enabled.
    #[inline]
    pub fn record(&self, f: impl FnOnce() -> Event) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().push(f());
        }
    }

    /// Runs `f` against the recorder when enabled, returning its result.
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> Option<R> {
        self.inner.as_ref().map(|rec| f(&rec.borrow()))
    }

    /// Moves the captured events out (empty when disabled), leaving
    /// the log empty and the metrics hub as it was — for a caller that
    /// is done with the world the log came from.
    pub fn take_events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map(|rec| std::mem::take(&mut rec.borrow_mut().events))
            .unwrap_or_default()
    }

    /// Adds `by` to a typed counter. [`Key`] construction is
    /// allocation-free, so callers build keys unconditionally; a
    /// disabled handle pays one branch.
    #[inline]
    pub fn metric_inc(&self, key: Key, by: u64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().hub.inc(key, by);
        }
    }

    /// Records the sample produced by `f` into a typed histogram —
    /// `f` only runs when enabled.
    #[inline]
    pub fn metric_observe(&self, key: Key, f: impl FnOnce() -> f64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().hub.observe(key, f());
        }
    }

    /// Records the sample produced by `f` `n` times into a typed
    /// histogram, as `n` calls of [`Telemetry::metric_observe`] would —
    /// `f` only runs when enabled.
    #[inline]
    pub fn metric_observe_n(&self, key: Key, n: u64, f: impl FnOnce() -> f64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().hub.observe_n(key, f(), n);
        }
    }

    /// Raises a typed gauge to the value produced by `f` (peak
    /// tracking) — `f` only runs when enabled.
    #[inline]
    pub fn gauge_max(&self, key: Key, f: impl FnOnce() -> f64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().hub.gauge_max(key, f());
        }
    }

    /// Current value of a typed counter (zero when disabled or absent).
    pub fn metric(&self, key: Key) -> u64 {
        self.with(|r| r.hub.counter(key)).unwrap_or(0)
    }

    /// Clones the typed metrics hub (empty when disabled).
    pub fn hub_snapshot(&self) -> MetricsHub {
        self.with(|r| r.hub.clone()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::ZERO + Duration::from_millis(at_ms),
            dur: Duration::from_micros(250),
            actor: Actor::Client(3),
            kind,
        }
    }

    #[test]
    fn disabled_handle_never_runs_closures() {
        let t = Telemetry::disabled();
        t.record(|| panic!("must not run"));
        assert!(!t.is_enabled());
        assert!(t.take_events().is_empty());
        assert_eq!(t.metric(Key::new(Layer::Crypto, "exp")), 0);
    }

    #[test]
    fn enabled_handle_shares_one_recorder() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.record(|| {
            ev(
                1,
                EventKind::CryptoOp {
                    op: CryptoOpKind::Exp,
                    bits: 512,
                },
            )
        });
        t.record(|| {
            ev(
                2,
                EventKind::CryptoOp {
                    op: CryptoOpKind::Exp,
                    bits: 512,
                },
            )
        });
        assert_eq!(t.take_events().len(), 2);
        let exp = Key::new(Layer::Crypto, "exp");
        assert_eq!(t.metric(exp), 2);
        // The auto-histogram observed both durations.
        let observed = t.hub_snapshot().histogram(exp).map(|h| h.summary().count);
        assert_eq!(observed, Some(2));
    }

    #[test]
    fn per_kind_counters_accumulate() {
        let t = Telemetry::enabled();
        t.record(|| ev(0, EventKind::TokenRotation { rotation: 1 }));
        t.record(|| ev(1, EventKind::Retransmit { seq: 9 }));
        t.record(|| ev(1, EventKind::FecRepair { seq: 10 }));
        t.record(|| ev(1, EventKind::Sequenced { seq: 9, sender: 0 }));
        t.record(|| {
            ev(
                2,
                EventKind::MessageSend {
                    class: SendClass::Unicast,
                },
            )
        });
        let gcs = |name| t.metric(Key::new(Layer::Gcs, name));
        assert_eq!(gcs("token_rotation"), 1);
        assert_eq!(gcs("retransmit"), 1);
        assert_eq!(gcs("fec_repair"), 1);
        assert_eq!(gcs("sequenced"), 1);
        assert_eq!(t.metric(Key::new(Layer::Protocol, "unicast")), 1);
        assert_eq!(t.metric(Key::new(Layer::Protocol, "multicast")), 0);
        // A skipped stretch counts every rotation it stands for.
        t.record(|| {
            ev(
                3,
                EventKind::IdleRotations {
                    first: 2,
                    count: 40,
                },
            )
        });
        assert_eq!(gcs("token_rotation"), 41);
        assert_eq!(t.take_events().len(), 6, "one event, not forty");
    }

    #[test]
    fn an_event_is_forty_bytes() {
        use std::mem::size_of;
        assert_eq!(size_of::<Label>(), 8);
        assert_eq!(size_of::<Actor>(), 8);
        assert_eq!(size_of::<EventKind>(), 16);
        assert_eq!(size_of::<Event>(), 40);
    }

    #[test]
    fn labels_are_their_text() {
        assert_eq!(fault::CRASH.as_str(), "crash");
        assert_eq!(fault::CRASH.to_string(), "crash");
        // Equal text is an equal label, whichever static holds it.
        assert_eq!(Label::new(&"crash"), fault::CRASH);
        assert_ne!(fault::CRASH, fault::CRASH_DETECTED);
    }

    #[test]
    fn ids_narrow_up_to_u32_max() {
        let max = u32::MAX as usize;
        assert_eq!(Actor::daemon(max), Actor::Daemon(u32::MAX));
        assert_eq!(
            EventKind::sequenced(9, max),
            EventKind::Sequenced {
                seq: 9,
                sender: u32::MAX
            }
        );
    }

    #[test]
    #[should_panic(expected = "exceeds u32::MAX")]
    fn an_id_beyond_u32_panics() {
        let _ = Actor::client(u32::MAX as usize + 1);
    }

    #[test]
    fn taking_the_events_keeps_the_hub() {
        let t = Telemetry::enabled();
        t.record(|| ev(0, EventKind::TokenRotation { rotation: 1 }));
        assert_eq!(t.take_events().len(), 1);
        assert!(t.take_events().is_empty());
        assert_eq!(t.metric(Key::new(Layer::Gcs, "token_rotation")), 1);
        assert!(Telemetry::disabled().take_events().is_empty());
    }
}
