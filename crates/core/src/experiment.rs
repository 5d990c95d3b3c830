//! Experiment drivers: the harness behind every workload.
//!
//! [`secure_world`] is the one function that puts [`SecureMember`]s
//! into a simulated world (LAN or WAN testbed) — for the figures, the
//! scale workload ([`crate::scale`]), and the chaos campaigns and loss
//! sweeps of `gkap-bench` — and every member records into that
//! world's telemetry sink.
//!
//! A [`Group`] is such a world holding one keyed group plus spares;
//! [`Group::apply`] injects one membership event — a [`Step`] — and
//! measures the *total elapsed time* "from the moment the group
//! membership event happens until … the application is notified about
//! the membership change and the new key" (§6) — membership service
//! plus key agreement, in virtual milliseconds — with every member
//! holding that key ([`agreed_secret`]). The `run_*` functions, the
//! traced runs and the churn ablations are all `form` → `apply`.

use std::rc::Rc;

use gkap_bignum::Ubig;
use gkap_gcs::{ClientId, GcsConfig, SimWorld};
use gkap_sim::stats::{Figure, Series, Summary};
use gkap_sim::SimTime;
use gkap_telemetry::{membership, Actor, Event, EventKind, Label, Telemetry};

use crate::cost::OpCounts;
use crate::member::SecureMember;
use crate::protocols::{GkaError, GkaProtocol, ProtocolKind};
use crate::suite::CryptoSuite;

/// Which cryptographic suite an experiment runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteKind {
    /// Real math on a small group, costs charged at 512-bit rates.
    Sim512,
    /// Costs charged at 1024-bit rates.
    Sim1024,
    /// 512-bit rates with DSA signature costs (signature ablation).
    Sim512Dsa,
    /// Zero-cost (correctness-only tests).
    FastZero,
}

impl SuiteKind {
    fn build(self) -> CryptoSuite {
        match self {
            SuiteKind::Sim512 => CryptoSuite::sim_512(),
            SuiteKind::Sim1024 => CryptoSuite::sim_1024(),
            SuiteKind::Sim512Dsa => CryptoSuite::sim_512_dsa(),
            SuiteKind::FastZero => CryptoSuite::fast_zero(),
        }
    }

    /// Index into the per-thread suite cache.
    fn cache_slot(self) -> usize {
        match self {
            SuiteKind::Sim512 => 0,
            SuiteKind::Sim1024 => 1,
            SuiteKind::Sim512Dsa => 2,
            SuiteKind::FastZero => 3,
        }
    }

    /// A shared, per-thread instance of this suite. Building a suite
    /// precomputes fixed-base exponentiation tables and Montgomery
    /// contexts; a multi-group world would otherwise rebuild them per
    /// group. A [`CryptoSuite`] is immutable and holds no RNG state
    /// (modeled signatures derive nonces from the data), so sharing
    /// one instance across groups — and across runs on the same
    /// worker thread — cannot change any result.
    pub fn shared(self) -> Rc<CryptoSuite> {
        thread_local! {
            static CACHE: std::cell::RefCell<[Option<Rc<CryptoSuite>>; 4]> =
                const { std::cell::RefCell::new([None, None, None, None]) };
        }
        CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let slot = &mut cache[self.cache_slot()];
            match slot {
                Some(suite) => Rc::clone(suite),
                None => {
                    let suite = Rc::new(self.build());
                    *slot = Some(Rc::clone(&suite));
                    suite
                }
            }
        })
    }

    /// Figure label ("DH 512 bits" / "DH 1024 bits").
    pub fn label(self) -> &'static str {
        match self {
            SuiteKind::Sim512 => "DH 512 bits",
            SuiteKind::Sim1024 => "DH 1024 bits",
            SuiteKind::Sim512Dsa => "DH 512 bits, DSA signatures",
            SuiteKind::FastZero => "zero-cost",
        }
    }
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// The group communication configuration (testbed).
    pub gcs: GcsConfig,
    /// The cryptographic suite/cost model.
    pub suite: SuiteKind,
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Whether members broadcast key-confirmation digests after each
    /// event (§5; off in the paper's measured configuration).
    pub confirm_keys: bool,
    /// Whether to capture a cross-layer telemetry trace of the run.
    /// Off by default: recording is keyed by virtual time and never
    /// perturbs results, but the event log costs real memory.
    pub telemetry: bool,
}

impl ExperimentConfig {
    /// Zero-cost LAN configuration (fast correctness tests).
    pub fn lan_fast(protocol: ProtocolKind) -> Self {
        ExperimentConfig {
            protocol,
            gcs: gkap_gcs::testbed::lan(),
            suite: SuiteKind::FastZero,
            seed: 0x5eed,
            confirm_keys: false,
            telemetry: false,
        }
    }

    /// The paper's LAN testbed with the given parameter size.
    pub fn lan(protocol: ProtocolKind, suite: SuiteKind) -> Self {
        ExperimentConfig {
            protocol,
            gcs: gkap_gcs::testbed::lan(),
            suite,
            seed: 0x5eed,
            confirm_keys: false,
            telemetry: false,
        }
    }

    /// The paper's WAN testbed.
    pub fn wan(protocol: ProtocolKind, suite: SuiteKind) -> Self {
        ExperimentConfig {
            protocol,
            gcs: gkap_gcs::testbed::wan(),
            suite,
            seed: 0x5eed,
            confirm_keys: false,
            telemetry: false,
        }
    }
}

/// Outcome of a single membership-event measurement.
#[derive(Clone, Debug)]
pub struct EventOutcome {
    /// Whether every member completed and all keys agree.
    pub ok: bool,
    /// Inject → last member's key completion (virtual ms).
    pub elapsed_ms: f64,
    /// Inject → last member's view delivery (virtual ms) — the
    /// membership-service share of the total.
    pub membership_ms: f64,
    /// Aggregate operation counts for the event across all members.
    pub counts: OpCounts,
    /// Group size after the event.
    pub size_after: usize,
}

/// Which member a leave removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaveTarget {
    /// The member in the middle of the view (STR's average case; the
    /// default for every protocol).
    Middle,
    /// The oldest member (view head; CKD's expensive controller-leave
    /// case).
    Oldest,
    /// The newest member (view tail; GDH's controller).
    Newest,
    /// The view position `i mod size`.
    Nth(usize),
}

/// One membership event, resolved against the view it is applied to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// A spare joins.
    Join,
    /// One member leaves.
    Leave(LeaveTarget),
    /// `p` members at evenly spread view positions are cut off at once
    /// (not a contiguous block — network partitions cut across the
    /// logical view).
    Partition(usize),
    /// A previously separate component of `m` spares, with its own
    /// established key, merges in.
    Merge(usize),
    /// The middle member's machine dies, with every client it hosts
    /// (a spare among them can no longer join). The event runs from
    /// the crash: detection timeout, ring reformation and the eviction
    /// membership change included.
    Crash,
}

/// The sink a run records into: a live one when tracing is asked for.
pub(crate) fn telemetry_sink(on: bool) -> Telemetry {
    if on {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// The one function that puts [`SecureMember`]s into a [`SimWorld`]:
/// a world on `gcs`; its sink, live if `telemetry`, which every member
/// records into; one client per id of `clients`, ascending, made by
/// `member(id)` on machine `id % machines` (its world id is its rank
/// in `clients`); the initial view over the first `initial`;
/// quiescence.
///
/// # Panics
///
/// Panics if `clients` does not ascend, or if `initial` is zero or
/// exceeds the number of clients.
pub fn secure_world(
    gcs: GcsConfig,
    telemetry: bool,
    clients: impl IntoIterator<Item = ClientId>,
    initial: usize,
    member: impl Fn(ClientId) -> SecureMember,
) -> SimWorld {
    let machines = gcs.topology.machine_count();
    let mut world = SimWorld::new(gcs);
    world.set_telemetry(telemetry_sink(telemetry));
    let mut last = None;
    for id in clients {
        assert!(last < Some(id), "client ids ascend");
        last = Some(id);
        world.add_client_on(Box::new(member(id)), id % machines);
    }
    world.install_initial_view_of((0..initial).collect());
    world.run_until_quiescent();
    world
}

/// The member rule of the keyed-group harnesses ([`Group`] and
/// [`crate::scale`]): client `i` runs an engine from `factory` with a
/// private seed derived from the run `seed` and `i`, starts keyed from
/// `bootstrap` (`None` runs the real formation protocol) and confirms
/// keys if `confirm_keys`.
pub(crate) fn member_rule<'a>(
    suite: SuiteKind,
    seed: u64,
    bootstrap: Option<u64>,
    confirm_keys: bool,
    factory: &'a dyn Fn() -> Box<dyn GkaProtocol>,
) -> impl Fn(ClientId) -> SecureMember + 'a {
    let suite = suite.shared();
    move |i| {
        let seed = seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9);
        let mut member = SecureMember::with_protocol(factory(), Rc::clone(&suite), seed, bootstrap);
        member.set_key_confirmation(confirm_keys);
        member
    }
}

/// When `members` received the view of `epoch` and its key.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ViewTiming {
    /// Last member's view delivery.
    pub last_view: SimTime,
    /// Last member's key completion.
    pub last_key: SimTime,
    /// The *critical member*: the first, in `members` order, of those
    /// whose key completed last (its activity is the critical path).
    pub critical: ClientId,
    /// Every member completed the key of `epoch`.
    pub complete: bool,
}

/// Folds the view-delivery and key-completion instants of `epoch`
/// over `members` (all [`SecureMember`]s of `world`).
pub(crate) fn view_timing(world: &SimWorld, members: &[ClientId], epoch: u64) -> ViewTiming {
    let mut timing = ViewTiming {
        last_view: SimTime::ZERO,
        last_key: SimTime::ZERO,
        critical: members.first().copied().unwrap_or(0),
        complete: true,
    };
    for &c in members {
        let m = world.client::<SecureMember>(c);
        match m.completion(epoch) {
            Some(t) if t > timing.last_key => (timing.last_key, timing.critical) = (t, c),
            Some(_) => {}
            None => timing.complete = false,
        }
        if let Some(t) = m.view_time(epoch) {
            timing.last_view = timing.last_view.max(t);
        }
    }
    timing
}

/// Why `members` did not agree on the key of an epoch: the first of
/// them, in list order, that breaks [`agreed_secret`]'s rule.
#[derive(Debug, PartialEq, Eq)]
pub enum Disagreement {
    /// No member was listed.
    NoMembers,
    /// The member holds no key for the epoch.
    Unkeyed(ClientId),
    /// The member holds a key but recorded a protocol error.
    ProtocolError(ClientId, GkaError),
    /// The member holds a key other than the first listed member's
    /// (the silent divergence no completion stamp shows).
    Diverged(ClientId),
}

/// The secret the group agreed on for `epoch`: every one of `members`
/// holds a key for it, all the same, and none has recorded a protocol
/// error. This is the one rule of "the group agreed", with or without
/// faults; otherwise the first member that breaks it and how.
///
/// # Errors
///
/// The first listed member without the key, with a recorded protocol
/// error, or with a different key; [`Disagreement::NoMembers`] for an
/// empty list.
pub fn agreed_secret<'w>(
    world: &'w SimWorld,
    members: &[ClientId],
    epoch: u64,
) -> Result<&'w Ubig, Disagreement> {
    let mut agreed = None;
    for &c in members {
        let m = world.client::<SecureMember>(c);
        let secret = m.secret(epoch).ok_or(Disagreement::Unkeyed(c))?;
        if let Some(e) = m.protocol_error() {
            return Err(Disagreement::ProtocolError(c, e.clone()));
        }
        if agreed.is_some_and(|s| s != secret) {
            return Err(Disagreement::Diverged(c));
        }
        agreed = Some(secret);
    }
    agreed.ok_or(Disagreement::NoMembers)
}

/// What `members` spent from `inject` (and the `before` snapshot of
/// their counters) until the last of them held the key of `epoch`.
fn report(
    world: &SimWorld,
    members: &[ClientId],
    epoch: u64,
    inject: SimTime,
    before: &[OpCounts],
) -> (EventOutcome, ViewTiming) {
    let timing = view_timing(world, members, epoch);
    let mut counts = OpCounts::default();
    for (&c, earlier) in members.iter().zip(before) {
        counts.add(&world.client::<SecureMember>(c).counts().since(earlier));
    }
    let outcome = EventOutcome {
        ok: timing.complete && agreed_secret(world, members, epoch).is_ok(),
        elapsed_ms: timing.last_key.as_millis_f64() - inject.as_millis_f64(),
        membership_ms: timing.last_view.as_millis_f64() - inject.as_millis_f64(),
        counts,
        size_after: members.len(),
    };
    (outcome, timing)
}

/// The keyed-group harness: a world whose clients are all
/// [`SecureMember`]s, holding one keyed group plus spares that have
/// never been in a view. Every measured rekey in this crate is
/// [`Group::apply`].
pub struct Group {
    /// The simulated world (clients `0..initial + spares`).
    pub world: SimWorld,
    /// The run seed (a merging component derives its own from it).
    seed: u64,
    /// The spares never yet admitted. They are consumed in id order,
    /// and departed members never rejoin (their protocol state is
    /// stale by design).
    spares: std::ops::Range<ClientId>,
}

impl Group {
    /// Forms a group of clients `0..initial` running `cfg.protocol`,
    /// transparently bootstrapped (the group starts keyed, free of
    /// charge), with `spares` more clients waiting outside it.
    pub fn form(cfg: &ExperimentConfig, initial: usize, spares: usize) -> Self {
        Group::form_with(cfg, initial, spares, Some(cfg.seed), &|| {
            cfg.protocol.create()
        })
    }

    /// [`Group::form`] with the two things a caller may vary: the
    /// `bootstrap` seed (`None` runs the real formation protocol) and
    /// the protocol engine each member gets from `factory`. Returns
    /// once the initial view has quiesced.
    fn form_with(
        cfg: &ExperimentConfig,
        initial: usize,
        spares: usize,
        bootstrap: Option<u64>,
        factory: &dyn Fn() -> Box<dyn GkaProtocol>,
    ) -> Self {
        let member = member_rule(cfg.suite, cfg.seed, bootstrap, cfg.confirm_keys, factory);
        let clients = 0..initial + spares;
        Group {
            world: secure_world(cfg.gcs.clone(), cfg.telemetry, clients, initial, member),
            seed: cfg.seed,
            spares: initial..initial + spares,
        }
    }

    /// Admits the next `k` spares, in id order.
    fn take_spares(&mut self, k: usize) -> Vec<ClientId> {
        assert!(k <= self.spares.len(), "out of spares");
        let first = self.spares.start;
        self.spares.start += k;
        (first..self.spares.start).collect()
    }

    /// Applies one membership event and measures it over every member
    /// of the next view (§6; see the module docs). Runs until the last
    /// of them holds the key — or the world goes quiescent, a protocol
    /// deadlock reported as not `ok` — and no further: back-to-back
    /// calls cascade as they would in a live group.
    ///
    /// # Panics
    ///
    /// Panics if the step would empty the group (a leave from a single
    /// member, a partition of nobody or everybody, a crash among fewer
    /// than three), if a merge is empty, or if the spares run out.
    pub fn apply(&mut self, step: Step) -> EventOutcome {
        self.apply_timed(step).0
    }

    /// [`Group::apply`] plus the timing skeleton a traced run
    /// decomposes: the injection instant and the view's timing.
    fn apply_timed(&mut self, step: Step) -> (EventOutcome, SimTime, ViewTiming) {
        let view = self.world.view().expect("formed group has a view");
        let (members, epoch) = (view.members.clone(), view.id + 1);
        let n = members.len();
        let mut crashed = None;
        let (joined, left) = match step {
            Step::Join => (self.take_spares(1), vec![]),
            Step::Merge(m) => {
                assert!(m > 0, "merge needs a non-empty component");
                let component = self.take_spares(m);
                // They formed a group elsewhere before the network
                // healed.
                for &c in &component {
                    self.world.client_mut::<SecureMember>(c).preseed_component(
                        &component,
                        c,
                        self.seed ^ 0xc0ffee,
                    );
                }
                (component, vec![])
            }
            Step::Leave(target) => {
                assert!(n > 1, "a leave would empty the group");
                let at = match target {
                    LeaveTarget::Middle => n / 2,
                    LeaveTarget::Oldest => 0,
                    LeaveTarget::Newest => n - 1,
                    LeaveTarget::Nth(i) => i % n,
                };
                (vec![], vec![members[at]])
            }
            Step::Partition(p) => {
                assert!(p > 0 && p < n, "a partition of {p} would empty the group");
                let stride = n as f64 / p as f64;
                let mut leaving: Vec<ClientId> = (0..p)
                    .map(|i| members[((i as f64 + 0.5) * stride) as usize % n])
                    .collect();
                leaving.dedup();
                (vec![], leaving)
            }
            Step::Crash => {
                assert!(n >= 3, "crash needs survivors to re-key");
                // One daemon per machine: crashing the victim's
                // machine kills every member it hosts.
                let machine = self.world.client_machine(members[n / 2]);
                crashed = Some(machine);
                let on_it = |&c: &ClientId| self.world.client_machine(c) == machine;
                (vec![], members.iter().copied().filter(on_it).collect())
            }
        };
        // Survivors in view order, then joiners: the order breaks ties
        // for the critical member.
        let wait_for: Vec<ClientId> = members
            .into_iter()
            .filter(|c| !left.contains(c))
            .chain(joined.iter().copied())
            .collect();

        let world = &mut self.world;
        let counts = |&c: &ClientId| *world.client::<SecureMember>(c).counts();
        let before: Vec<OpCounts> = wait_for.iter().map(counts).collect();
        let inject = world.now();
        let group_size = wait_for.len();
        let mark = |world: &SimWorld, at: SimTime, action: Label| {
            world.telemetry().record(|| Event {
                at,
                dur: gkap_sim::Duration::ZERO,
                actor: Actor::World,
                kind: EventKind::membership(action, group_size),
            })
        };
        mark(world, inject, membership::INJECT);
        match crashed {
            Some(machine) => world.inject_crash(machine),
            None => world.inject_change(joined, left),
        }
        let keyed = |w: &SimWorld| {
            wait_for
                .iter()
                .all(|&c| w.client::<SecureMember>(c).completion(epoch).is_some())
        };
        world.run_while(|w| !keyed(w));
        let (outcome, timing) = report(world, &wait_for, epoch, inject, &before);
        mark(world, timing.last_key, membership::KEY_ESTABLISHED);
        (outcome, inject, timing)
    }

    /// Scrambles the group with `k` random leave+join pairs, each left
    /// to quiesce ("Secure Spread must first be run … with a random
    /// sequence of joins and leaves in order to generate a
    /// random-looking tree", §6.1.2). Keeps the member count constant
    /// and consumes `k` spares.
    fn churn(&mut self, k: usize) {
        use gkap_bignum::{RandomSource, SplitMix64};
        let mut rng = SplitMix64::new(self.seed ^ 0xc4u64);
        for step in 0..k {
            let pick = LeaveTarget::Nth(rng.next_u64() as usize + step);
            for event in [Step::Leave(pick), Step::Join] {
                self.apply(event);
                self.world.run_until_quiescent();
            }
        }
    }
}

/// Forms the group an experiment at figure x-coordinate `n` measures
/// `step` on: a join's `n` is the size *after* it, every other
/// event's the size before.
fn form_for(cfg: &ExperimentConfig, n: usize, step: Step) -> Group {
    match step {
        Step::Join => {
            assert!(n >= 2, "join needs an existing group");
            Group::form(cfg, n - 1, 1)
        }
        Step::Merge(m) => Group::form(cfg, n, m),
        _ => Group::form(cfg, n, 0),
    }
}

/// Measures a join: a group of `n - 1` members admits one more.
/// The reported size (figure x-coordinate) is `n`, the size after.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn run_join(cfg: &ExperimentConfig, n: usize) -> EventOutcome {
    form_for(cfg, n, Step::Join).apply(Step::Join)
}

/// Measures a leave from a group of `n` members.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn run_leave(cfg: &ExperimentConfig, n: usize, target: LeaveTarget) -> EventOutcome {
    Group::form(cfg, n, 0).apply(Step::Leave(target))
}

/// The paper's leave measurement: the average case (middle member),
/// with CKD weighting in the controller-leave case at probability
/// `1/n` (§6.1.2).
pub fn run_leave_weighted(cfg: &ExperimentConfig, n: usize) -> EventOutcome {
    let mid = run_leave(cfg, n, LeaveTarget::Middle);
    if cfg.protocol != ProtocolKind::Ckd {
        return mid;
    }
    let ctrl = run_leave(cfg, n, LeaveTarget::Oldest);
    let nf = n as f64;
    EventOutcome {
        ok: mid.ok && ctrl.ok,
        elapsed_ms: (mid.elapsed_ms * (nf - 1.0) + ctrl.elapsed_ms) / nf,
        membership_ms: (mid.membership_ms * (nf - 1.0) + ctrl.membership_ms) / nf,
        counts: mid.counts, // dominant case
        size_after: mid.size_after,
    }
}

/// Measures a partition: `p` members (spread across the view) leave a
/// group of `n` at once.
///
/// # Panics
///
/// Panics if `p >= n` or `p == 0`.
pub fn run_partition(cfg: &ExperimentConfig, n: usize, p: usize) -> EventOutcome {
    Group::form(cfg, n, 0).apply(Step::Partition(p))
}

/// Measures a merge: a previously separate component of `m` members
/// (with its own established key) merges into a group of `n`.
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
pub fn run_merge(cfg: &ExperimentConfig, n: usize, m: usize) -> EventOutcome {
    assert!(n > 0, "merge needs two non-empty groups");
    Group::form(cfg, n, m).apply(Step::Merge(m))
}

/// `run_join` after `churn` random join/leave pairs have scrambled the
/// group state (tree-shape ablation; §6.1.2's "truly fair comparison").
pub fn run_join_churned(cfg: &ExperimentConfig, n: usize, churn: usize) -> EventOutcome {
    run_churned_with_factory(cfg, &|| cfg.protocol.create(), n, churn).0
}

/// `run_leave` (middle member) after churn scrambling.
pub fn run_leave_churned(cfg: &ExperimentConfig, n: usize, churn: usize) -> EventOutcome {
    let mut group = Group::form(cfg, n, churn);
    group.churn(churn);
    group.apply(Step::Leave(LeaveTarget::Middle))
}

/// [`run_join_churned`] with a custom protocol factory (the TGDH
/// AVL-policy ablation). Returns `(join_outcome,
/// tree_height_after_churn)` — height is only populated when the
/// engine is a [`crate::protocols::tgdh::Tgdh`].
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn run_churned_with_factory(
    cfg: &ExperimentConfig,
    factory: &dyn Fn() -> Box<dyn GkaProtocol>,
    n: usize,
    churn: usize,
) -> (EventOutcome, Option<usize>) {
    assert!(n >= 2, "join needs an existing group");
    let mut group = Group::form_with(cfg, n - 1, churn + 1, Some(cfg.seed), factory);
    group.churn(churn);
    let oldest = group.world.view().expect("view").members[0];
    let height = group
        .world
        .client::<SecureMember>(oldest)
        .protocol_as::<crate::protocols::tgdh::Tgdh>()
        .map(|t| t.tree_height());
    (group.apply(Step::Join), height)
}

/// Measures *real* initial key agreement (IKA): `n` members form a
/// group from scratch, running the actual protocol (no transparent
/// bootstrap). Reported time runs from the initial view installation
/// to the last member's key completion.
pub fn run_real_formation(cfg: &ExperimentConfig, n: usize) -> EventOutcome {
    let group = Group::form_with(cfg, n, 0, None, &|| cfg.protocol.create());
    let members: Vec<ClientId> = (0..n).collect();
    let fresh = vec![OpCounts::default(); n];
    report(&group.world, &members, 1, SimTime::ZERO, &fresh).0
}

/// Decomposition of one event's total latency into the paper's §6
/// cost categories, in virtual milliseconds. The four components sum
/// to `elapsed_ms` exactly (the network share is the remainder after
/// accounting for the others on the critical path).
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    /// Inject → last key completion (the figure quantity).
    pub elapsed_ms: f64,
    /// Membership-service share: inject → last view delivery.
    pub membership_ms: f64,
    /// Critical member's charged cryptographic compute.
    pub crypto_ms: f64,
    /// Critical member's non-crypto protocol processing: handler CPU
    /// time plus scheduler queueing, net of the crypto share.
    pub rounds_ms: f64,
    /// Time the critical path spent waiting on the network (and on
    /// other members' compute): the remainder.
    pub network_ms: f64,
}

impl Breakdown {
    /// Sum of the four components (equals `elapsed_ms` by
    /// construction, up to floating-point rounding).
    pub fn total_ms(&self) -> f64 {
        self.membership_ms + self.crypto_ms + self.rounds_ms + self.network_ms
    }
}

/// A fully traced event measurement: the standard outcome, the raw
/// event log, and the latency decomposition.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// The standard measurement outcome.
    pub outcome: EventOutcome,
    /// Every telemetry event captured during the run (all layers).
    pub events: Vec<Event>,
    /// The critical-path latency decomposition.
    pub breakdown: Breakdown,
}

/// Computes the latency decomposition from the event log and the
/// measured timing skeleton (the injection instant and the view's
/// timing).
///
/// The critical member (last key completion) defines the critical
/// path. Within the window `[inject, last_key]`:
/// * `crypto` is the sum of its `CryptoOp` durations;
/// * `rounds` is its `HandlerSpan` busy + queue-wait time net of the
///   crypto share (protocol bookkeeping, serialization, GCS handler
///   work);
/// * `membership` is inject → last view delivery;
/// * `network` is the remainder, so the four always sum to `elapsed`.
///
/// Components are clamped to be non-negative; when the remainder
/// would be negative (compute overlapping the membership window) the
/// deficit is taken out of `rounds` so the sum stays exact.
fn compute_breakdown(events: &[Event], inject: SimTime, t: &ViewTiming) -> Breakdown {
    let lo = inject.as_nanos() as f64;
    let hi = t.last_key.as_nanos() as f64;
    let overlap = |at: SimTime, dur: gkap_sim::Duration| -> f64 {
        let a = at.as_nanos() as f64;
        let b = a + dur.as_nanos() as f64;
        (b.min(hi) - a.max(lo)).max(0.0)
    };
    let mut crypto_ns = 0.0;
    let mut busy_ns = 0.0;
    let mut wait_ns = 0.0;
    let critical = Actor::client(t.critical);
    for ev in events {
        if ev.actor != critical {
            continue;
        }
        match ev.kind {
            EventKind::CryptoOp { .. } => crypto_ns += overlap(ev.at, ev.dur),
            EventKind::HandlerSpan { wait } => {
                busy_ns += overlap(ev.at, ev.dur);
                let at = ev.at.as_nanos() as f64;
                if at >= lo && at <= hi {
                    wait_ns += wait.as_nanos() as f64;
                }
            }
            _ => {}
        }
    }
    let ms = 1.0 / 1_000_000.0;
    let elapsed = (hi - lo) * ms;
    let membership = (t.last_view.as_nanos() as f64 - lo).max(0.0) * ms;
    let mut crypto = crypto_ns * ms;
    let mut rounds = ((busy_ns + wait_ns) * ms - crypto).max(0.0);
    let mut network = elapsed - membership - crypto - rounds;
    if network < 0.0 {
        // Compute overlapped the membership window: absorb the
        // deficit so columns stay non-negative and the sum exact.
        let mut deficit = -network;
        network = 0.0;
        let take = deficit.min(rounds);
        rounds -= take;
        deficit -= take;
        crypto = (crypto - deficit).max(0.0);
    }
    Breakdown {
        elapsed_ms: elapsed,
        membership_ms: membership,
        crypto_ms: crypto,
        rounds_ms: rounds,
        network_ms: network,
    }
}

/// The measurement of `step` at figure x-coordinate `n` with telemetry
/// forced on: the same run [`Group::apply`] makes, plus the event log
/// and the latency breakdown folded from it.
///
/// # Panics
///
/// Panics where [`Group::apply`] does, and for a join at `n < 2`.
pub fn run_traced(cfg: &ExperimentConfig, n: usize, step: Step) -> TraceRun {
    let mut cfg = cfg.clone();
    cfg.telemetry = true;
    let mut group = form_for(&cfg, n, step);
    let (outcome, inject, timing) = group.apply_timed(step);
    let events = group.world.telemetry().take_events();
    let breakdown = compute_breakdown(&events, inject, &timing);
    TraceRun {
        outcome,
        events,
        breakdown,
    }
}

/// [`run_join`] with telemetry forced on: returns the outcome plus
/// the event log and latency breakdown.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn run_join_traced(cfg: &ExperimentConfig, n: usize) -> TraceRun {
    run_traced(cfg, n, Step::Join)
}

/// Runs one experiment grid — every (series, x, repetition) cell —
/// across `jobs` workers and folds it into a figure: one [`Series`]
/// per `series` entry (named by its first field), one point per `xs`
/// entry (plotted at its first field), each the summary of `reps`
/// runs' `elapsed_ms`.
///
/// `cell(series, x, rep)` runs one cell and owns its seed formula, so
/// a seed depends only on cell coordinates. Results are folded in the
/// serial loop's iteration order (Welford summaries are
/// order-sensitive), so the figure is **bit-identical** for every
/// `jobs` value (asserted by the harness's determinism test). The
/// outcomes come back too, in that same (series, x, rep) order, for
/// callers that plot more than `elapsed_ms`.
///
/// # Panics
///
/// If any cell's outcome is not `ok`.
pub fn grid_figure<S: Sync, X: Sync>(
    title: &str,
    series: &[(String, S)],
    xs: &[(f64, X)],
    reps: u32,
    jobs: usize,
    cell: impl Fn(&S, &X, u64) -> EventOutcome + Sync,
) -> (Figure, Vec<EventOutcome>) {
    let reps = reps as usize;
    let per_series = xs.len() * reps;
    let outcomes = crate::par::run_indexed(jobs, series.len() * per_series, |i| {
        let (name, s) = &series[i / per_series];
        let (x, xv) = &xs[i % per_series / reps];
        let rep = i % reps;
        let outcome = cell(s, xv, rep as u64);
        assert!(outcome.ok, "{name} failed at x={x} (rep {rep}) in {title}");
        outcome
    });
    let mut fig = Figure::new(title);
    let mut it = outcomes.iter();
    for (name, _) in series {
        let mut points = Series::new(name.as_str());
        for (x, _) in xs {
            let mut summary = Summary::new();
            for outcome in it.by_ref().take(reps) {
                summary.add(outcome.elapsed_ms);
            }
            points.push(*x, summary);
        }
        fig.push(points);
    }
    (fig, outcomes)
}

/// The series axis of a per-protocol grid: each kind under its paper
/// name.
pub fn protocol_axis(kinds: &[ProtocolKind]) -> Vec<(String, ProtocolKind)> {
    kinds.iter().map(|&k| (k.name().to_string(), k)).collect()
}

/// Builds one figure: elapsed time vs group size for all five
/// protocols plus the membership-service baseline.
///
/// `measure` maps `(config, size)` to an outcome; `sizes` is the
/// x-axis; `reps` runs per point with varied seeds, the (protocol,
/// size, rep) cells fanned across `jobs` workers by [`grid_figure`].
pub fn build_figure_jobs(
    title: &str,
    gcs: &GcsConfig,
    suite: SuiteKind,
    sizes: &[usize],
    reps: u32,
    jobs: usize,
    measure: impl Fn(&ExperimentConfig, usize) -> EventOutcome + Sync,
) -> Figure {
    let kinds = protocol_axis(&ProtocolKind::all());
    let xs: Vec<(f64, usize)> = sizes.iter().map(|&n| (n as f64, n)).collect();
    let (mut fig, outcomes) = grid_figure(title, &kinds, &xs, reps, jobs, |&kind, &size, rep| {
        let cfg = ExperimentConfig {
            protocol: kind,
            gcs: gcs.clone(),
            suite,
            seed: 0x5eed ^ ((rep + 1) << 32) ^ size as u64,
            confirm_keys: false,
            telemetry: false,
        };
        measure(&cfg, size)
    });
    // The baseline pools every protocol's runs at a size, in the same
    // protocol-major order the outcomes are in.
    let reps = reps as usize;
    let mut membership = Series::new("Membership");
    for (xi, (x, _)) in xs.iter().enumerate() {
        let mut summary = Summary::new();
        for ki in 0..kinds.len() {
            let first = (ki * xs.len() + xi) * reps;
            for outcome in &outcomes[first..first + reps] {
                summary.add(outcome.membership_ms);
            }
        }
        membership.push(*x, summary);
    }
    fig.push(membership);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_kinds_build() {
        assert_eq!(SuiteKind::Sim512.build().nominal_bits(), 512);
        assert_eq!(SuiteKind::Sim1024.label(), "DH 1024 bits");
    }

    #[test]
    fn grid_cells_see_their_coordinates_and_fold_in_serial_order() {
        let series = vec![("a".to_string(), 100.0), ("b".to_string(), 200.0)];
        let xs = vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)];
        for jobs in [1, 8] {
            let (fig, outcomes) =
                grid_figure("grid", &series, &xs, 2, jobs, |s, x, rep| EventOutcome {
                    ok: true,
                    elapsed_ms: s + x + rep as f64,
                    membership_ms: 0.0,
                    counts: OpCounts::default(),
                    size_after: 0,
                });
            let flat: Vec<f64> = outcomes.iter().map(|o| o.elapsed_ms).collect();
            assert_eq!(
                flat,
                [
                    110.0, 111.0, 120.0, 121.0, 130.0, 131.0, 210.0, 211.0, 220.0, 221.0, 230.0,
                    231.0
                ]
            );
            assert_eq!(fig.series.len(), 2);
            assert_eq!(fig.series[1].name, "b");
            let b3 = &fig.series[1].points[2];
            assert_eq!(
                (b3.x, b3.summary.mean(), b3.summary.count()),
                (3.0, 230.5, 2)
            );
        }
        // No repetitions: every point exists and is empty.
        let (fig, outcomes) = grid_figure("grid", &series, &xs, 0, 1, |_, _, _| unreachable!());
        assert!(outcomes.is_empty());
        assert_eq!(fig.series[0].points.len(), 3);
    }

    #[test]
    fn config_presets() {
        let lan = ExperimentConfig::lan_fast(ProtocolKind::Bd);
        assert_eq!(lan.gcs.topology.site_count(), 1);
        let wan = ExperimentConfig::wan(ProtocolKind::Gdh, SuiteKind::Sim512);
        assert_eq!(wan.gcs.topology.site_count(), 3);
    }
}
