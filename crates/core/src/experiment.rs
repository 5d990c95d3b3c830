//! Experiment drivers: the machinery behind every figure of the paper.
//!
//! Each driver builds a simulated world (LAN or WAN testbed), forms a
//! group of the requested size, injects one membership event, and
//! measures the *total elapsed time* "from the moment the group
//! membership event happens until … the application is notified about
//! the membership change and the new key" (§6) — membership service
//! plus key agreement, in virtual milliseconds.

use std::rc::Rc;

use gkap_gcs::{ClientId, GcsConfig, SimWorld};
use gkap_sim::stats::{Figure, Series, Summary};
use gkap_sim::SimTime;
use gkap_telemetry::{Actor, Event, EventKind, Telemetry};

use crate::cost::OpCounts;
use crate::member::SecureMember;
use crate::protocols::ProtocolKind;
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

/// Outcome of group formation (bootstrap) checks.
#[derive(Clone, Debug)]
pub struct FormationOutcome {
    /// All members computed identical group keys.
    pub all_agreed: bool,
    /// Number of members.
    pub size: usize,
}

/// Which member leaves in a leave experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaveTarget {
    /// The member in the middle of the view (STR's average case; the
    /// default for every protocol).
    Middle,
    /// The oldest member (CKD's expensive controller-leave case).
    Oldest,
    /// The newest member (GDH's controller).
    Newest,
}

fn build_world(
    cfg: &ExperimentConfig,
    initial: usize,
    extra: usize,
) -> (SimWorld, Rc<CryptoSuite>) {
    let suite = cfg.suite.shared();
    let mut world = SimWorld::new(cfg.gcs.clone());
    let telemetry = if cfg.telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    world.set_telemetry(telemetry.clone());
    for i in 0..(initial + extra) {
        let mut member = SecureMember::new(
            cfg.protocol,
            Rc::clone(&suite),
            cfg.seed ^ ((i as u64 + 1) * 0x9e37_79b9),
            Some(cfg.seed),
        );
        member.set_key_confirmation(cfg.confirm_keys);
        member.set_telemetry(telemetry.clone());
        world.add_client(Box::new(member));
    }
    world.install_initial_view_of((0..initial).collect());
    world.run_until_quiescent();
    (world, suite)
}

fn snapshot_counts(world: &SimWorld, ids: &[ClientId]) -> Vec<OpCounts> {
    ids.iter()
        .map(|&c| *world.client::<SecureMember>(c).counts())
        .collect()
}

/// Timing skeleton of one measured event, kept alongside the
/// [`EventOutcome`] so traced runs can decompose the latency.
#[derive(Clone, Copy, Debug)]
struct EventTiming {
    /// When the membership change was injected.
    inject: SimTime,
    /// Last member's view delivery.
    last_view: SimTime,
    /// Last member's key completion.
    last_key: SimTime,
    /// The *critical member*: the one whose key completed last (its
    /// activity is the run's critical path).
    critical: ClientId,
}

/// Runs the event measurement: injects a view change and waits for all
/// `wait_for` members to complete epoch 2.
fn measure_event_timed(
    world: &mut SimWorld,
    joined: Vec<ClientId>,
    left: Vec<ClientId>,
    wait_for: Vec<ClientId>,
) -> (EventOutcome, EventTiming) {
    measure_timed(world, |w| w.inject_change(joined, left), wait_for)
}

/// The measurement core, generic over how the membership event is
/// caused: a direct view change, or a fault (daemon crash) whose
/// recovery evicts members. Waits for all `wait_for` members to
/// complete the next epoch.
fn measure_timed(
    world: &mut SimWorld,
    inject_event: impl FnOnce(&mut SimWorld),
    wait_for: Vec<ClientId>,
) -> (EventOutcome, EventTiming) {
    let target_epoch = world.view().expect("initial view installed").id + 1;
    let before = snapshot_counts(world, &wait_for);
    let inject = world.now();
    let group_size = wait_for.len();
    world.telemetry().record(|| Event {
        at: inject,
        dur: gkap_sim::Duration::ZERO,
        actor: Actor::World,
        kind: EventKind::MembershipEvent {
            action: "inject",
            group_size,
        },
    });
    inject_event(world);
    let complete = |w: &SimWorld| {
        wait_for.iter().all(|&c| {
            w.client::<SecureMember>(c)
                .completion(target_epoch)
                .is_some()
        })
    };
    // Run until everyone has the key (or the world goes quiescent —
    // a protocol deadlock).
    world.run_while(|w| !complete(w));
    let done = complete(world);

    let mut counts = OpCounts::default();
    for (i, &c) in wait_for.iter().enumerate() {
        counts.add(&world.client::<SecureMember>(c).counts().since(&before[i]));
    }
    let mut last_key = SimTime::ZERO;
    let mut last_view = SimTime::ZERO;
    let mut critical = wait_for.first().copied().unwrap_or(0);
    let mut agree = done;
    let mut secret: Option<gkap_bignum::Ubig> = None;
    for &c in &wait_for {
        let m = world.client::<SecureMember>(c);
        if m.protocol_error().is_some() {
            agree = false;
        }
        if let Some(t) = m.completion(target_epoch) {
            if t > last_key {
                critical = c;
            }
            last_key = last_key.max(t);
        }
        if let Some(t) = m.view_time(target_epoch) {
            last_view = last_view.max(t);
        }
        match (m.secret(target_epoch), &secret) {
            (Some(s), None) => secret = Some(s.clone()),
            (Some(s), Some(prev)) if s != prev => agree = false,
            (None, _) => agree = false,
            _ => {}
        }
    }
    world.telemetry().record(|| Event {
        at: last_key,
        dur: gkap_sim::Duration::ZERO,
        actor: Actor::World,
        kind: EventKind::MembershipEvent {
            action: "key_established",
            group_size,
        },
    });
    let outcome = EventOutcome {
        ok: agree,
        elapsed_ms: last_key.as_millis_f64() - inject.as_millis_f64(),
        membership_ms: last_view.as_millis_f64() - inject.as_millis_f64(),
        counts,
        size_after: wait_for.len(),
    };
    (
        outcome,
        EventTiming {
            inject,
            last_view,
            last_key,
            critical,
        },
    )
}

/// [`measure_event_timed`] without the timing skeleton.
fn measure_event(
    world: &mut SimWorld,
    joined: Vec<ClientId>,
    left: Vec<ClientId>,
    wait_for: Vec<ClientId>,
) -> EventOutcome {
    measure_event_timed(world, joined, left, wait_for).0
}

/// Forms a group of `n` members and verifies all keys agree.
pub fn run_formation(cfg: &ExperimentConfig, n: usize) -> FormationOutcome {
    let (world, _suite) = build_world(cfg, n, 0);
    let mut all_agreed = true;
    let mut secret: Option<gkap_bignum::Ubig> = None;
    for c in 0..n {
        let m = world.client::<SecureMember>(c);
        match (m.secret(1), &secret) {
            (Some(s), None) => secret = Some(s.clone()),
            (Some(s), Some(prev)) if s != prev => all_agreed = false,
            (None, _) => all_agreed = false,
            _ => {}
        }
    }
    FormationOutcome {
        all_agreed,
        size: n,
    }
}

/// Measures a join: a group of `n - 1` members admits one more.
/// The reported size (figure x-coordinate) is `n`, the size after.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn run_join(cfg: &ExperimentConfig, n: usize) -> EventOutcome {
    assert!(n >= 2, "join needs an existing group");
    let (mut world, _suite) = build_world(cfg, n - 1, 1);
    let joiner = n - 1;
    measure_event(&mut world, vec![joiner], vec![], (0..n).collect())
}

/// Measures a leave from a group of `n` members.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn run_leave(cfg: &ExperimentConfig, n: usize, target: LeaveTarget) -> EventOutcome {
    assert!(n >= 2, "leave needs at least two members");
    let (mut world, _suite) = build_world(cfg, n, 0);
    let view: Vec<ClientId> = world.view().expect("view").members.clone();
    let leaver = match target {
        LeaveTarget::Middle => view[view.len() / 2],
        LeaveTarget::Oldest => view[0],
        LeaveTarget::Newest => *view.last().expect("non-empty"),
    };
    let remaining: Vec<ClientId> = view.into_iter().filter(|&c| c != leaver).collect();
    measure_event(&mut world, vec![], vec![leaver], remaining)
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
/// measured timing skeleton.
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
fn compute_breakdown(events: &[Event], t: &EventTiming) -> Breakdown {
    let lo = t.inject.as_nanos() as f64;
    let hi = t.last_key.as_nanos() as f64;
    let overlap = |at: SimTime, dur: gkap_sim::Duration| -> f64 {
        let a = at.as_nanos() as f64;
        let b = a + dur.as_nanos() as f64;
        (b.min(hi) - a.max(lo)).max(0.0)
    };
    let mut crypto_ns = 0.0;
    let mut busy_ns = 0.0;
    let mut wait_ns = 0.0;
    for ev in events {
        if ev.actor != Actor::Client(t.critical) {
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

/// [`run_join`] with telemetry forced on: returns the outcome plus
/// the event log and latency breakdown.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn run_join_traced(cfg: &ExperimentConfig, n: usize) -> TraceRun {
    assert!(n >= 2, "join needs an existing group");
    let mut cfg = cfg.clone();
    cfg.telemetry = true;
    let (mut world, _suite) = build_world(&cfg, n - 1, 1);
    let joiner = n - 1;
    let (outcome, timing) = measure_event_timed(&mut world, vec![joiner], vec![], (0..n).collect());
    let events = world.telemetry().events();
    let breakdown = compute_breakdown(&events, &timing);
    TraceRun {
        outcome,
        events,
        breakdown,
    }
}

/// [`run_leave`] with telemetry forced on.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn run_leave_traced(cfg: &ExperimentConfig, n: usize, target: LeaveTarget) -> TraceRun {
    assert!(n >= 2, "leave needs at least two members");
    let mut cfg = cfg.clone();
    cfg.telemetry = true;
    let (mut world, _suite) = build_world(&cfg, n, 0);
    let view: Vec<ClientId> = world.view().expect("view").members.clone();
    let leaver = match target {
        LeaveTarget::Middle => view[view.len() / 2],
        LeaveTarget::Oldest => view[0],
        LeaveTarget::Newest => *view.last().expect("non-empty"),
    };
    let remaining: Vec<ClientId> = view.into_iter().filter(|&c| c != leaver).collect();
    let (outcome, timing) = measure_event_timed(&mut world, vec![], vec![leaver], remaining);
    let events = world.telemetry().events();
    let breakdown = compute_breakdown(&events, &timing);
    TraceRun {
        outcome,
        events,
        breakdown,
    }
}

/// Traced daemon crash: from a group of `n`, the middle member's
/// machine dies. Elapsed runs from the crash to the last survivor's
/// key for the eviction view — it includes the crash-detection
/// timeout, ring reformation, and the eviction membership change, so
/// traced summaries can attribute recovery time separately from the
/// agreement itself.
///
/// # Panics
///
/// Panics if `n < 3` (the crash must leave a group behind).
pub fn run_crash_traced(cfg: &ExperimentConfig, n: usize) -> TraceRun {
    assert!(n >= 3, "crash needs survivors to re-key");
    let mut cfg = cfg.clone();
    cfg.telemetry = true;
    let (mut world, _suite) = build_world(&cfg, n, 0);
    let view: Vec<ClientId> = world.view().expect("view").members.clone();
    // One daemon per machine: crashing the victim's machine kills
    // every member it hosts.
    let machine = world.client_machine(view[view.len() / 2]);
    let survivors: Vec<ClientId> = view
        .into_iter()
        .filter(|&c| world.client_machine(c) != machine)
        .collect();
    let (outcome, timing) = measure_timed(&mut world, |w| w.inject_crash(machine), survivors);
    let events = world.telemetry().events();
    let breakdown = compute_breakdown(&events, &timing);
    TraceRun {
        outcome,
        events,
        breakdown,
    }
}

/// Measures a partition: `p` members (spread across the view) leave a
/// group of `n` at once.
///
/// # Panics
///
/// Panics if `p >= n` or `p == 0`.
pub fn run_partition(cfg: &ExperimentConfig, n: usize, p: usize) -> EventOutcome {
    assert!(p > 0 && p < n, "partition must leave a non-empty remainder");
    let (mut world, _suite) = build_world(cfg, n, 0);
    let view: Vec<ClientId> = world.view().expect("view").members.clone();
    // Evict members at evenly spread positions (not a contiguous
    // block — network partitions cut across the logical view).
    let stride = n as f64 / p as f64;
    let mut leaving: Vec<ClientId> = (0..p)
        .map(|i| view[((i as f64 + 0.5) * stride) as usize % n])
        .collect();
    leaving.dedup();
    let remaining: Vec<ClientId> = view.into_iter().filter(|c| !leaving.contains(c)).collect();
    measure_event(&mut world, vec![], leaving, remaining)
}

/// Measures a merge: a previously separate component of `m` members
/// (with its own established key) merges into a group of `n`.
///
/// # Panics
///
/// Panics if `n == 0` or `m == 0`.
pub fn run_merge(cfg: &ExperimentConfig, n: usize, m: usize) -> EventOutcome {
    assert!(n > 0 && m > 0, "merge needs two non-empty groups");
    let (mut world, _suite) = build_world(cfg, n, m);
    let component: Vec<ClientId> = (n..n + m).collect();
    // Pre-seed the merging component's protocol state (they formed a
    // group elsewhere before the network healed).
    let comp_seed = cfg.seed ^ 0xc0ffee;
    for &c in &component {
        world
            .client_mut::<SecureMember>(c)
            .preseed_component(&component, c, comp_seed);
    }
    measure_event(&mut world, component, vec![], (0..n + m).collect())
}

/// Scrambles the group with `churn` random join+leave pairs before an
/// experiment ("Secure Spread must first be run … with a random
/// sequence of joins and leaves in order to generate a random-looking
/// tree", §6.1.2). Keeps the member count constant; returns the ids of
/// the current members afterwards.
fn apply_churn(world: &mut SimWorld, churn: usize, seed: u64) -> Vec<ClientId> {
    use gkap_bignum::{RandomSource, SplitMix64};
    let mut rng = SplitMix64::new(seed ^ 0xc4u64);
    for step in 0..churn {
        let members = world.view().expect("view").members.clone();
        // One member (never the whole group) leaves…
        let leaver = members[(rng.next_u64() as usize + step) % members.len()];
        world.inject_leave(leaver);
        world.run_until_quiescent();
        // …and a fresh client joins (departed members never rejoin:
        // their protocol state is stale by design).
        let fresh = next_unused_client(world);
        world.inject_join(fresh);
        world.run_until_quiescent();
    }
    world.view().expect("view").members.clone()
}

/// The lowest client id that has never been in a view (provisioned by
/// the caller as churn spares).
fn next_unused_client(world: &SimWorld) -> ClientId {
    let members = &world.view().expect("view").members;
    let mut c = 0;
    loop {
        if !members.contains(&c) && world.client::<SecureMember>(c).epoch() == 0 {
            return c;
        }
        c += 1;
    }
}

/// `run_join` after `churn` random join/leave pairs have scrambled the
/// group state (tree-shape ablation; §6.1.2's "truly fair comparison").
pub fn run_join_churned(cfg: &ExperimentConfig, n: usize, churn: usize) -> EventOutcome {
    assert!(n >= 2, "join needs an existing group");
    let (mut world, _suite) = build_world(cfg, n - 1, churn + 1);
    apply_churn(&mut world, churn, cfg.seed);
    let joiner = next_unused_client(&world);
    let members = world.view().expect("view").members.clone();
    let mut wait_for = members;
    wait_for.push(joiner);
    measure_event(&mut world, vec![joiner], vec![], wait_for)
}

/// `run_leave` (middle member) after churn scrambling.
pub fn run_leave_churned(cfg: &ExperimentConfig, n: usize, churn: usize) -> EventOutcome {
    assert!(n >= 2, "leave needs at least two members");
    let (mut world, _suite) = build_world(cfg, n, churn);
    apply_churn(&mut world, churn, cfg.seed);
    let members = world.view().expect("view").members.clone();
    let leaver = members[members.len() / 2];
    let wait_for: Vec<ClientId> = members.into_iter().filter(|&c| c != leaver).collect();
    measure_event(&mut world, vec![], vec![leaver], wait_for)
}

/// Measures *real* initial key agreement (IKA): `n` members form a
/// group from scratch, running the actual protocol (no transparent
/// bootstrap). Reported time runs from the initial view installation
/// to the last member's key completion.
pub fn run_real_formation(cfg: &ExperimentConfig, n: usize) -> EventOutcome {
    let suite = cfg.suite.shared();
    let mut world = SimWorld::new(cfg.gcs.clone());
    let telemetry = if cfg.telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    world.set_telemetry(telemetry.clone());
    for i in 0..n {
        let mut member = SecureMember::new(
            cfg.protocol,
            Rc::clone(&suite),
            cfg.seed ^ ((i as u64 + 1) * 0x9e37_79b9),
            None, // no bootstrap: run the protocol for real
        );
        member.set_telemetry(telemetry.clone());
        world.add_client(Box::new(member));
    }
    let members: Vec<ClientId> = (0..n).collect();
    let before = snapshot_counts(&world, &members);
    world.install_initial_view_of(members.clone());
    world.run_until_quiescent();

    let mut counts = OpCounts::default();
    for (i, &c) in members.iter().enumerate() {
        counts.add(&world.client::<SecureMember>(c).counts().since(&before[i]));
    }
    let mut last_key = SimTime::ZERO;
    let mut last_view = SimTime::ZERO;
    let mut agree = true;
    let mut secret: Option<gkap_bignum::Ubig> = None;
    for &c in &members {
        let m = world.client::<SecureMember>(c);
        if m.protocol_error().is_some() {
            agree = false;
        }
        match m.completion(1) {
            Some(t) => last_key = last_key.max(t),
            None => agree = false,
        }
        if let Some(t) = m.view_time(1) {
            last_view = last_view.max(t);
        }
        match (m.secret(1), &secret) {
            (Some(s), None) => secret = Some(s.clone()),
            (Some(s), Some(prev)) if s != prev => agree = false,
            (None, _) => agree = false,
            _ => {}
        }
    }
    EventOutcome {
        ok: agree,
        elapsed_ms: last_key.as_millis_f64(),
        membership_ms: last_view.as_millis_f64(),
        counts,
        size_after: n,
    }
}

/// Like [`run_join_churned`]/[`run_leave_churned`] but with a custom
/// protocol factory (the TGDH AVL-policy ablation). Returns
/// `(join_outcome, leave_outcome, tree_height_after_churn)` — height
/// is only populated when the engine is a [`crate::protocols::tgdh::Tgdh`].
pub fn run_churned_with_factory(
    cfg: &ExperimentConfig,
    factory: &dyn Fn() -> Box<dyn crate::protocols::GkaProtocol>,
    n: usize,
    churn: usize,
) -> (EventOutcome, Option<usize>) {
    let suite = cfg.suite.shared();
    let mut world = SimWorld::new(cfg.gcs.clone());
    let extra = churn + 1;
    for i in 0..(n - 1 + extra) {
        let member = SecureMember::with_protocol(
            factory(),
            Rc::clone(&suite),
            cfg.seed ^ ((i as u64 + 1) * 0x9e37_79b9),
            Some(cfg.seed),
        );
        world.add_client(Box::new(member));
    }
    world.install_initial_view_of((0..n - 1).collect());
    world.run_until_quiescent();
    apply_churn(&mut world, churn, cfg.seed);
    let members = world.view().expect("view").members.clone();
    let height = world
        .client::<SecureMember>(members[0])
        .protocol_as::<crate::protocols::tgdh::Tgdh>()
        .map(|t| t.tree_height());
    let joiner = next_unused_client(&world);
    let mut wait_for = members;
    wait_for.push(joiner);
    let outcome = measure_event(&mut world, vec![joiner], vec![], wait_for);
    (outcome, height)
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
