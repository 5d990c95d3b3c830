//! The multi-group scale workload: N independent groups, each on its
//! own replica of the simulated daemon ring, driven by a
//! deterministic churn schedule whose events are coalesced by the
//! [`crate::batch::EventBatcher`] into one cascaded agreement round
//! per group and window.
//!
//! ## Sharded execution
//!
//! Groups never exchange messages, so the scale workload pins the
//! finest-grained decomposition the interaction graph allows: every
//! group is simulated as a pure function of `(group, seed, config)`
//! on its own token ring, and [`run_shard`] runs one shard of a
//! round-robin partition (group `g` on shard `g % shards`); `repro
//! scale` runs `--jobs` shards on as many worker threads. Because no
//! simulated event ever crosses a group boundary, shards and jobs are
//! pure execution knobs: the canonical group-ascending fold in
//! [`assemble`] makes every observable quantity — counts, latency
//! vectors, kernel ops, metrics, telemetry — bit-identical for any
//! partition and any thread count, by construction rather than by
//! luck.
//!
//! Everything here is a pure function of the [`ScaleConfig`]: the
//! schedule derives from per-group `SplitMix64` streams, batching is
//! deterministic, and each group's world is a deterministic
//! discrete-event simulation — so two runs with the same seed (on any
//! `--jobs` setting) produce identical results byte for
//! byte. A group's world is built like every other workload's, by
//! [`crate::experiment::secure_world`], with the member rule of
//! [`crate::experiment::Group`].

use std::collections::BTreeMap;

use gkap_bignum::stats::KernelOps;
use gkap_gcs::{ClientId, GcsConfig, GroupId};
use gkap_sim::{Duration, RandomSource, SimTime, SplitMix64};
use gkap_telemetry::metrics::{Key, Layer, MetricsHub};
use gkap_telemetry::{membership, Actor, Event, EventKind};

use crate::batch::{ChurnEvent, ChurnKind, EventBatcher, MembershipBatch};
use crate::experiment::{
    agreed_secret, member_rule, secure_world, telemetry_sink, view_timing, SuiteKind,
};
use crate::protocols::ProtocolKind;

/// Configuration of one scale run (one protocol, N groups).
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    /// The protocol every group runs.
    pub protocol: ProtocolKind,
    /// Number of independent groups sharing the ring.
    pub groups: usize,
    /// Initial members per group.
    pub group_size: usize,
    /// Expected churn events per group over the horizon (fractional:
    /// `0.05` gives each group a 5% chance of one event).
    pub churn: f64,
    /// Batching window: joins/leaves of one group arriving within
    /// this much virtual time coalesce into one agreement round.
    /// Zero disables batching (one event per round).
    pub window: Duration,
    /// Virtual-time span over which churn events are scheduled.
    pub horizon: Duration,
    /// Seed for the schedule and all member randomness.
    pub seed: u64,
    /// Crypto suite (shared across all groups via the per-thread
    /// suite cache).
    pub suite: SuiteKind,
    /// Testbed topology and GCS parameters.
    pub gcs: GcsConfig,
    /// Whether to capture a telemetry trace (batching vs transport vs
    /// agreement attribution).
    pub telemetry: bool,
}

impl ScaleConfig {
    /// LAN testbed defaults: 3-member groups, a 5 ms batching window,
    /// a 10 s scheduling horizon, 512-bit suite.
    pub fn lan(protocol: ProtocolKind, groups: usize) -> Self {
        ScaleConfig {
            protocol,
            groups,
            group_size: 3,
            churn: 0.1,
            window: Duration::from_millis(5),
            horizon: Duration::from_millis(10_000),
            seed: 7,
            suite: SuiteKind::Sim512,
            gcs: gkap_gcs::testbed::lan(),
            telemetry: false,
        }
    }
}

/// A generated churn schedule plus the client layout it implies.
#[derive(Clone, Debug)]
pub struct ScaleSchedule {
    /// Every churn event, sorted by (instant, group).
    pub events: Vec<ChurnEvent>,
    /// Group of every client id (base members and spares).
    pub client_group: Vec<GroupId>,
    /// Initial members per group.
    pub group_size: usize,
}

impl ScaleSchedule {
    /// Total clients the world needs (base members plus join spares).
    pub fn total_clients(&self) -> usize {
        self.client_group.len()
    }
}

/// Uniform draw in `[0, 1)` from 53 random bits.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates the deterministic churn schedule for a config. Group `g`
/// owns client ids `[g*size, (g+1)*size)`; joins admit fresh spare
/// clients allocated after all base blocks, in group order. Leaves
/// target a pseudo-random current member but never shrink a group
/// below two members (every protocol needs a peer).
pub fn generate_schedule(cfg: &ScaleConfig) -> ScaleSchedule {
    let base_total = cfg.groups * cfg.group_size;
    let mut client_group: Vec<GroupId> = (0..base_total).map(|i| i / cfg.group_size).collect();
    let mut next_spare = base_total;
    let mut events: Vec<ChurnEvent> = Vec::new();
    for g in 0..cfg.groups {
        let mut rng =
            SplitMix64::new(cfg.seed ^ ((g as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let whole = cfg.churn.floor() as usize;
        let frac = cfg.churn - cfg.churn.floor();
        let count = whole + usize::from(unit(&mut rng) < frac);
        let mut times: Vec<u64> = (0..count)
            .map(|_| rng.next_u64() % cfg.horizon.as_nanos().max(1))
            .collect();
        times.sort_unstable();
        let mut members: Vec<ClientId> = (g * cfg.group_size..(g + 1) * cfg.group_size).collect();
        for t in times {
            let leave = members.len() > 2 && rng.next_u64() & 1 == 1;
            let kind = if leave {
                let idx = (rng.next_u64() % members.len() as u64) as usize;
                ChurnKind::Leave(members.remove(idx))
            } else {
                let c = next_spare;
                next_spare += 1;
                client_group.push(g);
                members.push(c);
                ChurnKind::Join(c)
            };
            events.push(ChurnEvent {
                at: Duration::from_nanos(t),
                group: g,
                kind,
            });
        }
    }
    events.sort_by_key(|e| (e.at, e.group));
    ScaleSchedule {
        events,
        client_group,
        group_size: cfg.group_size,
    }
}

/// The outcome of one scale run.
#[derive(Clone, Debug)]
pub struct ScaleRun {
    /// Raw churn events in the schedule (before batching).
    pub raw_events: usize,
    /// Batches injected (agreement rounds requested).
    pub batches: usize,
    /// Rekeys that completed: every member of the new view obtained
    /// the key of that exact epoch.
    pub rekeys: usize,
    /// Batches whose epoch was superseded by a cascaded later batch
    /// before every member finished (their key arrives with the next
    /// completed epoch instead).
    pub superseded: usize,
    /// Virtual time from the end of group formation to full drain.
    pub elapsed: Duration,
    /// Per completed rekey: injection → last member keyed, ms.
    pub rekey_ms: Vec<f64>,
    /// Per raw event: arrival → batch flush, ms (time spent waiting
    /// in the batcher).
    pub batch_wait_ms: Vec<f64>,
    /// Per completed rekey: injection → last view delivery, ms (the
    /// membership/transport share).
    pub transport_ms: Vec<f64>,
    /// Per completed rekey: last view delivery → last key, ms (the
    /// key-agreement share).
    pub agreement_ms: Vec<f64>,
    /// Every group ends keyed: see [`GroupOutcome::ok`].
    pub ok: bool,
    /// Captured telemetry (empty unless [`ScaleConfig::telemetry`]).
    pub events: Vec<Event>,
    /// Bignum kernel invocations the run performed (exact: the world
    /// runs to completion on one thread, bracketed by
    /// [`gkap_bignum::stats::take`]).
    pub kernel_ops: KernelOps,
    /// Typed metrics captured during the run (always populated: the
    /// workload's own spans are recorded even when event telemetry is
    /// off, so every `repro scale` invocation can write a manifest).
    pub hub: MetricsHub,
}

impl ScaleRun {
    /// Schedule events per virtual second of measured run time.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_nanos() as f64 / 1e9;
        if secs > 0.0 {
            self.raw_events as f64 / secs
        } else {
            0.0
        }
    }
}

/// Exact percentile of a sample set (nearest-rank): `q` in `[0, 1]`.
/// Returns 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs the full pipeline: generate the schedule, coalesce it with
/// the configured window, drive every group's world serially. A
/// sharded run (`gkap_bench::scale`) fans [`run_shard`] out instead
/// and [`assemble`]s the same bytes.
pub fn run(cfg: &ScaleConfig) -> ScaleRun {
    let schedule = generate_schedule(cfg);
    let batches = EventBatcher::new(cfg.window).coalesce(&schedule.events);
    let outcomes = run_shard(cfg, &schedule, &batches, 1, 0);
    assemble(cfg, &schedule, &batches, outcomes)
}

/// Everything one group's simulation produced, on its own ring. A
/// pure function of `(group, seed, config)`: no other group's
/// schedule, no shard assignment, and no thread scheduling can move a
/// single nanosecond in here.
#[derive(Clone, Debug)]
pub struct GroupOutcome {
    /// The group simulated.
    pub group: GroupId,
    /// The group's bootstrap-quiescence instant on its own ring; batch
    /// flush offsets are measured from here.
    pub t0: SimTime,
    /// Virtual time from bootstrap quiescence to full drain.
    pub elapsed: Duration,
    /// Rekeys that completed (see [`ScaleRun::rekeys`]).
    pub rekeys: usize,
    /// Batches superseded by a cascaded later batch.
    pub superseded: usize,
    /// Per completed rekey: injection → last member keyed, ms.
    pub rekey_ms: Vec<f64>,
    /// Per completed rekey: injection → last view delivery, ms.
    pub transport_ms: Vec<f64>,
    /// Per completed rekey: last view delivery → last key, ms.
    pub agreement_ms: Vec<f64>,
    /// The group ends keyed: every member of its final view completed
    /// that view's key, and [`agreed_secret`] holds for it (one key,
    /// no protocol error).
    pub ok: bool,
    /// Bignum kernel invocations this group's run performed.
    pub kernel_ops: KernelOps,
    /// The group's typed metrics (empty unless telemetry is on).
    pub hub: MetricsHub,
    /// The group's telemetry events (empty unless telemetry is on).
    /// Client ids in engine-level events are group-local.
    pub events: Vec<Event>,
}

/// Runs every group of one shard (round-robin partition:
/// `group % shards == shard`), serially, in ascending group order.
/// Worker threads run disjoint shards; the per-group outcomes are
/// identical no matter which thread (or how many shards) ran them.
pub fn run_shard(
    cfg: &ScaleConfig,
    schedule: &ScaleSchedule,
    batches: &[MembershipBatch],
    shards: usize,
    shard: usize,
) -> Vec<GroupOutcome> {
    assert!(shards > 0, "at least one shard required");
    assert!(shard < shards, "shard {shard} out of range ({shards})");
    // Group → its clients (ascending: index order of `client_group`)
    // and group → its batches (ascending flush order: `batches` is
    // sorted by `(flush_at, group)` and filtering preserves it).
    let mut group_clients: Vec<Vec<ClientId>> = vec![Vec::new(); cfg.groups];
    for (c, &g) in schedule.client_group.iter().enumerate() {
        if g < cfg.groups {
            group_clients[g].push(c);
        }
    }
    let mut group_batches: Vec<Vec<&MembershipBatch>> = vec![Vec::new(); cfg.groups];
    for b in batches {
        if b.group < cfg.groups {
            group_batches[b.group].push(b);
        }
    }
    (0..cfg.groups)
        .filter(|g| g % shards == shard)
        .map(|g| run_group(cfg, g, &group_clients[g], &group_batches[g]))
        .collect()
}

/// Simulates one group on a fresh replica of the testbed ring.
///
/// Determinism anchors: member seeds key off *global* client ids,
/// the bootstrap seed off the global group id, and machine placement
/// is `global_id % machines` — exactly the layout the single-world
/// engine used, so a member's compute and contention profile does not
/// depend on how groups are partitioned. The group is its world's
/// group `0`, not `group`: [`secure_world`] installs every initial
/// view in group `0`, and nothing above the GCS reads a view's group
/// id, so a replica's id is not observable.
fn run_group(
    cfg: &ScaleConfig,
    group: GroupId,
    clients: &[ClientId],
    batches: &[&MembershipBatch],
) -> GroupOutcome {
    // Warm the per-thread suite cache BEFORE bracketing kernel ops:
    // building a suite precomputes fixed-base tables and Montgomery
    // contexts, and whether this thread already paid that cost depends
    // on scheduling (`--jobs`), not on the group being measured.
    cfg.suite.shared();
    let kernel_before = gkap_bignum::stats::snapshot();
    // Per-group bootstrap seed: groups start keyed, with distinct keys.
    let bootstrap = cfg.seed ^ ((group as u64 + 1).wrapping_mul(0xa5a5_a5a5));
    let factory = || cfg.protocol.create();
    let member = member_rule(cfg.suite, cfg.seed, Some(bootstrap), false, &factory);
    // The group's base members are its first `group_size` clients: its
    // spares come after every group's base block.
    let ids = clients.iter().copied();
    let mut world = secure_world(cfg.gcs.clone(), cfg.telemetry, ids, cfg.group_size, member);
    // Global → group-local client ids (rank in the ascending list).
    let local = |c: ClientId| clients.binary_search(&c).ok();
    let to_local = |ids: &[ClientId]| ids.iter().filter_map(|&c| local(c)).collect::<Vec<_>>();
    let t0 = world.now();

    // Inject this group's batches at their flush instants.
    let mut injected_at: Vec<SimTime> = Vec::with_capacity(batches.len());
    for batch in batches {
        world.run_until(t0 + batch.flush_at);
        let at = world.now();
        world.inject_change(to_local(&batch.joined), to_local(&batch.left));
        injected_at.push(at);
    }
    world.run_until_quiescent();
    let elapsed = world.now().since(t0);

    let mut out = GroupOutcome {
        group,
        t0,
        elapsed,
        rekeys: 0,
        superseded: 0,
        rekey_ms: Vec::new(),
        transport_ms: Vec::new(),
        agreement_ms: Vec::new(),
        ok: true,
        kernel_ops: KernelOps::default(),
        hub: MetricsHub::new(),
        events: Vec::new(),
    };

    // Attribute each batch to the view it produced: the group's k-th
    // injected batch is its (k+1)-th view (index 0 is the bootstrap).
    let views = world.views_of(0);
    for (k, at) in injected_at.iter().enumerate() {
        let Some(view) = views.get(k + 1) else {
            out.superseded += 1;
            continue;
        };
        let timing = view_timing(&world, &view.members, view.id);
        if !timing.complete {
            out.superseded += 1;
            continue;
        }
        let (last_view, last_key) = (timing.last_view, timing.last_key);
        out.rekeys += 1;
        out.rekey_ms.push(last_key.since(*at).as_millis_f64());
        out.transport_ms.push(last_view.since(*at).as_millis_f64());
        out.agreement_ms
            .push(last_key.since(last_view).as_millis_f64());
        let group_size = view.members.len();
        world.telemetry().record(|| Event {
            at: *at,
            dur: last_view.since(*at),
            actor: Actor::World,
            kind: EventKind::membership(membership::TRANSPORT, group_size),
        });
        world.telemetry().record(|| Event {
            at: last_view,
            dur: last_key.since(last_view),
            actor: Actor::World,
            kind: EventKind::membership(membership::AGREEMENT, group_size),
        });
    }

    // The group must end keyed: its final view complete and one key,
    // error-free, across it — completion alone does not show two keys.
    out.ok = views.last().is_some_and(|view| {
        view_timing(&world, &view.members, view.id).complete
            && agreed_secret(&world, &view.members, view.id).is_ok()
    });
    out.kernel_ops = gkap_bignum::stats::snapshot().since(&kernel_before);
    out.hub = world.telemetry().hub_snapshot();
    out.events = world.telemetry().take_events();
    out
}

/// Folds per-group outcomes into one [`ScaleRun`], in canonical
/// group-ascending order. Every quantity with an order-sensitive
/// representation — latency vectors, floating-point folds, telemetry
/// streams, hub merges — is assembled in this one fixed order, which
/// is what makes the result independent of `shards`, `jobs`, and
/// thread scheduling.
pub fn assemble(
    cfg: &ScaleConfig,
    schedule: &ScaleSchedule,
    batches: &[MembershipBatch],
    mut outcomes: Vec<GroupOutcome>,
) -> ScaleRun {
    outcomes.sort_by_key(|o| o.group);
    let mut run = ScaleRun {
        raw_events: schedule.events.len(),
        batches: batches.len(),
        rekeys: 0,
        superseded: 0,
        elapsed: Duration::ZERO,
        rekey_ms: Vec::new(),
        batch_wait_ms: Vec::new(),
        transport_ms: Vec::new(),
        agreement_ms: Vec::new(),
        ok: true,
        events: Vec::new(),
        kernel_ops: KernelOps::default(),
        hub: MetricsHub::new(),
    };

    // Batch waits are schedule-derived (arrival → flush), computed
    // centrally in global batch order — the same values and order for
    // every shard count.
    for batch in batches {
        for &arrival in &batch.arrivals {
            run.batch_wait_ms
                .push((batch.flush_at.as_nanos() - arrival.as_nanos()) as f64 / 1e6);
        }
    }

    // Per-group quantities fold group-ascending.
    for o in &outcomes {
        run.rekeys += o.rekeys;
        run.superseded += o.superseded;
        run.ok &= o.ok;
        run.rekey_ms.extend_from_slice(&o.rekey_ms);
        run.transport_ms.extend_from_slice(&o.transport_ms);
        run.agreement_ms.extend_from_slice(&o.agreement_ms);
        run.kernel_ops.merge(&o.kernel_ops);
        if o.elapsed > run.elapsed {
            run.elapsed = o.elapsed;
        }
    }

    // Telemetry: per-group streams concatenated group-ascending, then
    // the harness's batch-wait spans (timestamped on each batch's own
    // group clock) appended in global batch order.
    let harness = telemetry_sink(cfg.telemetry);
    let t0_of: BTreeMap<GroupId, SimTime> = outcomes.iter().map(|o| (o.group, o.t0)).collect();
    for batch in batches {
        let Some(&t0) = t0_of.get(&batch.group) else {
            continue;
        };
        let opened = t0 + batch.opened_at;
        let wait = batch.flush_at - batch.opened_at;
        let group_size = batch.events;
        harness.record(|| Event {
            at: opened,
            dur: wait,
            actor: Actor::World,
            kind: EventKind::membership(membership::BATCH_WAIT, group_size),
        });
    }
    for o in &mut outcomes {
        run.events.append(&mut o.events);
    }
    run.events.append(&mut harness.take_events());

    // Workload-level metrics are always populated (cheap aggregates),
    // so every scale invocation can write a manifest without paying
    // for event capture; an enabled telemetry sink contributes its
    // sim/gcs/crypto metrics on top.
    let proto = cfg.protocol.name();
    let hub = &mut run.hub;
    hub.inc(
        Key::new(Layer::Harness, "raw_events").protocol(proto),
        run.raw_events as u64,
    );
    hub.inc(
        Key::new(Layer::Harness, "batches").protocol(proto),
        run.batches as u64,
    );
    hub.inc(
        Key::new(Layer::Harness, "rekeys").protocol(proto),
        run.rekeys as u64,
    );
    hub.inc(
        Key::new(Layer::Harness, "superseded").protocol(proto),
        run.superseded as u64,
    );
    for (name, samples) in [
        ("rekey_ms", &run.rekey_ms),
        ("batch_wait_ms", &run.batch_wait_ms),
        ("transport_ms", &run.transport_ms),
        ("agreement_ms", &run.agreement_ms),
    ] {
        let key = Key::new(Layer::Harness, name).protocol(proto);
        for &ms in samples.iter() {
            hub.observe(key, ms);
        }
    }
    for (name, count) in run.kernel_ops.entries() {
        hub.inc(Key::new(Layer::Crypto, name).protocol(proto), count);
    }
    hub.gauge_set(
        Key::new(Layer::Harness, "virtual_ms").protocol(proto),
        run.elapsed.as_millis_f64(),
    );
    // Merged last, group-ascending: hub keys from the recorder are
    // unlabelled or group-labelled, so the workload's per-protocol
    // keys never collide with them, and the merge itself is
    // associative/commutative (pinned by the metrics proptests).
    for o in &outcomes {
        let _ = run.hub.merge(&o.hub);
    }
    let _ = run.hub.merge(&harness.hub_snapshot());
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_well_formed() {
        let mut cfg = ScaleConfig::lan(ProtocolKind::Bd, 32);
        cfg.churn = 1.5;
        let a = generate_schedule(&cfg);
        let b = generate_schedule(&cfg);
        assert_eq!(a.events.len(), b.events.len());
        assert!(!a.events.is_empty());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.group, y.group);
            assert_eq!(x.kind, y.kind);
        }
        // Sorted by (at, group).
        assert!(a
            .events
            .windows(2)
            .all(|w| (w[0].at, w[0].group) <= (w[1].at, w[1].group)));
        // Every client belongs to a valid group.
        assert!(a.client_group.iter().all(|&g| g < cfg.groups));
    }

    #[test]
    fn percentile_nearest_rank() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.5), 2.0);
        assert_eq!(percentile(&samples, 0.95), 4.0);
        assert_eq!(percentile(&samples, 0.25), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn small_scale_run_completes_keyed() {
        let mut cfg = ScaleConfig::lan(ProtocolKind::Tgdh, 8);
        cfg.suite = SuiteKind::FastZero;
        cfg.churn = 1.0;
        let run = super::run(&cfg);
        assert!(run.ok, "all groups end keyed");
        assert_eq!(run.raw_events, 8);
        assert_eq!(run.rekeys + run.superseded, run.batches);
        assert!(run.rekey_ms.iter().all(|&ms| ms > 0.0));
    }

    /// Shards are pure execution knobs: every observable field of the
    /// run — counts, latency vectors, kernel ops, telemetry stream,
    /// virtual time — matches the serial run exactly, for partitions
    /// that do and do not divide evenly, with the shards run in
    /// reverse order.
    #[test]
    fn shards_run_in_reverse_through_assemble_equal_run() {
        let mut cfg = ScaleConfig::lan(ProtocolKind::Bd, 9);
        cfg.suite = SuiteKind::FastZero;
        cfg.churn = 1.0;
        cfg.telemetry = true;
        let serial = super::run(&cfg);
        let schedule = generate_schedule(&cfg);
        let batches = EventBatcher::new(cfg.window).coalesce(&schedule.events);
        for shards in [2, 4, 9, 16] {
            let outcomes = (0..shards)
                .rev()
                .flat_map(|s| run_shard(&cfg, &schedule, &batches, shards, s))
                .collect();
            let sharded = assemble(&cfg, &schedule, &batches, outcomes);
            assert_eq!(serial.raw_events, sharded.raw_events, "{shards}");
            assert_eq!(serial.batches, sharded.batches, "{shards}");
            assert_eq!(serial.rekeys, sharded.rekeys, "{shards}");
            assert_eq!(serial.superseded, sharded.superseded, "{shards}");
            assert_eq!(serial.elapsed, sharded.elapsed, "{shards}");
            assert_eq!(serial.rekey_ms, sharded.rekey_ms, "{shards}");
            assert_eq!(serial.batch_wait_ms, sharded.batch_wait_ms);
            assert_eq!(serial.transport_ms, sharded.transport_ms);
            assert_eq!(serial.agreement_ms, sharded.agreement_ms);
            assert_eq!(serial.kernel_ops, sharded.kernel_ops, "{shards}");
            assert_eq!(serial.ok, sharded.ok);
            assert_eq!(serial.events.len(), sharded.events.len(), "{shards}");
            assert_eq!(
                gkap_telemetry::jsonl::render_events(&serial.events),
                gkap_telemetry::jsonl::render_events(&sharded.events),
                "telemetry streams must match event for event ({shards} shards)"
            );
        }
    }
}
