//! `scale_churn` — `gkap_bench::scale::run_all_timed` with 1000 groups
//! × 3 members, churn 1.0, a 5 ms batching window and all five
//! protocols on `min(2, cores)` shards and worker threads: ≈ 5000
//! rekeys per pass.
//!
//! Why it exists: many tiny groups make world construction,
//! `core::batch`, multi-group bookkeeping and the `par`/`shard`
//! fan-out matter (bignum is under half of host time); it is the only
//! multi-threaded workload. `trace_on` is its telemetry-on twin.

use std::rc::Rc;

use gkap_bench::scale::{run_all, run_all_timed, scale_csv, ScaleOptions};
use gkap_core::batch::{EventBatcher, MembershipBatch};
use gkap_core::experiment::SuiteKind;
use gkap_core::protocols::ProtocolKind;
use gkap_core::scale::{generate_schedule, ScaleConfig};
use gkap_core::SecureMember;
use gkap_gcs::{ClientId, SimWorld};
use gkap_sim::{Duration, SimTime};

use super::{check_golden, kernel_counts, world_counts, Layers, Pass, Workload};
use crate::span::{SpanId, Tracer};

/// Groups per protocol in a pass.
const GROUPS: usize = 1000;

/// The workload, set up.
pub struct ScaleChurn {
    seed: u64,
    jobs: usize,
    /// Max ÷ mean shard busy time of the latest library pass.
    shard_imbalance: f64,
}

fn options(groups: usize, churn: f64, seed: u64, jobs: usize) -> ScaleOptions {
    ScaleOptions {
        groups,
        churn,
        window_ms: 5.0,
        protocol: None,
        seed,
        jobs,
        shards: jobs,
    }
}

impl ScaleChurn {
    /// Set-up: the suite, and a warm-up at the committed golden's size
    /// (64 groups, churn 0.1), which at the default seed must render
    /// `results/scale_g64_s7.csv`.
    pub fn new(seed: u64) -> Result<Self, String> {
        let jobs = crate::harness::host_parallelism().min(2);
        let small = options(64, 0.1, seed, jobs);
        let csv = scale_csv(&small, &run_all(&small));
        check_golden(
            seed,
            "scale_csv at 64 groups",
            &csv,
            "scale_g64_s7.csv",
            str::to_string,
        )?;
        Ok(ScaleChurn {
            seed,
            jobs,
            shard_imbalance: 0.0,
        })
    }
}

impl Workload for ScaleChurn {
    fn jobs(&self) -> usize {
        self.jobs
    }

    fn pass(&mut self) -> Pass {
        let opts = options(GROUPS, 1.0, self.seed, self.jobs);
        let outcome = run_all_timed(&opts);
        let busy: Vec<f64> = outcome.shard_busy_ns.iter().map(|&ns| ns as f64).collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        self.shard_imbalance = busy.iter().copied().fold(0.0, f64::max) / mean;
        let mut pass = Pass::default();
        let mut kernel = gkap_bignum::stats::KernelOps::default();
        let (mut raw_events, mut batches, mut superseded) = (0, 0, 0);
        for row in &outcome.rows {
            let run = &row.run;
            pass.virt_ms.extend(&run.rekey_ms);
            pass.attempted += run.batches as u64;
            // A superseded batch was absorbed by a later cascade, which
            // is by design; anything else that produced no rekey failed.
            pass.failed += (run.batches - run.rekeys - run.superseded) as u64 + u64::from(!run.ok);
            kernel.merge(&run.kernel_ops);
            raw_events += run.raw_events as u64;
            batches += run.batches as u64;
            superseded += run.superseded as u64;
        }
        pass.push_kernel(&kernel);
        pass.exact.extend([
            ("core.raw_events", raw_events),
            ("core.batches", batches),
            ("core.superseded", superseded),
        ]);
        pass.artifacts
            .push(("scale.csv", scale_csv(&opts, &outcome.rows)));
        pass
    }

    fn verify(&mut self, _first: &Pass) -> Result<(), String> {
        // Shards and jobs are pure execution knobs: 1 and 2 must render
        // the same bytes.
        let serial = options(64, 1.0, self.seed, 1);
        let mut split = options(64, 1.0, self.seed, 2);
        split.jobs = self.jobs;
        let a = scale_csv(&serial, &run_all(&serial));
        let b = scale_csv(&split, &run_all(&split));
        if a != b {
            let line = a.lines().zip(b.lines()).position(|(x, y)| x != y);
            return Err(format!(
                "determinism: 64 groups render differently on 1 and 2 shards (first at line {:?})",
                line.map(|l| l + 1)
            ));
        }
        Ok(())
    }

    fn traced_pass(
        &mut self,
        tr: &mut Tracer,
        pass: SpanId,
        layers: &mut Layers,
        reference: &Pass,
    ) -> Result<(), String> {
        // Shard attribution comes from the untraced library pass; the
        // hand-driven pass below is serial.
        layers.set("gcs.shard_imbalance", self.shard_imbalance);
        let render = tr.open(Some(pass), "render", "");
        std::hint::black_box(reference.artifacts[0].1.len());
        tr.close(render, Vec::new());

        // Every group by hand, serially, the way `run_group` drives it.
        let mut virt = Vec::new();
        let (mut raw_events, mut batch_count, mut wire_bytes) = (0usize, 0usize, 0u64);
        for kind in ProtocolKind::all() {
            let mut cfg = ScaleConfig::lan(kind, GROUPS);
            cfg.churn = 1.0;
            cfg.window = Duration::from_millis(5);
            cfg.seed = self.seed;
            let prep = tr.open(Some(pass), "schedule", kind.name());
            let schedule = generate_schedule(&cfg);
            let batches = EventBatcher::new(cfg.window).coalesce(&schedule.events);
            tr.close(prep, Vec::new());
            raw_events += schedule.events.len();
            batch_count += batches.len();
            let mut group_clients: Vec<Vec<ClientId>> = vec![Vec::new(); GROUPS];
            for (c, &g) in schedule.client_group.iter().enumerate() {
                group_clients[g].push(c);
            }
            let mut group_batches: Vec<Vec<&MembershipBatch>> = vec![Vec::new(); GROUPS];
            for b in &batches {
                group_batches[b.group].push(b);
            }
            for g in 0..GROUPS {
                let out = run_group(&cfg, g, &group_clients[g], &group_batches[g], tr, pass);
                virt.extend(out.rekey_ms);
                layers.add("core.superseded", out.superseded as f64);
                layers.add("gcs.steps", out.steps as f64);
                layers.add_counts(&world_counts(&out.stats));
                layers.add_counts(&kernel_counts(&out.kernel));
                layers.add_counts(&super::op_counts(&out.ops));
                wire_bytes += out.stats.payload_bytes + out.stats.parity_bytes_sent;
            }
        }
        layers.set("core.batch_ratio", raw_events as f64 / batch_count as f64);
        layers.set(
            "wire_kb_per_op",
            wire_bytes as f64 / 1000.0 / virt.len() as f64,
        );
        super::same_virtual_results(&virt, &reference.virt_ms)
    }
}

struct GroupOut {
    rekey_ms: Vec<f64>,
    superseded: usize,
    steps: u64,
    stats: gkap_gcs::WorldStats,
    kernel: gkap_bignum::stats::KernelOps,
    ops: gkap_core::OpCounts,
}

/// One group on its own ring replica, by hand: the public-API mirror
/// of `gkap_core::scale`'s private `run_group`.
fn run_group(
    cfg: &ScaleConfig,
    group: usize,
    clients: &[ClientId],
    batches: &[&MembershipBatch],
    tr: &mut Tracer,
    pass: SpanId,
) -> GroupOut {
    let cell = tr.open(
        Some(pass),
        "cell",
        &format!("{} g{group}", cfg.protocol.name()),
    );
    let kernel_before = gkap_bignum::stats::snapshot();
    let span = tr.open(Some(cell), "world_build", "");
    let suite = SuiteKind::Sim512.shared();
    let mut world = SimWorld::new(cfg.gcs.clone());
    let machines = cfg.gcs.topology.machine_count();
    for &c in clients {
        let member = SecureMember::new(
            cfg.protocol,
            Rc::clone(&suite),
            cfg.seed ^ ((c as u64 + 1).wrapping_mul(0x9e37_79b9)),
            Some(cfg.seed ^ ((group as u64 + 1).wrapping_mul(0xa5a5_a5a5))),
        );
        world.add_client_on(Box::new(member), c % machines);
    }
    tr.close(span, Vec::new());

    let local = |c: ClientId| clients.binary_search(&c).ok();
    let to_local = |ids: &[ClientId]| ids.iter().filter_map(|&c| local(c)).collect::<Vec<_>>();
    let span = tr.open(Some(cell), "formation", "");
    let base: Vec<ClientId> = (group * cfg.group_size..(group + 1) * cfg.group_size)
        .filter_map(local)
        .collect();
    world.install_initial_view_in(group, base);
    let mut steps = crate::cell::step_to_quiescence(&mut world);
    let t0 = world.now();
    tr.close(span, Vec::new());

    let span = tr.open(Some(cell), "rekey", "");
    let mut injected_at: Vec<SimTime> = Vec::with_capacity(batches.len());
    for batch in batches {
        world.run_until(t0 + batch.flush_at);
        injected_at.push(world.now());
        world.inject_change_in(group, to_local(&batch.joined), to_local(&batch.left));
    }
    steps += crate::cell::step_to_quiescence(&mut world);
    let kernel = gkap_bignum::stats::snapshot().since(&kernel_before);
    let mut counts = kernel_counts(&kernel).to_vec();
    counts.push(("gcs.steps", steps));
    tr.close(span, counts);

    let span = tr.open(Some(cell), "collect", "");
    let mut out = GroupOut {
        rekey_ms: Vec::new(),
        superseded: 0,
        steps,
        stats: world.stats().clone(),
        kernel,
        ops: gkap_core::OpCounts::default(),
    };
    for c in 0..clients.len() {
        out.ops.add(world.client::<SecureMember>(c).counts());
    }
    let views = world.views_of(group);
    for (k, at) in injected_at.iter().enumerate() {
        let done = views.get(k + 1).and_then(|view| {
            view.members
                .iter()
                .map(|&m| world.client::<SecureMember>(m).completion(view.id))
                .try_fold(SimTime::ZERO, |last, t| t.map(|t| last.max(t)))
        });
        match done {
            Some(last_key) => out.rekey_ms.push(last_key.since(*at).as_millis_f64()),
            None => out.superseded += 1,
        }
    }
    tr.close(span, Vec::new());
    tr.close(cell, Vec::new());
    out
}
