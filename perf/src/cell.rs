//! One full-stack cell driven by hand through the layers' public API:
//! `SimWorld::new` → `SecureMember::new`/`add_client` →
//! `install_initial_view_of` and stepping to quiescence →
//! `inject_change` and stepping until every member holds the next key →
//! read keys and counts. Each phase is a span, with the exact count
//! deltas attached at the same boundary.
//!
//! The event set-ups mirror `gkap_core::experiment::{run_join,
//! run_leave, run_partition, run_merge}`; the traced `paper_figs` pass
//! checks that a cell's virtual latency equals the library's, so a
//! drift between the two is a hard failure rather than a silent skew.

use std::rc::Rc;

use gkap_bignum::stats::KernelOps;
use gkap_bignum::Ubig;
use gkap_core::cost::OpCounts;
use gkap_core::protocols::ProtocolKind;
use gkap_core::suite::CryptoSuite;
use gkap_core::{AgreementPhase, SecureMember};
use gkap_gcs::{ClientId, GcsConfig, SimWorld, WorldStats};
use gkap_sim::SimTime;

use crate::span::{SpanId, Tracer};
use crate::workloads::{kernel_counts, op_counts, world_counts};

/// The membership event a cell measures. Sizes follow the figures'
/// convention: `n` is the x-coordinate the library would plot.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// `n - 1` members admit one more.
    Join,
    /// The member at this position of the view leaves a group of `n`.
    Leave(usize),
    /// This many members, spread across the view, leave at once.
    Partition(usize),
    /// A separately keyed component of this many members merges into
    /// a group of `n`.
    Merge(usize),
}

/// Everything that defines one cell.
#[derive(Clone, Debug)]
pub struct CellSpec<'a> {
    /// Protocol under test.
    pub kind: ProtocolKind,
    /// Testbed and GCS parameters.
    pub gcs: &'a GcsConfig,
    /// The crypto suite (shared across cells).
    pub suite: &'a Rc<CryptoSuite>,
    /// Seed of all member randomness.
    pub seed: u64,
    /// Group size (see [`Op`]).
    pub n: usize,
    /// The measured event.
    pub op: Op,
}

/// What a cell produced.
#[derive(Clone, Debug)]
pub struct CellOut {
    /// Every waiting member completed and all keys agree.
    pub ok: bool,
    /// Inject → last member keyed, virtual ms.
    pub elapsed_ms: f64,
    /// Operation counts of the event, summed over waiting members.
    pub counts: OpCounts,
    /// Engine counters of the whole cell (formation + event).
    pub stats: WorldStats,
    /// Kernel invocations of the whole cell.
    pub kernel: KernelOps,
    /// `SimWorld::step` calls that did work.
    pub steps: u64,
    /// Agreement restarts, summed over waiting members.
    pub restarts: u64,
    /// Waiting members that ended in `GivenUp`.
    pub given_up: u64,
    /// The agreed group secret.
    pub secret: Option<Ubig>,
    /// Host seconds inside `formation` and `rekey` (the part of the
    /// cell where the harness cannot open spans).
    pub stack_s: f64,
}

/// Steps the world until it is quiescent; returns the steps taken.
pub fn step_to_quiescence(world: &mut SimWorld) -> u64 {
    let mut steps = 0;
    while world.step() {
        steps += 1;
    }
    steps
}

/// Runs one cell under `parent`.
pub fn run_cell(spec: &CellSpec<'_>, tr: &mut Tracer, parent: Option<SpanId>) -> CellOut {
    let n = spec.n;
    let (initial, extra) = match spec.op {
        Op::Join => (n - 1, 1),
        Op::Leave(_) | Op::Partition(_) => (n, 0),
        Op::Merge(m) => (n, m),
    };
    let label = format!("{} n={n} {:?}", spec.kind.name(), spec.op);
    let cell = tr.open(parent, "cell", &label);
    let kernel_before = gkap_bignum::stats::snapshot();

    // world_build: the world, its members, their wiring.
    let span = tr.open(Some(cell), "world_build", "");
    let mut world = SimWorld::new(spec.gcs.clone());
    for i in 0..(initial + extra) {
        let member = SecureMember::new(
            spec.kind,
            Rc::clone(spec.suite),
            spec.seed ^ ((i as u64 + 1) * 0x9e37_79b9),
            Some(spec.seed),
        );
        world.add_client(Box::new(member));
    }
    tr.close(span, Vec::new());

    // formation: the first view and its (transparently bootstrapped) key.
    let span = tr.open(Some(cell), "formation", "");
    let t_stack = std::time::Instant::now();
    world.install_initial_view_of((0..initial).collect());
    let mut steps = step_to_quiescence(&mut world);
    let mut stack_s = t_stack.elapsed().as_secs_f64();
    let formation_kernel = gkap_bignum::stats::snapshot().since(&kernel_before);
    let mut counts = kernel_counts(&formation_kernel).to_vec();
    counts.extend(world_counts(world.stats()));
    counts.push(("gcs.steps", steps));
    tr.close(span, counts);

    // rekey: the measured membership event.
    let view: Vec<ClientId> = world
        .view()
        .expect("initial view installed")
        .members
        .clone();
    let (joined, left, wait_for): (Vec<ClientId>, Vec<ClientId>, Vec<ClientId>) = match spec.op {
        Op::Join => (vec![n - 1], vec![], (0..n).collect()),
        Op::Leave(pos) => {
            let leaver = view[pos.min(view.len() - 1)];
            (
                vec![],
                vec![leaver],
                view.iter().copied().filter(|&c| c != leaver).collect(),
            )
        }
        Op::Partition(p) => {
            let stride = n as f64 / p as f64;
            let mut leaving: Vec<ClientId> = (0..p)
                .map(|i| view[((i as f64 + 0.5) * stride) as usize % n])
                .collect();
            leaving.dedup();
            let rest = view
                .iter()
                .copied()
                .filter(|c| !leaving.contains(c))
                .collect();
            (vec![], leaving, rest)
        }
        Op::Merge(m) => {
            let component: Vec<ClientId> = (n..n + m).collect();
            for &c in &component {
                world.client_mut::<SecureMember>(c).preseed_component(
                    &component,
                    c,
                    spec.seed ^ 0xc0ffee,
                );
            }
            (component, vec![], (0..n + m).collect())
        }
    };
    let span = tr.open(Some(cell), "rekey", "");
    let t_stack = std::time::Instant::now();
    let stats_before = world.stats().clone();
    let kernel_mid = gkap_bignum::stats::snapshot();
    let target_epoch = world.view().expect("initial view installed").id + 1;
    let before: Vec<OpCounts> = wait_for
        .iter()
        .map(|&c| *world.client::<SecureMember>(c).counts())
        .collect();
    let inject = world.now();
    world.inject_change(joined, left);
    let complete = |w: &SimWorld| {
        wait_for.iter().all(|&c| {
            w.client::<SecureMember>(c)
                .completion(target_epoch)
                .is_some()
        })
    };
    let mut rekey_steps = 0;
    while !complete(&world) && world.step() {
        rekey_steps += 1;
    }
    steps += rekey_steps;
    stack_s += t_stack.elapsed().as_secs_f64();
    let mut boundary = kernel_counts(&gkap_bignum::stats::snapshot().since(&kernel_mid)).to_vec();
    let s = world.stats();
    boundary.extend([
        (
            "gcs.agreed_messages",
            s.agreed_messages - stats_before.agreed_messages,
        ),
        (
            "gcs.payload_bytes",
            s.payload_bytes - stats_before.payload_bytes,
        ),
        ("gcs.steps", rekey_steps),
    ]);
    tr.close(span, boundary);

    // collect: read keys, completion instants and counters back out.
    let span = tr.open(Some(cell), "collect", "");
    let mut out = CellOut {
        ok: complete(&world),
        elapsed_ms: 0.0,
        counts: OpCounts::default(),
        stats: world.stats().clone(),
        kernel: KernelOps::default(),
        steps,
        restarts: 0,
        given_up: 0,
        secret: None,
        stack_s,
    };
    let mut last_key = SimTime::ZERO;
    for (i, &c) in wait_for.iter().enumerate() {
        let m = world.client::<SecureMember>(c);
        out.counts.add(&m.counts().since(&before[i]));
        out.restarts += m.restarts();
        if m.phase() == AgreementPhase::GivenUp {
            out.given_up += 1;
        }
        if m.protocol_error().is_some() {
            out.ok = false;
        }
        if let Some(t) = m.completion(target_epoch) {
            last_key = last_key.max(t);
        }
        match (m.secret(target_epoch), &out.secret) {
            (Some(s), None) => out.secret = Some(s.clone()),
            (Some(s), Some(prev)) if s != prev => out.ok = false,
            (None, _) => out.ok = false,
            _ => {}
        }
    }
    out.elapsed_ms = last_key.as_millis_f64() - inject.as_millis_f64();
    out.kernel = gkap_bignum::stats::snapshot().since(&kernel_before);
    tr.close(span, op_counts(&out.counts).to_vec());
    tr.close(cell, Vec::new());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gkap_core::experiment::{self, ExperimentConfig, LeaveTarget, SuiteKind};

    /// The hand-driven cell reproduces the library drivers' virtual
    /// latency and operation counts exactly.
    #[test]
    fn hand_driven_cells_match_the_library_drivers() {
        let suite = SuiteKind::Sim512.shared();
        let gcs = gkap_gcs::testbed::lan();
        for kind in ProtocolKind::all() {
            let cfg = ExperimentConfig::lan(kind, SuiteKind::Sim512);
            let spec = |n, op| CellSpec {
                kind,
                gcs: &gcs,
                suite: &suite,
                seed: cfg.seed,
                n,
                op,
            };
            let mut tr = Tracer::enabled();
            let cases = [
                (
                    run_cell(&spec(6, Op::Join), &mut tr, None),
                    experiment::run_join(&cfg, 6),
                ),
                (
                    run_cell(&spec(6, Op::Leave(3)), &mut tr, None),
                    experiment::run_leave(&cfg, 6, LeaveTarget::Middle),
                ),
                (
                    run_cell(&spec(8, Op::Partition(4)), &mut tr, None),
                    experiment::run_partition(&cfg, 8, 4),
                ),
                (
                    run_cell(&spec(4, Op::Merge(3)), &mut tr, None),
                    experiment::run_merge(&cfg, 4, 3),
                ),
            ];
            for (mine, theirs) in cases {
                assert!(mine.ok && theirs.ok, "{kind}");
                assert_eq!(
                    mine.elapsed_ms.to_bits(),
                    theirs.elapsed_ms.to_bits(),
                    "{kind}"
                );
                assert_eq!(mine.counts, theirs.counts, "{kind}");
            }
            // cell → {world_build, formation, rekey, collect}, four times.
            assert_eq!(tr.spans().len(), 4 * 5);
        }
    }
}
