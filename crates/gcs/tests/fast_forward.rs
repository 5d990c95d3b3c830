//! The idle-token fast-forward must be invisible: a `run_until` over a
//! long idle stretch produces exactly the same clock, stats, and
//! future event timing as stepping every token hop.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, SimWorld, View};
use gkap_sim::{Duration, SimTime};

/// Records view installs and deliveries with their exact instants.
#[derive(Default)]
struct Witness {
    views: Vec<(SimTime, Vec<usize>)>,
    deliveries: Vec<(SimTime, usize)>,
    send_on_view: bool,
    /// 100-byte multicasts sent on every view.
    burst_on_view: usize,
}

impl Client for Witness {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.views.push((ctx.now(), view.members.clone()));
        if self.send_on_view {
            ctx.multicast_agreed(vec![1u8, 2, 3]);
        }
        for i in 0..self.burst_on_view {
            ctx.multicast_agreed(vec![i as u8; 100]);
        }
    }

    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.deliveries.push((ctx.now(), msg.sender));
    }
}

fn build_world(fast_forward: bool) -> SimWorld {
    let mut world = SimWorld::new(testbed::lan());
    world.set_idle_fast_forward(fast_forward);
    for i in 0..8 {
        let w = Witness {
            send_on_view: i % 2 == 0,
            ..Witness::default()
        };
        world.add_client(Box::new(w));
    }
    world.install_initial_view_of((0..6).collect());
    world
}

/// Drives one world through idle stretches punctuated by membership
/// churn, returning the full observable trace.
#[allow(clippy::type_complexity)]
fn drive(
    mut world: SimWorld,
) -> (
    SimTime,
    u64,
    u64,
    Vec<(SimTime, Vec<usize>)>,
    Vec<(SimTime, usize)>,
) {
    world.run_until_quiescent();
    let t0 = world.now();
    // A long idle stretch (hundreds of token rotations), then churn.
    world.run_until(t0 + Duration::from_millis(500));
    world.inject_change(vec![6], vec![0]);
    world.run_until_quiescent();
    // Another idle stretch that ends mid-rotation (odd offset).
    let t1 = world.now();
    world.run_until(t1 + Duration::from_nanos(123_456_789));
    world.inject_change(vec![7], vec![]);
    world.run_until_quiescent();
    let t2 = world.now();
    world.run_until(t2 + Duration::from_millis(50));
    let mut views = Vec::new();
    let mut deliveries = Vec::new();
    for c in 0..8 {
        let w = world.client::<Witness>(c);
        views.extend(w.views.iter().cloned());
        deliveries.extend(w.deliveries.iter().cloned());
    }
    (
        world.now(),
        world.stats().token_rotations,
        world.stats().agreed_messages,
        views,
        deliveries,
    )
}

#[test]
fn fast_forward_is_equivalent_to_stepping() {
    let fast = drive(build_world(true));
    let slow = drive(build_world(false));
    assert_eq!(fast.0, slow.0, "clock must agree after idle stretches");
    assert_eq!(fast.1, slow.1, "token rotations must agree");
    assert_eq!(fast.2, slow.2, "sequenced message count must agree");
    assert_eq!(fast.3, slow.3, "view installs must agree exactly");
    assert_eq!(fast.4, slow.4, "deliveries must agree exactly");
}

#[test]
fn fast_forward_skips_are_cheap_and_exact_over_long_horizons() {
    // A 10 s idle horizon at a ~650 us rotation period is ~15k
    // rotations; fast-forwarded, the clock and rotation count still
    // match the analytic expectation derived from a stepped short run.
    let mut world = build_world(true);
    world.run_until_quiescent();
    let t0 = world.now();
    let r0 = world.stats().token_rotations;
    world.run_until(t0 + Duration::from_millis(10_000));
    let elapsed = world.now().since(t0);
    assert!(elapsed <= Duration::from_millis(10_000));
    // The world kept rotating the whole time.
    let rotations = world.stats().token_rotations - r0;
    assert!(
        rotations > 10_000,
        "rotations skipped analytically: {rotations}"
    );
    // And it is still live: churn after the skip completes normally.
    world.inject_change(vec![6], vec![]);
    world.run_until_quiescent();
    assert_eq!(world.view().map(|v| v.members.len()), Some(7));
}

/// What the adaptive-FEC world below leaves behind: `(end of run,
/// parity shards sent, parity bytes sent)` and every delivery.
type ParityOutcome = ((SimTime, u64, u64), Vec<(SimTime, usize)>);

/// A lossy LAN under the loss-adaptive parity controller: every member
/// multicasts three times per view, so the bootstrap raises the loss
/// estimate; then 50 ms of idle ring, one join, and the same traffic
/// again in the new view.
fn adaptive_parity_after_idle(fast_forward: bool) -> ParityOutcome {
    let mut cfg = testbed::lan();
    cfg.loss_rate = 0.05;
    cfg.fec_adaptive = true;
    let mut world = SimWorld::new(cfg);
    world.set_idle_fast_forward(fast_forward);
    for _ in 0..8 {
        world.add_client(Box::new(Witness {
            burst_on_view: 3,
            ..Witness::default()
        }));
    }
    world.install_initial_view_of((0..6).collect());
    world.run_until_quiescent();
    let t0 = world.now();
    world.run_until(t0 + Duration::from_millis(50));
    world.inject_join(6);
    world.run_until_quiescent();
    let stats = world.stats();
    let headline = (
        world.now(),
        stats.parity_shards_sent,
        stats.parity_bytes_sent,
    );
    let deliveries = (0..8).flat_map(|c| world.client::<Witness>(c).deliveries.clone());
    (headline, deliveries.collect())
}

#[test]
fn the_loss_estimate_decays_across_a_skipped_stretch() {
    // Every token visit on an adaptive ring folds the gap it sees — on
    // an idle ring, zero — into the visited daemon's loss estimate. A
    // skip that dropped those decays kept parity raised after the
    // idle: the rule this one replaced sent 312 shards / 46 488 B here
    // and finished at 57.135 ms.
    let (stepped, stepped_deliveries) = adaptive_parity_after_idle(false);
    assert_eq!(stepped, (SimTime::from_nanos(57_925_000), 228, 33_972));
    let (skipped, skipped_deliveries) = adaptive_parity_after_idle(true);
    assert_eq!(skipped, stepped, "(end, parity shards, parity bytes)");
    assert_eq!(skipped_deliveries, stepped_deliveries);
}
