//! FEC-coded fan-out and adaptive retransmission under lossy links:
//! parity shards repair losses locally (no retransmission round
//! trips), the recovery-time attribution splits exactly between the
//! two mechanisms, backoff thins request rounds, and residual gaps
//! from an expired loss burst still recover.

use gkap_gcs::{fec, testbed, Client, ClientCtx, Delivery, FaultPlan, GcsConfig, SimWorld, View};
use gkap_sim::Duration;

#[path = "support/mutate.rs"]
mod mutate;

#[derive(Default)]
struct Chatty {
    got: Vec<(usize, u8)>,
    send_count: u8,
}

impl Client for Chatty {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
        for i in 0..self.send_count {
            ctx.multicast_agreed(vec![i]);
        }
    }
    fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.got
            .push((msg.sender, msg.payload.first().copied().unwrap_or(0)));
    }
}

fn run(cfg: GcsConfig, members: usize, per_member: u8) -> SimWorld {
    let mut world = SimWorld::new(cfg);
    for _ in 0..members {
        world.add_client(Box::new(Chatty {
            send_count: per_member,
            ..Default::default()
        }));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    world
}

fn assert_all_delivered(world: &SimWorld, members: usize, per_member: usize) {
    let expected = members * per_member;
    for i in 0..members {
        assert_eq!(
            world.client::<Chatty>(i).got.len(),
            expected,
            "member {i} is missing deliveries"
        );
    }
}

/// A FEC configuration whose parity budget covers the seeded loss
/// pattern, with a backoff long enough that parity always wins the
/// race against the request path.
fn fec_cfg(loss: f64, seed: u64) -> GcsConfig {
    let mut cfg = testbed::lan();
    cfg.loss_rate = loss;
    cfg.loss_seed = seed;
    cfg.fec_parity = 6;
    // The ceiling must sit at or above the floor even when the
    // adaptive controller is off (config invariant).
    cfg.fec_parity_max = 8;
    cfg.retrans_backoff = Duration::from_millis(10);
    cfg.retrans_backoff_max = Duration::from_millis(80);
    cfg
}

#[test]
fn fec_converges_with_zero_retransmission_rounds() {
    let seed = 7;
    let loss = 0.25;
    // Retransmission-only baseline: recovery needs request rounds.
    let mut base = testbed::lan();
    base.loss_rate = loss;
    base.loss_seed = seed;
    let baseline = run(base, 8, 3);
    assert!(
        baseline.stats().retransmission_rounds >= 1,
        "baseline must need retransmission rounds"
    );
    assert_all_delivered(&baseline, 8, 3);

    // FEC with parity >= the seeded per-generation losses: every gap
    // repairs locally before the requester's next token visit.
    let world = run(fec_cfg(loss, seed), 8, 3);
    let s = world.stats();
    assert!(s.messages_lost > 0, "losses must actually occur");
    assert!(s.fec_repairs > 0, "parity must repair the losses");
    assert_eq!(
        s.retransmission_rounds, 0,
        "FEC must eliminate retransmission rounds at this parity"
    );
    assert_eq!(s.retransmissions, 0);
    assert!(s.parity_shards_sent > 0);
    assert_all_delivered(&world, 8, 3);
    // All recovery time is attributed to FEC repair.
    assert!(s.fec_repair_recovery_ns > 0);
    assert_eq!(s.retransmission_recovery_ns, 0);
}

#[test]
fn fec_runs_are_deterministic() {
    let a = run(fec_cfg(0.25, 13), 8, 3);
    let b = run(fec_cfg(0.25, 13), 8, 3);
    assert_eq!(a.now(), b.now());
    assert_eq!(a.stats().fec_repairs, b.stats().fec_repairs);
    assert_eq!(a.stats().parity_shards_sent, b.stats().parity_shards_sent);
    assert_eq!(a.stats().recovery_ns(), b.stats().recovery_ns());
}

#[test]
fn recovery_attribution_splits_and_sums_exactly() {
    // A single parity shard repairs single losses; generations losing
    // more fall back to retransmission — both buckets fill, and their
    // sum is exactly the total recovery time.
    let mut cfg = testbed::lan();
    cfg.loss_rate = 0.3;
    cfg.loss_seed = 21;
    cfg.fec_parity = 1;
    let world = run(cfg, 8, 3);
    let s = world.stats();
    assert!(s.fec_repairs > 0, "single-loss generations repair via FEC");
    assert!(
        s.retransmissions > 0,
        "multi-loss generations fall back to retransmission"
    );
    assert!(s.fec_repair_recovery_ns > 0);
    assert!(s.retransmission_recovery_ns > 0);
    assert_eq!(
        s.recovery_ns(),
        s.fec_repair_recovery_ns + s.retransmission_recovery_ns,
        "attribution must sum exactly into the total"
    );
    assert_all_delivered(&world, 8, 3);
}

#[test]
fn adaptive_parity_converges_under_loss() {
    let mut cfg = testbed::lan();
    cfg.loss_rate = 0.3;
    cfg.loss_seed = 5;
    cfg.fec_parity = 1;
    cfg.fec_parity_max = 8;
    cfg.fec_adaptive = true;
    let world = run(cfg, 8, 3);
    let s = world.stats();
    assert!(s.fec_repairs > 0);
    assert_all_delivered(&world, 8, 3);
}

#[test]
fn backoff_thins_no_progress_request_rounds() {
    // At 0.5 loss half the re-sent copies are lost again, so recovery
    // needs repeated no-progress rounds — exactly what the backoff
    // paces out. (Rounds driven by *new* losses fire immediately in
    // both policies: progress resets the backoff window.)
    let mut eager = testbed::lan();
    eager.loss_rate = 0.5;
    eager.loss_seed = 3;
    let eager_world = run(eager, 8, 3);

    let mut patient = testbed::lan();
    patient.loss_rate = 0.5;
    patient.loss_seed = 3;
    patient.retrans_backoff = Duration::from_millis(2);
    patient.retrans_backoff_max = Duration::from_millis(16);
    let patient_world = run(patient, 8, 3);

    assert!(
        patient_world.stats().retransmission_rounds < eager_world.stats().retransmission_rounds,
        "backoff must issue fewer request rounds ({} vs {})",
        patient_world.stats().retransmission_rounds,
        eager_world.stats().retransmission_rounds,
    );
    // Pacing trades latency for request pressure: the patient run
    // finishes later but still converges completely.
    assert!(patient_world.now() > eager_world.now());
    assert_all_delivered(&eager_world, 8, 3);
    assert_all_delivered(&patient_world, 8, 3);
}

#[test]
fn burst_residual_gaps_recover_after_expiry() {
    // Satellite regression: the retransmission gate must stay armed
    // after a loss burst has *ended* (and been cleared). A gate keyed
    // on the burst's presence would strand the residual gaps forever.
    let mut cfg = testbed::lan();
    cfg.loss_rate = 0.0; // no base loss: only the burst drops copies
    let mut world = SimWorld::new(cfg);
    for _ in 0..8 {
        world.add_client(Box::new(Chatty {
            send_count: 3,
            ..Default::default()
        }));
    }
    // A violent burst covering the initial fan-out, expiring long
    // before recovery completes.
    world.apply_fault_plan(FaultPlan::new().loss_burst(
        Duration::ZERO,
        0.9,
        Duration::from_micros(300),
    ));
    world.install_initial_view();
    world.run_until_quiescent();
    let s = world.stats();
    assert!(s.messages_lost > 0, "the burst must drop copies");
    assert!(
        s.retransmissions >= 1,
        "residual gaps must recover after the burst expired"
    );
    assert_all_delivered(&world, 8, 3);
}

/// Hostile shards: whatever the bytes, the indices (repeated or out of
/// range) or `k`, `fec::decode` returns `k` shards or `None`, and
/// never panics.
#[test]
fn hostile_shards_decode_or_are_refused() {
    let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; 12 + usize::from(i)]).collect();
    let parity = fec::encode(&data, 3).expect("4 + 3 shards");
    let seeds: Vec<Vec<u8>> = data.iter().chain(&parity).cloned().collect();
    let bodies = mutate::mutants(&seeds, 6_000);
    let mut decoded = 0;
    for (n, window) in bodies.chunks(6).enumerate() {
        let k = [0, 1, 3, 4, 5, 256, 257][n % 7];
        // A shard's index is its length mod 9 (0..=8, one past the
        // generation) or, for an empty one, past `MAX_SHARDS`.
        let have: Vec<(usize, &[u8])> = window
            .iter()
            .map(|b| {
                (
                    if b.is_empty() {
                        fec::MAX_SHARDS
                    } else {
                        b.len() % 9
                    },
                    b.as_slice(),
                )
            })
            .collect();
        if let Some(out) = fec::decode(k, &have) {
            assert_eq!(out.len(), k, "chunk {n}");
            decoded += 1;
        }
    }
    assert!(decoded > 0, "some chunks still decode");
}
