//! Gilbert–Elliott burst-correlated loss end to end: runs are a pure
//! function of the seed, different chain seeds diverge, the adaptive
//! parity budget rises when a burst overlaps sequencing, and the
//! degenerate configuration (no chain) leaves the Bernoulli engine
//! byte-identical.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, GcsConfig, GilbertElliott, SimWorld, View};
use gkap_sim::Duration;

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

/// A LAN cell whose only loss is bursty: Bernoulli base rate zero, a
/// Gilbert–Elliott chain with dwells short enough that bursts land
/// inside the workload (LAN token rotations are ~100 µs).
fn bursty(chain_seed: u64, adaptive: bool) -> GcsConfig {
    let mut cfg = testbed::lan();
    cfg.loss_rate = 0.0;
    cfg.loss_seed = 99;
    let bad = Duration::from_micros(80);
    cfg.gilbert = Some(GilbertElliott {
        good_loss: 0.0,
        bad_loss: 0.8,
        good_dwell: bad * 3,
        bad_dwell: bad,
        seed: chain_seed,
    });
    cfg.fec_parity = 2;
    cfg.fec_parity_max = 16;
    cfg.fec_adaptive = adaptive;
    cfg.retrans_backoff = Duration::from_millis(10);
    cfg.retrans_backoff_max = Duration::from_millis(80);
    cfg
}

fn run(cfg: GcsConfig) -> SimWorld {
    let mut world = SimWorld::new(cfg);
    for _ in 0..8 {
        world.add_client(Box::new(Chatty {
            send_count: 3,
            ..Default::default()
        }));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    world
}

fn assert_all_delivered(world: &SimWorld) {
    for i in 0..8 {
        assert_eq!(
            world.client::<Chatty>(i).got.len(),
            24,
            "member {i} is missing deliveries"
        );
    }
}

#[test]
fn ge_runs_are_a_pure_function_of_the_seed() {
    let a = run(bursty(0xfeed, true));
    let b = run(bursty(0xfeed, true));
    assert!(a.stats().messages_lost > 0, "bursts must drop copies");
    assert_eq!(a.now(), b.now());
    assert_eq!(a.stats().messages_lost, b.stats().messages_lost);
    assert_eq!(a.stats().fec_repairs, b.stats().fec_repairs);
    assert_eq!(a.stats().parity_shards_sent, b.stats().parity_shards_sent);
    assert_eq!(a.stats().parity_bytes_sent, b.stats().parity_bytes_sent);
    assert_eq!(a.stats().recovery_ns(), b.stats().recovery_ns());
    assert_all_delivered(&a);
    assert_all_delivered(&b);
}

#[test]
fn ge_chain_seeds_diverge() {
    let a = run(bursty(0xfeed, true));
    let b = run(bursty(0xbeef, true));
    // Different chains place the bursts differently; any of these
    // observably diverging proves the chain (not just the per-copy
    // RNG) drives the loss process.
    assert!(
        a.stats().messages_lost != b.stats().messages_lost
            || a.now() != b.now()
            || a.stats().parity_shards_sent != b.stats().parity_shards_sent,
        "distinct chain seeds must produce distinct trajectories"
    );
    assert_all_delivered(&a);
    assert_all_delivered(&b);
}

#[test]
fn adaptive_budget_rises_when_a_burst_overlaps_sequencing() {
    // The fixed twin fans out the floor budget regardless of what the
    // chain does; the adaptive twin observes the burst at the next
    // token visits (fast attack: within one rotation) and pays more
    // parity for the generations still being sequenced.
    let fixed = run(bursty(0xfeed, false));
    let adapt = run(bursty(0xfeed, true));
    assert!(fixed.stats().messages_lost > 0);
    assert!(
        adapt.stats().parity_shards_sent > fixed.stats().parity_shards_sent,
        "adaptive parity must exceed the floor volume ({} vs {})",
        adapt.stats().parity_shards_sent,
        fixed.stats().parity_shards_sent,
    );
    assert!(adapt.stats().parity_bytes_sent > fixed.stats().parity_bytes_sent);
    assert_all_delivered(&fixed);
    assert_all_delivered(&adapt);
}

#[test]
fn no_chain_is_the_bernoulli_degenerate_case() {
    // `gilbert: None` must leave the Bernoulli engine untouched — same
    // virtual clock, same loss count, same recovery — because the
    // chain draws from its own RNG and is never consulted when absent.
    let mut with_field = testbed::lan();
    with_field.loss_rate = 0.25;
    with_field.loss_seed = 7;
    with_field.gilbert = None;
    let mut plain = testbed::lan();
    plain.loss_rate = 0.25;
    plain.loss_seed = 7;
    let a = run(with_field);
    let b = run(plain);
    assert_eq!(a.now(), b.now());
    assert_eq!(a.stats().messages_lost, b.stats().messages_lost);
    assert_eq!(a.stats().retransmissions, b.stats().retransmissions);
}
