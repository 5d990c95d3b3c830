//! The sharded engine's contract: one shard is *exactly* the existing
//! single-ring engine, and groups on different shards are perfectly
//! isolated — a membership cascade on one ring cannot move a single
//! event on another.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, ShardedWorld, SimWorld, View, WorldStats};
use gkap_sim::{Duration, SimTime};

/// Records view installs and deliveries with their exact instants.
#[derive(Default)]
struct Witness {
    views: Vec<(SimTime, usize, Vec<usize>)>,
    deliveries: Vec<(SimTime, usize)>,
    send_on_view: bool,
}

impl Client for Witness {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.views
            .push((ctx.now(), view.group, view.members.clone()));
        if self.send_on_view {
            ctx.multicast_agreed(vec![7u8; 64]);
        }
    }

    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.deliveries.push((ctx.now(), msg.sender));
    }
}

/// One shard must behave byte-for-byte like the plain single-ring
/// engine: same clock, same stats, same install instants.
#[test]
fn one_shard_is_the_single_ring_engine() {
    let mut plain = SimWorld::new(testbed::lan());
    let mut sharded = ShardedWorld::new(testbed::lan(), 1);
    for i in 0..6 {
        let mk = || {
            Box::new(Witness {
                send_on_view: i % 2 == 0,
                ..Witness::default()
            })
        };
        let p = plain.add_client(mk());
        let s = sharded.add_client_in(i % 2, mk());
        assert_eq!(p, s, "global ids must line up");
    }
    // Two groups interleaved over the same clients.
    plain.install_initial_view_in(0, vec![0, 2, 4]);
    plain.install_initial_view_in(1, vec![1, 3, 5]);
    sharded.install_initial_view_in(0, vec![0, 2, 4]);
    sharded.install_initial_view_in(1, vec![1, 3, 5]);
    plain.run_until_quiescent();
    sharded.run_until_quiescent();
    assert_eq!(plain.now(), sharded.now());

    let t = plain.now() + Duration::from_millis(20);
    plain.run_until(t);
    sharded.run_until(t);
    plain.inject_change_in(0, vec![], vec![2]);
    sharded.inject_change_in(0, vec![], vec![2]);
    plain.run_until_quiescent();
    sharded.run_until_quiescent();

    assert_eq!(plain.now(), sharded.now(), "clocks must agree");
    assert_eq!(
        plain.stats().token_rotations,
        sharded.stats().token_rotations
    );
    assert_eq!(
        plain.stats().agreed_messages,
        sharded.stats().agreed_messages
    );
    for c in 0..6 {
        assert_eq!(
            plain.client::<Witness>(c).views,
            sharded.client::<Witness>(c).views,
            "client {c} view installs must match"
        );
        assert_eq!(
            plain.client::<Witness>(c).deliveries,
            sharded.client::<Witness>(c).deliveries,
            "client {c} deliveries must match"
        );
    }
    // Views come back with global ids (identity here).
    let v = sharded.view_of(0).expect("group 0 keyed");
    assert_eq!(v.members, vec![0, 4]);
}

/// Builds a 2-shard world with group 0 on shard 0 and group 1 on
/// shard 1, three members each, chatty members in group 0.
fn two_shard_world() -> (ShardedWorld, Vec<usize>, Vec<usize>) {
    let mut world = ShardedWorld::new(testbed::lan(), 2);
    let mut g0 = Vec::new();
    let mut g1 = Vec::new();
    for i in 0..8 {
        let group = i % 2;
        // Group 0 members flood the ring on every install, creating
        // the in-flight traffic a shared flush condition would wait on.
        let w = Witness {
            send_on_view: group == 0,
            ..Witness::default()
        };
        let id = world.add_client_in(group, Box::new(w));
        if group == 0 {
            g0.push(id);
        } else {
            g1.push(id);
        }
    }
    world.install_initial_view_in(0, g0[..3].to_vec());
    world.install_initial_view_in(1, g1[..3].to_vec());
    world.run_until_quiescent();
    (world, g0, g1)
}

/// A membership cascade (folded changes plus message traffic) in the
/// group on shard 0 must not move group 1's install times by a single
/// nanosecond.
#[test]
fn cascade_on_one_shard_never_delays_the_other() {
    // Quiet run: only group 1 churns.
    let (mut quiet, _q0, q1) = two_shard_world();
    let t = quiet.now() + Duration::from_millis(10);
    quiet.run_until(t);
    quiet.inject_change_in(1, vec![q1[3]], vec![]);
    quiet.run_until_quiescent();
    let quiet_views = (0..4)
        .map(|k| quiet.client::<Witness>(q1[k]).views.clone())
        .collect::<Vec<_>>();

    // Stormy run: identical group 1 churn, plus a cascade in group 0
    // injected at the same instant.
    let (mut storm, s0, s1) = two_shard_world();
    let t = storm.now() + Duration::from_millis(10);
    storm.run_until(t);
    storm.inject_change_in(1, vec![s1[3]], vec![]);
    storm.inject_change_in(0, vec![s0[3]], vec![]);
    storm.inject_change_in(0, vec![], vec![s0[0]]);
    storm.inject_change_in(0, vec![], vec![s0[1]]);
    storm.run_until_quiescent();
    let storm_views = (0..4)
        .map(|k| storm.client::<Witness>(s1[k]).views.clone())
        .collect::<Vec<_>>();

    assert_eq!(
        quiet_views, storm_views,
        "group 1's installs must be independent of group 0's cascade"
    );
    // The cascade really ran: group 0 installed the join, then both
    // leaves as one view.
    assert_eq!(storm.views_of(0).len(), 3);
    assert_eq!(storm.views_of(1).len(), 2);
    // And the shards expose independent frontiers merged conservatively.
    assert!(storm.now() >= storm.shard(1).now());
    assert!(storm.quiescent());
}

/// Every counter of a sharded world is the sum over its shards — the
/// FEC and recovery-time counters included, which a lossy
/// `fec_parity = 4` run makes non-zero.
#[test]
fn sharded_stats_are_the_sum_of_the_shards() {
    /// Multicasts a burst on every view, so each token visit
    /// sequences a multi-message FEC generation.
    struct Burst;
    impl Client for Burst {
        fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
            for i in 0..6u8 {
                ctx.multicast_agreed(vec![i; 64]);
            }
        }
        fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
    }
    let mut cfg = testbed::lan();
    cfg.loss_rate = 0.05;
    cfg.loss_seed = 11;
    cfg.fec_parity = 4;
    let mut world = ShardedWorld::new(cfg, 2);
    let mut groups = [Vec::new(), Vec::new()];
    for i in 0..40 {
        groups[i % 2].push(world.add_client_in(i % 2, Box::new(Burst)));
    }
    for (g, members) in groups.iter().enumerate() {
        world.install_initial_view_in(g, members.clone());
    }
    world.run_until_quiescent();

    // The five counters the sum used to drop, and two it never did.
    type Counter = fn(&WorldStats) -> u64;
    let counters: [(&str, Counter); 7] = [
        ("parity_shards_sent", |s| s.parity_shards_sent),
        ("fec_repairs", |s| s.fec_repairs),
        ("fec_repair_recovery_ns", |s| s.fec_repair_recovery_ns),
        ("retransmission_recovery_ns", |s| {
            s.retransmission_recovery_ns
        }),
        ("parity_bytes_sent", |s| s.parity_bytes_sent),
        ("agreed_messages", |s| s.agreed_messages),
        ("messages_lost", |s| s.messages_lost),
    ];
    let total = world.stats();
    for (name, get) in counters {
        let sum: u64 = (0..2).map(|s| get(world.shard(s).stats())).sum();
        assert_eq!(get(&total), sum, "{name} is not the shards' sum");
    }
    assert!(total.messages_lost > 0, "the lossy ring lost nothing");
    assert!(total.fec_repairs > 0, "a sharded FEC run reports no repair");
    assert!(total.parity_shards_sent > 0 && total.parity_bytes_sent > 0);
    assert!(total.fec_repair_recovery_ns > 0);
}
