//! Stress tests: heavy traffic through the token ring, mixed service
//! levels, and long-running membership churn.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, Service, SimWorld, View};

#[derive(Default)]
struct Firehose {
    burst: usize,
    agreed_got: usize,
    fifo_got: usize,
}

impl Client for Firehose {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        // FIFO traffic goes to the next member around the view.
        let at = view.members.iter().position(|&m| m == ctx.id());
        let next = view.members[at.map_or(0, |at| (at + 1) % view.members.len())];
        for i in 0..self.burst {
            ctx.multicast_agreed(vec![(i % 256) as u8]);
            ctx.unicast_fifo(next, vec![(i % 256) as u8]);
        }
    }

    fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        match msg.service {
            Service::Agreed => self.agreed_got += 1,
            Service::Fifo => self.fifo_got += 1,
        }
    }
}

#[test]
fn thousand_message_burst_all_delivered() {
    // 10 members × 40 messages × 2 services = 800 sends; flow control
    // (20/visit) forces several rotations.
    let n = 10;
    let burst = 40;
    let mut world = SimWorld::new(testbed::lan());
    for _ in 0..n {
        world.add_client(Box::new(Firehose {
            burst,
            ..Default::default()
        }));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    for i in 0..n {
        let c = world.client::<Firehose>(i);
        assert_eq!(c.agreed_got, n * burst, "member {i} agreed");
        // Each member's FIFO burst reaches its successor, off the ring.
        assert_eq!(c.fifo_got, burst, "member {i} fifo");
    }
    assert_eq!(world.stats().agreed_messages, (n * burst) as u64);
}

#[test]
fn tight_flow_control_still_delivers_everything() {
    let mut cfg = testbed::lan();
    cfg.flow_control_max_msgs = 1; // one message per token visit
    let mut world = SimWorld::new(cfg);
    for _ in 0..6 {
        world.add_client(Box::new(Firehose {
            burst: 25,
            ..Default::default()
        }));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    for i in 0..6 {
        assert_eq!(world.client::<Firehose>(i).agreed_got, 150, "member {i}");
    }
    // Rotations must dominate: at 1 msg/visit/daemon, 150 messages from
    // 6 members on 6 machines need at least 25 rotations.
    assert!(world.stats().token_rotations >= 25);
}

#[test]
fn long_membership_churn_remains_consistent() {
    // 30 membership changes in sequence; views stay consistent and the
    // engine never wedges.
    let mut world = SimWorld::new(testbed::lan());
    for _ in 0..40 {
        world.add_client(Box::new(Firehose::default()));
    }
    world.install_initial_view_of((0..10).collect());
    world.run_until_quiescent();
    let mut present: Vec<usize> = (0..10).collect();
    let mut next = 10;
    for round in 0..30 {
        if round % 3 == 2 && present.len() > 3 {
            let leaver = present[round % present.len()];
            present.retain(|&c| c != leaver);
            world.inject_leave(leaver);
        } else if next < 40 {
            present.push(next);
            world.inject_join(next);
            next += 1;
        }
        world.run_until_quiescent();
        let view = world.view().unwrap();
        assert_eq!(view.members, present, "round {round}");
    }
    assert!(world.stats().views_installed >= 30);
}

#[test]
fn wan_burst_respects_site_fairness() {
    // Every daemon gets its token slot: a busy JHU cluster cannot
    // starve the UCI/ICU members.
    let mut world = SimWorld::new(testbed::wan());
    for _ in 0..13 {
        world.add_client(Box::new(Firehose {
            burst: 10,
            ..Default::default()
        }));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    for i in 0..13 {
        assert_eq!(world.client::<Firehose>(i).agreed_got, 130, "member {i}");
    }
}
