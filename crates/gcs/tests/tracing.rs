//! The observability trace: sequencing, deliveries, view installs and
//! retransmissions appear in causally sensible order with monotone
//! timestamps — on the LAN and WAN testbeds, with and without loss.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, Service, SimWorld, View};
use gkap_telemetry::metrics::{Key, Layer};
use gkap_telemetry::{Event, EventKind, Telemetry};

struct Echo;
impl Client for Echo {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        if view.members.first() == Some(&ctx.id()) {
            ctx.multicast_agreed(vec![1]);
        }
    }
    fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
}

/// The GCS-level slice of the telemetry stream, taken out of the
/// world's sink: sequencing, deliveries, view installs,
/// retransmissions and FEC repairs.
fn gcs_trace(world: &SimWorld) -> Vec<Event> {
    let mut events = world.telemetry().take_events();
    events.retain(|e| {
        matches!(
            e.kind,
            EventKind::Sequenced { .. }
                | EventKind::Delivered { .. }
                | EventKind::ViewInstalled { .. }
                | EventKind::Retransmit { .. }
                | EventKind::FecRepair { .. }
        )
    });
    events
}

fn is_sequenced(e: &Event) -> bool {
    matches!(e.kind, EventKind::Sequenced { .. })
}

fn is_agreed_delivery(e: &Event) -> bool {
    matches!(e.kind, EventKind::Delivered { service, .. } if service == Service::Agreed.label())
}

fn is_view_install(e: &Event) -> bool {
    matches!(e.kind, EventKind::ViewInstalled { .. })
}

fn is_retransmit(e: &Event) -> bool {
    matches!(e.kind, EventKind::Retransmit { .. })
}

/// Every `Sequenced` seq must reach at least one client as a
/// `Delivered` (total order means sequenced traffic cannot vanish).
fn assert_sequenced_all_delivered(trace: &[Event]) {
    let sequenced: Vec<u64> = trace
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Sequenced { seq, .. } => Some(seq),
            _ => None,
        })
        .collect();
    let delivered_agreed = trace.iter().filter(|e| is_agreed_delivery(e)).count();
    assert!(
        delivered_agreed >= sequenced.len(),
        "each of the {} sequenced messages must be delivered at least once \
         (saw {delivered_agreed} agreed deliveries)",
        sequenced.len()
    );
    // Per-sequence pairing: the k-th sequenced message must have a
    // delivery after its sequencing point.
    for &seq in &sequenced {
        let seq_pos = trace
            .iter()
            .position(|e| matches!(e.kind, EventKind::Sequenced { seq: s, .. } if s == seq))
            .expect("sequenced event present");
        assert!(
            trace[seq_pos..].iter().any(is_agreed_delivery),
            "seq {seq} sequenced but never delivered after"
        );
    }
}

fn assert_monotone(trace: &[Event]) {
    let mut last = gkap_sim::SimTime::ZERO;
    for ev in trace {
        assert!(ev.at >= last, "trace timestamps must be monotone");
        last = ev.at;
    }
}

#[test]
fn trace_records_lifecycle_in_order() {
    let mut world = SimWorld::new(testbed::lan());
    world.set_telemetry(Telemetry::enabled());
    for _ in 0..6 {
        world.add_client(Box::new(Echo));
    }
    world.install_initial_view_of((0..5).collect());
    world.run_until_quiescent();
    world.inject_join(5);
    world.run_until_quiescent();

    let trace = gcs_trace(&world);
    assert!(!trace.is_empty(), "trace must record something");
    assert_monotone(&trace);

    // Two Agreed messages were sequenced (member 0 sends on both its
    // views) and the first was delivered to all 5 initial members.
    assert_eq!(trace.iter().filter(|e| is_sequenced(e)).count(), 2);
    let delivered = trace.iter().filter(|e| is_agreed_delivery(e)).count();
    assert_eq!(delivered, 5 + 6, "first view: 5 receivers; second: 6");

    // Sequencing precedes the first delivery.
    let seq_pos = trace.iter().position(is_sequenced).unwrap();
    let first_del = trace.iter().position(is_agreed_delivery).unwrap();
    assert!(seq_pos < first_del);

    // The join's membership change installs at all 13 daemons (the
    // free initial bootstrap does not go through daemon installs).
    let installs = trace.iter().filter(|e| is_view_install(e)).count();
    assert_eq!(installs, 13, "the join view installs at every daemon");

    // Reliable links: no retransmissions in the trace.
    assert!(
        !trace.iter().any(is_retransmit),
        "reliable LAN must not retransmit"
    );
}

#[test]
fn trace_disabled_by_default() {
    let mut world = SimWorld::new(testbed::lan());
    for _ in 0..3 {
        world.add_client(Box::new(Echo));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    assert!(world.telemetry().take_events().is_empty());
    assert!(!world.telemetry().is_enabled());
}

#[test]
fn trace_complete_on_wan_testbed() {
    let mut world = SimWorld::new(testbed::wan());
    world.set_telemetry(Telemetry::enabled());
    for _ in 0..7 {
        world.add_client(Box::new(Echo));
    }
    world.install_initial_view_of((0..6).collect());
    world.run_until_quiescent();
    world.inject_join(6);
    world.run_until_quiescent();

    let trace = gcs_trace(&world);
    assert!(!trace.is_empty());

    // Monotone timestamps on the WAN too.
    assert_monotone(&trace);

    assert_sequenced_all_delivered(&trace);

    // The join installs at every WAN daemon.
    let wan_daemons = testbed::wan().topology.machine_count();
    let installs = trace.iter().filter(|e| is_view_install(e)).count();
    assert_eq!(installs, wan_daemons, "join view installs at every daemon");

    // WAN delivery latency is in the hundreds of milliseconds (the
    // paper's ≈310 ms Agreed cost): first delivery well after t=0.
    let first_delivery = trace
        .iter()
        .find(|e| is_agreed_delivery(e))
        .map(|e| e.at)
        .expect("at least one delivery");
    assert!(
        first_delivery.as_millis_f64() > 50.0,
        "WAN Agreed delivery cannot be LAN-fast, got {first_delivery}"
    );
}

#[test]
fn lossy_links_produce_retransmit_events_and_complete_delivery() {
    let mut cfg = testbed::lan();
    cfg.loss_rate = 0.30;
    cfg.loss_seed = 7;
    let mut world = SimWorld::new(cfg);
    world.set_telemetry(Telemetry::enabled());
    for _ in 0..8 {
        world.add_client(Box::new(Echo));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    // Several extra membership changes → more Agreed traffic → more
    // opportunities for loss.
    world.inject_leave(7);
    world.run_until_quiescent();
    world.inject_join(7);
    world.run_until_quiescent();

    let (lost, retransmitted) = {
        let stats = world.stats();
        (stats.messages_lost, stats.retransmissions)
    };
    assert!(lost > 0, "30% loss must lose something");
    assert!(retransmitted > 0, "losses must be recovered");

    let trace = gcs_trace(&world);
    let retransmits = trace.iter().filter(|e| is_retransmit(e)).count() as u64;
    assert_eq!(
        retransmits, retransmitted,
        "every retransmission must appear as a Retransmit trace event"
    );

    // Despite loss, the total-order pipeline completed: every sequenced
    // message was eventually delivered somewhere.
    assert_sequenced_all_delivered(&trace);

    // Telemetry counters agree with the trace-level view.
    let counter = |name| world.telemetry().metric(Key::new(Layer::Gcs, name));
    assert_eq!(counter("retransmit"), retransmits);
    assert_eq!(
        counter("sequenced"),
        trace.iter().filter(|e| is_sequenced(e)).count() as u64
    );
}
