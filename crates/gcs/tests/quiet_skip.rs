//! The quiet-stretch skip must be invisible: a world that replays the
//! whole rotations of a quiet ring ends with the clock, the counters,
//! every client's log, the metrics hub and — once each
//! `IdleRotations` is expanded — the event stream of the world that
//! steps every hop. One scenario with both kinds of quiet stretch (a
//! long idle; members computing between multicasts), as one table over
//! the testbeds, the loss-recovery machinery, a crash and telemetry.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, GcsConfig, SimWorld, View};
use gkap_sim::{Duration, SimTime};
use gkap_telemetry::metrics::MetricsHub;
use gkap_telemetry::{Event, EventKind, Telemetry};

/// What a client saw.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Seen {
    View(u64),
    From(usize),
}

/// Computes for 3–5 ms on everything it is handed, multicasts on every
/// view and relays its predecessor's multicasts while their
/// time-to-live lasts: between two sends the ring is flushed and only
/// a `ClientSubmit` some milliseconds away is in flight.
#[derive(Default)]
struct Worker {
    log: Vec<(SimTime, Seen)>,
}

impl Worker {
    fn compute(ctx: &mut ClientCtx<'_>, salt: usize) {
        let ms = 3 + (ctx.id() + salt) as u64 % 3;
        ctx.charge_cpu(Duration::from_millis(ms));
    }
}

impl Client for Worker {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.log.push((ctx.now(), Seen::View(view.id)));
        Self::compute(ctx, view.members.len());
        ctx.multicast_agreed(vec![2u8; 60]);
    }

    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.log.push((ctx.now(), Seen::From(msg.sender)));
        Self::compute(ctx, msg.sender);
        let ttl = msg.payload[0];
        if ttl > 0 && ctx.id() == msg.sender + 1 {
            ctx.multicast_agreed(vec![ttl - 1; 60]);
        }
    }
}

const CLIENTS: usize = 9;

/// Everything the two executions must agree on.
struct Outcome {
    end: SimTime,
    stats: String,
    logs: Vec<Vec<(SimTime, Seen)>>,
    hub: MetricsHub,
    /// The event stream, every `IdleRotations` expanded.
    events: Vec<Event>,
    /// Events as recorded, and how many of them stand for skipped
    /// rotations inside the change (members computing).
    recorded: usize,
    skips_while_computing: usize,
}

/// Replaces each `IdleRotations { first, count }` by the `count`
/// `TokenRotation`s it stands for, at `at + i * dur / count`.
fn expanded(events: Vec<Event>) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len());
    for ev in events {
        let EventKind::IdleRotations { first, count } = ev.kind else {
            out.push(ev);
            continue;
        };
        assert!(count >= 1, "an empty stretch was recorded");
        let count = u64::from(count);
        let period = ev.dur.as_nanos() / count;
        assert_eq!(period * count, ev.dur.as_nanos(), "dur is count periods");
        out.extend((0..count).map(|i| Event {
            at: ev.at + Duration::from_nanos(i * period),
            dur: Duration::ZERO,
            actor: ev.actor,
            kind: EventKind::TokenRotation {
                rotation: first + i,
            },
        }));
    }
    out
}

/// Two groups on one ring (clients 0..4 and 5..9; 4 joins group 0
/// later): bootstrap to quiescence, a 700 ms idle, a join, a second
/// change injected while the first one's agreement is computing and a
/// 2.5 s tail. With `crash`, client 5's machine dies 2 ms after the
/// second change — mid-agreement, the ring busy — and, once all of
/// that has settled, a machine without clients dies on the idle ring:
/// flushed, no change running, and a token about to be swallowed.
fn drive(cfg: &GcsConfig, crash: bool, telemetry: bool, skip: bool) -> Outcome {
    let mut world = SimWorld::new(cfg.clone());
    world.set_idle_fast_forward(skip);
    if telemetry {
        world.set_telemetry(Telemetry::enabled());
    }
    for _ in 0..CLIENTS {
        world.add_client(Box::new(Worker::default()));
    }
    world.install_initial_view_in(0, (0..4).collect());
    world.install_initial_view_in(1, (5..CLIENTS).collect());
    world.run_until_quiescent();

    world.run_until(world.now() + Duration::from_millis(700));
    let idle_end = world.now();
    world.inject_change_in(0, vec![4], vec![]);
    world.run_until(world.now() + Duration::from_nanos(4_321_987));
    world.inject_change_in(1, vec![], vec![8]);
    if crash {
        world.run_until(world.now() + Duration::from_millis(2));
        world.inject_crash(5);
    }
    world.run_until(world.now() + Duration::from_millis(2_500));
    world.run_until_quiescent();
    if crash {
        world.inject_crash(10);
        world.run_until(world.now() + Duration::from_millis(1_500));
        world.run_until_quiescent();
    }

    let recorded = world.telemetry().take_events();
    Outcome {
        end: world.now(),
        stats: format!("{:?}", world.stats()),
        logs: (0..CLIENTS)
            .map(|c| world.client::<Worker>(c).log.clone())
            .collect(),
        hub: world.telemetry().hub_snapshot(),
        recorded: recorded.len(),
        skips_while_computing: recorded
            .iter()
            .filter(|e| matches!(e.kind, EventKind::IdleRotations { .. }) && e.at > idle_end)
            .count(),
        events: expanded(recorded),
    }
}

fn lossy(mut cfg: GcsConfig, rate: f64) -> GcsConfig {
    cfg.loss_rate = rate;
    cfg
}

fn adaptive(mut cfg: GcsConfig) -> GcsConfig {
    cfg.fec_adaptive = true;
    cfg
}

fn table() -> Vec<(&'static str, GcsConfig)> {
    let mut backoff = adaptive(lossy(testbed::wan(), 0.05));
    backoff.retrans_backoff = Duration::from_millis(20);
    vec![
        ("lan", testbed::lan()),
        ("wan", testbed::wan()),
        ("lan, 8% loss", lossy(testbed::lan(), 0.08)),
        (
            "lan, 8% loss, adaptive parity",
            adaptive(lossy(testbed::lan(), 0.08)),
        ),
        ("wan, 5% loss, adaptive parity, 20 ms backoff", backoff),
    ]
}

#[test]
fn skipped_equals_stepped() {
    for (name, cfg) in table() {
        for crash in [false, true] {
            let case = format!("{name}, crash {crash}");
            let mut ends = Vec::new();
            for telemetry in [false, true] {
                let case = format!("{case}, telemetry {telemetry}");
                let stepped = drive(&cfg, crash, telemetry, false);
                let skipped = drive(&cfg, crash, telemetry, true);
                assert_eq!(skipped.end, stepped.end, "{case}: clock");
                assert_eq!(skipped.stats, stepped.stats, "{case}: stats");
                assert_eq!(skipped.logs, stepped.logs, "{case}: client logs");
                assert_eq!(skipped.hub, stepped.hub, "{case}: hub");
                assert!(skipped.events == stepped.events, "{case}: event streams");
                assert!(skipped.recorded <= stepped.recorded, "{case}");
                assert_eq!(stepped.skips_while_computing, 0, "{case}");
                assert_eq!(stepped.events.is_empty(), !telemetry, "{case}");
                if telemetry {
                    // Not vacuous: the idle was skipped everywhere,
                    // and where a rotation (0.65 ms on the LAN, 310 ms
                    // on the WAN) is shorter than a member's compute,
                    // so were rotations of the busy phase.
                    assert!(skipped.recorded < stepped.recorded, "{case}");
                    if name.starts_with("lan") {
                        assert!(skipped.recorded < stepped.recorded / 2, "{case}");
                        assert!(skipped.skips_while_computing > 0, "{case}");
                    }
                }
                assert!(
                    skipped.logs.iter().all(|log| log.len() > 4),
                    "{case}: every client took part"
                );
                ends.push((skipped.end, skipped.stats, skipped.logs));
            }
            // And attaching a sink changes nothing it does not record.
            assert!(ends[0] == ends[1], "{case}: telemetry on vs off");
        }
    }
}

#[test]
fn a_stretch_of_whole_rotations_ends_in_a_tie_the_token_loses() {
    // One client on machine 2 of the LAN (a hop every 50 us, a
    // rotation every 650 us). It is handed its view at 60 us; the
    // first token popped after that reaches daemon 2 at 100 us; its
    // compute is sized so that its multicast reaches daemon 2 at
    // 3 350 us — five whole rotations later, the very instant the
    // token is back. Stepped, the token event of that instant was
    // scheduled one hop earlier, long after the submission: the
    // submission is dispatched first and sequenced by that visit. The
    // skip has no partial rotation to step here, so the re-queued
    // token must lose the same tie.
    struct Timed;
    impl Client for Timed {
        fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
            ctx.charge_cpu(Duration::from_micros(5 * 650 - 2 * 60 + 100));
            ctx.multicast_agreed(vec![7u8; 10]);
        }
        fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
    }
    let run = |skip: bool| {
        let mut world = SimWorld::new(testbed::lan());
        world.set_idle_fast_forward(skip);
        world.set_telemetry(Telemetry::enabled());
        world.add_client_on(Box::new(Timed), 2);
        world.install_initial_view();
        world.run_until_quiescent();
        let recorded = world.telemetry().take_events();
        let hub = world.telemetry().hub_snapshot();
        (world.now(), hub, expanded(recorded.clone()), recorded)
    };
    let (stepped, skipped) = (run(false), run(true));
    assert_eq!(skipped.0, stepped.0);
    assert_eq!(skipped.1, stepped.1);
    assert!(skipped.2 == stepped.2, "event streams");
    let at_us = |us| SimTime::ZERO + Duration::from_micros(us);
    let sequenced = skipped
        .3
        .iter()
        .find(|e| matches!(e.kind, EventKind::Sequenced { .. }));
    assert_eq!(sequenced.map(|e| e.at), Some(at_us(3_350)));
    // The whole wait was one skip: rotations 2..=6, the first of them
    // when the token next reached the head (daemon 0) at 650 us.
    let skips: Vec<_> = skipped
        .3
        .iter()
        .filter(|e| matches!(e.kind, EventKind::IdleRotations { .. }))
        .collect();
    assert_eq!(skips.len(), 1);
    assert_eq!(
        (skips[0].at, skips[0].dur, &skips[0].kind),
        (
            at_us(650),
            Duration::from_micros(5 * 650),
            &EventKind::IdleRotations { first: 2, count: 5 }
        )
    );
}

#[test]
fn step_and_run_while_still_see_every_hop() {
    // The skip lives only in the two loops whose callers cannot look
    // between hops. Driven by `step()` or `run_while`, the same world
    // takes one step per token hop whether the switch is on or off,
    // and records every rotation as its own event.
    let drive = |skip: bool, by_predicate: bool| {
        let mut world = SimWorld::new(testbed::lan());
        world.set_idle_fast_forward(skip);
        world.set_telemetry(Telemetry::enabled());
        for _ in 0..CLIENTS {
            world.add_client(Box::new(Worker::default()));
        }
        world.install_initial_view_in(0, (0..4).collect());
        let mut steps = 0u64;
        if by_predicate {
            // The predicate runs before every step and once more at
            // quiescence, which `run_while` reports by `false`.
            assert!(!world.run_while(|_| {
                steps += 1;
                true
            }));
        } else {
            while world.step() {
                steps += 1;
            }
        }
        let recorded = world.telemetry().take_events();
        let rotations = |e: &&Event| matches!(e.kind, EventKind::TokenRotation { .. });
        assert_eq!(
            recorded.iter().filter(rotations).count() as u64,
            world.stats().token_rotations,
            "one event per rotation, none folded"
        );
        (steps, world.now(), recorded.len())
    };
    let stepped = drive(false, false);
    assert_eq!(drive(true, false), stepped);
    assert_eq!(drive(true, true), drive(false, true));
    assert_eq!(drive(true, true).0, stepped.0 + 1);
    // The members compute for tens of milliseconds at ~13 hops per
    // 0.65 ms rotation: the hops dominate the step count.
    assert!(stepped.0 > 500, "{stepped:?}");
}
