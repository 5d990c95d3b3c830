//! Telemetry ↔ cost-model reconciliation: the `CryptoOp` and
//! `MessageSend` events captured by the telemetry layer must tally to
//! exactly the `OpCounts` the cost model charges — per run against the
//! live counters, and against the closed-form aggregate costs of
//! Table 1 (`costs_table::expected_aggregate`) where those are exact
//! (GDH, BD, CKD; the tree protocols are shape-dependent).

use std::rc::Rc;

use gkap_core::cost::OpCounts;
use gkap_core::costs_table::{expected_aggregate, GroupEvent};
use gkap_core::experiment::{
    agreed_secret, run_join, run_join_traced, run_leave, run_traced, ExperimentConfig, LeaveTarget,
    Step, SuiteKind, TraceRun,
};
use gkap_core::protocols::ProtocolKind;
use gkap_core::suite::CryptoSuite;
use gkap_core::testkit::Loopback;
use gkap_core::SecureMember;
use gkap_gcs::{testbed, SimWorld};
use gkap_telemetry::metrics::{Key, Layer};
use gkap_telemetry::{
    membership, Actor, CryptoOpKind, Event, EventKind, Label, SendClass, Telemetry,
};

/// Tallies a run's crypto and send events into an [`OpCounts`],
/// considering only events at/after the injection marker and only the
/// given client actors (`None` = all clients).
fn tally(events: &[Event], only: Option<&[usize]>) -> OpCounts {
    let inject = events
        .iter()
        .find(|e| {
            matches!(e.kind, EventKind::MembershipEvent { action, .. } if action == membership::INJECT)
        })
        .map(|e| e.at)
        .expect("inject marker");
    let mut c = OpCounts::default();
    for ev in events {
        if ev.at < inject {
            continue;
        }
        if !matches!(ev.actor, Actor::Client(_)) {
            continue;
        }
        if let Some(ids) = only {
            if !ids.iter().any(|&id| ev.actor == Actor::client(id)) {
                continue;
            }
        }
        match ev.kind {
            EventKind::CryptoOp { op, .. } => match op {
                CryptoOpKind::Exp => c.exp += 1,
                CryptoOpKind::SmallExp => c.small_exp += 1,
                CryptoOpKind::Inverse => c.inverse += 1,
                CryptoOpKind::Sign => c.sign += 1,
                CryptoOpKind::Verify => c.verify += 1,
                CryptoOpKind::Symmetric => c.symmetric += 1,
                CryptoOpKind::ModMul | CryptoOpKind::RecvOverhead => {}
            },
            EventKind::MessageSend { class } => match class {
                SendClass::Multicast => c.multicast += 1,
                SendClass::Unicast => c.unicast += 1,
            },
            _ => {}
        }
    }
    c
}

fn assert_counts_match(kind: ProtocolKind, label: &str, run: &TraceRun, members: Option<&[usize]>) {
    let tallied = tally(&run.events, members);
    assert_eq!(
        tallied, run.outcome.counts,
        "{kind} {label}: telemetry tally vs live OpCounts"
    );
}

/// Full-stack runs: the telemetry event tally must equal the live
/// `OpCounts` delta measured by the harness, for every protocol, on
/// both a join and a leave.
#[test]
fn full_stack_tally_matches_live_counts() {
    let n = 8;
    for kind in ProtocolKind::all() {
        let cfg = ExperimentConfig::lan(kind, SuiteKind::Sim512);
        let join = run_join_traced(&cfg, n);
        assert!(join.outcome.ok, "{kind} join");
        assert_counts_match(kind, "join", &join, None);

        let leave = run_traced(&cfg, n, Step::Leave(LeaveTarget::Middle));
        assert!(leave.outcome.ok, "{kind} leave");
        // The leaver (view position n/2) is outside the measured set;
        // exclude any events it might emit.
        let remaining: Vec<usize> = (0..n).filter(|&c| c != n / 2).collect();
        assert_counts_match(kind, "leave", &leave, Some(&remaining));
    }
}

/// Telemetry must never perturb the measurement: a traced run reports
/// bit-identical elapsed times to an untraced one.
#[test]
fn tracing_does_not_perturb_results() {
    let n = 10;
    for kind in ProtocolKind::all() {
        let cfg = ExperimentConfig::lan(kind, SuiteKind::Sim512);
        let plain = run_join(&cfg, n);
        let traced = run_join_traced(&cfg, n);
        assert_eq!(
            plain.elapsed_ms, traced.outcome.elapsed_ms,
            "{kind} join elapsed"
        );
        assert_eq!(
            plain.membership_ms, traced.outcome.membership_ms,
            "{kind} join membership"
        );
        assert_eq!(plain.counts, traced.outcome.counts, "{kind} join counts");
        let plain = run_leave(&cfg, n, LeaveTarget::Middle);
        let traced = run_traced(&cfg, n, Step::Leave(LeaveTarget::Middle));
        assert_eq!(
            plain.elapsed_ms, traced.outcome.elapsed_ms,
            "{kind} leave elapsed"
        );
    }
}

fn counters_as_opcounts(t: &Telemetry) -> OpCounts {
    let crypto = |name| t.metric(Key::new(Layer::Crypto, name));
    let sends = |name| t.metric(Key::new(Layer::Protocol, name));
    OpCounts {
        exp: crypto("exp"),
        small_exp: crypto("small_exp"),
        inverse: crypto("inverse"),
        sign: crypto("sign"),
        verify: crypto("verify"),
        symmetric: crypto("symmetric"),
        multicast: sends("multicast"),
        unicast: sends("unicast"),
    }
}

/// Loopback runs (shape-independent message delivery): the telemetry
/// counters must match the closed-form Table 1 aggregates exactly for
/// GDH, BD and CKD; for the tree protocols (no closed form) they must
/// still match the live counters.
#[test]
fn counters_match_table1_closed_forms() {
    let n = 9;
    let total = n + 2;
    let ids: Vec<usize> = (0..total).collect();
    for kind in ProtocolKind::all() {
        for event in [GroupEvent::Join, GroupEvent::Leave] {
            let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
            lb.bootstrap(&ids[..n], 5);
            // Enable after bootstrap so the counters cover the event only.
            let telemetry = lb.enable_telemetry();
            let before = lb.total_counts();
            match event {
                GroupEvent::Join => {
                    let mut members = ids[..n].to_vec();
                    members.push(n);
                    lb.install_view(members, vec![n], vec![]);
                }
                _ => {
                    let leaver = n / 2;
                    let members: Vec<usize> =
                        ids[..n].iter().copied().filter(|&c| c != leaver).collect();
                    lb.install_view(members, vec![], vec![leaver]);
                }
            }
            let live = lb.total_counts().since(&before);
            let counters = counters_as_opcounts(&telemetry);
            assert_eq!(counters, live, "{kind} {}: counters vs live", event.name());
            if let Some(want) = expected_aggregate(kind, event, n) {
                assert_eq!(
                    counters,
                    want,
                    "{kind} {}: counters vs Table 1",
                    event.name()
                );
            }
        }
    }
}

/// Both harnesses receive through `GkaCtx::receive`: every delivered
/// copy of a protocol message costs its receiver one `verify` and one
/// `recv_overhead` span, in the loopback as in a full-stack run.
#[test]
fn every_delivered_copy_is_verified_and_charged_once() {
    let spans = |events: &[Event], want: CryptoOpKind| {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CryptoOp { op, .. } if op == want))
            .count() as u64
    };
    let ids: Vec<usize> = (0..6).collect();
    for kind in ProtocolKind::all() {
        let mut lb = Loopback::new(kind, CryptoSuite::sim_512(), &ids);
        lb.bootstrap(&ids[..5], 5);
        let telemetry = lb.enable_telemetry();
        lb.install_view(ids.clone(), vec![5], vec![]);
        let events = telemetry.take_events();
        assert!(lb.delivered > 0, "{kind}: the join sent messages");
        assert_eq!(spans(&events, CryptoOpKind::Verify), lb.delivered, "{kind}");
        assert_eq!(
            spans(&events, CryptoOpKind::RecvOverhead),
            lb.delivered,
            "{kind}"
        );

        let full = run_join_traced(&ExperimentConfig::lan(kind, SuiteKind::Sim512), ids.len());
        let verifies = spans(&full.events, CryptoOpKind::Verify);
        assert!(verifies > 0, "{kind}: the full-stack join verified");
        assert_eq!(
            spans(&full.events, CryptoOpKind::RecvOverhead),
            verifies,
            "{kind}: full stack"
        );
    }
}

/// A member records into the sink of the world it runs in, with no
/// wiring of its own: four members made with `SecureMember::new` alone
/// on a traced LAN world each record `CryptoOp` and `MessageSend`
/// events for a BD join (every member broadcasts in both rounds). The
/// same run on an untraced world records nothing and ends the same.
#[test]
fn members_record_into_their_worlds_sink() {
    let run = |sink: Telemetry| {
        let suite = Rc::new(CryptoSuite::fast_zero());
        let mut world = SimWorld::new(testbed::lan());
        world.set_telemetry(sink);
        for i in 0..4 {
            let member = SecureMember::new(ProtocolKind::Bd, Rc::clone(&suite), i, Some(3));
            world.add_client(Box::new(member));
        }
        world.install_initial_view_of(vec![0, 1, 2]);
        world.run_until_quiescent();
        world.inject_join(3);
        world.run_until_quiescent();
        let secret = agreed_secret(&world, &[0, 1, 2, 3], 2).ok().cloned();
        (world.telemetry().take_events(), secret, world.now())
    };
    let (events, secret, end) = run(Telemetry::enabled());
    assert!(secret.is_some(), "the join keyed every member");
    for member in 0..4 {
        let mine: Vec<&EventKind> = events
            .iter()
            .filter(|e| e.actor == Actor::Client(member))
            .map(|e| &e.kind)
            .collect();
        let crypto = mine.iter().any(|k| matches!(k, EventKind::CryptoOp { .. }));
        let sends = mine
            .iter()
            .any(|k| matches!(k, EventKind::MessageSend { .. }));
        assert!(crypto, "member {member} recorded its crypto");
        assert!(sends, "member {member} recorded its sends");
    }
    let (untraced, plain_secret, plain_end) = run(Telemetry::disabled());
    assert!(untraced.is_empty(), "an untraced world records nothing");
    assert_eq!(
        (plain_secret, plain_end),
        (secret, end),
        "tracing perturbs nothing"
    );
}

/// The multi-group scale spans (PR 5) obey the same exact-sum
/// discipline as the per-event traces: for every completed rekey,
/// the transport share (injection → last view delivery) plus the
/// agreement share (last view delivery → last key) equals the full
/// rekey span — compared in integer nanoseconds, because the ms
/// vectors are f64 renderings and `(a+b)/1e6` need not equal
/// `a/1e6 + b/1e6` bitwise. The telemetry "transport"/"agreement"
/// span events must carry exactly the same durations, and batching
/// waits never exceed the configured window.
#[test]
fn scale_spans_reconcile_exactly_in_nanos() {
    use gkap_core::scale::{run, ScaleConfig};

    // ms vectors are nanos/1e6; the horizon bounds nanos well under
    // 2^53, so round-tripping through f64 ms recovers nanos exactly.
    let ns = |ms: f64| (ms * 1e6).round() as u64;

    for kind in [ProtocolKind::Gdh, ProtocolKind::Tgdh] {
        let mut cfg = ScaleConfig::lan(kind, 8);
        cfg.churn = 1.0;
        cfg.telemetry = true;
        let r = run(&cfg);
        assert!(r.ok, "{kind}: all groups end keyed");
        assert!(r.rekeys > 0, "{kind}: churn produced rekeys");
        assert_eq!(r.rekey_ms.len(), r.rekeys);
        assert_eq!(r.transport_ms.len(), r.rekeys);
        assert_eq!(r.agreement_ms.len(), r.rekeys);

        // Per-rekey exact sum: the three vectors are pushed in
        // lockstep, so positional comparison is the invariant.
        for i in 0..r.rekeys {
            assert_eq!(
                ns(r.transport_ms[i]) + ns(r.agreement_ms[i]),
                ns(r.rekey_ms[i]),
                "{kind} rekey {i}: transport + agreement != rekey span"
            );
        }

        // The trace spans carry the same durations: compare as sorted
        // multisets (the event log is time-ordered, the vectors are
        // group-ordered).
        let span_durs = |action: Label| -> Vec<u64> {
            let mut durs: Vec<u64> = r
                .events
                .iter()
                .filter(|e| {
                    matches!(e.kind, EventKind::MembershipEvent { action: a, .. } if a == action)
                })
                .map(|e| e.dur.as_nanos())
                .collect();
            durs.sort_unstable();
            durs
        };
        let sorted_ns = |ms: &[f64]| -> Vec<u64> {
            let mut v: Vec<u64> = ms.iter().map(|&m| ns(m)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            span_durs(membership::TRANSPORT),
            sorted_ns(&r.transport_ms),
            "{kind}: transport span events mirror the vector"
        );
        assert_eq!(
            span_durs(membership::AGREEMENT),
            sorted_ns(&r.agreement_ms),
            "{kind}: agreement span events mirror the vector"
        );

        // Batching: one wait sample per raw event, every wait bounded
        // by the window, and the worst vector wait is the worst
        // "batch_wait" span (that event records each batch's full
        // open → flush interval, which its earliest arrival waited).
        assert_eq!(r.batch_wait_ms.len(), r.raw_events);
        let window_ns = cfg.window.as_nanos();
        for &w in &r.batch_wait_ms {
            assert!(
                ns(w) <= window_ns,
                "{kind}: batch wait {w} ms exceeds the window"
            );
        }
        let batch_events = span_durs(membership::BATCH_WAIT);
        assert_eq!(batch_events.len(), r.batches);
        assert_eq!(
            batch_events.last().copied(),
            sorted_ns(&r.batch_wait_ms).last().copied(),
            "{kind}: worst batching wait reconciles"
        );
    }
}
