//! A collaborative-conference scenario (the paper's motivating
//! application): members trickle into a call, some hang up, the
//! network partitions and heals — and after every change the group
//! re-keys. Prints the total elapsed time per event for two contrasting
//! protocols (TGDH vs BD).
//!
//! Run with: `cargo run --example conferencing`

use std::rc::Rc;

use secure_spread_repro::core::experiment::{
    ExperimentConfig, Group, LeaveTarget, Step, SuiteKind,
};
use secure_spread_repro::core::member::SecureMember;
use secure_spread_repro::core::scale::percentile;
use secure_spread_repro::core::suite::CryptoSuite;
use secure_spread_repro::gcs::{testbed, ClientId, SimWorld};
use secure_spread_repro::sim::stats::Summary;
use secure_spread_repro::ProtocolKind;

fn run_conference(kind: ProtocolKind) {
    println!("--- {} ---", kind.name());
    let suite = Rc::new(CryptoSuite::sim_512());
    let mut world = SimWorld::new(testbed::lan());
    for i in 0..12u64 {
        world.add_client(Box::new(SecureMember::new(
            kind,
            Rc::clone(&suite),
            1000 + i,
            Some(7),
        )));
    }

    // The call starts with two participants.
    world.install_initial_view_of(vec![0, 1]);
    world.run_until_quiescent();

    let event = |world: &mut SimWorld, what: &str, joined: Vec<ClientId>, left: Vec<ClientId>| {
        let t0 = world.now().as_millis_f64();
        world.inject_change(joined, left);
        world.run_until_quiescent();
        let view = world.view().unwrap().clone();
        let done = view
            .members
            .iter()
            .map(|&c| {
                world
                    .client::<SecureMember>(c)
                    .completion(view.id)
                    .expect("key established")
                    .as_millis_f64()
            })
            .fold(0.0f64, f64::max);
        println!(
            "{what:<28} -> {:>2} members, re-key in {:>7.2} ms",
            view.members.len(),
            done - t0
        );
    };

    // Participants join one at a time (the common case the paper
    // optimizes for).
    for j in 2..8 {
        event(
            &mut world,
            &format!("participant {j} joins"),
            vec![j],
            vec![],
        );
    }
    // Two hang up.
    event(&mut world, "participant 3 leaves", vec![], vec![3]);
    event(&mut world, "participant 5 leaves", vec![], vec![5]);
    // A network fault cuts three members off at once…
    event(
        &mut world,
        "partition (3 members lost)",
        vec![],
        vec![1, 4, 7],
    );
    // …and two fresh participants join while it is still healing.
    event(&mut world, "two new participants", vec![8, 9], vec![]);

    // Every surviving member agrees on the final key.
    let view = world.view().unwrap().clone();
    let secret = world
        .client::<SecureMember>(view.members[0])
        .secret(view.id)
        .unwrap()
        .clone();
    for &m in &view.members {
        assert_eq!(
            world.client::<SecureMember>(m).secret(view.id),
            Some(&secret)
        );
    }
    println!("final view {:?} shares one key\n", view.members);
}

fn main() {
    for kind in [ProtocolKind::Tgdh, ProtocolKind::Bd] {
        run_conference(kind);
    }
    println!("note how BD re-keys cost roughly the same for joins and");
    println!("leaves while TGDH leaves are much cheaper — Figure 11/12.");
    println!();

    // The same churn as a replayable script through the keyed-group
    // harness: from four members, every third event is a leave and the
    // rest are joins.
    println!("scenario replay (20 churn events, TGDH, DH-512):");
    let cfg = ExperimentConfig::lan(ProtocolKind::Tgdh, SuiteKind::Sim512);
    let script: Vec<Step> = (0..20)
        .map(|i| match i % 3 {
            1 => Step::Leave(LeaveTarget::Nth(i * 5 + 1)),
            _ => Step::Join,
        })
        .collect();
    let joins = script.iter().filter(|&&step| step == Step::Join).count();
    let mut group = Group::form(&cfg, 4, joins);
    let mut summary = Summary::new();
    let mut times = Vec::new();
    for step in script {
        let outcome = group.apply(step);
        assert!(outcome.ok);
        summary.add(outcome.elapsed_ms);
        times.push(outcome.elapsed_ms);
    }
    println!(
        "  mean {:.1} ms   min {:.1}   max {:.1}   p50 {:.1}   p95 {:.1}",
        summary.mean(),
        summary.min(),
        summary.max(),
        percentile(&times, 0.5),
        percentile(&times, 0.95),
    );
}
