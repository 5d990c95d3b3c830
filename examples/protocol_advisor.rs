//! Choosing a key agreement protocol for a deployment: static advice
//! from the paper's conclusions, cross-checked by running the actual
//! simulation for the workload.
//!
//! Run with: `cargo run --release --example protocol_advisor`

use secure_spread_repro::core::experiment::{
    run_join, run_leave_weighted, run_merge, run_partition, ExperimentConfig, SuiteKind,
};
use secure_spread_repro::gcs::testbed;
use secure_spread_repro::ProtocolKind;

/// The network regime a group operates in.
#[derive(Clone, Copy)]
enum Network {
    /// Sub-millisecond links: computation dominates.
    Lan,
    /// Tens of milliseconds and beyond: communication rounds dominate.
    Wan,
}

/// §6.3's advice: TGDH is "the best performing protocol overall"; on a
/// WAN with frequent partitions its multi-round partition is its weak
/// spot, and STR's single-round partition wins.
fn advise(network: Network, partitions: bool) -> ProtocolKind {
    match (network, partitions) {
        (Network::Wan, true) => ProtocolKind::Str,
        _ => ProtocolKind::Tgdh,
    }
}

/// Every protocol's mean event time (virtual ms) at `n` members on the
/// paper's testbed for `network`, fastest first: the mean of a join and
/// a weighted leave, plus a partition and a merge of half the group
/// when `partitions` is set.
fn measured_ranking(network: Network, n: usize, partitions: bool) -> Vec<(ProtocolKind, f64)> {
    let gcs = match network {
        Network::Lan => testbed::lan(),
        Network::Wan => testbed::wan(),
    };
    let mut scores: Vec<(ProtocolKind, f64)> = ProtocolKind::all()
        .into_iter()
        .map(|protocol| {
            let cfg = ExperimentConfig {
                protocol,
                gcs: gcs.clone(),
                suite: SuiteKind::Sim512,
                seed: 0xad << 32 | n as u64,
                confirm_keys: false,
                telemetry: false,
            };
            let mut events = vec![run_join(&cfg, n), run_leave_weighted(&cfg, n)];
            if partitions {
                events.push(run_partition(&cfg, n, n / 2));
                events.push(run_merge(&cfg, n - n / 2, n / 2));
            }
            assert!(
                events.iter().all(|e| e.ok),
                "{protocol} failed the workload"
            );
            let total: f64 = events.iter().map(|e| e.elapsed_ms).sum();
            (protocol, total / events.len() as f64)
        })
        .collect();
    scores.sort_by(|a, b| a.1.total_cmp(&b.1));
    scores
}

fn main() {
    let cases = [
        (
            "LAN conference, churny joins/leaves, ~30 members",
            Network::Lan,
            false,
            30,
        ),
        (
            "three-continent replica group, joins/leaves, ~20 members",
            Network::Wan,
            false,
            20,
        ),
        (
            "flaky WAN with partitions and merges, ~12 members",
            Network::Wan,
            true,
            12,
        ),
    ];

    for (label, network, partitions, n) in cases {
        println!("== {label}");
        println!("   paper's advice: {}", advise(network, partitions));
        let ranking = measured_ranking(network, n, partitions);
        print!("   measured      : ");
        for (i, (protocol, mean_ms)) in ranking.iter().enumerate() {
            if i > 0 {
                print!("  >  ");
            }
            print!("{protocol} ({mean_ms:.0} ms)");
        }
        println!("\n");
    }
    println!("(measured = weighted mean event time in the full simulation;");
    println!(" the paper's §6.3 conclusion — TGDH overall, with STR for");
    println!(" partition-heavy WANs — falls out of the measurements)");
}
