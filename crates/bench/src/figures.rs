//! Figure builders: one function per table/figure of the paper plus
//! the extension studies (see the experiment index in DESIGN.md).
//!
//! Every figure is a grid of independent (series, x, repetition)
//! cells run and folded by [`grid_figure`]: a builder states its
//! title, its two axes and the cell — the configuration that differs
//! and the seed formula. Cell seeds depend only on cell coordinates
//! and results are folded in serial iteration order, so the output is
//! bit-identical for every `jobs` value (asserted by
//! `tests/parallel_determinism.rs`).

use gkap_core::experiment::{
    build_figure_jobs, grid_figure, protocol_axis, run_join, run_join_churned, run_leave,
    run_leave_churned, run_leave_weighted, run_merge, run_partition, run_real_formation,
    ExperimentConfig, LeaveTarget, SuiteKind,
};
use gkap_core::protocols::ProtocolKind;
use gkap_gcs::{testbed, GcsConfig};
use gkap_sim::stats::{Figure, Series, Summary};
use gkap_sim::Duration;

/// The configuration the extension studies measure: DH 512, no key
/// confirmation, telemetry off.
fn sim512(protocol: ProtocolKind, gcs: GcsConfig, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        protocol,
        gcs,
        suite: SuiteKind::Sim512,
        seed,
        confirm_keys: false,
        telemetry: false,
    }
}

/// An x axis: each value paired with where it is plotted.
fn axis<T: Copy>(values: &[T], x: impl Fn(T) -> f64) -> Vec<(f64, T)> {
    values.iter().map(|&v| (x(v), v)).collect()
}

/// Figure 11: join, LAN, for the given parameter size.
pub fn fig11_join_lan(suite: SuiteKind, sizes: &[usize], reps: u32, jobs: usize) -> Figure {
    build_figure_jobs(
        &format!("Figure 11 — Join, LAN, {}", suite.label()),
        &testbed::lan(),
        suite,
        sizes,
        reps,
        jobs,
        run_join,
    )
}

/// Figure 12: leave, LAN.
pub fn fig12_leave_lan(suite: SuiteKind, sizes: &[usize], reps: u32, jobs: usize) -> Figure {
    build_figure_jobs(
        &format!("Figure 12 — Leave, LAN, {}", suite.label()),
        &testbed::lan(),
        suite,
        sizes,
        reps,
        jobs,
        run_leave_weighted,
    )
}

/// Figure 14 (left): join, WAN.
pub fn fig14_join_wan(sizes: &[usize], reps: u32, jobs: usize) -> Figure {
    build_figure_jobs(
        "Figure 14 — Join, WAN, DH 512 bits",
        &testbed::wan(),
        SuiteKind::Sim512,
        sizes,
        reps,
        jobs,
        run_join,
    )
}

/// Figure 14 (right): leave, WAN.
pub fn fig14_leave_wan(sizes: &[usize], reps: u32, jobs: usize) -> Figure {
    build_figure_jobs(
        "Figure 14 — Leave, WAN, DH 512 bits",
        &testbed::wan(),
        SuiteKind::Sim512,
        sizes,
        reps,
        jobs,
        run_leave_weighted,
    )
}

/// Extension X4: real initial key agreement (IKA) — the cost of
/// forming an n-member group from scratch with the actual protocol
/// (the paper only measures incremental events; the IKA cost explains
/// why: it runs once per group lifetime).
pub fn ika_figure(gcs: &GcsConfig, title: &str, sizes: &[usize], reps: u32, jobs: usize) -> Figure {
    build_figure_jobs(
        title,
        gcs,
        SuiteKind::Sim512,
        sizes,
        reps,
        jobs,
        run_real_formation,
    )
}

/// Extension X5: scalability beyond the paper — join and leave up to
/// 100 members on the LAN (the paper stops at 50; §3.1 says Spread
/// "is designed to support small to medium groups").
pub fn scale_figure(sizes: &[usize], reps: u32, jobs: usize) -> Figure {
    let (fig, _) = grid_figure(
        "Extension — scalability: join (solid) to n=100, LAN, DH 512",
        &protocol_axis(&ProtocolKind::all()),
        &axis(sizes, |n| n as f64),
        reps,
        jobs,
        |&kind, &n, rep| {
            let seed = 0x5eed ^ ((rep + 1) << 20) ^ n as u64;
            run_join(&sim512(kind, testbed::lan(), seed), n)
        },
    );
    fig
}

/// Extension X2: partition — half the group drops away at once.
pub fn partition_figure(
    gcs: &GcsConfig,
    title: &str,
    sizes: &[usize],
    reps: u32,
    jobs: usize,
) -> Figure {
    build_figure_jobs(
        title,
        gcs,
        SuiteKind::Sim512,
        sizes,
        reps,
        jobs,
        |cfg, n| run_partition(cfg, n, (n / 2).max(1).min(n - 1)),
    )
}

/// Extension X2: merge — two equal groups heal.
pub fn merge_figure(
    gcs: &GcsConfig,
    title: &str,
    sizes: &[usize],
    reps: u32,
    jobs: usize,
) -> Figure {
    build_figure_jobs(
        title,
        gcs,
        SuiteKind::Sim512,
        sizes,
        reps,
        jobs,
        |cfg, n| {
            let half = (n / 2).max(1);
            run_merge(cfg, n - half, half)
        },
    )
}

/// Extension X1 (§7 future work): medium-delay WAN sweep — total join
/// time at a fixed group size as the inter-site one-way latency grows,
/// locating the computation/communication crossover.
pub fn crossover_figure(n: usize, delays_ms: &[u64], reps: u32, jobs: usize) -> Figure {
    let (fig, _) = grid_figure(
        &format!(
            "Crossover — Join at n={n}, symmetric 3-site WAN, DH 512 bits (x = one-way delay ms)"
        ),
        &protocol_axis(&ProtocolKind::all()),
        &axis(delays_ms, |d| d as f64),
        reps,
        jobs,
        |&kind, &d, rep| {
            let gcs = testbed::medium_wan(Duration::from_millis(d));
            run_join(&sim512(kind, gcs, 0x5eed ^ ((rep + 1) << 24) ^ d), n)
        },
    );
    fig
}

/// Ablation A1: BD join time vs flow-control budget. Run on the WAN,
/// where each extra token rotation costs ~160 ms and the budget binds.
pub fn flow_control_ablation(n: usize, budgets: &[usize], reps: u32, jobs: usize) -> Figure {
    let (fig, _) = grid_figure(
        &format!("Ablation — BD join at n={n} vs flow control (msgs per token visit), WAN, DH 512"),
        &protocol_axis(&[ProtocolKind::Bd]),
        &axis(budgets, |b| b as f64),
        reps,
        jobs,
        |&kind, &b, rep| {
            let mut gcs = testbed::wan();
            gcs.flow_control_max_msgs = b;
            run_join(&sim512(kind, gcs, 0x5eed ^ ((rep + 1) << 16) ^ b as u64), n)
        },
    );
    fig
}

/// Ablation A2: sponsor location (§6.2.3) — WAN leave time per leaver
/// position. TGDH's cost varies with where the sponsor lands; GDH and
/// CKD, whose controller is fixed, stay flat.
pub fn sponsor_location_ablation(n: usize) -> Figure {
    let (fig, _) = grid_figure(
        &format!("Ablation — WAN leave at n={n} by leaver position (sponsor roams in TGDH)"),
        &protocol_axis(&[ProtocolKind::Tgdh, ProtocolKind::Gdh, ProtocolKind::Ckd]),
        &axis(&[10u64, 30, 50, 70, 90], |pct| pct as f64),
        2,
        1,
        |&kind, &pos_pct, rep| {
            // Approximate position targeting through the provided targets.
            let target = match pos_pct {
                0..=24 => LeaveTarget::Oldest,
                76.. => LeaveTarget::Newest,
                _ => LeaveTarget::Middle,
            };
            let seed = 0x5eed ^ (rep << 8) ^ pos_pct;
            run_leave(&sim512(kind, testbed::wan(), seed), n, target)
        },
    );
    fig
}

/// Ablation A4: signature scheme — RSA (e = 3, cheap verify) versus
/// DSA (two-exponentiation verify) for every protocol's join. BD, with
/// its 2(n-1) verifications per member, suffers most (§6.1.1).
pub fn signature_scheme_ablation(n: usize, reps: u32, jobs: usize) -> Figure {
    let (fig, _) = grid_figure(
        &format!(
            "Ablation — signature scheme: join at n={n}, LAN, DH 512 (x: 0 = RSA e=3, 1 = DSA)"
        ),
        &protocol_axis(&ProtocolKind::all()),
        &[(0.0, SuiteKind::Sim512), (1.0, SuiteKind::Sim512Dsa)],
        reps,
        jobs,
        |&kind, &suite, rep| {
            let cfg = ExperimentConfig {
                suite,
                ..sim512(kind, testbed::lan(), 0x5eed ^ ((rep + 1) << 40))
            };
            run_join(&cfg, n)
        },
    );
    fig
}

/// Ablation A5 (footnote 7): TGDH with the paper's best-effort
/// balancing versus AVL tree management — join time and tree height
/// after churn.
pub fn avl_policy_ablation(n: usize, churn: usize) -> Figure {
    use gkap_core::experiment::run_churned_with_factory;
    use gkap_core::protocols::tgdh::Tgdh;
    use gkap_core::protocols::GkaProtocol;
    let mut fig = Figure::new(format!(
        "Ablation — TGDH tree policy after churn({churn}) at n={n}, LAN DH 512 \
         (x: 0 = join ms, 1 = tree height)"
    ));
    for (label, avl) in [("paper", false), ("avl", true)] {
        let factory = move || -> Box<dyn GkaProtocol> {
            if avl {
                Box::new(Tgdh::new_avl())
            } else {
                Box::<Tgdh>::default()
            }
        };
        let cfg = sim512(ProtocolKind::Tgdh, testbed::lan(), 0x471_5eed);
        let (outcome, height) = run_churned_with_factory(&cfg, &factory, n, churn);
        assert!(outcome.ok, "TGDH {label} policy");
        let mut series = Series::new(format!("TGDH-{label}"));
        let mut s0 = Summary::new();
        s0.add(outcome.elapsed_ms);
        series.push(0.0, s0);
        let mut s1 = Summary::new();
        // TGDH runs always report a height; fall back to 0 rather
        // than panicking if a future factory stops reporting one.
        s1.add(height.unwrap_or(0) as f64);
        series.push(1.0, s1);
        fig.push(series);
    }
    fig
}

/// Extension X3: lossy links — total join time versus daemon-link
/// loss rate (the hostile-network regime the paper's related work on
/// Bimodal Multicast targets). Token-driven retransmission recovers
/// every loss; the curves show the latency price.
pub fn lossy_links_figure(n: usize, loss_pcts: &[u32], reps: u32, jobs: usize) -> Figure {
    let (fig, _) = grid_figure(
        &format!("Extension — lossy WAN: join at n={n}, DH 512 (x = loss % per daemon link)"),
        &protocol_axis(&[ProtocolKind::Tgdh, ProtocolKind::Bd, ProtocolKind::Ckd]),
        &axis(loss_pcts, f64::from),
        reps,
        jobs,
        |&kind, &pct, rep| {
            let mut gcs = testbed::wan();
            gcs.loss_rate = f64::from(pct) / 100.0;
            gcs.loss_seed = 0x1055 ^ (rep << 8) ^ u64::from(pct);
            run_join(&sim512(kind, gcs, 0x5eed ^ ((rep + 1) << 48)), n)
        },
    );
    fig
}

/// Ablation A6: heterogeneous hardware — one machine runs at a
/// fraction of the baseline speed (the paper's WAN testbed mixed a
/// 850 MHz Athlon and a 930 MHz PIII into the 666 MHz cluster). The
/// figure shows join time versus the slow machine's speed factor for
/// a protocol whose critical path can land on it (TGDH sponsor) and
/// one that is symmetric (BD — every member is on the critical path).
pub fn hetero_machine_ablation(n: usize, reps: u32, jobs: usize) -> Figure {
    let (fig, _) = grid_figure(
        &format!(
            "Ablation — one slow machine: join at n={n}, LAN, DH 512 (x = slow machine speed factor %)"
        ),
        &protocol_axis(&[ProtocolKind::Tgdh, ProtocolKind::Bd, ProtocolKind::Gdh]),
        &axis(&[100u64, 75, 50, 25], |pct| pct as f64),
        reps,
        jobs,
        |&kind, &pct, rep| {
            let mut gcs = testbed::lan();
            // Rebuild the topology with machine 0 slowed down.
            let mut machines = Vec::new();
            for m in 0..gcs.topology.machine_count() {
                let mut cfgm = gcs.topology.machine(m).clone();
                if m == 0 {
                    cfgm.speed = pct as f64 / 100.0;
                }
                machines.push(cfgm);
            }
            gcs.topology = gkap_gcs::Topology::new(
                vec![gkap_gcs::SiteCfg {
                    name: "site0".into(),
                }],
                machines,
                vec![vec![Duration::ZERO]],
                Duration::from_micros(40),
            );
            run_join(&sim512(kind, gcs, 0x5eed ^ ((rep + 1) << 56) ^ pct), n)
        },
    );
    fig
}

/// Ablation A7: key confirmation (§5's optional digest round) —
/// join time with and without confirmation, LAN and WAN.
pub fn key_confirmation_ablation(n: usize, reps: u32, jobs: usize) -> Figure {
    let mut series = Vec::new();
    for (net, gcs) in [("LAN", testbed::lan()), ("WAN", testbed::wan())] {
        for kind in [ProtocolKind::Tgdh, ProtocolKind::Gdh] {
            series.push((format!("{}-{net}", kind.name()), (kind, gcs.clone())));
        }
    }
    let (fig, _) = grid_figure(
        &format!("Ablation — key confirmation: join at n={n}, DH 512 (x: 0 = off, 1 = on)"),
        &series,
        &[(0.0, false), (1.0, true)],
        reps,
        jobs,
        |(kind, gcs), &confirm_keys, rep| {
            let cfg = ExperimentConfig {
                confirm_keys,
                ..sim512(*kind, gcs.clone(), 0x5eed ^ ((rep + 1) << 12))
            };
            run_join(&cfg, n)
        },
    );
    fig
}

/// Ablation A3: tree shape — TGDH and STR join/leave on a pristine
/// (balanced bootstrap) group versus one scrambled by churn
/// (§6.1.2's "random-looking tree" discussion).
pub fn tree_shape_ablation(n: usize, churn: usize) -> Figure {
    let mut series = Vec::new();
    for kind in [ProtocolKind::Tgdh, ProtocolKind::Str] {
        for (label, churned) in [("pristine", false), ("churned", true)] {
            series.push((format!("{}-{label}", kind.name()), (kind, churned)));
        }
    }
    let (fig, _) = grid_figure(
        &format!(
            "Ablation — tree shape: join/leave at n={n}, pristine vs churned({churn}), LAN DH 512"
        ),
        &series,
        &[(0.0, true), (1.0, false)], // x: 0 = join, 1 = leave
        1,
        1,
        |&(kind, churned), &is_join, _rep| {
            let cfg = sim512(kind, testbed::lan(), 0xab5eed);
            match (is_join, churned) {
                (true, false) => run_join(&cfg, n),
                (true, true) => run_join_churned(&cfg, n, churn),
                (false, false) => run_leave_weighted(&cfg, n),
                (false, true) => run_leave_churned(&cfg, n, churn),
            }
        },
    );
    fig
}
