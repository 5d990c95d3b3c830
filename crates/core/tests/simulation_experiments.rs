//! End-to-end experiments over the simulated Spread: group formation,
//! join/leave/merge/partition events on the LAN and WAN testbeds, and
//! validation of the paper's qualitative timing claims.

use gkap_core::experiment::{
    agreed_secret, run_join, run_leave, run_leave_weighted, run_merge, run_partition,
    ExperimentConfig, Group, LeaveTarget, SuiteKind,
};
use gkap_core::protocols::ProtocolKind;
use gkap_gcs::ClientId;

#[test]
fn formation_all_protocols() {
    for kind in ProtocolKind::all() {
        for n in [1usize, 2, 5, 13] {
            let group = Group::form(&ExperimentConfig::lan_fast(kind), n, 0);
            let members: Vec<ClientId> = (0..n).collect();
            let agreed = agreed_secret(&group.world, &members, 1).is_ok();
            assert!(agreed, "{kind} formation n={n}");
        }
    }
}

#[test]
fn join_over_simulated_lan() {
    for kind in ProtocolKind::all() {
        for n in [2usize, 5, 14] {
            let outcome = run_join(&ExperimentConfig::lan_fast(kind), n);
            assert!(outcome.ok, "{kind} join n={n}");
            assert_eq!(outcome.size_after, n);
            assert!(outcome.elapsed_ms > 0.0);
            assert!(outcome.membership_ms <= outcome.elapsed_ms);
        }
    }
}

#[test]
fn leave_over_simulated_lan() {
    for kind in ProtocolKind::all() {
        for n in [3usize, 6, 15] {
            for target in [
                LeaveTarget::Middle,
                LeaveTarget::Oldest,
                LeaveTarget::Newest,
            ] {
                let outcome = run_leave(&ExperimentConfig::lan_fast(kind), n, target);
                assert!(outcome.ok, "{kind} leave n={n} {target:?}");
                assert_eq!(outcome.size_after, n - 1);
            }
        }
    }
}

#[test]
fn weighted_leave_ckd() {
    let outcome = run_leave_weighted(&ExperimentConfig::lan_fast(ProtocolKind::Ckd), 10);
    assert!(outcome.ok);
}

#[test]
fn partition_over_simulated_lan() {
    for kind in ProtocolKind::all() {
        let outcome = run_partition(&ExperimentConfig::lan_fast(kind), 12, 5);
        assert!(outcome.ok, "{kind} partition");
        assert_eq!(outcome.size_after, 7);
    }
}

#[test]
fn merge_over_simulated_lan() {
    for kind in ProtocolKind::all() {
        let outcome = run_merge(&ExperimentConfig::lan_fast(kind), 7, 4);
        assert!(outcome.ok, "{kind} merge");
        assert_eq!(outcome.size_after, 11);
    }
}

#[test]
fn join_and_leave_over_wan() {
    for kind in ProtocolKind::all() {
        let cfg = ExperimentConfig {
            gcs: gkap_gcs::testbed::wan(),
            ..ExperimentConfig::lan_fast(kind)
        };
        let join = run_join(&cfg, 10);
        assert!(join.ok, "{kind} WAN join");
        // WAN events cost hundreds of ms even with free crypto
        // (membership + agreed rounds).
        assert!(
            join.elapsed_ms > 300.0,
            "{kind} WAN join suspiciously fast: {:.0} ms",
            join.elapsed_ms
        );
        let leave = run_leave(&cfg, 10, LeaveTarget::Middle);
        assert!(leave.ok, "{kind} WAN leave");
    }
}

#[test]
fn lan_join_timing_orderings_512() {
    // The paper's headline qualitative results for Figure 11 (left):
    // measure at a size where the orderings are unambiguous.
    let t = |kind: ProtocolKind, n: usize| {
        let outcome = run_join(&ExperimentConfig::lan(kind, SuiteKind::Sim512), n);
        assert!(outcome.ok, "{kind} join n={n}");
        outcome.elapsed_ms
    };
    // At n = 40: BD has deteriorated past everyone; GDH/CKD linear and
    // clearly above TGDH/STR.
    let n = 40;
    let bd = t(ProtocolKind::Bd, n);
    let gdh = t(ProtocolKind::Gdh, n);
    let ckd = t(ProtocolKind::Ckd, n);
    let tgdh = t(ProtocolKind::Tgdh, n);
    let str_ = t(ProtocolKind::Str, n);
    assert!(
        bd > tgdh,
        "BD ({bd:.1}) must exceed TGDH ({tgdh:.1}) at n={n}"
    );
    assert!(
        bd > str_,
        "BD ({bd:.1}) must exceed STR ({str_:.1}) at n={n}"
    );
    assert!(gdh > tgdh, "GDH ({gdh:.1}) must exceed TGDH ({tgdh:.1})");
    assert!(ckd > tgdh, "CKD ({ckd:.1}) must exceed TGDH ({tgdh:.1})");
    assert!(
        str_ < gdh,
        "STR ({str_:.1}) must beat GDH ({gdh:.1}) on join"
    );

    // At small sizes BD is among the cheapest (few verifications).
    let bd_small = t(ProtocolKind::Bd, 4);
    let gdh_small = t(ProtocolKind::Gdh, 4);
    assert!(
        bd_small < gdh_small,
        "BD ({bd_small:.1}) should beat GDH ({gdh_small:.1}) at n=4"
    );
}

#[test]
fn lan_leave_tgdh_wins_512() {
    // Figure 12: TGDH leave is sub-linear and the cheapest at size 40.
    let t = |kind: ProtocolKind| {
        let outcome = run_leave_weighted(&ExperimentConfig::lan(kind, SuiteKind::Sim512), 40);
        assert!(outcome.ok, "{kind} leave");
        outcome.elapsed_ms
    };
    let tgdh = t(ProtocolKind::Tgdh);
    for other in [
        ProtocolKind::Gdh,
        ProtocolKind::Str,
        ProtocolKind::Bd,
        ProtocolKind::Ckd,
    ] {
        let v = t(other);
        assert!(
            tgdh < v,
            "TGDH leave ({tgdh:.1}) must beat {other} ({v:.1}) at n=40"
        );
    }
}

#[test]
fn wan_join_gdh_worst() {
    // Figure 14 (left): GDH is far worse than everything else on the
    // WAN because of its round count and Agreed factor-out unicasts.
    let t = |kind: ProtocolKind| {
        let outcome = run_join(&ExperimentConfig::wan(kind, SuiteKind::Sim512), 20);
        assert!(outcome.ok, "{kind} WAN join");
        outcome.elapsed_ms
    };
    let gdh = t(ProtocolKind::Gdh);
    for other in [ProtocolKind::Tgdh, ProtocolKind::Str, ProtocolKind::Ckd] {
        let v = t(other);
        assert!(
            gdh > 1.5 * v,
            "GDH ({gdh:.0}) must dwarf {other} ({v:.0}) on WAN join"
        );
    }
}

#[test]
fn wan_leave_bd_worst() {
    // Figure 14 (right): BD pays two all-to-all rounds on leave.
    let t = |kind: ProtocolKind| {
        let outcome = run_leave(
            &ExperimentConfig::wan(kind, SuiteKind::Sim512),
            20,
            LeaveTarget::Middle,
        );
        assert!(outcome.ok, "{kind} WAN leave");
        outcome.elapsed_ms
    };
    let bd = t(ProtocolKind::Bd);
    for other in [ProtocolKind::Gdh, ProtocolKind::Tgdh, ProtocolKind::Ckd] {
        let v = t(other);
        assert!(
            bd > v,
            "BD ({bd:.0}) must exceed {other} ({v:.0}) on WAN leave"
        );
    }
}

#[test]
fn dh1024_slower_than_dh512() {
    for kind in ProtocolKind::all() {
        let t512 = run_join(&ExperimentConfig::lan(kind, SuiteKind::Sim512), 20);
        let t1024 = run_join(&ExperimentConfig::lan(kind, SuiteKind::Sim1024), 20);
        assert!(t512.ok && t1024.ok);
        assert!(
            t1024.elapsed_ms > t512.elapsed_ms,
            "{kind}: 1024-bit ({:.1}) must cost more than 512-bit ({:.1})",
            t1024.elapsed_ms,
            t512.elapsed_ms
        );
    }
}

#[test]
fn determinism_same_seed_same_results() {
    let cfg = ExperimentConfig::lan(ProtocolKind::Tgdh, SuiteKind::Sim512);
    let a = run_join(&cfg, 15);
    let b = run_join(&cfg, 15);
    assert_eq!(a.elapsed_ms, b.elapsed_ms);
    assert_eq!(a.counts, b.counts);
}

/// The protocols ranked by mean event time (virtual ms), fastest first,
/// at `n` members on `base`'s testbed: the mean of a join and a
/// weighted leave, plus a partition and a merge of half the group when
/// `splits` is set.
fn ranking(
    base: fn(ProtocolKind, SuiteKind) -> ExperimentConfig,
    n: usize,
    splits: bool,
) -> Vec<ProtocolKind> {
    let mut scores: Vec<(ProtocolKind, f64)> = ProtocolKind::all()
        .into_iter()
        .map(|kind| {
            let cfg = ExperimentConfig {
                seed: 0xad << 32 | n as u64,
                ..base(kind, SuiteKind::Sim512)
            };
            let mut events = vec![run_join(&cfg, n), run_leave_weighted(&cfg, n)];
            if splits {
                events.push(run_partition(&cfg, n, n / 2));
                events.push(run_merge(&cfg, n - n / 2, n / 2));
            }
            assert!(events.iter().all(|e| e.ok), "{kind} failed the workload");
            let total: f64 = events.iter().map(|e| e.elapsed_ms).sum();
            (kind, total / events.len() as f64)
        })
        .collect();
    scores.sort_by(|a, b| a.1.total_cmp(&b.1));
    scores.into_iter().map(|(kind, _)| kind).collect()
}

#[test]
fn lan_join_leave_ranks_a_tree_protocol_first() {
    // §6.3: on the LAN TGDH or STR leads a join/leave mix at n = 30,
    // and BD or GDH trails it.
    let ranked = ranking(ExperimentConfig::lan, 30, false);
    assert!(
        matches!(ranked[0], ProtocolKind::Tgdh | ProtocolKind::Str),
        "unexpected LAN winner {}",
        ranked[0]
    );
    assert!(
        matches!(ranked[4], ProtocolKind::Bd | ProtocolKind::Gdh),
        "unexpected LAN loser {}",
        ranked[4]
    );
}

#[test]
fn wan_partitions_and_merges_rank_gdh_low() {
    // Figure 14: GDH's round count puts it 4th or 5th of five on a WAN
    // mix of joins, leaves, partitions and merges at n = 12.
    let ranked = ranking(ExperimentConfig::wan, 12, true);
    let gdh = ranked.iter().position(|&k| k == ProtocolKind::Gdh);
    let gdh = gdh.expect("GDH is ranked");
    assert!(
        gdh >= 3,
        "GDH ranks {gdh}; its m-round merge must rank poorly on the WAN"
    );
}
