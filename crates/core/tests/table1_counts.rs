//! Validation of Table 1: the live operation counters of the
//! implementations must match the closed-form aggregate costs (for
//! GDH, BD, CKD — shape-independent) and respect the paper's bounds
//! for the tree protocols (TGDH, STR).

use gkap_core::cost::OpCounts;
use gkap_core::costs_table::{expected_aggregate, GroupEvent};
use gkap_core::protocols::ProtocolKind;
use gkap_core::suite::CryptoSuite;
use gkap_core::testkit::Loopback;

/// Runs one event on a bootstrapped group and returns the aggregate
/// count delta.
fn event_counts(kind: ProtocolKind, n: usize, event: GroupEvent) -> OpCounts {
    let total = n + 16;
    let ids: Vec<usize> = (0..total).collect();
    let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
    lb.bootstrap(&ids[..n], 5);
    let before = lb.total_counts();
    match event {
        GroupEvent::Join => {
            let mut members = ids[..n].to_vec();
            members.push(n);
            lb.install_view(members, vec![n], vec![]);
        }
        GroupEvent::Leave => {
            let leaver = n / 2;
            let members: Vec<usize> = ids[..n].iter().copied().filter(|&c| c != leaver).collect();
            lb.install_view(members, vec![], vec![leaver]);
        }
        GroupEvent::Merge(m) => {
            // m fresh singletons (the shape-independent protocols treat
            // singleton and component merges identically).
            let joiners: Vec<usize> = (n..n + m).collect();
            let mut members = ids[..n].to_vec();
            members.extend_from_slice(&joiners);
            lb.install_view(members, joiners, vec![]);
        }
        GroupEvent::Partition(p) => {
            let leaving: Vec<usize> = (0..p).map(|i| 1 + i * 2).collect();
            let members: Vec<usize> = ids[..n]
                .iter()
                .copied()
                .filter(|c| !leaving.contains(c))
                .collect();
            lb.install_view(members, vec![], leaving);
        }
    }
    lb.total_counts().since(&before)
}

#[test]
fn gdh_aggregate_counts_exact() {
    for n in [2usize, 3, 5, 10, 20] {
        for event in [GroupEvent::Join, GroupEvent::Leave, GroupEvent::Merge(4)] {
            if matches!(event, GroupEvent::Leave) && n < 3 {
                continue;
            }
            let got = event_counts(ProtocolKind::Gdh, n, event);
            let want = expected_aggregate(ProtocolKind::Gdh, event, n).expect("closed form");
            assert_eq!(got, want, "GDH {} n={n}", event.name());
        }
    }
    let got = event_counts(ProtocolKind::Gdh, 11, GroupEvent::Partition(4));
    let want = expected_aggregate(ProtocolKind::Gdh, GroupEvent::Partition(4), 11).unwrap();
    assert_eq!(got, want, "GDH partition");
}

#[test]
fn bd_aggregate_counts_exact() {
    for n in [3usize, 5, 10, 20] {
        for event in [
            GroupEvent::Join,
            GroupEvent::Leave,
            GroupEvent::Merge(3),
            GroupEvent::Partition(2),
        ] {
            if event.size_after(n) < 2 {
                continue; // degenerate single-member result
            }
            let got = event_counts(ProtocolKind::Bd, n, event);
            let want = expected_aggregate(ProtocolKind::Bd, event, n).expect("closed form");
            assert_eq!(got, want, "BD {} n={n}", event.name());
        }
    }
}

#[test]
fn ckd_aggregate_counts_exact() {
    for n in [2usize, 5, 10, 20] {
        for event in [GroupEvent::Join, GroupEvent::Merge(4)] {
            let got = event_counts(ProtocolKind::Ckd, n, event);
            let want = expected_aggregate(ProtocolKind::Ckd, event, n).expect("closed form");
            assert_eq!(got, want, "CKD {} n={n}", event.name());
        }
    }
    // Leave with a non-controller leaver (the closed form's case).
    for n in [3usize, 10, 20] {
        let got = event_counts(ProtocolKind::Ckd, n, GroupEvent::Leave);
        let want = expected_aggregate(ProtocolKind::Ckd, GroupEvent::Leave, n).unwrap();
        assert_eq!(got, want, "CKD leave n={n}");
    }
}

#[test]
fn tgdh_costs_bounded_logarithmically() {
    // TGDH join: messages exactly 3, aggregate exponentiations O(n·h)
    // in total but the *per-member* exps stay O(h) — check the sponsor
    // bound and the message counts.
    for n in [4usize, 8, 16, 32] {
        let got = event_counts(ProtocolKind::Tgdh, n, GroupEvent::Join);
        assert_eq!(got.multicast, 3, "TGDH join messages (n={n})");
        assert_eq!(got.unicast, 0);
        let h = ((n + 1) as f64).log2().ceil() as u64 + 1;
        // Aggregate: every member recomputes at most its changed path
        // (≤ 2h for sponsors, ≤ h otherwise).
        let bound = 2 * h * (n as u64 + 1) + 4;
        assert!(
            got.exp <= bound,
            "TGDH join exps {} exceed bound {bound} (n={n})",
            got.exp
        );
        // Leave: exactly one broadcast.
        let got = event_counts(ProtocolKind::Tgdh, n, GroupEvent::Leave);
        assert_eq!(got.multicast, 1, "TGDH leave messages (n={n})");
    }
}

#[test]
fn tgdh_leave_sponsor_cost_logarithmic() {
    // The headline claim: TGDH leave costs O(h) at the critical-path
    // member (the sponsor), versus the GDH controller's O(n). The
    // *aggregate* across members is Θ(n) for both (every member must
    // re-derive the root key) — TGDH wins on the serial path, which is
    // what the latency figures show.
    for n in [16usize, 32, 48] {
        let ids: Vec<usize> = (0..n).collect();
        let mut lb = Loopback::new(ProtocolKind::Tgdh, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids, 5);
        let before: Vec<_> = (0..n).map(|c| *lb.member(c).counts()).collect();
        let leaver = n / 2;
        let members: Vec<usize> = ids.iter().copied().filter(|&c| c != leaver).collect();
        lb.install_view(members.clone(), vec![], vec![leaver]);
        let max_member_exps = members
            .iter()
            .map(|&c| lb.member(c).counts().since(&before[c]).exp)
            .max()
            .unwrap();
        let h = (n as f64).log2().ceil() as u64;
        assert!(
            max_member_exps <= 2 * h + 3,
            "TGDH leave critical path {max_member_exps} exps exceeds ~2h = {} (n={n})",
            2 * h
        );
        // GDH's controller, in contrast, pays ~n.
        let mut lb = Loopback::new(ProtocolKind::Gdh, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids, 5);
        let before: Vec<_> = (0..n).map(|c| *lb.member(c).counts()).collect();
        lb.install_view(members.clone(), vec![], vec![leaver]);
        let gdh_max = members
            .iter()
            .map(|&c| lb.member(c).counts().since(&before[c]).exp)
            .max()
            .unwrap();
        assert!(
            gdh_max as usize >= n - 2,
            "GDH controller should pay ~n exps, got {gdh_max} (n={n})"
        );
    }
}

#[test]
fn str_costs_shape() {
    for n in [4usize, 8, 16, 32] {
        // Join: exactly 3 messages; constant-ish aggregate exps at the
        // sponsors plus O(1) per member.
        let got = event_counts(ProtocolKind::Str, n, GroupEvent::Join);
        assert_eq!(got.multicast, 3, "STR join messages (n={n})");
        assert!(
            got.exp <= 4 * (n as u64) + 10,
            "STR join exps {} too high (n={n})",
            got.exp
        );
        // Leave: one broadcast; aggregate exps O(n^2) worst (members
        // above the sponsor each redo their tail) but bounded.
        let got = event_counts(ProtocolKind::Str, n, GroupEvent::Leave);
        assert_eq!(got.multicast, 1, "STR leave messages (n={n})");
    }
}

#[test]
fn str_join_member_cost_constant() {
    // A non-sponsor member's join cost must not grow with n (STR's
    // selling point for join).
    let mut costs = Vec::new();
    for n in [8usize, 16, 32] {
        let total = n + 16;
        let ids: Vec<usize> = (0..total).collect();
        let mut lb = Loopback::new(ProtocolKind::Str, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids[..n], 5);
        let before = *lb.member(1).counts(); // member 1: near the bottom, not a sponsor
        let mut members = ids[..n].to_vec();
        members.push(n);
        lb.install_view(members, vec![n], vec![]);
        let diff = lb.member(1).counts().since(&before);
        costs.push(diff.exp);
    }
    assert!(
        costs.iter().all(|&c| c <= costs[0] + 1),
        "STR per-member join exps must stay constant: {costs:?}"
    );
}

#[test]
fn bd_hidden_cost_grows_quadratically() {
    // §5: BD's "hidden" small-exponent cost — n-2 small exps per
    // member, n(n-2) aggregate.
    let a = event_counts(ProtocolKind::Bd, 10, GroupEvent::Join);
    let b = event_counts(ProtocolKind::Bd, 20, GroupEvent::Join);
    assert_eq!(a.small_exp, 11 * 9);
    assert_eq!(b.small_exp, 21 * 19);
    assert!(b.small_exp > 3 * a.small_exp, "super-linear growth");
}

#[test]
fn signature_and_verification_parity() {
    // Every sign is verified by every receiver: for pure-multicast
    // protocols, verify == sign * (n-1).
    for kind in [ProtocolKind::Bd, ProtocolKind::Tgdh, ProtocolKind::Str] {
        let n = 9;
        let got = event_counts(kind, n, GroupEvent::Leave);
        let nn = (n - 1) as u64; // group size after leave
        assert_eq!(
            got.verify,
            got.sign * (nn - 1),
            "{kind}: multicast verification parity"
        );
    }
}
