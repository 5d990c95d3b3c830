//! End-to-end correctness of all five protocols over the loopback
//! harness: every membership event must leave every member holding the
//! same, fresh group key.

use gkap_core::protocols::ProtocolKind;
use gkap_core::suite::{CryptoSuite, SigMode};
use gkap_core::testkit::Loopback;
use gkap_core::CostModel;
use gkap_crypto::dh::DhGroup;

fn harness(kind: ProtocolKind, n: usize) -> Loopback {
    let ids: Vec<usize> = (0..n).collect();
    let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
    lb.bootstrap(&ids, 42);
    lb
}

#[test]
fn all_protocols_bootstrap_agree() {
    for kind in ProtocolKind::all() {
        let lb = harness(kind, 6);
        let _ = lb.common_secret(); // panics on divergence
    }
}

#[test]
fn join_reaches_fresh_common_key() {
    for kind in ProtocolKind::all() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let ids: Vec<usize> = (0..n + 1).collect();
            let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
            lb.bootstrap(&ids[..n], 42);
            let old = lb.common_secret();
            lb.install_view(ids.clone(), vec![n], vec![]);
            let new = lb.common_secret();
            assert_ne!(old, new, "{kind} join must refresh the key (n={n})");
        }
    }
}

#[test]
fn leave_reaches_fresh_common_key_any_position() {
    for kind in ProtocolKind::all() {
        for n in [2usize, 3, 5, 8] {
            for pos in 0..n {
                let ids: Vec<usize> = (0..n).collect();
                let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
                lb.bootstrap(&ids, 7);
                let old = lb.common_secret();
                let leaver = ids[pos];
                let remaining: Vec<usize> = ids.iter().copied().filter(|&c| c != leaver).collect();
                lb.install_view(remaining, vec![], vec![leaver]);
                let new = lb.common_secret();
                assert_ne!(old, new, "{kind} leave pos {pos} of {n} must refresh");
            }
        }
    }
}

#[test]
fn ckd_rekeys_on_a_1024_bit_group() {
    // The secret CKD distributes is as wide as the modulus: 128 bytes
    // here, which the 64-byte blob of the 512-bit days could not hold.
    let suite = CryptoSuite::new(
        DhGroup::modp_1024(),
        1024,
        CostModel::zero(),
        SigMode::Modeled,
    );
    let ids: Vec<usize> = (0..4).collect();
    let mut lb = Loopback::new(ProtocolKind::Ckd, suite, &ids);
    lb.bootstrap(&ids[..3], 42);
    let formed = lb.common_secret();
    lb.install_view(ids.clone(), vec![3], vec![]);
    let joined = lb.common_secret();
    assert!(joined.bit_len() > 512, "a secret wider than the old blob");
    // The controller leaves: its successor re-keys every channel.
    lb.install_view(vec![1, 2, 3], vec![], vec![0]);
    let left = lb.common_secret();
    assert!(formed != joined && joined != left);
}

#[test]
fn partition_reaches_fresh_common_key() {
    for kind in ProtocolKind::all() {
        let n = 9;
        let ids: Vec<usize> = (0..n).collect();
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids, 99);
        let old = lb.common_secret();
        // Members 1, 4, 7 drop out at once.
        let leaving = vec![1, 4, 7];
        let remaining: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|c| !leaving.contains(c))
            .collect();
        lb.install_view(remaining, vec![], leaving);
        assert_ne!(old, lb.common_secret(), "{kind} partition must refresh");
    }
}

#[test]
fn merge_of_two_groups_reaches_common_key() {
    for kind in ProtocolKind::all() {
        let ids: Vec<usize> = (0..10).collect();
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids[..6], 1); // group A: 0..6
        lb.bootstrap(&ids[6..], 2); // group B: 6..10
        lb.install_view(ids.clone(), ids[6..].to_vec(), vec![]);
        let _ = lb.common_secret();
    }
}

#[test]
fn merge_of_singletons_works() {
    // Three fresh members join simultaneously (each its own component).
    for kind in ProtocolKind::all() {
        let ids: Vec<usize> = (0..7).collect();
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids[..4], 5);
        let old = lb.common_secret();
        lb.install_view(ids.clone(), vec![4, 5, 6], vec![]);
        assert_ne!(old, lb.common_secret(), "{kind}");
    }
}

#[test]
fn combined_leave_and_join() {
    for kind in ProtocolKind::all() {
        let ids: Vec<usize> = (0..8).collect();
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids[..6], 3);
        let old = lb.common_secret();
        // 2 and 4 leave while 6 and 7 join, in one view change.
        let members = vec![0, 1, 3, 5, 6, 7];
        lb.install_view(members, vec![6, 7], vec![2, 4]);
        assert_ne!(old, lb.common_secret(), "{kind}");
    }
}

#[test]
fn cascade_of_events_stays_consistent() {
    for kind in ProtocolKind::all() {
        let ids: Vec<usize> = (0..12).collect();
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids[..4], 11);
        let mut seen = vec![lb.common_secret()];
        // join x4
        for j in 4..8 {
            let mut members = lb.view().to_vec();
            members.push(j);
            lb.install_view(members, vec![j], vec![]);
            seen.push(lb.common_secret());
        }
        // leave x3 (varying positions)
        for l in [5usize, 0, 7] {
            let members: Vec<usize> = lb.view().iter().copied().filter(|&c| c != l).collect();
            lb.install_view(members, vec![], vec![l]);
            seen.push(lb.common_secret());
        }
        // merge of a fresh pair
        let mut members = lb.view().to_vec();
        members.extend([8, 9]);
        lb.install_view(members, vec![8, 9], vec![]);
        seen.push(lb.common_secret());
        // every key distinct from every other
        for i in 0..seen.len() {
            for j in (i + 1)..seen.len() {
                assert_ne!(
                    seen[i], seen[j],
                    "{kind}: epochs {i} and {j} repeated a key"
                );
            }
        }
    }
}

#[test]
fn group_shrinks_to_singleton_and_regrows() {
    for kind in ProtocolKind::all() {
        let ids: Vec<usize> = (0..4).collect();
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids[..3], 8);
        // Everyone but member 1 leaves.
        lb.install_view(vec![1], vec![], vec![0, 2]);
        let solo = lb.common_secret();
        // Then member 3 joins the singleton.
        lb.install_view(vec![1, 3], vec![3], vec![]);
        assert_ne!(solo, lb.common_secret(), "{kind}");
    }
}

#[test]
fn message_counts_match_table1_for_leave() {
    // Leave: 1 multicast for GDH/TGDH/STR/CKD; 2(n-1) for BD.
    let n = 8usize;
    for kind in ProtocolKind::all() {
        let ids: Vec<usize> = (0..n).collect();
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids, 13);
        let before = lb.total_counts();
        let remaining: Vec<usize> = ids.iter().copied().filter(|&c| c != 3).collect();
        lb.install_view(remaining, vec![], vec![3]);
        let diff = lb.total_counts().since(&before);
        match kind {
            ProtocolKind::Bd => {
                assert_eq!(diff.multicast, 2 * (n as u64 - 1), "BD leave multicasts");
            }
            _ => {
                assert_eq!(diff.multicast, 1, "{kind} leave must be one broadcast");
                assert_eq!(diff.unicast, 0, "{kind} leave has no unicasts");
            }
        }
    }
}

#[test]
fn message_counts_match_table1_for_join() {
    let n = 8usize; // size before join
    for kind in ProtocolKind::all() {
        let ids: Vec<usize> = (0..n + 1).collect();
        let mut lb = Loopback::new(kind, CryptoSuite::fast_zero(), &ids);
        lb.bootstrap(&ids[..n], 13);
        let before = lb.total_counts();
        lb.install_view(ids.clone(), vec![n], vec![]);
        let diff = lb.total_counts().since(&before);
        let nn = (n + 1) as u64;
        match kind {
            ProtocolKind::Gdh => {
                assert_eq!(diff.multicast, 2);
                assert_eq!(diff.unicast, 1 + (nn - 1), "chain + factor-outs");
            }
            ProtocolKind::Bd => {
                assert_eq!(diff.multicast, 2 * nn);
            }
            ProtocolKind::Ckd => {
                assert_eq!(diff.multicast, 1);
                assert_eq!(diff.unicast, 2);
            }
            ProtocolKind::Tgdh | ProtocolKind::Str => {
                assert_eq!(diff.multicast, 3, "{kind}: 2 round-1 + 1 round-2");
                assert_eq!(diff.unicast, 0);
            }
        }
    }
}
