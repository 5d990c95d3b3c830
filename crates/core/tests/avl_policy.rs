//! The AVL tree-management variant of TGDH (paper footnote 7):
//! correctness under churn, the promised shallower trees, and the
//! predicted extra leave communication.

use gkap_core::protocols::tgdh::Tgdh;
use gkap_core::protocols::GkaProtocol;
use gkap_core::suite::CryptoSuite;
use gkap_core::testkit::Loopback;

fn churn(lb: &mut Loopback, pool_start: usize, steps: usize) {
    // Deterministic churn: leave a member, admit a fresh one.
    for (step, fresh) in (pool_start..pool_start + steps).enumerate() {
        let members = lb.view().to_vec();
        let leaver = members[(step * 7 + 3) % members.len()];
        let remaining: Vec<usize> = members.iter().copied().filter(|&c| c != leaver).collect();
        lb.install_view(remaining.clone(), vec![], vec![leaver]);
        let mut grown = remaining;
        grown.push(fresh);
        lb.install_view(grown.clone(), vec![fresh], vec![]);
    }
}

fn harness(avl: bool, n: usize, pool: usize) -> Loopback {
    let ids: Vec<usize> = (0..pool).collect();
    let factory = move || -> Box<dyn GkaProtocol> {
        if avl {
            Box::new(Tgdh::new_avl())
        } else {
            Box::<Tgdh>::default()
        }
    };
    let mut lb = Loopback::with_factory(factory, CryptoSuite::fast_zero(), &ids);
    lb.bootstrap(&ids[..n], 42);
    lb
}

#[test]
fn avl_policy_maintains_key_agreement_under_churn() {
    let n = 12;
    let mut lb = harness(true, n, n + 40);
    churn(&mut lb, n, 15);
    let _ = lb.common_secret(); // panics on divergence
}

#[test]
fn avl_keeps_tree_within_avl_height_bound() {
    let n = 16;
    let mut lb = harness(true, n, n + 60);
    churn(&mut lb, n, 20);
    let member = lb.view()[0];
    let h = lb
        .member(member)
        .protocol_as::<Tgdh>()
        .unwrap()
        .tree_height();
    let size = lb.view().len();
    // AVL height bound: 1.44 * log2(n + 2).
    let bound = (1.44 * ((size + 2) as f64).log2()).ceil() as usize + 1;
    assert!(
        h <= bound,
        "AVL tree height {h} exceeds bound {bound} for {size} leaves"
    );
}

#[test]
fn avl_tree_no_taller_than_paper_policy_after_churn() {
    let n = 16;
    let steps = 20;
    let mut paper = harness(false, n, n + 60);
    churn(&mut paper, n, steps);
    let mut avl = harness(true, n, n + 60);
    churn(&mut avl, n, steps);

    let paper_h = paper
        .member(paper.view()[0])
        .protocol_as::<Tgdh>()
        .unwrap()
        .tree_height();
    let avl_h = avl
        .member(avl.view()[0])
        .protocol_as::<Tgdh>()
        .unwrap()
        .tree_height();
    assert!(
        avl_h <= paper_h,
        "AVL ({avl_h}) should not be taller than the paper heuristic ({paper_h})"
    );
}

#[test]
fn avl_leave_can_cost_extra_rounds() {
    // Footnote 7: AVL balancing "will incur a higher communication
    // cost for a leave operation". Aggregate over a churn script and
    // compare broadcast counts (rotations trigger extra sponsor
    // rounds); AVL must never use *fewer* messages and usually needs
    // more.
    let n = 16;
    let steps = 18;
    let run = |avl: bool| {
        let mut lb = harness(avl, n, n + 60);
        let before = lb.total_counts();
        churn(&mut lb, n, steps);
        lb.total_counts().since(&before).multicast
    };
    let paper_msgs = run(false);
    let avl_msgs = run(true);
    assert!(
        avl_msgs >= paper_msgs,
        "AVL ({avl_msgs} multicasts) should cost at least the paper policy ({paper_msgs})"
    );
}

#[test]
fn mixed_events_with_avl() {
    // Merges and partitions under the AVL policy.
    let ids: Vec<usize> = (0..14).collect();
    let mut lb = Loopback::with_factory(
        || Box::new(Tgdh::new_avl()) as Box<dyn GkaProtocol>,
        CryptoSuite::fast_zero(),
        &ids,
    );
    lb.bootstrap(&ids[..6], 9);
    let k1 = lb.common_secret();
    // Merge a 4-member component.
    lb.bootstrap(&ids[6..10], 10);
    lb.install_view(ids[..10].to_vec(), ids[6..10].to_vec(), vec![]);
    let k2 = lb.common_secret();
    assert_ne!(k1, k2);
    // Partition four members away.
    let leaving = vec![1, 3, 6, 8];
    let remaining: Vec<usize> = ids[..10]
        .iter()
        .copied()
        .filter(|c| !leaving.contains(c))
        .collect();
    lb.install_view(remaining, vec![], leaving);
    let k3 = lb.common_secret();
    assert_ne!(k2, k3);
}
