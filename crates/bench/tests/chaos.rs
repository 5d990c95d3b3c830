//! End-to-end chaos campaign properties: a pinned campaign passes and
//! replays identically, and the schedule minimizer — demonstrated on
//! an intentionally broken protocol driver — reduces a failing
//! schedule to its smallest reproduction.

use std::rc::Rc;

use gkap_bench::chaos::{
    campaign_csv, default_factory, minimize, run_campaign, run_schedule, ChaosConfig,
};
use gkap_bench::Console;
use gkap_bignum::Ubig;
use gkap_core::protocols::{Component, GkaCtx, ProtocolMsg};
use gkap_core::suite::CryptoSuite;
use gkap_core::{GkaError, GkaProtocol, ProtocolKind, SecureMember};
use gkap_gcs::{ClientId, Fault, PlannedFault, View};
use gkap_sim::Duration;

#[test]
fn pinned_campaign_passes_and_replays_identically() {
    let cfg = ChaosConfig::default();
    let factory = default_factory();
    let mut con = Console::quiet();
    let first = run_campaign(7, 3, &cfg, &factory, &mut con);
    assert!(
        first.passed(),
        "pinned campaign failed: {:?}",
        first
            .failures
            .iter()
            .map(|f| (&f.kind, &f.violations))
            .collect::<Vec<_>>()
    );
    assert_eq!(first.rows.len(), 3 * 5);
    // Replaying the same seed yields a bit-identical campaign.
    let second = run_campaign(7, 3, &cfg, &factory, &mut con);
    assert_eq!(campaign_csv(&first), campaign_csv(&second));
}

/// Delegates to a real protocol engine but, on any view that removes
/// a member, replaces the reported secret with a per-member poison
/// value — a divergence bug of exactly the class the key-convergence
/// invariant and the minimizer exist to catch.
struct ForgetsLeavers {
    inner: Box<dyn GkaProtocol>,
    poison: Option<Ubig>,
}

impl GkaProtocol for ForgetsLeavers {
    fn kind(&self) -> ProtocolKind {
        self.inner.kind()
    }

    fn on_view(&mut self, ctx: &mut GkaCtx<'_>, view: &View) -> Result<(), GkaError> {
        if !view.left.is_empty() {
            self.poison = Some(Ubig::from(0xDEC0_DE00u64 + ctx.me() as u64));
        }
        self.inner.on_view(ctx, view)
    }

    fn on_msg(
        &mut self,
        ctx: &mut GkaCtx<'_>,
        sender: ClientId,
        msg: ProtocolMsg,
    ) -> Result<(), GkaError> {
        self.inner.on_msg(ctx, sender, msg)
    }

    fn group_secret(&self) -> Option<&Ubig> {
        self.poison.as_ref().or_else(|| self.inner.group_secret())
    }

    fn component(&self, suite: &CryptoSuite, members: &[ClientId], seed: u64) -> Component {
        self.inner.component(suite, members, seed)
    }

    fn adopt(&mut self, component: &Component, me: ClientId) -> Result<(), GkaError> {
        self.inner.adopt(component, me)
    }

    fn reset(&mut self) {
        self.poison = None;
        self.inner.reset();
    }
}

#[test]
fn minimizer_reduces_broken_driver_to_single_fault() {
    let cfg = ChaosConfig::default();
    let suite = Rc::new(CryptoSuite::sim_512());
    let factory = move |kind: ProtocolKind, i: usize| {
        let broken = ForgetsLeavers {
            inner: kind.create(),
            poison: None,
        };
        SecureMember::with_protocol(
            Box::new(broken),
            Rc::clone(&suite),
            900 + i as u64,
            Some(17),
        )
    };

    let at = Duration::from_millis;
    let schedule = vec![
        PlannedFault {
            after: at(2),
            fault: Fault::LossBurst {
                rate: 0.5,
                duration: at(3),
            },
        },
        PlannedFault {
            after: at(6),
            fault: Fault::Heal { members: vec![8] },
        },
        PlannedFault {
            after: at(12),
            fault: Fault::Partition { members: vec![2] },
        },
        PlannedFault {
            after: at(20),
            fault: Fault::Heal { members: vec![9] },
        },
    ];

    let report = run_schedule(ProtocolKind::Tgdh, &cfg, &schedule, &factory);
    assert!(!report.passed(), "broken driver went undetected");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.contains("key convergence")),
        "expected a key-convergence violation, got {:?}",
        report.violations
    );

    // Joins and loss bursts never trip the bug: the minimizer strips
    // them all, leaving exactly the member removal.
    let minimal = minimize(ProtocolKind::Tgdh, &cfg, &schedule, &factory);
    assert_eq!(
        minimal,
        vec![PlannedFault {
            after: at(12),
            fault: Fault::Partition { members: vec![2] },
        }],
        "minimizer did not reduce to the single removal fault"
    );
    // The minimal schedule is itself a reproduction.
    assert!(!run_schedule(ProtocolKind::Tgdh, &cfg, &minimal, &factory).passed());
}
