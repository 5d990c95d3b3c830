//! Replayable workload scenarios: a declarative sequence of membership
//! events executed against the simulation, with per-event timing and a
//! latency distribution — the library form of the paper's "typical
//! collaborative group … formed incrementally, its population mutating
//! throughout its lifetime" (§2.1).
//!
//! A scenario is data: the event vocabulary ([`Step`], [`LeavePick`])
//! and the execution are [`crate::experiment`]'s, so a one-step
//! scenario *is* the corresponding figure measurement.

use gkap_sim::stats::Summary;

use crate::experiment::{ExperimentConfig, Group};
pub use crate::experiment::{LeaveTarget as LeavePick, Step};

/// A full scenario: initial size plus a step script.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Members in the initial (bootstrap) view.
    pub initial: usize,
    /// The scripted events, applied in order.
    pub steps: Vec<Step>,
}

impl Scenario {
    /// A churny-conference preset: grow from `initial` with joins,
    /// then alternate leaves and joins.
    pub fn conference(initial: usize, churn: usize) -> Self {
        let mut steps = Vec::new();
        for i in 0..churn {
            steps.push(match i % 3 {
                0 => Step::Join,
                1 => Step::Leave(LeavePick::Nth(i * 5 + 1)),
                _ => Step::Join,
            });
        }
        Scenario { initial, steps }
    }

    /// The spares the script admits.
    fn spares_needed(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Join => 1,
                Step::Merge(m) => *m,
                _ => 0,
            })
            .sum()
    }
}

/// Timing of one executed step.
#[derive(Clone, Debug)]
pub struct EventReport {
    /// The step executed.
    pub step: Step,
    /// Total elapsed time (inject → last key completion), virtual ms.
    pub elapsed_ms: f64,
    /// Group size after the event.
    pub size_after: usize,
}

/// The result of a scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Per-event timings, in script order.
    pub events: Vec<EventReport>,
    /// Summary over all event times.
    pub summary: Summary,
    /// Whether every event completed with all members agreeing.
    pub ok: bool,
}

impl ScenarioReport {
    /// Exact nearest-rank percentile of the event times, `q` in
    /// `[0, 1]` (`0.0` for an empty script).
    pub fn percentile(&self, q: f64) -> f64 {
        let times: Vec<f64> = self.events.iter().map(|e| e.elapsed_ms).collect();
        crate::scale::percentile(&times, q)
    }
}

/// Executes `scenario` under `cfg`, returning per-event timings: one
/// [`Group::form`], then [`Group::apply`] per step, back to back.
///
/// # Panics
///
/// Panics where [`Group::apply`] does: a step that would empty the
/// group, or a merge/partition size infeasible at execution time.
pub fn run_scenario(cfg: &ExperimentConfig, scenario: &Scenario) -> ScenarioReport {
    let mut group = Group::form(cfg, scenario.initial, scenario.spares_needed());
    let mut report = ScenarioReport {
        events: Vec::with_capacity(scenario.steps.len()),
        summary: Summary::new(),
        ok: true,
    };
    for &step in &scenario.steps {
        let outcome = group.apply(step);
        report.ok &= outcome.ok;
        report.summary.add(outcome.elapsed_ms);
        report.events.push(EventReport {
            step,
            elapsed_ms: outcome.elapsed_ms,
            size_after: outcome.size_after,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentConfig;
    use crate::protocols::ProtocolKind;

    #[test]
    fn conference_preset_runs_for_all_protocols() {
        for kind in ProtocolKind::all() {
            let cfg = ExperimentConfig::lan_fast(kind);
            let scenario = Scenario::conference(4, 6);
            let report = run_scenario(&cfg, &scenario);
            assert!(report.ok, "{kind}");
            assert_eq!(report.events.len(), 6);
            assert_eq!(report.summary.count(), 6);
            assert!(report.summary.mean() > 0.0);
            assert_eq!(report.percentile(0.0), report.summary.min());
            assert_eq!(report.percentile(1.0), report.summary.max());
        }
    }

    #[test]
    fn mixed_steps_including_merge_and_partition() {
        let cfg = ExperimentConfig::lan_fast(ProtocolKind::Tgdh);
        let scenario = Scenario {
            initial: 6,
            steps: vec![
                Step::Join,
                Step::Merge(3),
                Step::Partition(4),
                Step::Leave(LeavePick::Oldest),
                Step::Leave(LeavePick::Newest),
                Step::Join,
            ],
        };
        let report = run_scenario(&cfg, &scenario);
        assert!(report.ok);
        let sizes: Vec<usize> = report.events.iter().map(|e| e.size_after).collect();
        assert_eq!(sizes, vec![7, 10, 6, 5, 4, 5]);
    }

    #[test]
    fn scenario_is_deterministic() {
        let cfg = ExperimentConfig::lan_fast(ProtocolKind::Str);
        let scenario = Scenario::conference(5, 5);
        let a = run_scenario(&cfg, &scenario);
        let b = run_scenario(&cfg, &scenario);
        let ta: Vec<f64> = a.events.iter().map(|e| e.elapsed_ms).collect();
        let tb: Vec<f64> = b.events.iter().map(|e| e.elapsed_ms).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "empty the group")]
    fn emptying_scenario_panics() {
        let cfg = ExperimentConfig::lan_fast(ProtocolKind::Bd);
        let scenario = Scenario {
            initial: 1,
            steps: vec![Step::Leave(LeavePick::Oldest)],
        };
        let _ = run_scenario(&cfg, &scenario);
    }
}
