//! Multi-core CPU contention model.
//!
//! The paper's testbed ran several group-member processes per
//! dual-processor machine ("more than one process can be running on a
//! single machine (which is frequent in many collaborative
//! applications)", §6.1.1). When every member computes at once — as in
//! BD — members sharing a machine serialize, which the paper identifies
//! as the cause of BD's cost doubling at every multiple of 13 members
//! and of the visible knee at 26 (both CPUs occupied).
//!
//! [`CpuScheduler`] models exactly that: a fixed number of cores, FCFS,
//! with each compute request occupying the earliest-available core.

use crate::time::{Duration, SimTime};

/// Outcome of one scheduled compute request: when it started executing
/// (after any queueing) and when it completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuRun {
    /// Execution start (`>= ready`; later when all cores were busy).
    pub begin: SimTime,
    /// Completion time.
    pub end: SimTime,
}

/// FCFS scheduler for one machine with a fixed number of cores.
///
/// # Example
///
/// ```
/// use gkap_sim::{CpuScheduler, Duration, SimTime};
/// let mut cpu = CpuScheduler::new(2);
/// let t0 = SimTime::ZERO;
/// // Two jobs run in parallel on the two cores…
/// assert_eq!(cpu.run(t0, Duration::from_millis(10)).as_millis_f64(), 10.0);
/// assert_eq!(cpu.run(t0, Duration::from_millis(10)).as_millis_f64(), 10.0);
/// // …the third waits for a free core.
/// assert_eq!(cpu.run(t0, Duration::from_millis(10)).as_millis_f64(), 20.0);
/// ```
#[derive(Clone, Debug)]
pub struct CpuScheduler {
    cores: Vec<SimTime>,
    busy_total: Duration,
}

impl CpuScheduler {
    /// Creates a scheduler with `cores` processors.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a machine needs at least one core");
        CpuScheduler {
            cores: vec![SimTime::ZERO; cores],
            busy_total: Duration::ZERO,
        }
    }

    /// Requests `work` of CPU time starting no earlier than `ready`.
    /// Returns the completion time. Zero-duration work completes
    /// immediately (at `ready` or when a core frees up — we treat it as
    /// free and return `ready`).
    pub fn run(&mut self, ready: SimTime, work: Duration) -> SimTime {
        self.run_detailed(ready, work).end
    }

    /// Like [`run`](Self::run), but also reports when execution began —
    /// the gap between `ready` and `begin` is the scheduler queue wait,
    /// which the telemetry layer attributes to CPU contention.
    pub fn run_detailed(&mut self, ready: SimTime, work: Duration) -> CpuRun {
        if work == Duration::ZERO {
            return CpuRun {
                begin: ready,
                end: ready,
            };
        }
        // Earliest-available core (FCFS).
        let core = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one core");
        let begin = self.cores[core].max(ready);
        let end = begin + work;
        self.cores[core] = end;
        self.busy_total += work;
        CpuRun { begin, end }
    }

    /// Total CPU time consumed so far (across all cores).
    pub fn busy_total(&self) -> Duration {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn parallel_until_cores_exhausted() {
        let mut cpu = CpuScheduler::new(2);
        let t0 = SimTime::ZERO;
        let ends: Vec<f64> = (0..4)
            .map(|_| cpu.run(t0, ms(10)).as_millis_f64())
            .collect();
        assert_eq!(ends, vec![10.0, 10.0, 20.0, 20.0]);
    }

    #[test]
    fn single_core_serializes() {
        let mut cpu = CpuScheduler::new(1);
        let t0 = SimTime::ZERO;
        assert_eq!(cpu.run(t0, ms(5)).as_millis_f64(), 5.0);
        assert_eq!(cpu.run(t0, ms(5)).as_millis_f64(), 10.0);
        assert_eq!(cpu.busy_total(), ms(10));
    }

    #[test]
    fn ready_time_respected() {
        let mut cpu = CpuScheduler::new(1);
        let late = SimTime::ZERO + ms(100);
        assert_eq!(cpu.run(late, ms(5)), late + ms(5));
        // A job ready earlier than the core frees up waits for the core.
        assert_eq!(cpu.run(SimTime::ZERO, ms(1)), late + ms(6));
    }

    #[test]
    fn zero_work_is_free() {
        let mut cpu = CpuScheduler::new(1);
        cpu.run(SimTime::ZERO, ms(50));
        let ready = SimTime::ZERO + ms(1);
        assert_eq!(cpu.run(ready, Duration::ZERO), ready);
        assert_eq!(cpu.busy_total(), ms(50));
    }

    #[test]
    fn run_detailed_reports_queue_wait() {
        let mut cpu = CpuScheduler::new(1);
        let first = cpu.run_detailed(SimTime::ZERO, ms(10));
        assert_eq!(first.begin, SimTime::ZERO);
        assert_eq!(first.end, SimTime::ZERO + ms(10));
        // Second job is ready at t=2 but queues behind the first.
        let second = cpu.run_detailed(SimTime::ZERO + ms(2), ms(3));
        assert_eq!(second.begin, SimTime::ZERO + ms(10));
        assert_eq!(second.end, SimTime::ZERO + ms(13));
        assert_eq!(second.begin.since(SimTime::ZERO + ms(2)), ms(8));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        CpuScheduler::new(0);
    }

    #[test]
    fn contention_doubles_completion_like_bd_on_shared_machines() {
        // 4 members on a 2-core machine each needing 10ms at once: the
        // makespan is 2x a single member's cost — the paper's BD effect.
        let mut cpu = CpuScheduler::new(2);
        let t0 = SimTime::ZERO;
        let makespan = (0..4).map(|_| cpu.run(t0, ms(10))).max().unwrap();
        assert_eq!(makespan.as_millis_f64(), 20.0);
    }
}
