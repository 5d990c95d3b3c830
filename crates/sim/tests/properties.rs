//! Property-based tests for the discrete-event core.

use gkap_sim::stats::Summary;
use gkap_sim::{CpuScheduler, Duration, EventQueue, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn event_queue_pops_in_nondecreasing_time(delays in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &d) in delays.iter().enumerate() {
            q.schedule(Duration::from_micros(d), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, delays.len());
        prop_assert_eq!(q.delivered(), delays.len() as u64);
    }

    #[test]
    fn event_queue_equal_times_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(Duration::from_millis(7), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn cpu_scheduler_conserves_work(jobs in proptest::collection::vec(1u64..500, 1..60),
                                    cores in 1usize..5) {
        let mut cpu = CpuScheduler::new(cores);
        let total: u64 = jobs.iter().sum();
        let mut makespan = SimTime::ZERO;
        for &j in &jobs {
            let end = cpu.run(SimTime::ZERO, Duration::from_micros(j));
            makespan = makespan.max(end);
        }
        prop_assert_eq!(cpu.busy_total(), Duration::from_micros(total));
        // Makespan bounds: work/cores <= makespan <= work.
        let lower = total / cores as u64;
        prop_assert!(makespan.as_nanos() >= lower * 1_000);
        prop_assert!(makespan.as_nanos() <= total * 1_000);
        // Longest job is a lower bound too.
        let longest = *jobs.iter().max().unwrap();
        prop_assert!(makespan.as_nanos() >= longest * 1_000);
    }

    #[test]
    fn cpu_scheduler_respects_ready_times(ready in proptest::collection::vec(0u64..1000, 1..40)) {
        let mut cpu = CpuScheduler::new(2);
        for &r in &ready {
            let start = SimTime::from_nanos(r * 1_000);
            let end = cpu.run(start, Duration::from_micros(10));
            prop_assert!(end >= start + Duration::from_micros(10));
        }
    }

    #[test]
    fn summary_mean_within_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = Summary::new();
        for &v in &values {
            s.add(v);
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(s.mean() >= min - 1e-9 && s.mean() <= max + 1e-9);
        prop_assert_eq!(s.min(), min);
        prop_assert_eq!(s.max(), max);
        prop_assert!(s.stddev() >= 0.0);
    }

    #[test]
    fn summary_merge_equivalent_to_bulk(a in proptest::collection::vec(-1e4f64..1e4, 0..100),
                                        b in proptest::collection::vec(-1e4f64..1e4, 0..100)) {
        let mut bulk = Summary::new();
        for v in a.iter().chain(b.iter()) {
            bulk.add(*v);
        }
        let mut left = Summary::new();
        for &v in &a {
            left.add(v);
        }
        let mut right = Summary::new();
        for &v in &b {
            right.add(v);
        }
        left.merge(&right);
        prop_assert_eq!(left.count(), bulk.count());
        prop_assert!((left.mean() - bulk.mean()).abs() < 1e-6);
        prop_assert!((left.stddev() - bulk.stddev()).abs() < 1e-6);
    }

    #[test]
    fn duration_roundtrips_millis(ms in 0u64..1_000_000) {
        let d = Duration::from_millis(ms);
        prop_assert_eq!(Duration::from_millis_f64(d.as_millis_f64()), d);
    }
}
