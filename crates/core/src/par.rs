//! Deterministic fan-out for embarrassingly parallel experiment grids.
//!
//! Every figure in the paper is a grid of independent cells — one
//! simulated world per (protocol, group size, repetition) — whose
//! seeds depend only on the cell coordinates, never on execution
//! order. [`run_indexed`] exploits that: it fans the cells across a
//! worker pool (`std::thread::scope`, no external dependencies) and
//! hands the results back **in index order**, so callers can fold
//! them exactly as the serial loop would have and produce bit-identical
//! output.
//!
//! Workers also account their busy time into a process-wide counter so
//! the harness can report the *serial-equivalent* time (what the run
//! would have cost on one core) next to the wall time.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Nanoseconds of worker compute accumulated since the last
/// [`take_busy_nanos`] call.
static BUSY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Drains the busy-time counter: returns the nanoseconds of worker
/// compute accumulated since the previous call and resets it to zero.
///
/// The harness brackets each figure with this to report the
/// serial-equivalent cost of a parallel run. Cells are timed by wall
/// clock (std exposes no portable per-thread CPU clock), so the figure
/// is accurate while `jobs` ≤ cores and overstates compute when the
/// host is oversubscribed.
pub fn take_busy_nanos() -> u64 {
    BUSY_NANOS.swap(0, Ordering::Relaxed)
}

/// The default worker count: the host's available parallelism
/// (falling back to 1 when it cannot be determined). `--jobs` is the
/// one way to ask for another.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `work(0..count)` across `jobs` workers and returns the results
/// in index order.
///
/// Work is distributed dynamically (an atomic next-index counter), so
/// slow cells — large groups, lossy retransmission storms — do not
/// stall a statically partitioned stripe. Because results come back
/// ordered by index, any fold over them reproduces the serial loop's
/// accumulation order exactly; with order-independent seeds this makes
/// parallel figure output bit-identical to `jobs = 1`.
///
/// `jobs <= 1` (or a single cell) runs inline on the caller's thread —
/// no spawn, same busy-time accounting.
///
/// # Panics
///
/// Propagates panics from `work` (a failed in-cell assertion aborts
/// the whole grid, as the serial loop would).
pub fn run_indexed<T, F>(jobs: usize, count: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // Clamp to the hardware: asking for more workers than cores only
    // oversubscribes the host, and because cells are timed by wall
    // clock it would also overstate the busy-time counter (preempted
    // wall time is not compute). The *requested* value still reaches
    // the manifest environment block, so a run records what was asked.
    let jobs = jobs.max(1).min(count.max(1)).min(default_jobs());
    if jobs == 1 {
        let t0 = Instant::now();
        let out: Vec<T> = (0..count).map(&work).collect();
        BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        return out;
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let t0 = Instant::now();
                let v = work(i);
                BUSY_NANOS.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                *slots[i].lock().expect("result slot") = Some(v);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker did not poison the slot")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 8] {
            let out = run_indexed(jobs, 23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "{jobs}");
        }
    }

    #[test]
    fn more_jobs_than_cells_is_fine() {
        assert_eq!(run_indexed(16, 2, |i| i), vec![0, 1]);
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn busy_time_accumulates() {
        take_busy_nanos();
        let _ = run_indexed(2, 8, |i| {
            // Do a little real work so the counter moves.
            (0..1000u64).fold(i as u64, |a, b| a.wrapping_mul(31).wrapping_add(b))
        });
        assert!(take_busy_nanos() > 0);
        // Drained: second take sees (almost) nothing new.
        assert_eq!(take_busy_nanos(), 0);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
