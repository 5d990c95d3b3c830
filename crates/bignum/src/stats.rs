//! Thread-local kernel operation counters.
//!
//! The paper attributes rekey cost to cryptographic compute by
//! counting primitive operations (Table 1); the manifest layer does
//! the same one level down, counting the *actual* Montgomery kernel
//! invocations a run performed. This crate sits below the telemetry
//! stack, so the counters are plain thread-local integers: each
//! increment is one add on a `Cell`, cheap enough for the hottest
//! kernels, and the harness samples them with [`take`] around a
//! (single-threaded) run.
//!
//! Counts are per-thread. The experiment harness runs each simulated
//! world to completion on one thread, so bracketing a run with
//! [`take`] yields exact per-run counts regardless of how many worker
//! threads the surrounding grid uses — which is what keeps manifests
//! bit-identical across `--jobs` values.

use std::cell::Cell;

/// Kernel invocation counts since the last [`take`] on this thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelOps {
    /// Full Montgomery products (CIOS `mont_mul` kernel).
    pub mont_mul: u64,
    /// Half-product Montgomery squarings.
    pub mont_sqr: u64,
    /// Montgomery reductions (`redc`).
    pub redc: u64,
    /// Windowed modular exponentiations.
    pub modexp: u64,
    /// Fixed-base exponentiations served from a comb table.
    pub fixed_base_exp: u64,
}

impl KernelOps {
    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &KernelOps) -> KernelOps {
        KernelOps {
            mont_mul: self.mont_mul.saturating_sub(earlier.mont_mul),
            mont_sqr: self.mont_sqr.saturating_sub(earlier.mont_sqr),
            redc: self.redc.saturating_sub(earlier.redc),
            modexp: self.modexp.saturating_sub(earlier.modexp),
            fixed_base_exp: self.fixed_base_exp.saturating_sub(earlier.fixed_base_exp),
        }
    }

    /// Element-wise sum: folds another delta into this one. Counts
    /// are plain integers, so merging is associative and commutative —
    /// per-shard deltas can be summed in any order and the total
    /// equals the single-bracket count of the same work.
    pub fn merge(&mut self, other: &KernelOps) {
        self.mont_mul += other.mont_mul;
        self.mont_sqr += other.mont_sqr;
        self.redc += other.redc;
        self.modexp += other.modexp;
        self.fixed_base_exp += other.fixed_base_exp;
    }

    /// `(name, count)` pairs in a fixed order, for manifest rendering.
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("mont_mul", self.mont_mul),
            ("mont_sqr", self.mont_sqr),
            ("redc", self.redc),
            ("modexp", self.modexp),
            ("fixed_base_exp", self.fixed_base_exp),
        ]
    }

    /// Sum of all kernel counts.
    pub fn total(&self) -> u64 {
        self.mont_mul + self.mont_sqr + self.redc + self.modexp + self.fixed_base_exp
    }
}

thread_local! {
    static OPS: Cell<KernelOps> = const { Cell::new(KernelOps {
        mont_mul: 0,
        mont_sqr: 0,
        redc: 0,
        modexp: 0,
        fixed_base_exp: 0,
    }) };
}

/// Current counts on this thread (without resetting).
pub fn snapshot() -> KernelOps {
    OPS.with(Cell::get)
}

/// Drains the counters: returns the counts accumulated since the
/// previous `take` on this thread and resets them to zero.
pub fn take() -> KernelOps {
    OPS.with(|c| c.replace(KernelOps::default()))
}

/// Runs `f` and leaves this thread's counts as they were before it:
/// for a check that repeats work a counted call already did (a
/// debug-build cross-check), so debug and release builds count alike.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let before = snapshot();
    let out = f();
    OPS.with(|c| c.set(before));
    out
}

macro_rules! bump {
    ($fn_name:ident, $field:ident) => {
        #[inline]
        pub(crate) fn $fn_name() {
            OPS.with(|c| {
                let mut ops = c.get();
                ops.$field += 1;
                c.set(ops);
            });
        }
    };
}

bump!(record_mont_mul, mont_mul);
bump!(record_mont_sqr, mont_sqr);
bump!(record_redc, redc);
bump!(record_modexp, modexp);
bump!(record_fixed_base_exp, fixed_base_exp);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_drains_and_since_subtracts() {
        take();
        record_mont_mul();
        record_mont_mul();
        record_mont_sqr();
        record_modexp();
        let a = snapshot();
        assert_eq!((a.mont_mul, a.mont_sqr, a.modexp), (2, 1, 1));
        record_redc();
        let b = snapshot();
        let d = b.since(&a);
        assert_eq!(d.redc, 1);
        assert_eq!(d.mont_mul, 0);
        assert_eq!(take().total(), 5);
        assert_eq!(take(), KernelOps::default(), "drained");
    }

    #[test]
    fn uncounted_work_leaves_the_counts_alone() {
        record_modexp();
        let before = snapshot();
        let out = uncounted(|| {
            record_mont_sqr();
            record_modexp();
            7
        });
        assert_eq!((out, snapshot()), (7, before));
    }

    #[test]
    fn entries_fixed_order() {
        let names: Vec<&str> = KernelOps::default()
            .entries()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(
            names,
            ["mont_mul", "mont_sqr", "redc", "modexp", "fixed_base_exp"]
        );
    }
}
