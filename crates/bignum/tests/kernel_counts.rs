//! `KernelOps` counts are a contract: run manifests, the `bench-diff`
//! baselines and the benchmark's per-layer counts all repeat them bit
//! for bit, so a kernel change that only makes a count cheaper must not
//! move it. A pin may move only with a stated reason, and then
//! `mont_mul + mont_sqr` must fall. The ladder's numbers were captured
//! by running this same body on commit cebbe7c (the slice kernels at
//! every width); 12 limbs is the width that still runs them. The
//! fixed-base column moved once, for the Lim–Lee comb: 8 teeth and 4
//! blocks take `spacing − 1` squarings and at most `max_exp_bits / 8`
//! multiplications (plus the `redc`), where the 4-bit comb took one
//! multiplication per non-zero nibble.

use gkap_bignum::stats::{self, KernelOps};
use gkap_bignum::{Montgomery, RandomSource, SplitMix64};

fn ops(mont_mul: u64, mont_sqr: u64, redc: u64, modexp: u64, fixed_base_exp: u64) -> KernelOps {
    KernelOps {
        mont_mul,
        mont_sqr,
        redc,
        modexp,
        fixed_base_exp,
    }
}

/// Deltas of one `modexp`, one `modexp_fixed`, one `to_mont` →
/// `from_mont` round trip and one `Montgomery::mul`, on seeded
/// full-width operands.
fn deltas(limbs: usize) -> [KernelOps; 4] {
    let mut rng = SplitMix64::new(0xc0_0000 + limbs as u64);
    let mut m = rng.next_ubig_exact_bits(64 * limbs);
    m.set_bit(0, true);
    let ctx = Montgomery::new(&m).unwrap();
    let base = rng.next_ubig_in_range(&m);
    let exp = rng.next_ubig_in_range(&m);
    let table = ctx.fixed_base(&base, m.bit_len());
    stats::take();
    ctx.modexp(&base, &exp);
    let modexp = stats::take();
    ctx.modexp_fixed(&table, &exp);
    let fixed = stats::take();
    ctx.from_mont(&ctx.to_mont(&base));
    let round_trip = stats::take();
    ctx.mul(&base, &exp);
    let mul = stats::take();
    [modexp, fixed, round_trip, mul]
}

// Counting says nothing about memory safety, and full-width tables
// are minutes under Miri; the differential test covers every width there.
#[test]
#[cfg_attr(miri, ignore)]
fn kernel_counts_match_the_slice_kernels() {
    let pinned = [
        (4, ops(63, 256, 1, 1, 0), ops(33, 7, 1, 0, 1)),
        (8, ops(111, 510, 1, 1, 0), ops(65, 15, 1, 0, 1)),
        (12, ops(158, 767, 1, 1, 0), ops(96, 23, 1, 0, 1)),
        (16, ops(213, 1024, 1, 1, 0), ops(128, 31, 1, 0, 1)),
    ];
    for (limbs, modexp, fixed) in pinned {
        let round_trip = ops(2, 0, 1, 0, 0);
        let mul = ops(4, 0, 1, 0, 0);
        assert_eq!(
            deltas(limbs),
            [modexp, fixed, round_trip, mul],
            "{limbs} limbs"
        );
    }
}
