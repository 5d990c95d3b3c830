//! Montgomery reduction context and windowed modular exponentiation.
//!
//! This reproduces the algorithm family the paper's platform used:
//! "OpenSSL uses Montgomery reduction and the sliding window algorithm to
//! implement the modular exponentiation" (§5). The multiplication kernel
//! is the standard CIOS (coarsely integrated operand scanning) loop;
//! squaring uses a dedicated half-product kernel, and fixed-base
//! exponentiation (the `g^x` that dominates every protocol in the paper)
//! can be served from a precomputed Lim–Lee comb ([`FixedBase`]): at
//! most `bits/8` multiplications and `bits/32` squarings per `g^x`,
//! from 4 · 255 residues at any width.
//!
//! The kernels exist twice. At 4, 8 and 16 limbs (256-, 512- and
//! 1024-bit moduli: every group the figures, the sweeps and the RSA-CRT
//! halves use) one const-generic body runs on stack arrays, and a whole
//! exponentiation — odd-power table, accumulators, padded operands —
//! allocates nothing but the `Ubig` it returns. Every other width runs
//! the slice kernels over a heap [`MontScratch`]; they are also the
//! reference the fixed-width kernels are tested against. The width is
//! read from the modulus; there is no switch.

use crate::arith::{ge, sub_in_place};
use crate::ubig::Ubig;

/// Window size (bits) of the sliding window of [`Montgomery::modexp`].
const WINDOW: usize = 4;

/// Odd powers `b^1, b^3, …, b^(2^WINDOW - 1)` the sliding window
/// multiplies by.
const ODD_POWERS: usize = 1 << (WINDOW - 1);

/// Teeth of the fixed-base comb ([`FixedBase`]): the exponent bits one
/// table multiplication applies.
const TEETH: usize = 8;

/// Blocks of the fixed-base comb: the tables one column multiplies by.
const BLOCKS: usize = 4;

/// Entries per comb block: every non-zero `TEETH`-bit pattern.
const PATTERNS: usize = (1 << TEETH) - 1;

/// A Montgomery reduction context for a fixed odd modulus.
///
/// Build once per modulus and reuse for many exponentiations — exactly
/// how the protocol layer treats a Diffie–Hellman group.
///
/// # Example
///
/// ```
/// use gkap_bignum::{Montgomery, Ubig};
///
/// let p = Ubig::from_hex("ffffffffffffffc5").unwrap();
/// let ctx = Montgomery::new(&p).unwrap();
/// let g = Ubig::from(5u64);
/// assert_eq!(ctx.modexp(&g, &Ubig::from(3u64)), Ubig::from(125u64));
/// ```
#[derive(Clone, Debug)]
pub struct Montgomery {
    modulus: Ubig,
    n: usize,
    /// -modulus^{-1} mod 2^64
    n0_inv: u64,
    /// R^2 mod modulus, R = 2^(64n)
    r2: Vec<u64>,
    /// R mod modulus (the Montgomery form of 1)
    r1: Vec<u64>,
}

/// Reusable workspace for the slice kernels.
///
/// Holds the double-width accumulator the slice multiplication and
/// squaring loops write into; it is sized on first use and reused, so
/// threading one through repeated calls costs one allocation in all.
/// Contexts of 4, 8 or 16 limbs run on stack arrays and never touch
/// it — it stays in their signatures because callers (the benchmark's
/// `mont_mul`/`mont_sqr` unit rows, and `prime.rs`'s Miller–Rabin
/// rounds through [`Montgomery::modexp_with`]) thread one through
/// every width alike.
#[derive(Clone, Debug)]
pub struct MontScratch {
    /// `2n + 1` limbs once sized: the squaring path needs a full
    /// double-width product plus one carry slot; CIOS only touches the
    /// first `n + 2`.
    t: Vec<u64>,
}

impl MontScratch {
    /// The first `len` limbs, growing the workspace if it is shorter.
    fn limbs(&mut self, len: usize) -> &mut [u64] {
        if self.t.len() < len {
            self.t.resize(len, 0);
        }
        &mut self.t[..len]
    }
}

/// A value in Montgomery form (`a · R mod m`), produced by
/// [`Montgomery::to_mont`] and consumed by the public kernel entry
/// points. Only meaningful with the context that created it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MontElem {
    limbs: Vec<u64>,
}

/// The two Montgomery kernels at one operand width, and the storage of
/// one residue at that width. Operands are `n`-limb little-endian and
/// already `< m`.
trait Kernels {
    /// One residue: a stack array at the fixed widths, a `Vec` otherwise.
    type Elem: Clone + AsRef<[u64]> + AsMut<[u64]> + Into<Vec<u64>>;

    /// `limbs` zero-padded to the operand width.
    fn elem(&self, limbs: &[u64]) -> Self::Elem;

    /// `out = a · b · R^{-1} mod m`.
    fn mul(&mut self, a: &[u64], b: &[u64], out: &mut [u64]);

    /// `out = a² · R^{-1} mod m`.
    fn sqr(&mut self, a: &[u64], out: &mut [u64]);
}

/// Kernels over `N`-limb stack arrays.
struct Fixed<'a, const N: usize> {
    m: &'a [u64; N],
    n0_inv: u64,
}

impl<'a, const N: usize> Fixed<'a, N> {
    fn new(ctx: &'a Montgomery) -> Self {
        Fixed {
            m: array(&ctx.modulus.limbs),
            n0_inv: ctx.n0_inv,
        }
    }
}

/// Views an operand as the `N` limbs its context works on.
fn array<const N: usize>(limbs: &[u64]) -> &[u64; N] {
    limbs
        .try_into()
        .expect("operand has the context's limb count")
}

impl<const N: usize> Kernels for Fixed<'_, N> {
    type Elem = [u64; N];

    fn elem(&self, limbs: &[u64]) -> [u64; N] {
        let mut out = [0u64; N];
        out[..limbs.len()].copy_from_slice(limbs);
        out
    }

    #[inline]
    fn mul(&mut self, a: &[u64], b: &[u64], out: &mut [u64]) {
        crate::stats::record_mont_mul();
        out.copy_from_slice(&mul_fixed(array(a), array(b), self.m, self.n0_inv));
    }

    #[inline]
    fn sqr(&mut self, a: &[u64], out: &mut [u64]) {
        crate::stats::record_mont_sqr();
        out.copy_from_slice(&sqr_fixed(array(a), self.m, self.n0_inv));
    }
}

/// CIOS Montgomery product on `N`-limb arrays: the two passes per row
/// of [`Slices::mul`], with `t[N]` held in `top` (≤ 1 between rows,
/// because `t < 2m` there).
#[inline]
fn mul_fixed<const N: usize>(a: &[u64; N], b: &[u64; N], m: &[u64; N], n0_inv: u64) -> [u64; N] {
    let mut t = [0u64; N];
    let mut top = 0u64;
    for &bi in b {
        // t += a * bi
        let mut carry = 0u64;
        for j in 0..N {
            let s = t[j] as u128 + a[j] as u128 * bi as u128 + carry as u128;
            t[j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let high = top as u128 + carry as u128;

        // u = t[0] * n0_inv mod 2^64; t += u * m; t >>= 64
        let u = t[0].wrapping_mul(n0_inv);
        let s0 = t[0] as u128 + u as u128 * m[0] as u128;
        debug_assert_eq!(s0 as u64, 0);
        let mut carry = (s0 >> 64) as u64;
        for j in 1..N {
            let s = t[j] as u128 + u as u128 * m[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = high + carry as u128;
        t[N - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    // Conditional subtraction to bring the result below the modulus.
    if top != 0 || ge(&t, m) {
        sub_in_place(&mut t, m);
    }
    t
}

/// Montgomery square on `N`-limb arrays: the half-product square of
/// [`Slices::sqr`] followed by a separated reduction whose row carries
/// are handed to the next row instead of rippled.
#[inline]
fn sqr_fixed<const N: usize>(a: &[u64; N], m: &[u64; N], n0_inv: u64) -> [u64; N] {
    let mut wide = [[0u64; N]; 2];
    let t = wide.as_flattened_mut();
    // Off-diagonal products, computed once each.
    for i in 0..N {
        let mut carry = 0u64;
        for j in (i + 1)..N {
            let v = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
            t[i + j] = v as u64;
            carry = (v >> 64) as u64;
        }
        t[i + N] = carry;
    }
    // Double them (the sum is < a²/2 < 2^(128N - 1), so no bit leaves
    // the top) and add the diagonal squares a[i]² at position 2i.
    let mut high = 0u64;
    let mut carry = 0u64;
    for i in 0..N {
        let (lo, hi) = (t[2 * i], t[2 * i + 1]);
        let sq = a[i] as u128 * a[i] as u128;
        let v = ((lo << 1) | high) as u128 + (sq as u64) as u128 + carry as u128;
        t[2 * i] = v as u64;
        let v2 = ((hi << 1) | (lo >> 63)) as u128 + (sq >> 64) + (v >> 64);
        t[2 * i + 1] = v2 as u64;
        high = hi >> 63;
        carry = (v2 >> 64) as u64;
    }
    debug_assert_eq!((high, carry), (0, 0), "a^2 fits in 2N limbs");
    // Reduce: row i clears t[i] and its carry out belongs at t[i + N],
    // which no later row's inner loop reaches — so the carry out of
    // that addition can wait for the next row's (`top`), and after the
    // last row it is the 2N-th limb.
    let mut top = 0u64;
    for i in 0..N {
        let u = t[i].wrapping_mul(n0_inv);
        let mut carry = 0u64;
        for j in 0..N {
            let v = t[i + j] as u128 + u as u128 * m[j] as u128 + carry as u128;
            t[i + j] = v as u64;
            carry = (v >> 64) as u64;
        }
        let v = t[i + N] as u128 + carry as u128 + top as u128;
        t[i + N] = v as u64;
        top = (v >> 64) as u64;
    }
    let mut out = wide[1];
    if top != 0 || ge(&out, m) {
        sub_in_place(&mut out, m);
    }
    out
}

/// Kernels over runtime-length slices and a heap workspace: any width.
struct Slices<'a> {
    ctx: &'a Montgomery,
    s: &'a mut MontScratch,
}

impl Slices<'_> {
    /// Separated Montgomery reduction of the `2n`-limb value in
    /// `s.t[..2n]`: `out = s.t * R^{-1} mod m`.
    fn reduce(&mut self, out: &mut [u64]) {
        let n = self.ctx.n;
        let m = &self.ctx.modulus.limbs;
        let t = self.s.limbs(2 * n + 1);
        t[2 * n] = 0;
        for i in 0..n {
            let u = t[i].wrapping_mul(self.ctx.n0_inv);
            let mut carry: u64 = 0;
            for j in 0..n {
                let v = t[i + j] as u128 + u as u128 * m[j] as u128 + carry as u128;
                t[i + j] = v as u64;
                carry = (v >> 64) as u64;
            }
            let mut k = i + n;
            while carry != 0 {
                debug_assert!(k <= 2 * n);
                let v = t[k] as u128 + carry as u128;
                t[k] = v as u64;
                carry = (v >> 64) as u64;
                k += 1;
            }
        }
        out.copy_from_slice(&t[n..2 * n]);
        if t[2 * n] != 0 || ge(out, m) {
            sub_in_place(out, m);
        }
    }
}

impl Kernels for Slices<'_> {
    type Elem = Vec<u64>;

    fn elem(&self, limbs: &[u64]) -> Vec<u64> {
        let mut out = limbs.to_vec();
        out.resize(self.ctx.n, 0);
        out
    }

    /// CIOS Montgomery multiplication kernel.
    fn mul(&mut self, a: &[u64], b: &[u64], out: &mut [u64]) {
        crate::stats::record_mont_mul();
        let n = self.ctx.n;
        let m = &self.ctx.modulus.limbs;
        let n0_inv = self.ctx.n0_inv;
        let t = &mut self.s.limbs(2 * n + 1)[..n + 2];
        t.fill(0);
        for &bi in b.iter().take(n) {
            // t += a * bi
            let mut carry: u64 = 0;
            for j in 0..n {
                let s = t[j] as u128 + a[j] as u128 * bi as u128 + carry as u128;
                t[j] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[n] as u128 + carry as u128;
            t[n] = s as u64;
            t[n + 1] = t[n + 1].wrapping_add((s >> 64) as u64);

            // u = t[0] * n0_inv mod 2^64; t += u * m; t >>= 64
            let u = t[0].wrapping_mul(n0_inv);
            let s0 = t[0] as u128 + u as u128 * m[0] as u128;
            debug_assert_eq!(s0 as u64, 0);
            let mut carry = (s0 >> 64) as u64;
            for j in 1..n {
                let s = t[j] as u128 + u as u128 * m[j] as u128 + carry as u128;
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[n] as u128 + carry as u128;
            t[n - 1] = s as u64;
            let s2 = t[n + 1] as u128 + (s >> 64);
            t[n] = s2 as u64;
            t[n + 1] = (s2 >> 64) as u64;
        }
        out.copy_from_slice(&t[..n]);
        // Conditional subtraction to bring the result below the modulus.
        if t[n] != 0 || ge(out, m) {
            sub_in_place(out, m);
        }
    }

    /// Montgomery squaring kernel.
    ///
    /// Computes the double-width square with the half-product trick
    /// (each cross term `a[i]·a[j]`, `i < j`, is computed once and
    /// doubled — roughly half the partial products of [`Self::mul`])
    /// and then folds it with a separated Montgomery reduction pass.
    fn sqr(&mut self, a: &[u64], out: &mut [u64]) {
        crate::stats::record_mont_sqr();
        let n = self.ctx.n;
        debug_assert_eq!(a.len(), n);
        {
            let t = &mut self.s.limbs(2 * n + 1)[..2 * n];
            t.fill(0);
            // Off-diagonal products, computed once each.
            for i in 0..n {
                let ai = a[i] as u128;
                let mut carry: u64 = 0;
                for j in (i + 1)..n {
                    let v = t[i + j] as u128 + ai * a[j] as u128 + carry as u128;
                    t[i + j] = v as u64;
                    carry = (v >> 64) as u64;
                }
                // First touch of t[i + n] in this pass.
                t[i + n] = carry;
            }
            // Double the off-diagonal sum: it is < a^2 / 2 < 2^(128n - 1),
            // so the shift cannot carry out of 2n limbs.
            let mut high = 0u64;
            for limb in t.iter_mut() {
                let next_high = *limb >> 63;
                *limb = (*limb << 1) | high;
                high = next_high;
            }
            debug_assert_eq!(high, 0);
            // Add the diagonal squares a[i]^2 at position 2i.
            let mut carry: u64 = 0;
            for i in 0..n {
                let sq = a[i] as u128 * a[i] as u128;
                let v = t[2 * i] as u128 + (sq as u64) as u128 + carry as u128;
                t[2 * i] = v as u64;
                let v2 = t[2 * i + 1] as u128 + ((sq >> 64) as u64) as u128 + (v >> 64);
                t[2 * i + 1] = v2 as u64;
                carry = (v2 >> 64) as u64;
            }
            debug_assert_eq!(carry, 0, "a^2 fits in 2n limbs");
        }
        self.reduce(out);
    }
}

/// Evaluates `$body` with `$k` bound to `$ctx`'s kernels: the stack
/// kernels at the three instantiated widths, the slice kernels (over
/// the workspace `$scratch`) at every other.
macro_rules! with_kernels {
    ($ctx:expr, $scratch:expr, |$k:ident| $body:expr) => {
        match $ctx.n {
            4 => {
                let $k = &mut Fixed::<4>::new($ctx);
                $body
            }
            8 => {
                let $k = &mut Fixed::<8>::new($ctx);
                $body
            }
            16 => {
                let $k = &mut Fixed::<16>::new($ctx);
                $body
            }
            _ => {
                let $k = &mut Slices {
                    ctx: $ctx,
                    s: $scratch,
                };
                $body
            }
        }
    };
}

impl Montgomery {
    /// Creates a context for `modulus`.
    ///
    /// Returns `None` if the modulus is even or < 3 (Montgomery reduction
    /// requires an odd modulus; use [`Ubig::modexp`] which falls back to
    /// division-based reduction for even moduli).
    pub fn new(modulus: &Ubig) -> Option<Self> {
        if modulus.is_even() || modulus.bit_len() < 2 {
            return None;
        }
        let n = modulus.limbs.len();
        // Inverse of the low limb mod 2^64 by Newton iteration, then negate.
        let m0 = modulus.limbs[0];
        let mut inv: u64 = m0; // correct mod 2^3 already for odd m0? start from m0 (odd) and iterate
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        debug_assert_eq!(m0.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        let r = &Ubig::one() << (64 * n);
        let mut r1 = r.rem(modulus).limbs;
        r1.resize(n, 0);
        let mut r2 = (&r * &r).rem(modulus).limbs;
        r2.resize(n, 0);
        Some(Montgomery {
            modulus: modulus.clone(),
            n,
            n0_inv,
            r2,
            r1,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Ubig {
        &self.modulus
    }

    /// A kernel workspace for this context, empty until a slice kernel
    /// sizes it. Reuse it across calls — that is the whole point.
    pub fn scratch(&self) -> MontScratch {
        MontScratch { t: Vec::new() }
    }

    /// Converts `a` into Montgomery form (`a` reduced first if needed).
    pub fn to_mont(&self, a: &Ubig) -> MontElem {
        with_kernels!(self, &mut self.scratch(), |k| self.to_mont_in(a, k))
    }

    fn to_mont_in<K: Kernels>(&self, a: &Ubig, k: &mut K) -> MontElem {
        MontElem {
            limbs: self.to_mont_limbs(&a.reduced(&self.modulus), k).into(),
        }
    }

    /// Converts `a` (< m) into Montgomery form limbs.
    fn to_mont_limbs<K: Kernels>(&self, a: &Ubig, k: &mut K) -> K::Elem {
        debug_assert!(*a < self.modulus);
        let a = k.elem(&a.limbs);
        let mut out = k.elem(&[]);
        k.mul(a.as_ref(), &self.r2, out.as_mut());
        out
    }

    /// Converts out of Montgomery form.
    pub fn from_mont(&self, a: &MontElem) -> Ubig {
        with_kernels!(self, &mut self.scratch(), |k| self.redc(&a.limbs, k))
    }

    /// Montgomery reduction: converts out of Montgomery form and
    /// normalizes to `Ubig`.
    fn redc<K: Kernels>(&self, a: &[u64], k: &mut K) -> Ubig {
        crate::stats::record_redc();
        let one = k.elem(&[1]);
        let mut out = k.elem(&[]);
        k.mul(a, one.as_ref(), out.as_mut());
        Ubig::from_limbs(out.into())
    }

    /// Montgomery-domain multiplication `out = a · b · R^{-1} mod m`
    /// (all in Montgomery form). Allocation-free given an `out`
    /// obtained from [`Montgomery::to_mont`] and, off the fixed
    /// widths, a reused scratch.
    pub fn mont_mul(&self, a: &MontElem, b: &MontElem, out: &mut MontElem, s: &mut MontScratch) {
        out.limbs.resize(self.n, 0);
        with_kernels!(self, s, |k| k.mul(&a.limbs, &b.limbs, &mut out.limbs));
    }

    /// Montgomery-domain squaring `out = a² · R^{-1} mod m` — the
    /// half-product kernel, ~half the partial products of
    /// [`Montgomery::mont_mul`].
    pub fn mont_sqr(&self, a: &MontElem, out: &mut MontElem, s: &mut MontScratch) {
        out.limbs.resize(self.n, 0);
        with_kernels!(self, s, |k| k.sqr(&a.limbs, &mut out.limbs));
    }

    /// Modular multiplication `(a * b) mod m` through the Montgomery
    /// domain (constant context reuse makes this much faster than
    /// [`Ubig::modmul`] for many multiplications by the same modulus).
    pub fn mul(&self, a: &Ubig, b: &Ubig) -> Ubig {
        with_kernels!(self, &mut self.scratch(), |k| self.mul_in(a, b, k))
    }

    fn mul_in<K: Kernels>(&self, a: &Ubig, b: &Ubig, k: &mut K) -> Ubig {
        let am = self.to_mont_limbs(&a.reduced(&self.modulus), k);
        let bm = self.to_mont_limbs(&b.reduced(&self.modulus), k);
        let mut prod = k.elem(&[]);
        k.mul(am.as_ref(), bm.as_ref(), prod.as_mut());
        self.redc(prod.as_ref(), k)
    }

    /// Windowed modular exponentiation: `base^exp mod m`.
    ///
    /// Runs in time proportional to `exp.bit_len()` squarings plus
    /// `exp.bit_len()/WINDOW` multiplications — the same cost profile the
    /// paper's Table 1 counts as one "exponentiation". No step of the
    /// ladder allocates: it ping-pongs two buffers. At 4, 8 and 16
    /// limbs those buffers, the odd-power table and the padded
    /// operands are stack arrays, so the returned `Ubig` is the call's
    /// only allocation; at other widths they are `Vec`s allocated once
    /// per call.
    pub fn modexp(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        self.modexp_with(base, exp, &mut self.scratch())
    }

    /// [`Montgomery::modexp`] with a caller-provided workspace (hot
    /// loops performing many exponentiations by the same modulus, off
    /// the fixed widths).
    pub fn modexp_with(&self, base: &Ubig, exp: &Ubig, s: &mut MontScratch) -> Ubig {
        with_kernels!(self, s, |k| self.modexp_in(base, exp, k))
    }

    fn modexp_in<K: Kernels>(&self, base: &Ubig, exp: &Ubig, k: &mut K) -> Ubig {
        crate::stats::record_modexp();
        if exp.is_zero() {
            return Ubig::one().rem(&self.modulus);
        }
        let base = base.reduced(&self.modulus);
        if base.is_zero() {
            return Ubig::zero();
        }
        let bm = self.to_mont_limbs(&base, k);

        // Precompute odd powers bm^1, bm^3, ..., bm^(2^WINDOW - 1).
        let mut bm2 = k.elem(&[]);
        k.sqr(bm.as_ref(), bm2.as_mut());
        let mut table: [K::Elem; ODD_POWERS] = std::array::from_fn(|_| bm.clone());
        for i in 1..ODD_POWERS {
            let (lower, upper) = table.split_at_mut(i);
            k.mul(lower[i - 1].as_ref(), bm2.as_ref(), upper[0].as_mut());
        }

        let mut acc = k.elem(&self.r1); // Montgomery form of 1
        let mut tmp = bm2; // reuse: ping-pong partner for acc
        let mut i = exp.bit_len() as isize - 1;
        while i >= 0 {
            if !exp.bit(i as usize) {
                k.sqr(acc.as_ref(), tmp.as_mut());
                std::mem::swap(&mut acc, &mut tmp);
                i -= 1;
                continue;
            }
            // Find the longest window [j..=i] ending in a set bit.
            let j = (i - WINDOW as isize + 1).max(0);
            let mut j = j as usize;
            while !exp.bit(j) {
                j += 1;
            }
            let width = i as usize - j + 1;
            let mut value = 0usize;
            for b in (j..=i as usize).rev() {
                value = (value << 1) | exp.bit(b) as usize;
            }
            for _ in 0..width {
                k.sqr(acc.as_ref(), tmp.as_mut());
                std::mem::swap(&mut acc, &mut tmp);
            }
            k.mul(acc.as_ref(), table[value >> 1].as_ref(), tmp.as_mut());
            std::mem::swap(&mut acc, &mut tmp);
            i = j as isize - 1;
        }
        self.redc(acc.as_ref(), k)
    }

    /// Precomputes a fixed-base comb table for `base`, covering
    /// exponents up to `max_exp_bits` bits (rounded up to a multiple of
    /// `TEETH · BLOCKS` = 32). Exponentiations by this base then run
    /// through [`Montgomery::modexp_fixed`].
    ///
    /// The table is Lim and Lee's comb: `BLOCKS` tables of
    /// `2^TEETH − 1` residues each, whatever the width; see
    /// [`FixedBase`] for the layout.
    pub fn fixed_base(&self, base: &Ubig, max_exp_bits: usize) -> FixedBase {
        with_kernels!(self, &mut self.scratch(), |k| self.fixed_base_in(
            base,
            max_exp_bits,
            k
        ))
    }

    fn fixed_base_in<K: Kernels>(&self, base: &Ubig, max_exp_bits: usize, k: &mut K) -> FixedBase {
        let n = self.n;
        let spacing = max_exp_bits.div_ceil(TEETH * BLOCKS).max(1);
        let base_reduced = base.reduced(&self.modulus).into_owned();
        let mut table = vec![0u64; BLOCKS * PATTERNS * n];
        // The single-tooth entries: tooth i of block j is
        // base^(2^((BLOCKS·i + j) · spacing)), `spacing` squarings apart.
        let mut power = self.to_mont_limbs(&base_reduced, k);
        let mut tmp = k.elem(&[]);
        for row in 0..TEETH * BLOCKS {
            if row > 0 {
                for _ in 0..spacing {
                    k.sqr(power.as_ref(), tmp.as_mut());
                    std::mem::swap(&mut power, &mut tmp);
                }
            }
            let (i, j) = (row / BLOCKS, row % BLOCKS);
            let off = (j * PATTERNS + (1 << i) - 1) * n;
            table[off..off + n].copy_from_slice(power.as_ref());
        }
        // Every other pattern is its lowest tooth times the rest: two
        // smaller patterns, so one multiplication each.
        for block in table.chunks_exact_mut(PATTERNS * n) {
            for e in 1..=PATTERNS {
                let low = e & e.wrapping_neg();
                if low == e {
                    continue;
                }
                let (done, rest) = block.split_at_mut((e - 1) * n);
                let (a, b) = ((e ^ low) - 1, low - 1);
                k.mul(&done[a * n..][..n], &done[b * n..][..n], &mut rest[..n]);
            }
        }
        FixedBase {
            base: base_reduced,
            spacing,
            table,
        }
    }

    /// Fixed-base exponentiation `fb.base ^ exp mod m` from the
    /// precomputed comb: one column of `BLOCKS` table multiplications
    /// per `spacing` bits of the capacity, with a squaring between
    /// columns once the accumulator is past 1 — at most
    /// `max_exp_bits / TEETH` multiplications and `spacing − 1`
    /// squarings. Falls back to the generic ladder for exponents wider
    /// than the table.
    pub fn modexp_fixed(&self, fb: &FixedBase, exp: &Ubig) -> Ubig {
        let s = &mut self.scratch();
        with_kernels!(self, s, |k| self.modexp_fixed_in(fb, exp, k))
    }

    fn modexp_fixed_in<K: Kernels>(&self, fb: &FixedBase, exp: &Ubig, k: &mut K) -> Ubig {
        crate::stats::record_fixed_base_exp();
        if exp.is_zero() {
            return Ubig::one().rem(&self.modulus);
        }
        if exp.bit_len() > fb.max_exp_bits() {
            return self.modexp_in(&fb.base, exp, k);
        }
        if fb.base.is_zero() {
            return Ubig::zero();
        }
        let n = self.n;
        let mut acc = k.elem(&self.r1); // Montgomery form of 1
        let mut tmp = k.elem(&[]);
        let mut is_one = true;
        for t in (0..fb.spacing).rev() {
            if !is_one {
                k.sqr(acc.as_ref(), tmp.as_mut());
                std::mem::swap(&mut acc, &mut tmp);
            }
            for j in 0..BLOCKS {
                // Tooth i reads exponent bit (BLOCKS·i + j)·spacing + t.
                let mut e = 0usize;
                for i in 0..TEETH {
                    e |= (exp.bit((BLOCKS * i + j) * fb.spacing + t) as usize) << i;
                }
                if e == 0 {
                    continue;
                }
                let off = (j * PATTERNS + e - 1) * n;
                k.mul(acc.as_ref(), &fb.table[off..off + n], tmp.as_mut());
                std::mem::swap(&mut acc, &mut tmp);
                is_one = false;
            }
        }
        self.redc(acc.as_ref(), k)
    }
}

/// A precomputed fixed-base exponentiation table (see
/// [`Montgomery::fixed_base`]). Build once per long-lived base — the
/// protocol layer builds one for the group generator `g` — and reuse
/// for every `g^x`.
///
/// It is Lim and Lee's comb ("More Flexible Exponentiation with
/// Precomputation", CRYPTO '94) with `TEETH = 8` and `BLOCKS = 4`. An
/// exponent of capacity `32 · spacing` bits is read as `TEETH · BLOCKS`
/// rows of `spacing` bits; row `BLOCKS·i + j` is tooth `i` of block `j`.
/// Column `t` of block `j` gathers bit `t` of its block's `TEETH` rows
/// into one `TEETH`-bit pattern `e`, and one multiplication by block
/// `j`'s entry `e` applies them all. The table is `4 · 255` residues at
/// every capacity and width.
#[derive(Clone, Debug)]
pub struct FixedBase {
    /// The (reduced) base, kept for the oversized-exponent fallback.
    base: Ubig,
    /// Bits per row: `ceil(max_exp_bits / (TEETH · BLOCKS))`, at least 1.
    spacing: usize,
    /// `BLOCKS × (2^TEETH − 1) × n` limbs; entry `(j, e)` at offset
    /// `(j · (2^TEETH − 1) + e − 1) · n` is, in Montgomery form, the
    /// product over the set bits `i` of `e` of
    /// `base^(2^((BLOCKS·i + j) · spacing))`.
    table: Vec<u64>,
}

impl FixedBase {
    /// The base this table exponentiates.
    pub fn base(&self) -> &Ubig {
        &self.base
    }

    /// Exponent capacity in bits: `TEETH · BLOCKS · spacing`, at least
    /// what [`Montgomery::fixed_base`] was asked for.
    pub fn max_exp_bits(&self) -> usize {
        TEETH * BLOCKS * self.spacing
    }
}

impl Ubig {
    /// Modular exponentiation `self^exp mod m`.
    ///
    /// Uses Montgomery + sliding window for odd moduli and a plain
    /// square-and-multiply with division-based reduction otherwise.
    ///
    /// **Performance caveat:** every call builds a fresh [`Montgomery`]
    /// context, which costs two long divisions (`R mod m`, `R² mod m`)
    /// before any ladder step runs. Hot paths that exponentiate by the
    /// same modulus repeatedly should build one context and call
    /// [`Montgomery::modexp`] (or [`Montgomery::modexp_with`] /
    /// [`Montgomery::modexp_fixed`]) instead — that is what the
    /// protocol layer's `DhGroup` does.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    ///
    /// ```
    /// # use gkap_bignum::Ubig;
    /// let p = Ubig::from(1009u64);
    /// assert_eq!(Ubig::from(2u64).modexp(&Ubig::from(10u64), &p), Ubig::from(15u64));
    /// ```
    pub fn modexp(&self, exp: &Ubig, m: &Ubig) -> Ubig {
        assert!(!m.is_zero(), "modexp modulus must be non-zero");
        if m.is_one() {
            return Ubig::zero();
        }
        if let Some(ctx) = Montgomery::new(m) {
            return ctx.modexp(self, exp);
        }
        // Fallback for even moduli: left-to-right square and multiply.
        let mut acc = Ubig::one();
        let base = self.rem(m);
        for i in (0..exp.bit_len()).rev() {
            acc = acc.modmul(&acc, m);
            if exp.bit(i) {
                acc = acc.modmul(&base, m);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_or_tiny_modulus() {
        assert!(Montgomery::new(&Ubig::from(100u64)).is_none());
        assert!(Montgomery::new(&Ubig::one()).is_none());
        assert!(Montgomery::new(&Ubig::zero()).is_none());
        assert!(Montgomery::new(&Ubig::from(3u64)).is_some());
    }

    #[test]
    fn mont_mul_matches_naive() {
        let m = Ubig::from_hex("f6f33d0e9f7c9a1d62b7a8b3c4d5e6f7").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let a = Ubig::from_hex("123456789abcdef0123456789").unwrap();
        let b = Ubig::from_hex("fedcba98765432100fedcba98").unwrap();
        assert_eq!(ctx.mul(&a, &b), a.rem(&m).modmul(&b.rem(&m), &m));
    }

    #[test]
    fn mont_sqr_matches_mont_mul() {
        let m = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            .unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let mut s = ctx.scratch();
        let mut rng = crate::SplitMix64::new(0xdead);
        use crate::rng::RandomSource;
        for _ in 0..50 {
            let a = rng.next_ubig_in_range(&m);
            let am = ctx.to_mont(&a);
            let mut sq = am.clone();
            let mut prod = am.clone();
            ctx.mont_sqr(&am, &mut sq, &mut s);
            ctx.mont_mul(&am, &am, &mut prod, &mut s);
            assert_eq!(sq, prod);
            assert_eq!(ctx.from_mont(&sq), a.modmul(&a, &m));
        }
    }

    #[test]
    fn mont_roundtrip() {
        let m = Ubig::from_hex("f6f33d0e9f7c9a1d62b7a8b3c4d5e6f7").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        for v in [Ubig::zero(), Ubig::one(), Ubig::from(0xdeadbeefu64)] {
            assert_eq!(ctx.from_mont(&ctx.to_mont(&v)), v);
        }
        // Unreduced input is reduced on entry.
        let big = &m + &Ubig::from(5u64);
        assert_eq!(ctx.from_mont(&ctx.to_mont(&big)), Ubig::from(5u64));
    }

    #[test]
    fn modexp_small_cases() {
        let p = Ubig::from(1009u64);
        assert_eq!(Ubig::from(2u64).modexp(&Ubig::from(0u64), &p), Ubig::one());
        assert_eq!(Ubig::from(2u64).modexp(&Ubig::one(), &p), Ubig::from(2u64));
        assert_eq!(
            Ubig::from(2u64).modexp(&Ubig::from(10u64), &p),
            Ubig::from(1024u64 % 1009)
        );
        assert_eq!(Ubig::zero().modexp(&Ubig::from(5u64), &p), Ubig::zero());
        assert_eq!(
            Ubig::from(5u64).modexp(&Ubig::from(3u64), &Ubig::one()),
            Ubig::zero()
        );
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) == 1 mod p for prime p, a not divisible by p.
        let p = Ubig::from_hex("ffffffffffffffc5").unwrap(); // 2^64 - 59, prime
        let exp = &p - &Ubig::one();
        for a in [2u64, 3, 65537, 0xdeadbeef] {
            assert_eq!(Ubig::from(a).modexp(&exp, &p), Ubig::one(), "a = {a}");
        }
    }

    #[test]
    fn modexp_even_modulus_fallback() {
        let m = Ubig::from(100u64);
        assert_eq!(
            Ubig::from(7u64).modexp(&Ubig::from(13u64), &m),
            Ubig::from(7u64.pow(13) % 100)
        );
    }

    #[test]
    fn modexp_matches_fallback_on_odd_modulus() {
        // Cross-check Montgomery path against the naive path.
        let m = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb925").unwrap();
        let base = Ubig::from_hex("123456789abcdef").unwrap();
        let exp = Ubig::from_hex("fedcba9876543210f0f0f0f0").unwrap();
        assert_eq!(base.modexp(&exp, &m), naive_modexp(&base, &exp, &m));
    }

    #[test]
    fn fixed_base_matches_variable_base() {
        let m = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            .unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let g = Ubig::from(2u64);
        let fb = ctx.fixed_base(&g, m.bit_len());
        use crate::rng::RandomSource;
        let mut rng = crate::SplitMix64::new(7);
        for _ in 0..25 {
            let e = rng.next_ubig_in_range(&m);
            assert_eq!(ctx.modexp_fixed(&fb, &e), ctx.modexp(&g, &e));
        }
        // Edge exponents.
        assert_eq!(ctx.modexp_fixed(&fb, &Ubig::zero()), Ubig::one());
        assert_eq!(ctx.modexp_fixed(&fb, &Ubig::one()), g.rem(&m));
        // Wider than the table: falls back to the generic ladder.
        let wide = &Ubig::one() << (fb.max_exp_bits() + 5);
        assert_eq!(ctx.modexp_fixed(&fb, &wide), ctx.modexp(&g, &wide));
    }

    #[test]
    fn fixed_base_zero_and_degenerate_bases() {
        let m = Ubig::from_hex("f6f33d0e9f7c9a1d62b7a8b3c4d5e6f7").unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let fb0 = ctx.fixed_base(&Ubig::zero(), 64);
        assert_eq!(ctx.modexp_fixed(&fb0, &Ubig::from(9u64)), Ubig::zero());
        assert_eq!(ctx.modexp_fixed(&fb0, &Ubig::zero()), Ubig::one());
        let fb1 = ctx.fixed_base(&Ubig::one(), 64);
        assert_eq!(ctx.modexp_fixed(&fb1, &Ubig::from(1234u64)), Ubig::one());
    }

    #[test]
    fn dh_commutativity_512bit() {
        // The heart of every protocol in the paper: (g^a)^b == (g^b)^a.
        let p = Ubig::from_hex(
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
             020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437",
        )
        .unwrap(); // a 512-bit odd modulus (commutativity holds for any modulus)
        let g = Ubig::from(2u64);
        let a = Ubig::from_hex("deadbeefcafebabe0123456789abcdef").unwrap();
        let b = Ubig::from_hex("fedcba9876543210ffeeddccbbaa9988").unwrap();
        let ga = g.modexp(&a, &p);
        let gb = g.modexp(&b, &p);
        assert_eq!(ga.modexp(&b, &p), gb.modexp(&a, &p));
    }
    /// What a kernel holds before its conditional subtraction:
    /// `(a·b + u·m) / R` with `u = a·b·neg_inv mod R`.
    fn unreduced(a: &Ubig, b: &Ubig, m: &Ubig, r: &Ubig, neg_inv: &Ubig) -> Ubig {
        let ab = a * b;
        let u = (&ab.rem(r) * neg_inv).rem(r);
        (&ab + &(&u * m)).div_rem(r).0
    }

    /// `base^exp mod m` by left-to-right square-and-multiply over
    /// [`Ubig::modmul`].
    fn naive_modexp(base: &Ubig, exp: &Ubig, m: &Ubig) -> Ubig {
        let base = base.rem(m);
        let mut acc = Ubig::one().rem(m);
        for i in (0..exp.bit_len()).rev() {
            acc = acc.modmul(&acc, m);
            if exp.bit(i) {
                acc = acc.modmul(&base, m);
            }
        }
        acc
    }

    /// The kernels this context dispatches to against the slice
    /// kernels, on raw residues `a, b < m`; both against `modmul`.
    fn check_kernels(ctx: &Montgomery, a: &Ubig, b: &Ubig) {
        let m = ctx.modulus();
        let mut scratch = ctx.scratch();
        let slices = &mut Slices {
            ctx,
            s: &mut scratch,
        };
        let (x, y) = (slices.elem(&a.limbs), slices.elem(&b.limbs));
        let (mut mul, mut sqr) = (slices.elem(&[]), slices.elem(&[]));
        slices.mul(&x, &y, &mut mul);
        slices.sqr(&x, &mut sqr);
        let (mut got_mul, mut got_sqr) = (vec![0u64; ctx.n], vec![0u64; ctx.n]);
        with_kernels!(ctx, &mut ctx.scratch(), |k| {
            k.mul(&x, &y, &mut got_mul);
            k.sqr(&x, &mut got_sqr);
        });
        assert_eq!(
            (&got_mul, &got_sqr),
            (&mul, &sqr),
            "a={a:?} b={b:?} m={m:?}"
        );
        // out = a·b·R⁻¹ mod m, i.e. out·R ≡ a·b.
        let shift = 64 * ctx.n;
        assert_eq!((Ubig::from_limbs(mul) << shift).rem(m), a.modmul(b, m));
        assert_eq!((Ubig::from_limbs(sqr) << shift).rem(m), a.modmul(a, m));
    }

    fn check_inverse(a: &Ubig, m: &Ubig) {
        let inv = a.mod_inverse(m);
        assert_eq!(inv, a.mod_inverse_euclid(m), "a={a:?} m={m:?}");
        match inv {
            Some(inv) => {
                assert!(&inv < m);
                assert_eq!(a.modmul(&inv, m), Ubig::one());
            }
            None => assert!(m.bit_len() < 2 || a.rem(m).is_zero() || !a.gcd(m).is_one()),
        }
    }

    /// Every check of the differential test at one limb count.
    fn differential_at(limbs: usize, rng: &mut crate::SplitMix64) {
        use crate::rng::RandomSource;
        let bits = 64 * limbs;
        let r = &Ubig::one() << bits;
        let ones = &r - &Ubig::one();
        let three = Ubig::from(3u64);
        let mut top_set = rng.next_ubig_exact_bits(bits);
        top_set.set_bit(0, true);
        // Top limb 1: the unreduced result can never reach R.
        let mut low_top = rng.next_ubig_exact_bits(bits - 62);
        low_top.set_bit(0, true);
        let (mut saw_top_carry, mut saw_plain_subtraction) = (false, false);
        for (shape, m) in [top_set, ones.clone(), low_top].into_iter().enumerate() {
            let ctx = Montgomery::new(&m).unwrap();
            assert_eq!(ctx.n, limbs);
            // m = R - 1 makes (m-1)² come out as exactly R (top carry)
            // and 3 · m/3 as exactly m (subtraction on equality).
            let mut operands = vec![
                Ubig::zero(),
                Ubig::one(),
                &m - &Ubig::one(),
                ones.rem(&m),
                three.rem(&m),
                m.div_rem(&three).0,
            ];
            for _ in 0..if cfg!(miri) { 1 } else { 3 } {
                operands.push(rng.next_ubig_in_range(&m));
            }
            let neg_inv = &r - &m.mod_inverse(&r).unwrap(); // R is even: Euclid
            for a in &operands {
                for b in &operands {
                    check_kernels(&ctx, a, b);
                    let t = unreduced(a, b, &m, &r, &neg_inv);
                    saw_top_carry |= t >= r;
                    saw_plain_subtraction |= t >= m && t < r;
                }
            }

            let g = rng.next_ubig_in_range(&m);
            let table_bits = if cfg!(miri) { 72 } else { bits };
            // A comb is 4 · 255 residues whatever its capacity: under
            // Miri one modulus per width builds one.
            let table = (shape == 0 || !cfg!(miri)).then(|| ctx.fixed_base(&g, table_bits));
            let exps = [
                Ubig::zero(),
                Ubig::one(),
                Ubig::from(0xffffu64),
                rng.next_ubig_exact_bits(70),
                rng.next_ubig_exact_bits(table_bits),
                &Ubig::one() << (table_bits + 32), // wider than the table
            ];
            for e in &exps {
                let want = naive_modexp(&g, e, &m);
                assert_eq!(ctx.modexp(&g, e), want, "g={g:?} e={e:?} m={m:?}");
                assert_eq!(ctx.modexp(&(&g + &m), e), want, "unreduced base");
                if let Some(table) = &table {
                    assert_eq!(ctx.modexp_fixed(table, e), want, "g={g:?} e={e:?} m={m:?}");
                }
            }
            let (x, y) = (&operands[2], operands.last().unwrap());
            assert_eq!(ctx.mul(x, y), x.modmul(y, &m));
            assert_eq!(ctx.from_mont(&ctx.to_mont(y)), *y);

            // Inverses: odd m takes the binary path, m + 1 the Euclid.
            let even = &m + &Ubig::one();
            for a in &operands {
                check_inverse(a, &m);
                check_inverse(&(&(&m * &three) + a), &m); // a ≥ m, and a ≡ 0
                check_inverse(a, &even);
                check_inverse(&(&even + a), &even);
            }
            check_inverse(&three, &(&m * &three)); // odd modulus, gcd 3
        }
        assert!(saw_top_carry, "no operand pair reached t[n] != 0");
        assert!(saw_plain_subtraction, "no operand pair reached m <= t < R");
        for a in [Ubig::zero(), Ubig::one(), ones] {
            check_inverse(&a, &Ubig::zero());
            check_inverse(&a, &Ubig::one());
        }
    }

    /// The comb against the ladder at one width, for tables of each
    /// capacity: exponents 0, 1, all ones, exactly the capacity, one
    /// bit more (the ladder fallback) and random ones. Only the
    /// fallback runs the ladder.
    fn comb_matches_the_ladder_at(limbs: usize) {
        use crate::rng::RandomSource;
        let mut rng = crate::SplitMix64::new(0xc0b + limbs as u64);
        let mut m = rng.next_ubig_exact_bits(64 * limbs);
        m.set_bit(0, true);
        let ctx = Montgomery::new(&m).unwrap();
        let g = rng.next_ubig_in_range(&m);
        for bits in [1, 65, 100, 255, 64 * limbs] {
            let fb = ctx.fixed_base(&g, bits);
            let cap = fb.max_exp_bits();
            assert!(
                cap >= bits && cap < bits + 32 && cap.is_multiple_of(32),
                "{bits} → {cap}"
            );
            let mut exps = vec![
                Ubig::zero(),
                Ubig::one(),
                &(&Ubig::one() << cap) - &Ubig::one(),
                rng.next_ubig_exact_bits(cap),
                rng.next_ubig_exact_bits(cap + 1),
            ];
            for _ in 0..3 {
                exps.push(rng.next_ubig_below_bits(cap));
            }
            for e in &exps {
                let before = crate::stats::snapshot();
                let got = ctx.modexp_fixed(&fb, e);
                let ops = crate::stats::snapshot().since(&before);
                let want = crate::stats::uncounted(|| ctx.modexp(&g, e));
                assert_eq!(got, want, "{limbs} limbs, capacity {bits}, e={e:?}");
                assert_eq!(ops.modexp, u64::from(e.bit_len() > cap), "e={e:?}");
            }
        }
    }

    #[test]
    fn the_comb_matches_the_ladder_at_narrow_widths() {
        for limbs in [1, 2, 4] {
            comb_matches_the_ladder_at(limbs);
        }
    }

    // Minutes under Miri; the narrow widths run there.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn the_comb_matches_the_ladder_at_wide_widths() {
        for limbs in [8, 12, 16] {
            comb_matches_the_ladder_at(limbs);
        }
    }

    /// The comb squares only once its accumulator is past 1: exponent
    /// 1 takes one multiplication, all ones one per column and block
    /// and a squaring between columns.
    #[test]
    fn the_comb_squares_only_once_the_accumulator_is_past_one() {
        let m = Ubig::from_hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
            .unwrap();
        let ctx = Montgomery::new(&m).unwrap();
        let fb = ctx.fixed_base(&Ubig::from(2u64), m.bit_len());
        let cap = fb.max_exp_bits();
        let ones = &(&Ubig::one() << cap) - &Ubig::one();
        let spacing = cap / (TEETH * BLOCKS);
        for (e, mul, sqr) in [(Ubig::one(), 1, 0), (ones, cap / TEETH, spacing - 1)] {
            let before = crate::stats::snapshot();
            ctx.modexp_fixed(&fb, &e);
            let ops = crate::stats::snapshot().since(&before);
            // The `redc` is one more multiplication.
            assert_eq!((ops.mont_mul, ops.mont_sqr), (mul as u64 + 1, sqr as u64));
        }
    }

    /// A comb is `4 · 255` residues at every width, and at 8 and 16
    /// limbs no more than the 4-bit comb it replaced (`⌈bits/4⌉ · 15`).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn the_comb_table_is_4_times_255_residues_at_every_width() {
        use crate::rng::RandomSource;
        let mut rng = crate::SplitMix64::new(0x7ab1e);
        for limbs in [1, 2, 4, 8, 12, 16] {
            let bits = 64 * limbs;
            let mut m = rng.next_ubig_exact_bits(bits);
            m.set_bit(0, true);
            let ctx = Montgomery::new(&m).unwrap();
            let fb = ctx.fixed_base(&rng.next_ubig_in_range(&m), bits);
            assert_eq!(fb.table.len(), 4 * 255 * limbs, "{limbs} limbs");
            let four_bit_comb = bits.div_ceil(4) * 15 * limbs;
            if limbs == 8 || limbs == 16 {
                assert!(fb.table.len() <= four_bit_comb, "{limbs} limbs");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(if cfg!(miri) { 1 } else { 4 }))]

        /// The slice kernels and the Euclid are the oracle: at every
        /// limb count (the three instantiated ones, their neighbours,
        /// the 12- and 32-limb MODP widths) the dispatched kernels, the
        /// ladder, the fixed-base table and the inverse agree with
        /// them and with division-based arithmetic.
        #[test]
        fn fixed_width_kernels_match_the_slice_kernels(seed in proptest::any::<u64>()) {
            let mut rng = crate::SplitMix64::new(seed);
            for limbs in (1..=17).chain([32]) {
                differential_at(limbs, &mut rng);
            }
        }
    }
}
