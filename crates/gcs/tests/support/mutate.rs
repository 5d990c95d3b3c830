//! A deterministic mutator for hostile-bytes tests: each mutant is one
//! seed input changed by one to three bit flips, truncations or
//! splices with another seed, drawn from a fixed SplitMix64 stream, so
//! a failing mutant is reproduced by its index alone.
//!
//! Included by path (`#[path = ".../support/mutate.rs"] mod mutate;`)
//! wherever a parser is fed hostile bytes: `gkap-gcs`'s unit tests and
//! `tests/fec_resilience.rs`, and `gkap-bench`'s `tests/hostile_manifests.rs`.

use gkap_sim::{RandomSource, SplitMix64};

/// The first `count` mutants of `seeds` (which must not be empty).
pub fn mutants(seeds: &[Vec<u8>], count: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(0x6d75_7461_6e74_7321);
    // A draw in `0..bound` (0 when `bound` is 0).
    let mut below = |bound: usize| (rng.next_u64() % bound.max(1) as u64) as usize;
    (0..count)
        .map(|_| {
            let mut m = seeds[below(seeds.len())].clone();
            for _ in 0..=below(3) {
                match below(3) {
                    0 if !m.is_empty() => {
                        let bit = below(m.len() * 8);
                        m[bit / 8] ^= 1 << (bit % 8);
                    }
                    1 => m.truncate(below(m.len() + 1)),
                    _ => {
                        let other = &seeds[below(seeds.len())];
                        let from = below(other.len() + 1);
                        m.truncate(below(m.len() + 1));
                        m.extend_from_slice(&other[from..]);
                    }
                }
            }
            m
        })
        .collect()
}
